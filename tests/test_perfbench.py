"""Smoke test of the benchmark in ``perfbench/``.

Each case runs one workload for a single cycle on a copy of ``perfbench/``
and ``BENCHMARK.json`` whose ``src`` links to this checkout's package, so
the benchmark writes nothing into the checkout. The benchmark itself checks
every run's CSV against the committed digests and, traced, the span counts
of every symbol its tracer and microbenchmarks bind.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# Traced, a workload also checks its span counts: 3 matmuls per quadratic
# step, 15 matmuls and 8 qdq per MLP forward-backward. ``lr_grid`` checks
# the digests of the sweep path.
@pytest.mark.parametrize("workload, trace", [("quadratic_all_opt", "1"),
                                             ("mlp_int4_spike", "0"),
                                             ("mlp_int4_spike", "1"),
                                             ("lr_grid", "0")])
def test_workload_runs_correct(workload, trace, tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", trace],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
    assert result["failed"] == 0
    assert result["attempted"] > 0
