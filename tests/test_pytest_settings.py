"""The repository's pytest settings, run on a test file of their own."""

import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FAILING = textwrap.dedent("""
    from hypothesis import given, strategies as st


    @given(st.integers())
    def test_fails(n):
        assert n < 10


    def test_passes():
        pass
""")


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    """Under ``pyproject.toml``'s warnings filter, a failing ``@given`` test
    fails like any other test (exit 1, not pytest's internal-error exit 3)
    and prints its falsifying example, and the next test still runs."""
    (tmp_path / "test_fails.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
         "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "Falsifying example" in proc.stdout, proc.stdout[-3000:]
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-3000:]
