"""Benchmark for the stablespam training testbed.

    python3 perfbench/run.py --workload mlp_int4_spike --seed 0 --seconds 20 --trace 0

Imports ``stablespam`` from ``src/`` of the checkout that holds this file
and drives it as a library from one process: one caller, serial, a closed
loop that starts each run when the previous one returns. ``--trace 0``
measures the end-to-end metrics for ``--seconds`` seconds; ``--trace 1``
runs the workload untraced (at least one full cycle and a quarter of
``--seconds``), then traced with the same jobs, then the
microbenchmarks, and reports the per-layer metrics. ``--workload all`` runs
every workload in both modes, each in its own process. Human-readable
tables go to stdout; the last line is one JSON object. Every run's CSV is
digested and checked; details and the environment go to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import replace
from pathlib import Path

import spans
from probe import INTERVAL_S, REF_US, Probe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_REPS = 15
WARMUP_STEPS = 20
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_package():
    """Import ``stablespam`` afresh from this checkout."""
    for name in [n for n in sys.modules
                 if n == "stablespam" or n.startswith("stablespam.")]:
        del sys.modules[name]
    ss = importlib.import_module("stablespam")
    if not Path(ss.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"stablespam imported from {ss.__file__}, not {SRC}")
    return ss


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unknown"


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(), "cpu_affinity": affinity,
            "platform": platform.platform(), "git_revision": git_revision(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "loadavg_start": loadavg()}


# ---------------------------------------------------------------------------
# Running jobs and checking their CSVs
# ---------------------------------------------------------------------------

class Checker:
    """Counts runs and failures. A run fails if it raises, or if its CSV
    digest differs from the committed one or from an earlier run of the same
    job in this process (which includes untraced vs traced)."""

    def __init__(self, committed: dict):
        self.committed = committed
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def fail(self, runs: int, message: str) -> None:
        self.failed += runs
        self.correct = False
        self.problems.append(message)
        print(f"FAILED: {message}", file=sys.stderr)

    def check(self, key: str, digest: str) -> None:
        expected = self.committed.get(key)
        if expected is not None and digest != expected:
            self.fail(1, f"{key}: CSV digest {digest[:12]} != committed {expected[:12]}")
        elif self.seen.setdefault(key, digest) != digest:
            self.fail(1, f"{key}: CSV digest {digest[:12]} != earlier run "
                         f"{self.seen[key][:12]}")


class Pass:
    """Totals of one measured loop."""

    def __init__(self):
        self.steps = 0
        self.diverged_steps = 0
        self.units = 0


def execute(ss, job, csv_dir: Path, checker: Checker, totals: Pass) -> None:
    runs = len(job.keys)
    checker.attempted += runs
    try:
        if job.kind == "run":
            path = csv_dir / "run.csv"
            ss.harness.run(job.cfg, records_path=str(path))
            paths = [path]
        else:
            result = ss.harness.sweep(job.cfg, job.lrs, out_dir=str(csv_dir),
                                      jobs=1)
            paths = [Path(e.records_path) for e in result.entries]
    except Exception:
        checker.fail(runs, f"{job.keys[0]}: raised\n{traceback.format_exc()}")
        return
    for key, path in zip(job.keys, paths):
        data = path.read_bytes()
        path.unlink()
        rows = data.count(b"\n") - 1
        totals.steps += rows
        if data.endswith(b",1\n"):
            totals.diverged_steps += rows
        checker.check(key, hashlib.sha256(data).hexdigest())


def measure(ss, workload, csv_dir, checker, seconds=0.0, min_units=1) -> Pass:
    """Run units of the cycle, in order, until at least ``min_units`` have
    run and ``seconds`` have passed."""
    totals = Pass()
    start = time.perf_counter()
    while totals.units < min_units or time.perf_counter() - start < seconds:
        for job in workload.cycle[totals.units % len(workload.cycle)]:
            execute(ss, job, csv_dir, checker, totals)
        totals.units += 1
    return totals


class StepClock:
    """Times consecutive ``on_step`` callbacks and whole runs, running the
    host speed probe every ``probe.INTERVAL_S``; probe time is left out of
    both. A step is scaled by the mean of the probes just before and just
    after it, a run by its steps' time-weighted scale."""

    def __init__(self, host):
        self.host = host
        # Scaled step times. float32 in an array keeps memory flat: a run
        # records up to ~10^5 steps, and their growth would show in
        # peak_rss_mb.
        self.step_ms = array("f")
        self.runs: list[tuple[int, float, float]] = []  # steps, raw s, scaled s
        self._raw: list[tuple[float, int]] = []  # this run: ms, last probe before
        self.last = None
        self.last_probe = 0.0
        self.probe_s = 0.0
        self.probe_in_runs_s = 0.0

    def _probe(self):
        self.probe_s += self.host.measure()
        self.last_probe = time.perf_counter()

    def on_step(self, step, grads_pre, grads_post):
        now = time.perf_counter()
        if self.last is not None:
            self._raw.append(((now - self.last) * 1e3,
                              len(self.host.samples_us) - 1))
        if now - self.last_probe >= INTERVAL_S:
            self._probe()
        self.last = time.perf_counter()

    def run(self, original, cfg, records_path):
        self._probe()
        probes = self.host.samples_us
        first_probe = len(probes) - 1
        self._raw.clear()
        self.last, self.probe_s = None, 0.0
        t0 = time.perf_counter()
        result = original(cfg, records_path=records_path, on_step=self.on_step)
        raw = time.perf_counter() - t0 - self.probe_s
        self.probe_in_runs_s += self.probe_s
        self._probe()
        raw_ms = scaled_ms = 0.0
        for ms, k in self._raw:
            scaled = ms * 2 * REF_US / (probes[k] + probes[k + 1])
            self.step_ms.append(scaled)
            raw_ms += ms
            scaled_ms += scaled
        if raw_ms > 0:
            scale = scaled_ms / raw_ms
        else:
            scale = REF_US / statistics.median(probes[first_probe:])
        self.runs.append((len(result.records), raw, raw * scale))
        return result


def clocked(ss, clock: StepClock):
    """Install a ``harness.run`` that runs under ``clock``; sweeps look
    ``run`` up on the module, so their runs are timed too. Returns undo."""
    original = ss.harness.run

    def run(cfg, records_path=None, on_step=None):
        return clock.run(original, cfg, records_path)

    ss.harness.run = run
    return lambda: setattr(ss.harness, "run", original)


def clocked_measure(ss, workload, csv_dir, checker, clock, min_units, seconds=0.0):
    undo = clocked(ss, clock)
    try:
        return measure(ss, workload, csv_dir, checker, seconds, min_units)
    finally:
        undo()


def warm_up(ss, workload, csv_dir) -> None:
    """A short run of the first job, so lazy set-up is not timed."""
    cfg = workload.cycle[0][0].cfg
    cfg = replace(cfg, schedule=replace(cfg.schedule, total_steps=WARMUP_STEPS,
                                        warmup_steps=2))
    ss.harness.run(cfg, records_path=str(csv_dir / "warmup.csv"))


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

def setup_run(ss, np, cfg) -> None:
    """The set-up ``harness.run`` does before its first step."""
    cfg.validate()
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng = np.random.Generator(np.random.PCG64(seeds[0]))
    m = cfg.model
    if m.kind == "quadratic":
        ss.models.make_quadratic(m.quad_dim, init_rng)
    else:
        ss.models.init_mlp(m.input_dim, m.hidden_dim, m.depth, m.classes,
                           init_rng, quant=cfg.quant_spec())
        ss.models.make_dataset(cfg.data.samples, m.input_dim, m.classes,
                               cfg.seed)
    ss.harness.make_optimizer(cfg.optimizer)


def measure_setup(build, seed, np, host):
    """Import the package afresh, then set up every run of the workload;
    repeated ``SETUP_REPS`` times. Returns (raw seconds per rep, scaled
    seconds per rep, package)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        host.measure()
        host.measure()
        t0 = time.perf_counter()
        ss = import_package()
        spent = time.perf_counter() - t0
        cfgs = [cfg for unit in build(ss, seed).cycle for job in unit
                for cfg in job.run_configs()]
        t0 = time.perf_counter()
        for cfg in cfgs:
            setup_run(ss, np, cfg)
        spent += time.perf_counter() - t0
        host.measure()
        host.measure()
        gc.collect()  # frees the previous import, so peak_rss_mb does not
        # depend on when the collector happens to run
        raw.append(spent)
        scaled.append(spent * REF_US / statistics.median(host.samples_us[-4:]))
    return raw, scaled, ss


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------

def metric(value, unit, n, note=""):
    return {"value": value, "unit": unit, "n": n, "note": note}


def percentiles(values):
    """(p50, p95) of a sample."""
    if len(values) < 2:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=20)[18]


def end_to_end(ss, np, build, args, csv_dir, checker, host):
    """Metrics scaled to reference speed (see probe.py); the raw figures go
    to the table and the results file."""
    setup_raw, setup_scaled, ss = measure_setup(build, args.seed, np, host)
    workload = build(ss, args.seed)
    clock = StepClock(host)
    warm_up(ss, workload, csv_dir)
    clocked_measure(ss, workload, csv_dir, checker, clock, 1, args.seconds)
    if not clock.step_ms:
        raise RuntimeError("no step intervals were recorded")
    steps = sum(n for n, _, _ in clock.runs)
    raw_s = sum(t for _, t, _ in clock.runs)
    scaled_s = sum(t for _, _, t in clock.runs)
    p50, p95 = percentiles(clock.step_ms)
    n_steps = len(clock.step_ms)
    n_runs = len(clock.runs)
    probe_p50 = statistics.median(host.samples_us)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "steps_per_s": metric(steps / scaled_s, "1/s", steps,
                              f"steps in {n_runs} runs; raw {steps / raw_s:.1f}"),
        "step_ms_p50": metric(p50, "ms", n_steps, "step intervals"),
        "step_ms_p95": metric(p95, "ms", n_steps, "step intervals"),
        "setup_s": metric(statistics.median(setup_scaled), "s", SETUP_REPS,
                          f"set-ups of {sum(len(j.run_configs()) for u in workload.cycle for j in u)} runs each; "
                          f"raw {statistics.median(setup_raw):.4f}"),
        "peak_rss_mb": metric(rss_mb, "MB", 1, "process peak resident set"),
        "host_probe_us": metric(probe_p50, "us", len(host.samples_us),
                                f"probe median; reference {REF_US}"),
    }, {"setup_raw": setup_raw, "setup_scaled": setup_scaled,
        "probe_us_quartiles": statistics.quantiles(host.samples_us, n=4)}


def repeat_frac(keys):
    return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0


def per_layer(ss, args, build, csv_dir, checker, micro, host):
    workload = build(ss, args.seed)
    warm_up(ss, workload, csv_dir)
    # At least one full cycle, so every job is traced and checked. Both
    # passes run under a StepClock, so their times can be scaled alike.
    plain_clock, traced_clock = StepClock(host), StepClock(host)
    plain = clocked_measure(ss, workload, csv_dir, checker, plain_clock,
                            len(workload.cycle), args.seconds / 4)
    tracer = spans.Tracer(ss)
    tracer.install()
    try:
        traced = clocked_measure(ss, workload, csv_dir, checker, traced_clock,
                                 plain.units)
    finally:
        tracer.remove()
    calls, self_s, total_s, violations = spans.analyse(
        tracer, workload.expected_children)
    # Probes inside runs ran within harness.run spans; they are not its work.
    self_s[spans.RUN] -= traced_clock.probe_in_runs_s
    total_s -= traced_clock.probe_in_runs_s
    if violations:
        checker.fail(0, f"{len(violations)} span count checks failed, first: "
                        f"{violations[0]}")
    steps = traced.steps
    out = {}
    layer_share = dict.fromkeys(("tensor_core", "quant", "models", "optim",
                                 "harness"), 0.0)
    for label in spans.TARGETS:
        share = self_s[label] / total_s
        layer_share[label.split(".")[0]] += share
        out[f"{label}.calls_per_step"] = metric(calls[label] / steps, "1/step",
                                                calls[label], "calls")
        out[f"{label}.self_s"] = metric(self_s[label], "s", calls[label], "calls")
        out[f"{label}.share"] = metric(share, "frac", calls[label], "calls")
        out[f"{label}.errors"] = metric(tracer.errors[label], "count",
                                        calls[label], "calls")
    for layer, share in layer_share.items():
        out[f"layer.{layer}.share"] = metric(share, "frac", len(tracer.label),
                                             "spans")
    plain_s = sum(t for _, _, t in plain_clock.runs)
    traced_s = sum(t for _, _, t in traced_clock.runs)
    out["trace_overhead_frac"] = metric(
        traced_s / plain_s - 1.0, "frac", steps,
        f"untraced {plain.steps / plain_s:.1f} steps/s at reference speed")
    for label, keys in tracer.keys.items():
        out[f"{label}.repeat_frac"] = metric(repeat_frac(keys), "frac", len(keys),
                                             "calls")
    out["harness.diverged_steps_frac"] = metric(
        traced.diverged_steps / steps, "frac", steps, "steps")
    bindings = tracer.bindings
    del tracer  # free the spans before the microbenchmarks
    for name, (med, iqr, n) in micro.run(ss, args.seed, host).items():
        out[name] = metric(med, "us", n, f"calls; IQR {iqr:.3f} us")
    return out, bindings


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in both modes, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0:
                print(f"{name} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true",
                        help="record this run's CSV digests as the committed ones")
    args = parser.parse_args(argv)

    if not (SRC / "stablespam" / "__init__.py").is_file():
        print(f"error: no stablespam package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    for var in THREAD_VARS:  # before numpy loads its BLAS
        os.environ.setdefault(var, "1")
    import numpy as np

    import micro

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    build = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    ss = import_package()
    env = environment(np)
    committed = {} if args.update_digests else \
        json.loads(DIGESTS.read_text()).get(args.workload, {})
    checker = Checker(committed)
    csv_dir = OUT / "csv" / args.workload
    csv_dir.mkdir(parents=True, exist_ok=True)

    bindings = raw = None
    if args.trace:
        metrics, bindings = per_layer(ss, args, build, csv_dir, checker,
                                      micro, Probe(np))
    else:
        metrics, raw = end_to_end(ss, np, build, args, csv_dir, checker,
                                  Probe(np))
    env["loadavg_end"] = loadavg()

    fail_frac = checker.failed / checker.attempted
    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  "
          f"seconds={args.seconds:g}  rev={env['git_revision'][:12]}  "
          f"python={env['python']} numpy={env['numpy']}  nproc={env['nproc']}  "
          f"load {env['loadavg_start']} -> {env['loadavg_end']}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} n={m['n']} {m['note']}")
    print(f"  {'fail_frac':<48} {fail_frac:>14.6g} {'frac':<6} "
          f"n={checker.attempted} runs ({checker.failed} failed)")
    for problem in checker.problems:
        print(f"  problem: {problem}")

    if args.update_digests and not checker.failed:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        table.setdefault(args.workload, {}).update(checker.seen)
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    names = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    reported = {m["name"]: {"value": metrics[m["name"]]["value"],
                            "unit": metrics[m["name"]]["unit"]} for m in names}
    result = {"correct": checker.correct, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": reported}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, environment=env,
                  all_metrics=metrics, fail_frac=fail_frac,
                  problems=checker.problems, digests=checker.seen,
                  trace_bindings=bindings, raw=raw)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
