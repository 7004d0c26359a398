"""Command-line front end: run / sweep / compare / selftest.

Config files are flat ``key = value`` lines (``#`` comments, blank lines
allowed); sections are expressed with dotted keys, e.g.::

    optimizer.name = stable_spam
    quant.format = int4
    schedule.total_steps = 2000

The keys are the fields of the ``harness`` config dataclasses, named
``section.field`` (``seed`` at top level, ``quant.format`` for
``RunConfig.quant_format``). Each key's declaration gives the parser of its
value text (its default's type), the values it accepts and the parts of a
run that read it; a key set off its default that none of the run's parts
reads is a config error. Every key is optional; unset keys take the
documented defaults (Adam, no quantization, peak LR 1e-3). Unknown keys,
keys set twice and unparsable values are reported with the key name and
line number, a value outside its key's range with the key name.
``--seed`` replaces the file's ``seed`` in ``run``, ``sweep`` and
``compare`` alike, and ``--lr-grid`` sets a sweep's ``schedule.lr_peak``:
each flag's value is checked by its key's declaration and a bad one is
reported with the flag's name, before any run starts, so a config error
writes nothing.

``main`` returns the exit code of every outcome: 0 success or ``--help``, 1
config or usage error, 2 every run diverged, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
import traceback
from dataclasses import replace
from decimal import Decimal, InvalidOperation

from .harness import (ConfigError, RunConfig, atomic_write, run, run_grid,
                      sweep)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_INTERNAL = 3

# Fig-style LR grid presets: "wide" spans 1e-4..3e-3, "step" is 1e-4..9e-4
# in 2e-4 increments.
LR_GRID_PRESETS = {
    "wide": (1e-4, 3e-4, 1e-3, 3e-3),
    "step": (1e-4, 3e-4, 5e-4, 7e-4, 9e-4),
}
# The most points an ``a:b:step`` grid may have; each point is a whole run.
LR_GRID_MAX_POINTS = 1000


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def parse_config_text(text: str, origin: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    table = {key: (owner, f) for key, owner, f in cfg.keys()}
    seen = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in table:
            raise ConfigError(f"{origin}:{lineno}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"{origin}:{lineno}: '{key}' already set on "
                              f"line {seen[key]}")
        seen[key] = lineno
        owner, f = table[key]
        try:
            parsed = f.metadata["parse"](value)
        except ValueError:
            raise ConfigError(f"{origin}:{lineno}: bad value for '{key}': "
                              f"{value!r}") from None
        setattr(owner, f.name, parsed)
    cfg.validate()
    return cfg


def parse_lr_grid(text: str) -> list[float]:
    """``a:b:step`` inclusive grid, or a named preset.

    The bounds are parsed as decimals and each point is ``a + i*step`` in
    decimal arithmetic, rounded to float once, so ``1e-4:1e-3:2e-4`` gives
    exactly ``[1e-4, 3e-4, 5e-4, 7e-4, 9e-4]`` with no accumulated drift.
    A grid of more than ``LR_GRID_MAX_POINTS`` points is rejected before
    any point is computed.
    """
    if text in LR_GRID_PRESETS:
        return list(LR_GRID_PRESETS[text])
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--lr-grid expects 'a:b:step' or a preset name, "
                          f"got {text!r}")
    try:
        lo, hi, step = (Decimal(p) for p in parts)
    except InvalidOperation:
        raise ConfigError(f"--lr-grid: non-numeric bound in {text!r}") from None
    if not all(d.is_finite() for d in (lo, hi, step)) or step <= 0 or hi < lo:
        raise ConfigError(f"--lr-grid: bad range {text!r}")
    try:
        count = int((hi - lo) // step) + 1
    except InvalidOperation:  # the count exceeds decimal precision
        count = math.inf
    if count > LR_GRID_MAX_POINTS:
        raise ConfigError(f"--lr-grid: too many points in {text!r} "
                          f"(at most {LR_GRID_MAX_POINTS})")
    return [float(lo + i * step) for i in range(count)]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _flag_value(flag: str, key: str, value):
    """``value``, which ``flag`` sets as config key ``key``, if the key's
    declaration accepts it; a config error naming the flag if not."""
    field = next(f for k, _, f in RunConfig().keys() if k == key)
    message = field.metadata["fault"](value)
    if message:
        raise ConfigError(f"{flag}: {message}")
    return value


def _load_cfg(path: str | None, seed: int | None) -> RunConfig:
    """The config file at ``path`` (the defaults without one), read as UTF-8
    less any leading byte-order mark and checked as it is parsed, with
    ``--seed`` applied."""
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path, encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ConfigError(f"config file {path!r}: {reason}") from None
        cfg = parse_config_text(text, origin=path)
    if seed is None:
        return cfg
    return replace(cfg, seed=_flag_value("--seed", "seed", seed))


def cmd_run(args) -> int:
    cfg = _load_cfg(args.config, args.seed)
    path = os.path.join(args.out, "run.csv")
    result = run(cfg, records_path=path)
    final = result.final_val_loss
    print(f"steps: {len(result.records)}")
    print(f"diverged: {result.diverged}")
    print(f"final_val_loss: {'diverged' if final is None else repr(final)}")
    print(f"records: {path}")
    return EXIT_DIVERGED if result.diverged else EXIT_OK


def cmd_sweep(args) -> int:
    if args.jobs < 0:
        raise ConfigError(f"--jobs must be >= 0, got {args.jobs}")
    cfg = _load_cfg(args.config, args.seed)
    grid = [_flag_value("--lr-grid", "schedule.lr_peak", lr)
            for lr in parse_lr_grid(args.lr_grid)]
    jobs = args.jobs or os.cpu_count() or 1
    result = sweep(cfg, grid, out_dir=args.out, jobs=jobs)
    for entry in result.entries:
        shown = "diverged" if entry.final_loss is None else repr(entry.final_loss)
        print(f"lr={entry.lr!r}\tfinal_loss={shown}")
    print(f"best_lr: {result.best_lr}")
    return EXIT_OK if result.best_lr is not None else EXIT_DIVERGED


def _optimizer_label(cfg: RunConfig) -> str:
    name = cfg.optimizer.name
    if cfg.optimizer.transforms:
        name += "+" + "+".join(cfg.optimizer.transforms)
    return name


def compare_configs(cfgs: list[RunConfig]):
    """Check the configs differ only in the optimizer block."""
    def task(cfg):
        return {key: getattr(owner, f.name) for key, owner, f in cfg.keys()
                if not key.startswith("optimizer.")}

    reference = task(cfgs[0])
    for cfg in cfgs[1:]:
        other = task(cfg)
        bad = sorted(k for k in reference if reference[k] != other[k])
        if bad:
            raise ConfigError("compare configs may differ only in the "
                              f"optimizer block; diverging keys: {', '.join(bad)}")


def cmd_compare(args) -> int:
    if len(args.configs) < 2:
        raise ConfigError("compare needs at least two config files")
    cfgs = [_load_cfg(p, args.seed) for p in args.configs]
    compare_configs(cfgs)

    paths = [os.path.join(args.out, f"compare_run{i}.csv")
             for i in range(len(cfgs))]
    results = list(zip(cfgs, run_grid(cfgs, paths), paths))

    # Every run that did not diverge reaches the worst of their final losses.
    target = max((res.records[-1].loss for _, res, _ in results
                  if not res.diverged), default=None)

    rows = []
    for cfg, res, path in results:
        if res.diverged:
            final_train = final_val = "diverged"
            to_target = "n/a"
        else:
            final_train = repr(res.records[-1].loss)
            final_val = repr(res.final_val_loss)
            to_target = next(str(rec.step) for rec in res.records
                             if rec.loss <= target)
        rows.append((_optimizer_label(cfg), final_train, final_val,
                     to_target, path))

    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(("optimizer", "final_train_loss", "final_val_loss",
                     "steps_to_target", "records_path"))
    writer.writerows(rows)
    atomic_write(os.path.join(args.out, "compare.csv"), table.getvalue())
    print(table.getvalue(), end="")
    if all(res.diverged for _, res, _ in results):
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selftest  # loads the oracles, which only this command uses

    report = selftest.run_selftest()
    for name, ok, detail in report:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}"
              + (f" ({detail})" if detail else ""))
    failed = sum(1 for _, ok, _ in report if not ok)
    print(f"{len(report) - failed}/{len(report)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_INTERNAL


def _out_dir(text: str) -> str:
    """An ``--out`` path whose nearest existing ancestor, or itself, is a
    directory; anything else, a dangling symbolic link among them, is a
    usage error before any run starts."""
    path = os.path.abspath(text)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} is not a directory")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stablespam",
        description="Stable-SPAM optimizer experiments at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", default=None, help="config file path")
        p.add_argument("--out", type=_out_dir, default="out",
                       help="output directory")
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p_run = sub.add_parser("run", help="single training run")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="learning-rate sweep")
    common(p_sweep)
    p_sweep.add_argument("--lr-grid", default="step",
                         help="a:b:step or a preset: wide, step (default)")
    p_sweep.add_argument("--jobs", type=int, default=0,
                         help="parallel runs, capped at the grid size "
                              "(default: the CPU count)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="run configs differing only in optimizer")
    p_cmp.add_argument("configs", nargs="+", help="config files")
    common(p_cmp, config=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_self = sub.add_parser("selftest", help="run the built-in oracle suite")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error, which is this
        # CLI's code for "every run diverged"
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
