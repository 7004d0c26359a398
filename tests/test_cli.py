import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablespam import cli, harness, optim, selftest
from stablespam.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main,
                            parse_config_text, parse_lr_grid)
from stablespam.harness import (ModelConfig, OptimizerConfig, RunConfig,
                                ScheduleConfig, SweepResult, run, run_grid)
from stablespam.optim import ConfigError
from tasks import (DIVERGES, OWN, config_text, key_values, run_python,
                   set_key, small_cfg)


def write_cfg(tmp_path, name, keys=()):
    """A config file of the small MLP, 30 steps, with ``keys`` set."""
    path = tmp_path / name
    path.write_text(config_text(small_cfg({
        "schedule.total_steps": 30, "schedule.warmup_steps": 3, **dict(keys)})))
    return str(path)


KEYS = {key: field for key, _, field in RunConfig().keys()}


def outside(field):
    """Values a key must reject: just past each finite bound and beyond it,
    NaN and +-inf for a float, or a word that is not one of its choices."""
    accepts = field.metadata["accepts"]
    if isinstance(accepts, tuple):
        word = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1,
                       max_size=12).filter(lambda w: w not in accepts)
        if field.type == "list[str]":
            return word.map(lambda w: [w]) | st.sampled_from(accepts).map(
                lambda c: [c, c])
        return word
    lo, hi = (float(bound) for bound in accepts[1:-1].split(","))
    below_closed, above_closed = accepts[0] == "[", accepts[-1] == "]"
    if field.type == "int":
        return st.integers(max_value=int(lo) - 1 if below_closed else int(lo))
    values = st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(
        max_value=lo, exclude_max=below_closed, allow_nan=False)
    if hi < math.inf:
        values |= st.floats(min_value=hi, exclude_min=above_closed,
                            allow_nan=False)
    return values


def why(key, value):
    """The message that refuses ``key`` set to a value ``outside`` draws."""
    accepts = KEYS[key].metadata["accepts"]
    entry = value[0] if isinstance(value, list) else value
    if isinstance(accepts, str):
        return f"{key}: {value!r} is outside {accepts}"
    if value == [entry, entry]:
        return f"{key}: duplicate transform in {value}"
    return f"{key}: unknown value {entry!r}; choose from {', '.join(accepts)}"


# A refusal's directory "{d}": configs that differ in the optimizer only,
# what --out cannot be or lie under (a file "f", a dangling link "link") and
# what --config cannot read (a directory "dir.cfg", a file not in UTF-8).
STAGE = {"a.cfg": b"schedule.total_steps = 3\n",
         "b.cfg": b"schedule.total_steps = 3\noptimizer.name = sgd\n",
         "f": b"not a directory\n", "latin1.cfg": b"seed = 1\n\xff\n"}
# The three commands that write under --out, each reading the config "%s".
WRITING = {"run": "run --config %s",
           "sweep": "sweep --config %s --lr-grid 0.001:0.002:0.001",
           "compare": "compare %s {d}/b.cfg"}
RUN = "run --config {d}/c.cfg --out {d}/o"

# Every input the CLI refuses, by id: (the message; the config "{d}/c.cfg",
# as text or as keys that the library refuses too; the arguments).
REFUSALS = {
    # The parser names the file and the line.
    "unknown-key": ("{d}/c.cfg:3: unknown key 'optimizzer.name'",
                    "\n\noptimizzer.name = adam\n"),
    "unparsable-value": ("{d}/c.cfg:1: bad value for 'schedule.total_steps':"
                         " 'many'", "schedule.total_steps = many"),
    "key-set-twice": ("{d}/c.cfg:2: 'seed' already set on line 1",
                      "seed = 1\nseed = 2"),
    "no-equals": ("{d}/c.cfg:1: expected 'key = value', got 'just some words'",
                  "just some words"),
    # A value off its key's range or choices, as TestKeys' hypothesis draws.
    **{f"{key}={value!r}".replace(" ", ""): (why(key, value), {key: value})
       for key, value in (
           ("quant.format", "int5"), ("optimizer.transforms", ["sparsify"]),
           ("optimizer.transforms", ["adagn", "adagn"]), ("seed", -1),
           ("optimizer.grad_clip", -1.0), ("optimizer.gamma1", 1.0),
           ("optimizer.gamma3", 1.0), ("optimizer.gss_threshold", -1.0),
           ("optimizer.adafactor_d", 0.0), ("optimizer.beta2", 1.0),
           ("schedule.lr_peak", math.nan), ("schedule.lr_peak", math.inf),
           ("spike.severity", math.inf), ("schedule.total_steps", 0),
           ("model.input_dim", 0), ("model.hidden_dim", 0), ("model.depth", 0),
           ("model.quad_dim", 0), ("model.classes", 1), ("optimizer.eps", 0.0),
           ("optimizer.reset_interval", -5), ("optimizer.lion_beta1", 2.0),
           ("optimizer.spam_warmup_steps", -3))},
    # A value of another type, which no config file holds.
    **{f"{key}={value!r}": (f"{key}: {value!r} is not {named}", {key: value},
                            None) for key, value, named in (
        ("schedule.total_steps", 2.5, "an int"), ("seed", 1.5, "an int"),
        ("data.batch_size", 4.0, "an int"), ("model.depth", True, "an int"),
        ("schedule.lr_peak", "0.1", "a float"),
        ("optimizer.transforms", "adagn", "a list"))},
    # Values each key takes alone but not with the rest of the config.
    **{f"{key}-{value}": (f"{key}: adam on the quadratic model does not read "
                          "it (read by mlp)", {"model.kind": "quadratic",
                                               key: value})
       for key, value in (("quant.format", "int4"), ("spike.probability", 0.1),
                          ("spike.severity", 0.5), ("model.input_dim", 6),
                          ("data.samples", 64))},
    "model.quad_dim-4": ("model.quad_dim: adam on the mlp model does not read"
                         " it (read by quadratic)", {"model.quad_dim": 4}),
    **{f"spike.{key}-{value}-alone": (f"spike.{key}: {value} injects nothing"
                                      f" while spike.{other} is 0",
                                      {f"spike.{key}": value})
       for key, value, other in (("probability", 0.1, "severity"),
                                 ("severity", 0.5, "probability"))},
    "schedule.warmup_steps-above-total_steps": (
        "schedule.warmup_steps: must be <= schedule.total_steps",
        {"schedule.total_steps": 10, "schedule.warmup_steps": 11}),
    # A transform list is the listed transforms, then the optimizer's own.
    **{f"{name}-{kind}": ("optimizer.transforms: " + (
        f"spike_clip needs a second moment, which {base} does not keep"
        if base else f"duplicate transform in {[kind, *OWN[name]]}"),
        {"optimizer.name": name, "optimizer.transforms": [kind]})
       for name, kind, base in (
           ("stable_spam", "adaclip", ""), ("stable_spam", "adagn", ""),
           ("spam", "spike_clip", ""), ("adam_gradclip", "grad_clip", ""),
           ("sgd", "spike_clip", "SgdBase"),
           ("lion", "spike_clip", "LionBase"),
           ("adafactor", "spike_clip", "AdafactorBase"),
           ("adam_mini", "spike_clip", "AdamMiniBase"))},
    # The global clip's threshold, where no global clip runs.
    **{f"optimizer.grad_clip-{name}": (
        f"optimizer.grad_clip: {name} on the mlp model does not read it "
        "(read by grad_clip)", {"optimizer.name": name,
                                "optimizer.grad_clip": 0.5})
       for name in ("adam", "stable_spam")},
    # Flags: argparse rejects what does not parse, the commands the rest.
    "bad-seed": ("stablespam run: error: argument --seed: invalid int value: "
                 "'abc'", None, "run --seed abc --out {d}/o"),
    "unknown-flag": ("stablespam: error: unrecognized arguments: "
                     "--frobnicate", None, "run --frobnicate --out {d}/o"),
    "unknown-command": ("stablespam: error: argument command: invalid "
                        "choice: 'frobnicate' (choose from 'run', 'sweep', "
                        "'compare', 'selftest')", None, "frobnicate"),
    **{f"{cmd}-{name}": (error.replace("{cmd}", cmd), None,
                         WRITING[cmd] % config + " " + flags)
       for cmd in WRITING for name, config, flags, error in (
           *((f"out-{under}{name}", "{d}/a.cfg", f"--out {{d}}/{path}{sub}",
              "stablespam {cmd}: error: argument --out: {d}/%s is not a "
              "directory" % path)
             for name, path in (("file", "f"), ("dangling-link", "link"))
             for under, sub in (("", ""), ("under-", "/sub"))),
           ("negative-seed", "{d}/a.cfg", "--seed -1 --out {d}/o",
            "--seed: -1 is outside [0, inf)"),
           ("config-missing", "{d}/nope.cfg", "--out {d}/o",
            "config file '{d}/nope.cfg': No such file or directory"),
           ("config-directory", "{d}/dir.cfg", "--out {d}/o",
            "config file '{d}/dir.cfg': Is a directory"),
           ("config-not-utf-8", "{d}/latin1.cfg", "--out {d}/o",
            "config file '{d}/latin1.cfg': 'utf-8' codec can't decode byte "
            "0xff in position 9: invalid start byte"))},
    "negative-jobs": ("--jobs must be >= 0, got -1", None,
                      "sweep --jobs -1 --out {d}/o"),
    "negative-lr": ("--lr-grid: -0.001 is outside (0, inf)", None,
                    "sweep --config {d}/a.cfg --lr-grid=-1e-3:2e-3:1e-3 "
                    "--jobs 2 --out {d}/o"),
    **{f"lr-grid-{grid}": ("--lr-grid" + says % repr(grid), None,
                           f"sweep --config {{d}}/a.cfg --lr-grid {grid} "
                           "--out {d}/o") for grid, says in (
        ("1:2", " expects 'a:b:step' or a preset name, got %s"),
        ("a:b:c", ": non-numeric bound in %s"),
        *((grid, ": bad range %s")
          for grid in ("3:1:1", "1:2:0", "nan:1:1", "1:inf:1")),
        *((grid, ": too many points in %s (at most 1000)")
          for grid in ("1:2:1e-400", "1e-9:1:1e-9")))},
    "compare-non-optimizer-keys": (
        "compare configs may differ only in the optimizer block; diverging "
        "keys: quant.format, seed",
        "schedule.total_steps = 3\nseed = 3\nquant.format = int4\n",
        "compare {d}/a.cfg {d}/c.cfg --out {d}/o"),
    "compare-one-config": ("compare needs at least two config files", None,
                           "compare {d}/a.cfg --out {d}/o"),
}


def refused(error, config=None, argv=RUN):
    """``stablespam argv`` exits 1, changes nothing in a new directory "{d}"
    of ``STAGE`` and ``config``, and prints ``error`` after "config error: ",
    or after argparse's usage where ``error`` names the program. A dict
    ``config`` sets keys of ``small_cfg``, which ``validate``, ``run`` and
    ``run_grid`` refuse with ``error``: all that is checked without ``argv``."""
    if isinstance(config, dict):
        cfg = small_cfg(config)
        for call in (RunConfig.validate, run, lambda cfg: run_grid([cfg])):
            with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
                call(cfg)
        config = config_text(cfg)
    if argv is None:
        return
    with tempfile.TemporaryDirectory() as d:
        for name, data in {**STAGE, "c.cfg": (config or "").encode()}.items():
            Path(d, name).write_bytes(data)
        os.mkdir(os.path.join(d, "dir.cfg"))
        os.symlink(os.path.join(d, "nowhere"), os.path.join(d, "link"))
        tree = lambda: {path: path.is_file() and path.read_bytes()  # noqa: E731
                        for path in Path(d).rglob("*")}
        before, err = tree(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([arg.replace("{d}", d) for arg in argv.split()])
        assert tree() == before
    lines = err.getvalue().replace(d, "{d}").splitlines()
    usage = error.startswith("stablespam")  # after argparse's usage
    assert code == EXIT_CONFIG
    assert lines[-1] == ("" if usage else "config error: ") + error
    assert (len(lines) > 1) == usage == lines[0].startswith("usage: stablespam")


class TestRefusals:
    @pytest.mark.parametrize("row", REFUSALS)
    def test_row(self, row):
        refused(*REFUSALS[row])

    def test_every_refusal_has_a_row(self):
        """Under a line tracer, the rows run every ``raise ConfigError`` in
        ``cli.py``, ``harness.py`` and ``optim.py`` but two that ``validate``
        preempts (see ``test_make_optimizer_unknown_name``, ``TestCompose``)."""
        sites, ran = {(module.__file__, number): line.split("ConfigError(")[1]
                      for module in (cli, harness, optim)
                      for number, line in enumerate(
                          Path(module.__file__).read_text().splitlines(), 1)
                      if line.lstrip().startswith("raise ConfigError(")}, set()

        def trace(frame, event, arg):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return trace

        with contextlib.ExitStack() as restore:
            restore.callback(sys.settrace, sys.gettrace())
            sys.settrace(trace)
            for row in REFUSALS.values():
                refused(*row)
        assert {sites[site] for site in sites.keys() - ran} == {
            "f\"optimizer.name: unknown value '{ocfg.name}'\")",
            "f\"unknown transform '{kind}'\")"}


class TestParseConfig:
    def test_empty_gives_documented_defaults(self):
        cfg = parse_config_text("")
        assert cfg.optimizer.name == "adam"
        assert cfg.quant_format == "none"
        assert cfg.schedule.lr_peak == 1e-3
        assert cfg.seed == 0

    def test_stable_spam_defaults(self):
        cfg = parse_config_text("optimizer.name = stable_spam")
        o = cfg.optimizer
        assert (o.gamma1, o.gamma2, o.gamma3) == (0.7, 0.9, 0.999)
        assert o.reset_interval == 1000
        assert (o.beta1, o.beta2, o.eps) == (0.9, 0.999, 1e-6)

    def test_spam_defaults(self):
        cfg = parse_config_text("optimizer.name = spam")
        o = cfg.optimizer
        assert o.gss_threshold == 5000.0
        assert o.spam_reset_interval == 500
        assert o.spam_warmup_steps == 150

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# header\n\nseed = 7  # trailing\n")
        assert cfg.seed == 7

    def test_transforms_list(self):
        cfg = parse_config_text("optimizer.transforms = adaclip, adagn")
        assert cfg.optimizer.transforms == ["adaclip", "adagn"]

    def test_bad_quant_format_names_key(self):
        with pytest.raises(ConfigError, match=r"quant\.format.*int5"):
            parse_config_text("quant.format = int5")



class TestKeys:
    def test_keys_are_the_declared_fields(self):
        assert set(KEYS) == {
            "seed", "quant.format", "model.kind", "model.input_dim",
            "model.hidden_dim", "model.depth", "model.classes",
            "model.quad_dim", "data.samples", "data.batch_size",
            "schedule.lr_peak", "schedule.total_steps",
            "schedule.warmup_steps", "spike.probability", "spike.severity",
            "optimizer.name", "optimizer.beta1", "optimizer.beta2",
            "optimizer.eps", "optimizer.gamma1", "optimizer.gamma2",
            "optimizer.gamma3", "optimizer.reset_interval",
            "optimizer.spam_reset_interval", "optimizer.spam_warmup_steps",
            "optimizer.gss_threshold", "optimizer.grad_clip",
            "optimizer.transforms", "optimizer.weight_decay",
            "optimizer.lion_beta1", "optimizer.lion_beta2",
            "optimizer.adafactor_eps1", "optimizer.adafactor_d"}
        defaults = key_values(RunConfig())
        for key, field in KEYS.items():
            accepts = field.metadata["accepts"]
            if isinstance(accepts, tuple):
                assert accepts, key
            else:
                assert re.fullmatch(r"[(\[]-?\d+, (\d+|inf)[)\]]", accepts), key
            # The default's type, which gives the parser and the type check,
            # is the one the annotation names.
            assert type(defaults[key]).__name__ == field.type.split("[")[0], key

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(sorted(KEYS)).flatmap(
        lambda key: st.tuples(st.just(key), outside(KEYS[key]))))
    def test_value_outside_range_is_config_error(self, case):
        refused(why(*case), {case[0]: case[1]})

    @pytest.mark.parametrize("key, value", [
        pytest.param(key, value, id=f"{key}={type(value).__name__}")
        for key, value in (
            ("seed", np.int64(3)), ("schedule.total_steps", np.int32(2)),
            ("schedule.lr_peak", np.float64(0.01)), ("schedule.lr_peak", 1),
            ("spike.severity", np.int64(0)))])
    def test_numpy_numbers_keep_their_type(self, key, value):
        """An int key takes a numpy integer; a float key also takes an int
        and a numpy integer, and np.float64 is a float."""
        cfg = RunConfig(schedule=ScheduleConfig(total_steps=2, warmup_steps=0))
        set_key(cfg, key, value)
        assert len(run(cfg).records) == 2

    @pytest.mark.parametrize("name", ["adam", "adam_gradclip", "stable_spam"])
    def test_spike_clip_runs_on_adam_moments(self, name):
        cfg = RunConfig(optimizer=OptimizerConfig(name=name,
                                                  transforms=["spike_clip"]),
                        schedule=ScheduleConfig(total_steps=3))
        assert len(run(cfg).records) == 3

    def test_package_import_loads_only_the_library(self):
        for module, absent in (
                ("stablespam", ("cli", "selftest", "oracles")),
                # only the selftest command needs the oracles
                ("stablespam.cli", ("selftest", "oracles"))):
            code = (f"import sys, {module}; print(sorted(m for m in "
                    "sys.modules if m.startswith('stablespam.')))")
            proc = run_python("-c", code)
            assert proc.returncode == 0, proc.stderr
            assert "'stablespam.harness'" in proc.stdout, module
            for name in absent:
                assert f"'stablespam.{name}'" not in proc.stdout, module


class TestParseLrGrid:
    def test_presets(self):
        assert parse_lr_grid("wide") == [1e-4, 3e-4, 1e-3, 3e-3]
        assert len(parse_lr_grid("step")) == 5

    def test_range_inclusive(self):
        got = parse_lr_grid("0.001:0.003:0.001")
        assert got == pytest.approx([0.001, 0.002, 0.003], rel=1e-6, abs=1e-12)

    def test_range_points_exact(self):
        assert parse_lr_grid("1e-4:1e-3:2e-4") == [1e-4, 3e-4, 5e-4, 7e-4, 9e-4]
        assert parse_lr_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]

    def test_too_many_points_rejected_before_any_is_built(self):
        assert len(parse_lr_grid(f"1:{cli.LR_GRID_MAX_POINTS}:1")) == \
            cli.LR_GRID_MAX_POINTS
        for text in (f"1:{cli.LR_GRID_MAX_POINTS + 1}:1", "1e-9:1:1e-9"):
            with pytest.raises(ConfigError,
                               match=r"^--lr-grid: too many points in "):
                parse_lr_grid(text)


class TestCommands:
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("quant.format = int5\n")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_run_writes_csv_and_exits_zero(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "a.cfg")
        out = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        text = (out / "run.csv").read_text()
        assert text.splitlines()[0].startswith("step,loss,")
        assert "final_val_loss:" in capsys.readouterr().out

    def test_run_deterministic_across_invocations(self, tmp_path):
        cfg = write_cfg(tmp_path, "a.cfg")
        main(["run", "--config", cfg, "--out", str(tmp_path / "o1")])
        main(["run", "--config", cfg, "--out", str(tmp_path / "o2")])
        assert (tmp_path / "o1" / "run.csv").read_bytes() == \
            (tmp_path / "o2" / "run.csv").read_bytes()

    def test_run_seed_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, "a.cfg")
        main(["run", "--config", cfg, "--out", str(tmp_path / "o1")])
        main(["run", "--config", cfg, "--seed", "5",
              "--out", str(tmp_path / "o2")])
        assert (tmp_path / "o1" / "run.csv").read_bytes() != \
            (tmp_path / "o2" / "run.csv").read_bytes()

    def test_run_divergence_exit_code(self, tmp_path):
        cfg = tmp_path / "div.cfg"
        cfg.write_text(config_text(DIVERGES["loss above the cap"].config()))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_DIVERGED

    @pytest.mark.parametrize("route", DIVERGES)
    def test_run_exits_2_on_each_way_a_run_diverges(self, route, tmp_path,
                                                    monkeypatch, capsys):
        row = DIVERGES[route]
        row.patch(monkeypatch)
        cfg = tmp_path / "div.cfg"
        cfg.write_text(config_text(row.config()))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().out.splitlines()[:3] == [
            f"steps: {row.last_step}", "diverged: True",
            "final_val_loss: diverged"]

    def test_run_final_loss_above_cap_exit_code(self, tmp_path):
        # Only the final validation diverges, so run.csv's last row, of
        # step 13, is not flagged.
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(config_text(
            DIVERGES["final validation above the cap"].config()))
        out = tmp_path / "o"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_DIVERGED
        last = (out / "run.csv").read_text().splitlines()[-1]
        assert last.startswith("13,") and last.endswith(",0,0")

    def test_adam_gradclip_cli_matches_library(self, tmp_path):
        cfg = RunConfig(model=ModelConfig(kind="quadratic"),
                        optimizer=OptimizerConfig(name="adam_gradclip"),
                        schedule=ScheduleConfig(total_steps=30, warmup_steps=3))
        path = tmp_path / "clip.cfg"
        path.write_text(config_text(cfg))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "cli")]) == EXIT_OK
        lib = tmp_path / "lib.csv"
        result = run(cfg, records_path=str(lib))
        assert (tmp_path / "cli" / "run.csv").read_bytes() == lib.read_bytes()
        # the library default threshold of 1.0 is applied
        assert all(r.grad_norm_post <= 1.0 + 1e-12 < r.grad_norm_pre
                   for r in result.records)

    def test_help_exits_zero(self, capsys):
        assert main(["run", "--help"]) == EXIT_OK
        assert "--seed" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "sweep", "compare"])
    def test_help_explains_out_and_seed(self, command, capsys):
        # compare names its config files as arguments, not with --config.
        assert main([command, "--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "output directory" in out and "seed override" in out
        assert ("--config" in out) == (command != "compare")

    @pytest.mark.parametrize("argv, code", [(["frobnicate"], EXIT_CONFIG),
                                            (["--help"], EXIT_OK)],
                             ids=["unknown-command", "help"])
    def test_module_exits_with_the_code_main_returns(self, argv, code):
        proc = run_python("-m", "stablespam.cli", *argv)
        assert proc.returncode == code
        shown = proc.stderr if code else proc.stdout
        assert shown.startswith("usage: stablespam"), proc.stderr

    def test_jobs_defaults_to_the_cpu_count(self, tmp_path, monkeypatch):
        got = []
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(cli, "sweep", lambda cfg, grid, out_dir, jobs: (
            got.append(jobs) or SweepResult(entries=[], best_lr=None)))
        main(["sweep", "--out", str(tmp_path / "o")])
        assert got == [3]

    def test_config_with_a_byte_order_mark_runs_as_without(self, tmp_path):
        # Some editors begin a UTF-8 file with the mark U+FEFF.
        plain = Path(write_cfg(tmp_path, "plain.cfg"))
        marked = tmp_path / "marked.cfg"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for path in (plain, marked):
            code = main(["run", "--config", str(path),
                         "--out", str(tmp_path / path.stem)])
            assert code == EXIT_OK
        assert ((tmp_path / "marked" / "run.csv").read_bytes()
                == (tmp_path / "plain" / "run.csv").read_bytes())

    def test_sweep_writes_summary(self, tmp_path, capsys):
        # It prints each LR exactly: these three agree in their first 6
        # significant digits.
        cfg = write_cfg(tmp_path, "a.cfg")
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--out", str(out),
                     "--lr-grid", "1e-4:1.0000002e-4:1e-11", "--jobs", "1"])
        assert code == EXIT_OK
        data = json.loads((out / "sweep_summary.json").read_text())
        assert data["best_lr"] in [e["lr"] for e in data["runs"]]
        assert [line.split("\t")[0]
                for line in capsys.readouterr().out.splitlines()] == [
            "lr=0.0001", "lr=0.00010000001", "lr=0.00010000002",
            f"best_lr: {data['best_lr']}"]

    def test_sweep_without_lr_grid_runs_the_step_preset(self, tmp_path):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("model.kind = quadratic\nschedule.total_steps = 3\n")
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--jobs", "1"])
        assert code == EXIT_OK
        data = json.loads((out / "sweep_summary.json").read_text())
        assert [e["lr"] for e in data["runs"]] == [1e-4, 3e-4, 5e-4, 7e-4,
                                                  9e-4]

    def test_sweep_records_quantizer_overflow_as_diverged(self, tmp_path):
        # Criterion 7's INT4 task: at lr 10 the forward pass meets an inf;
        # the run diverges quietly, with no overflow warning.
        cfg = tmp_path / "int4.cfg"
        cfg.write_text(config_text(DIVERGES["inf in qdq"].config()))
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg), "--out", str(out),
                     "--lr-grid", "1:10:9", "--jobs", "1"])
        assert code == EXIT_OK
        data = json.loads((out / "sweep_summary.json").read_text())
        assert data["best_lr"] == 1.0
        assert [(e["lr"], e["final_loss"] == "diverged")
                for e in data["runs"]] == [(1.0, False), (10.0, True)]

    def test_compare_identical_optimizers(self, tmp_path, capsys):
        a = write_cfg(tmp_path, "a.cfg", {"optimizer.name": "adam"})
        b = write_cfg(tmp_path, "b.cfg", {"optimizer.name": "stable_spam"})
        out = tmp_path / "cmp"
        code = main(["compare", a, b, "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == ("optimizer,final_train_loss,final_val_loss,"
                            "steps_to_target,records_path")
        assert len(lines) == 3
        assert lines[1].startswith("adam,")
        assert lines[2].startswith("stable_spam,")
        # both runs reach the worse of the two final losses
        for line in lines[1:]:
            assert line.split(",")[3] != "n/a"

    def test_compare_csv_quotes_a_path_with_a_comma(self, tmp_path, capsys):
        a = write_cfg(tmp_path, "a.cfg", {"optimizer.name": "adam"})
        b = write_cfg(tmp_path, "b.cfg", {"optimizer.name": "sgd"})
        out = tmp_path / "x,y"
        assert main(["compare", a, b, "--out", str(out)]) == EXIT_OK
        text = (out / "compare.csv").read_text()
        assert capsys.readouterr().out == text
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(row) for row in rows] == [5, 5, 5]
        for i, row in enumerate(rows[1:]):
            assert row[4] == str(out / f"compare_run{i}.csv")
            assert os.path.exists(row[4])

    def test_compare_runs_each_config_through_harness_run(self, tmp_path,
                                                          monkeypatch):
        # As sweep's grid points do: the benchmark swaps harness.run.
        names = ["sgd", "adam", "lion"]
        configs = [write_cfg(tmp_path, f"{name}.cfg", {"optimizer.name": name})
                   for name in names]
        seen, real = [], harness.run

        def recorder(cfg, records_path=None, on_step=None):
            seen.append((cfg.optimizer.name, records_path))
            return real(cfg, records_path, on_step)

        monkeypatch.setattr(harness, "run", recorder)
        out = tmp_path / "cmp"
        assert main(["compare", *configs, "--out", str(out)]) == EXIT_OK
        assert seen == [(name, str(out / f"compare_run{i}.csv"))
                        for i, name in enumerate(names)]

    def test_compare_diverged_row_na(self, tmp_path):
        cfg = DIVERGES["loss above the cap"].config()
        a = tmp_path / "a.cfg"
        a.write_text(config_text(cfg))
        set_key(cfg, "optimizer.name", "stable_spam")
        b = tmp_path / "b.cfg"
        b.write_text(config_text(cfg))
        out = tmp_path / "cmp"
        main(["compare", str(a), str(b), "--out", str(out)])
        lines = (out / "compare.csv").read_text().splitlines()
        sgd_row = [l for l in lines if l.startswith("sgd,")][0]
        assert "diverged" in sgd_row
        assert sgd_row.split(",")[3] == "n/a"

    def test_compare_every_run_diverged_exits_2(self, tmp_path):
        # At lr 1e300 the quadratic's loss overflows by step 2 for both; the
        # second row is labelled with the optimizer's transforms.
        base = ("model.kind = quadratic\nschedule.total_steps = 5\n"
                "schedule.warmup_steps = 0\nschedule.lr_peak = 1e300\n")
        a = tmp_path / "a.cfg"
        a.write_text(base + "optimizer.name = sgd\n")
        b = tmp_path / "b.cfg"
        b.write_text(base + "optimizer.name = adam\n"
                            "optimizer.transforms = adagn\n")
        out = tmp_path / "cmp"
        assert main(["compare", str(a), str(b), "--out", str(out)]) == \
            EXIT_DIVERGED
        rows = [line.split(",")
                for line in (out / "compare.csv").read_text().splitlines()[1:]]
        assert [row[:4] for row in rows] == [
            ["sgd", "diverged", "diverged", "n/a"],
            ["adam+adagn", "diverged", "diverged", "n/a"]]

    def test_unexpected_exception_is_internal_error(self, tmp_path,
                                                    monkeypatch, capsys):
        def broken_run(cfg, records_path=None):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run", broken_run)
        code = main(["run", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last):\n"), err
        assert 'in broken_run\n    raise RuntimeError("boom")\n' in err
        assert err.endswith("\nRuntimeError: boom\ninternal error: boom\n")

    def test_output_files_need_no_default_encoding(self, tmp_path):
        """Each command that writes under --out runs to the end, leaving no
        temporary file, where opening text with no encoding is an error."""
        cfg = tmp_path / "q.cfg"
        cfg.write_text("model.kind = quadratic\nschedule.total_steps = 3\n")
        for argv in (["run", "--config", cfg], ["compare", cfg, cfg],
                     ["sweep", "--jobs", "1", "--config", cfg]):
            proc = run_python("-X", "warn_default_encoding", "-W",
                              "error::EncodingWarning", "-m", "stablespam.cli",
                              *map(str, argv), "--out", str(tmp_path))
            assert proc.returncode == EXIT_OK, proc.stderr
        assert list(tmp_path.glob("*.tmp")) == []


SELFTEST_CHECKS = [
    "optimizer traces vs reference",
    "adaclip bias-corrected threshold",
    "adagn output-norm identity",
    "moret reset periodicity",
    "quantizer idempotence and absmax fixed point",
    "quantizer rounds to nearest, ties to even",
    "finite differences vs analytic gradients",
    "bias correction on a constant gradient",
    "global grad clip norm bound",
    "lr schedule endpoints",
]


def run_selftest_on(checks, monkeypatch, capsys):
    """Exit code and printed lines of ``stablespam selftest`` with ``checks``
    in place of the real table, whose entries the acceptance criteria run."""
    monkeypatch.setattr(selftest, "CHECKS", checks)
    code = main(["selftest"])
    return code, capsys.readouterr().out.splitlines()


class TestSelftest:
    def test_passes_and_prints_lines(self, monkeypatch, capsys):
        code, lines = run_selftest_on([("first", lambda: (True, "dev 0")),
                                       ("second", lambda: (True, ""))],
                                      monkeypatch, capsys)
        assert code == EXIT_OK
        assert lines == ["[PASS] first (dev 0)", "[PASS] second",
                         "2/2 checks passed"]

    def test_failure_or_exception_exits_internal(self, monkeypatch, capsys):
        code, lines = run_selftest_on([("passes", lambda: (True, "")),
                                       ("fails", lambda: (False, "dev 1.0")),
                                       ("raises", lambda: 1 / 0)],
                                      monkeypatch, capsys)
        assert code == cli.EXIT_INTERNAL
        assert lines == ["[PASS] passes", "[FAIL] fails (dev 1.0)",
                         "[FAIL] raises (ZeroDivisionError: division by zero)",
                         "1/3 checks passed"]

    def test_each_entry_has_one_tier1_home(self):
        """Each table entry is called from exactly one place in the tests that
        run the table (``tests/test_selftest.py`` breaks each on purpose)."""
        calls = []
        for name in ("test_acceptance.py", "test_quant.py", "test_harness.py"):
            tree = ast.parse((Path(__file__).parent / name).read_text())
            calls += [node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "selftest"
                      and node.attr.startswith("check_")]
        assert sorted(calls) == sorted(check.__name__
                                       for _, check in selftest.CHECKS)

    def test_report_names_unique(self):
        names = [name for name, _ in selftest.CHECKS]
        assert names == SELFTEST_CHECKS
        assert len(names) == len(set(names))
