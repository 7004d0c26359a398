import ast
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablespam import cli, harness, selftest
from stablespam.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main,
                            parse_config_text, parse_lr_grid)
from stablespam.harness import (ModelConfig, OptimizerConfig, RunConfig,
                                ScheduleConfig, SweepResult, run)
from stablespam.optim import ConfigError
from tasks import config_text, int4_cfg, key_values, set_key, small_cfg


def write_cfg(tmp_path, name, keys=()):
    """A config file of the small MLP, 30 steps, with ``keys`` set."""
    path = tmp_path / name
    path.write_text(config_text(small_cfg({
        "schedule.total_steps": 30, "schedule.warmup_steps": 3, **dict(keys)})))
    return str(path)


# The three commands that write under --out; "{a}" and "{b}" are configs.
WRITING_COMMANDS = pytest.mark.parametrize("argv", [
    ["run", "--config", "{a}"],
    ["sweep", "--config", "{a}", "--lr-grid", "0.001:0.002:0.001"],
    ["compare", "{a}", "{b}"],
], ids=["run", "sweep", "compare"])


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

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"cfg:3: unknown key 'optimizzer.name'"):
            parse_config_text("\n\noptimizzer.name = adam\n", origin="cfg")

    def test_bad_value_reports_key(self):
        with pytest.raises(ConfigError, match=r"bad value for 'schedule.total_steps'"):
            parse_config_text("schedule.total_steps = many")

    def test_bad_quant_format_names_key(self):
        with pytest.raises(ConfigError, match=r"quant\.format.*int5"):
            parse_config_text("quant.format = int5")

    def test_key_set_twice_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"^cfg:2: 'seed' already set on line 1$"):
            parse_config_text("seed = 1\nseed = 2", origin="cfg")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("just some words")

    def test_transforms_list(self):
        cfg = parse_config_text("optimizer.transforms = adaclip, adagn")
        assert cfg.optimizer.transforms == ["adaclip", "adagn"]

    def test_unknown_transform_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"optimizer\.transforms: unknown value 'sparsify'"):
            parse_config_text("optimizer.transforms = sparsify")


KEYS = {key: field for key, _, field in RunConfig().keys()}


def outside(field):
    """Values a key must reject: just past each finite bound and beyond it,
    NaN and +-inf for a float, or a word that is not one of its choices."""
    accepts = field.metadata["accepts"]
    if isinstance(accepts, tuple):
        choices = accepts
        word = st.text("abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1,
                       max_size=12).filter(lambda w: w not in choices)
        if field.type == "list[str]":
            return word.map(lambda w: [w]) | st.sampled_from(choices).map(
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
    @example(("optimizer.gamma1", 1.0))
    @example(("optimizer.gamma3", 1.0))
    @example(("seed", -1))
    @example(("schedule.total_steps", 0))
    @example(("optimizer.gss_threshold", -1.0))
    @example(("optimizer.adafactor_d", 0.0))
    @example(("optimizer.beta2", 1.0))
    @example(("schedule.lr_peak", math.nan))
    @example(("schedule.lr_peak", math.inf))
    @example(("spike.severity", math.inf))
    @example(("model.input_dim", 0))
    @example(("model.hidden_dim", 0))
    @example(("model.depth", 0))
    @example(("model.quad_dim", 0))
    @example(("model.classes", 1))
    @example(("optimizer.reset_interval", -5))
    @example(("optimizer.eps", 0.0))
    @example(("optimizer.spam_warmup_steps", -3))
    @example(("optimizer.lion_beta1", 2.0))
    @example(("optimizer.transforms", ["adagn", "adagn"]))
    def test_value_outside_range_is_config_error(self, case):
        key, value = case
        cfg = RunConfig()
        set_key(cfg, key, value)
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
            run(cfg)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "bad.cfg")
            with open(path, "w") as fh:
                fh.write(config_text(cfg))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["run", "--config", path,
                             "--out", os.path.join(tmp, "o")])
        assert code == EXIT_CONFIG
        assert f"config error: {key}: " in err.getvalue()

    @pytest.mark.parametrize("key, value, named", [
        pytest.param(key, value, named, id=f"{key}={value!r}")
        for key, value, named in (
            ("schedule.total_steps", 2.5, "an int"), ("seed", 1.5, "an int"),
            ("data.batch_size", 4.0, "an int"), ("model.depth", True, "an int"),
            ("schedule.lr_peak", "0.1", "a float"),
            ("optimizer.transforms", "adagn", "a list"))])
    def test_value_of_another_type_is_config_error(self, key, value, named):
        cfg = RunConfig()
        set_key(cfg, key, value)
        message = rf"^{re.escape(key)}: {re.escape(repr(value))} is not {named}$"
        for check in (cfg.validate, lambda: run(cfg)):
            with pytest.raises(ConfigError, match=message):
                check()

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

    @pytest.mark.parametrize("base, key, value", [
        pytest.param({"model.kind": "quadratic"}, key, value, id=f"{key}-{value}")
        for key, value in (("quant.format", "int4"), ("spike.probability", 0.1),
                           ("spike.severity", 0.5), ("model.input_dim", 6),
                           ("data.samples", 64))
    ] + [
        pytest.param({}, "model.quad_dim", 4, id="model.quad_dim-4")
    ] + [
        pytest.param({}, key, value, id=f"{key}-{value}-alone")
        for key, value in (("spike.probability", 0.1), ("spike.severity", 0.5))
    ] + [
        pytest.param({"schedule.total_steps": 10}, "schedule.warmup_steps", 11,
                     id="schedule.warmup_steps-above-total_steps")
    ] + [
        pytest.param({"optimizer.name": name}, "optimizer.transforms", [kind],
                     id=f"{name}-{kind}")
        for name, kind in (("stable_spam", "adaclip"), ("stable_spam", "adagn"),
                           ("spam", "spike_clip"), ("sgd", "spike_clip"),
                           ("lion", "spike_clip"), ("adafactor", "spike_clip"),
                           ("adam_mini", "spike_clip"))
    ])
    def test_key_combination_is_config_error(self, base, key, value, tmp_path,
                                             capsys):
        """Values each key accepts alone but not together: a key off its
        default that no part of the run reads (the quadratic reads no MLP,
        data, quant or spike key, the MLP no ``model.quad_dim``), a spike
        key off zero while the other is zero, which injects nothing, warmup
        that outlasts the run, and an optimizer that repeats a transform it
        applies itself or runs spike_clip without a second moment."""
        settings = {**base, key: value}
        cfg = RunConfig()
        for k, v in settings.items():
            set_key(cfg, k, v)
        for check in (cfg.validate, lambda: run(cfg)):
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
                check()
        path = tmp_path / "combination.cfg"
        path.write_text(config_text(cfg))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert f"config error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["adam", "adam_gradclip", "stable_spam"])
    def test_spike_clip_runs_on_adam_moments(self, name):
        cfg = RunConfig(optimizer=OptimizerConfig(name=name,
                                                  transforms=["spike_clip"]),
                        schedule=ScheduleConfig(total_steps=3))
        assert len(run(cfg).records) == 3

    def test_package_import_loads_only_the_library(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        for module, absent in (
                ("stablespam", ("cli", "selftest", "oracles")),
                # only the selftest command needs the oracles
                ("stablespam.cli", ("selftest", "oracles"))):
            code = (f"import sys, {module}; print(sorted(m for m in "
                    "sys.modules if m.startswith('stablespam.')))")
            out = subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": src}).stdout
            assert "'stablespam.harness'" in out, module
            for name in absent:
                assert f"'stablespam.{name}'" not in out, module


class TestParseLrGrid:
    def test_presets(self):
        assert parse_lr_grid("wide") == [1e-4, 3e-4, 1e-3, 3e-3]
        assert len(parse_lr_grid("step")) == 5

    def test_range_inclusive(self):
        got = parse_lr_grid("0.001:0.003:0.001")
        assert got == pytest.approx([0.001, 0.002, 0.003])

    def test_range_points_exact(self):
        assert parse_lr_grid("1e-4:1e-3:2e-4") == [1e-4, 3e-4, 5e-4, 7e-4, 9e-4]
        assert parse_lr_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]

    def test_bad_shapes(self):
        for text in ("1:2", "a:b:c", "3:1:1", "1:2:0", "nan:1:1", "1:inf:1",
                     "1:2:1e-400"):
            with pytest.raises(ConfigError):
                parse_lr_grid(text)

    def test_too_many_points_rejected_before_any_is_built(self):
        assert len(parse_lr_grid(f"1:{cli.LR_GRID_MAX_POINTS}:1")) == \
            cli.LR_GRID_MAX_POINTS
        for text in (f"1:{cli.LR_GRID_MAX_POINTS + 1}:1", "1e-9:1:1e-9"):
            with pytest.raises(ConfigError,
                               match=r"^--lr-grid: too many points in "):
                parse_lr_grid(text)


class TestCommands:
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
        cfg.write_text("model.kind = quadratic\n"
                       "optimizer.name = sgd\n"
                       "schedule.total_steps = 30\n"
                       "schedule.lr_peak = 1e6\n"
                       "schedule.warmup_steps = 0\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_DIVERGED

    def test_run_final_loss_above_cap_exit_code(self, tmp_path, capsys):
        # Every training loss is under the cap; the final one is 5.05e101.
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("model.kind = quadratic\n"
                       "optimizer.name = sgd\n"
                       "schedule.total_steps = 13\n"
                       "schedule.lr_peak = 1000\n"
                       "schedule.warmup_steps = 0\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == EXIT_DIVERGED
        out = capsys.readouterr().out
        assert "steps: 13\n" in out
        assert "final_val_loss: diverged\n" in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("quant.format = int5\n")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_negative_grad_clip_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "neg.cfg", {"optimizer.grad_clip": -1})
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "optimizer.grad_clip" in capsys.readouterr().err

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

    @pytest.mark.parametrize("argv", [["run", "--seed", "abc"],
                                      ["run", "--frobnicate"], ["frobnicate"]],
                             ids=["bad-seed", "unknown-flag", "unknown-command"])
    def test_usage_error_is_config_error(self, argv, capsys):
        # exit 2 is reserved for "every run diverged"
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("usage: stablespam")

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
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-m", "stablespam.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == code
        shown = proc.stderr if code else proc.stdout
        assert shown.startswith("usage: stablespam"), proc.stderr

    def test_negative_jobs_is_config_error(self, tmp_path, capsys):
        code = main(["sweep", "--jobs", "-1", "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_jobs_defaults_to_the_cpu_count(self, tmp_path, monkeypatch):
        got = []
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(cli, "sweep", lambda cfg, grid, out_dir, jobs: (
            got.append(jobs) or SweepResult(entries=[], best_lr=None)))
        main(["sweep", "--out", str(tmp_path / "o")])
        assert got == [3]

    @WRITING_COMMANDS
    def test_negative_seed_writes_nothing(self, argv, tmp_path, capsys):
        paths = {"a": write_cfg(tmp_path, "a.cfg"),
                 "b": write_cfg(tmp_path, "b.cfg", {"optimizer.name": "sgd"})}
        out = tmp_path / "o"
        code = main([arg.format(**paths) for arg in argv]
                    + ["--seed", "-1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "seed: -1 is outside" in capsys.readouterr().err
        assert not out.exists()

    @WRITING_COMMANDS
    @pytest.mark.parametrize("out", ["f", os.path.join("f", "sub"), "link",
                                     os.path.join("link", "sub")],
                             ids=["file", "under-file", "dangling-link",
                                  "under-dangling-link"])
    def test_out_that_cannot_be_a_directory_is_usage_error(
            self, argv, out, tmp_path, capsys):
        # Checked as the arguments are parsed: nothing is run or written.
        paths = {"a": write_cfg(tmp_path, "a.cfg"),
                 "b": write_cfg(tmp_path, "b.cfg", {"optimizer.name": "sgd"})}
        (tmp_path / "f").write_bytes(b"not a directory\n")
        (tmp_path / "link").symlink_to(tmp_path / "nowhere")
        before = sorted(tmp_path.iterdir())
        assert main([arg.format(**paths) for arg in argv]
                    + ["--out", str(tmp_path / out)]) == EXIT_CONFIG
        assert "argument --out" in capsys.readouterr().err
        assert (tmp_path / "f").read_bytes() == b"not a directory\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_sweep_bad_lr_writes_nothing(self, tmp_path, capsys):
        # The grid's first point, -1e-3, is out of range; the later points
        # would have run and written their CSVs before it was checked.
        out = tmp_path / "o"
        code = main(["sweep", "--config", write_cfg(tmp_path, "a.cfg"),
                     "--lr-grid=-1e-3:2e-3:1e-3", "--jobs", "2",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "schedule.lr_peak" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_grid_of_too_many_points_writes_nothing(self, tmp_path,
                                                          capsys):
        out = tmp_path / "o"
        code = main(["sweep", "--config", write_cfg(tmp_path, "a.cfg"),
                     "--lr-grid", "1e-9:1:1e-9", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--lr-grid: too many points" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file_is_config_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @WRITING_COMMANDS
    @pytest.mark.parametrize("make, reason", [
        (lambda path: path.mkdir(), "Is a directory"),
        (lambda path: path.write_bytes(b"seed = 1\n\xff\n"),
         "'utf-8' codec can't decode byte 0xff in position 9")],
        ids=["directory", "not-utf-8"])
    def test_unreadable_config_file_is_config_error(self, argv, make, reason,
                                                    tmp_path, capsys):
        # Read once, as UTF-8: an error there names the file, and nothing runs.
        paths = {"a": str(tmp_path / "a.cfg"), "b": write_cfg(tmp_path, "b.cfg")}
        make(tmp_path / "a.cfg")
        out = tmp_path / "o"
        code = main([arg.format(**paths) for arg in argv] + ["--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: config file {paths['a']!r}: {reason}")
        assert not out.exists()

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
        cfg = write_cfg(tmp_path, "a.cfg")
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--out", str(out),
                     "--lr-grid", "0.0003:0.001:0.0007", "--jobs", "1"])
        assert code == EXIT_OK
        data = json.loads((out / "sweep_summary.json").read_text())
        assert data["best_lr"] in [e["lr"] for e in data["runs"]]
        assert "best_lr:" in capsys.readouterr().out

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
        cfg.write_text(config_text(int4_cfg("sgd", 1e-3)))
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

    def test_compare_rejects_non_optimizer_difference(self, tmp_path, capsys):
        a = write_cfg(tmp_path, "a.cfg")
        b = write_cfg(tmp_path, "b.cfg", {"seed": 3, "quant.format": "int4"})
        code = main(["compare", a, b, "--out", str(tmp_path / "cmp")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "quant.format" in err and "seed" in err

    def test_compare_needs_two_configs(self, tmp_path):
        a = write_cfg(tmp_path, "a.cfg")
        assert main(["compare", a, "--out", str(tmp_path / "c")]) == EXIT_CONFIG

    def test_compare_diverged_row_na(self, tmp_path):
        base = ("model.kind = quadratic\nschedule.total_steps = 30\n"
                "schedule.warmup_steps = 0\nschedule.lr_peak = 1e6\n")
        a = tmp_path / "a.cfg"
        a.write_text(base + "optimizer.name = sgd\n")
        b = tmp_path / "b.cfg"
        b.write_text(base + "optimizer.name = stable_spam\n")
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
        assert capsys.readouterr().err == "internal error: boom\n"


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
