import json

import pytest

from stablespam import cli, optim, selftest
from stablespam.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, main,
                            parse_config_text, parse_lr_grid)
from stablespam.harness import (ModelConfig, OptimizerConfig, RunConfig,
                                ScheduleConfig, run)
from stablespam.optim import ConfigError

SMALL = """
model.input_dim = 6
model.hidden_dim = 8
model.depth = 1
model.classes = 3
schedule.total_steps = 30
schedule.warmup_steps = 3
"""


def write_cfg(tmp_path, name, extra=""):
    path = tmp_path / name
    path.write_text(SMALL + extra)
    return str(path)


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

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("just some words")

    def test_transforms_list(self):
        cfg = parse_config_text("optimizer.transforms = adaclip, adagn")
        assert cfg.optimizer.transforms == ["adaclip", "adagn"]

    def test_unknown_transform_rejected(self):
        with pytest.raises(ConfigError, match="unknown transform"):
            parse_config_text("optimizer.transforms = sparsify")


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
        cfg = write_cfg(tmp_path, "div.cfg",
                        "model.kind = quadratic\n"
                        "optimizer.name = sgd\n"
                        "schedule.lr_peak = 1e6\n"
                        "schedule.warmup_steps = 0\n")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_DIVERGED

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("quant.format = int5\n")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_negative_grad_clip_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "neg.cfg", "optimizer.grad_clip = -1\n")
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG
        assert "optimizer.grad_clip" in capsys.readouterr().err

    def test_adam_gradclip_cli_matches_library(self, tmp_path):
        cfg = tmp_path / "clip.cfg"
        cfg.write_text("model.kind = quadratic\n"
                       "optimizer.name = adam_gradclip\n"
                       "schedule.total_steps = 30\n"
                       "schedule.warmup_steps = 3\n")
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "cli")]) == EXIT_OK
        lib = tmp_path / "lib.csv"
        result = run(RunConfig(model=ModelConfig(kind="quadratic"),
                               optimizer=OptimizerConfig(name="adam_gradclip"),
                               schedule=ScheduleConfig(total_steps=30,
                                                       warmup_steps=3)),
                     records_path=str(lib))
        assert (tmp_path / "cli" / "run.csv").read_bytes() == lib.read_bytes()
        # the library default threshold of 1.0 is applied
        assert all(r.grad_norm_post <= 1.0 + 1e-12 < r.grad_norm_pre
                   for r in result.records)

    def test_missing_config_file_is_config_error(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    def test_sweep_writes_summary(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "a.cfg")
        out = tmp_path / "out"
        code = main(["sweep", "--config", cfg, "--out", str(out),
                     "--lr-grid", "0.0003:0.001:0.0007", "--jobs", "1"])
        assert code == EXIT_OK
        data = json.loads((out / "sweep_summary.json").read_text())
        assert data["best_lr"] in [e["lr"] for e in data["runs"]]
        assert "best_lr:" in capsys.readouterr().out

    def test_compare_identical_optimizers(self, tmp_path, capsys):
        a = write_cfg(tmp_path, "a.cfg", "optimizer.name = adam\n")
        b = write_cfg(tmp_path, "b.cfg", "optimizer.name = stable_spam\n")
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

    def test_compare_rejects_non_optimizer_difference(self, tmp_path, capsys):
        a = write_cfg(tmp_path, "a.cfg")
        b = write_cfg(tmp_path, "b.cfg", "seed = 3\nquant.format = int4\n")
        code = main(["compare", a, b, "--out", str(tmp_path / "cmp")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "quant_format" in err and "seed" in err

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


SELFTEST_CHECKS = [
    "adam scalar trace vs reference",
    "sgd decreases quadratic loss",
    "spam scalar trace vs reference",
    "stable_spam scalar trace vs reference",
    "lion scalar trace vs reference",
    "adam_mini scalar trace vs reference",
    "adafactor scalar trace vs reference",
    "adaclip bias-corrected threshold",
    "adagn output-norm identity",
    "moret reset periodicity",
    "quantizer idempotence",
    "fp4 e1m2 grid values",
    "quantizer absmax fixed point",
    "finite differences: quadratic",
    "finite differences: rmsnorm",
    "finite differences: swiglu",
    "finite differences: mlp",
    "compose stable_spam bitwise vs matrix oracle",
    "global grad clip norm bound",
    "lr schedule endpoints",
]


class TestSelftest:
    def test_passes_and_prints_lines(self, capsys):
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = [l for l in out.splitlines() if l.startswith("[")]
        assert lines == [f"[PASS] {name}" for name in SELFTEST_CHECKS]

    def test_mutation_detected(self, capsys, monkeypatch):
        # corrupt the clipping rule; the selftest must notice
        def broken(g, state, gamma3, eps=1e-6):
            state.step += 1
            state.t_threshold = 1.0
            return g.copy(), 0.0

        monkeypatch.setattr(optim, "adaclip", broken)
        code = main(["selftest"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_INTERNAL
        assert "[FAIL]" in out

    def test_report_names_unique(self):
        report = selftest.run_selftest()
        names = [name for name, _, _ in report]
        assert len(names) == len(set(names))
        assert names == SELFTEST_CHECKS
