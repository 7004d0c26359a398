import json
import os

import numpy as np
import pytest

from stablespam import harness
from stablespam.harness import (CSV_HEADER, DIVERGENCE_LOSS_CAP, ModelConfig,
                                OptimizerConfig, RunConfig, ScheduleConfig,
                                global_grad_norm, lr_schedule, run, sweep,
                                write_records_csv)
from stablespam.optim import ConfigError
from stablespam.tensor_core import make_rng


def small_cfg(**kwargs):
    cfg = RunConfig(
        model=ModelConfig(input_dim=6, hidden_dim=8, depth=1, classes=3),
        schedule=ScheduleConfig(lr_peak=1e-3, total_steps=40, warmup_steps=4),
    )
    for key, value in kwargs.items():
        obj = cfg
        parts = key.split("__")
        for p in parts[:-1]:
            obj = getattr(obj, p)
        setattr(obj, parts[-1], value)
    return cfg


class TestGlobalGradNorm:
    def test_three_four_five(self):
        assert global_grad_norm([np.array([[3.0]]),
                                 np.array([[4.0]])]) == pytest.approx(5.0)

    def test_single_layer_is_frobenius(self):
        g = make_rng(0).standard_normal((3, 3))
        assert global_grad_norm([g]) == pytest.approx(
            float(np.linalg.norm(g)), rel=1e-12)

    def test_matches_flattened_oracle(self):
        rng = make_rng(1)
        layers = [rng.standard_normal((2, 3)) for _ in range(5)]
        flat = np.concatenate([g.ravel() for g in layers])
        assert global_grad_norm(layers) == pytest.approx(
            float(np.linalg.norm(flat)), rel=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            global_grad_norm([])


class TestLrSchedule:
    def test_warmup_linear(self):
        cfg = small_cfg()
        cfg.schedule = ScheduleConfig(lr_peak=2e-3, total_steps=100,
                                      warmup_steps=10)
        for step in range(11):
            assert lr_schedule(step, cfg) == pytest.approx(
                2e-3 * step / 10, rel=1e-15)

    def test_default_warmup_is_ten_percent(self):
        cfg = small_cfg()
        cfg.schedule = ScheduleConfig(lr_peak=1e-3, total_steps=500)
        assert cfg.resolved_warmup() == 50
        assert lr_schedule(50, cfg) == pytest.approx(1e-3, rel=1e-15)

    def test_monotone_decay_after_warmup(self):
        cfg = small_cfg()
        cfg.schedule = ScheduleConfig(lr_peak=1e-3, total_steps=200,
                                      warmup_steps=20)
        lrs = [lr_schedule(s, cfg) for s in range(20, 201)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_out_of_range_errors(self):
        cfg = small_cfg()
        with pytest.raises(ValueError):
            lr_schedule(cfg.schedule.total_steps + 1, cfg)


class TestRun:
    def test_zero_steps_empty(self):
        cfg = small_cfg()
        cfg.schedule = ScheduleConfig(lr_peak=1e-3, total_steps=0,
                                      warmup_steps=0)
        result = run(cfg)
        assert result.records == []
        assert result.final_val_loss is None
        assert not result.diverged

    def test_deterministic_byte_identical_csv(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        run(small_cfg(), records_path=str(p1))
        run(small_cfg(), records_path=str(p2))
        b1 = p1.read_bytes()
        assert b1 == p2.read_bytes()
        assert b1.decode().splitlines()[0] == CSV_HEADER

    def test_different_seeds_differ(self):
        r0 = run(small_cfg(seed=0))
        r1 = run(small_cfg(seed=1))
        assert r0.records[-1].loss != r1.records[-1].loss

    def test_quadratic_converges_toward_optimum(self):
        cfg = small_cfg(model__kind="quadratic")
        cfg.schedule = ScheduleConfig(lr_peak=5e-2, total_steps=400,
                                      warmup_steps=10)
        result = run(cfg)
        assert result.records[-1].loss < result.records[0].loss
        assert not result.diverged

    def test_divergence_detected_within_ten_steps(self):
        cfg = small_cfg(model__kind="quadratic")
        cfg.optimizer = OptimizerConfig(name="sgd")
        cfg.schedule = ScheduleConfig(lr_peak=1e6, total_steps=100,
                                      warmup_steps=0)
        result = run(cfg)
        assert result.diverged
        assert result.records[-1].diverged
        assert result.records[-1].step <= 10
        assert result.final_val_loss is None

    def test_divergence_cap_triggers_before_inf(self):
        assert harness._is_bad(DIVERGENCE_LOSS_CAP * 10, {})

    def test_telemetry_norms_match_callback(self):
        # grad_clip=0.5: on_step sees the raw gradients, clipped only in post
        # (or not, in steps under the threshold). Plain adam has no
        # transforms, so its post norm is its pre norm; stable_spam's
        # transforms change the norm in every step.
        for cfg, post_is_pre in ((small_cfg(optimizer__name="stable_spam"), False),
                                 (small_cfg(optimizer__grad_clip=0.5), None),
                                 (small_cfg(optimizer__name="adam"), True)):
            seen = {}

            def on_step(step, pre, post):
                seen[step] = (global_grad_norm(pre.values()),
                              global_grad_norm(post.values()))

            result = run(cfg, on_step=on_step)
            for r in result.records:
                pre, post = seen[r.step]
                assert r.grad_norm_pre == pre
                assert r.grad_norm_post == post
                if post_is_pre is not None:
                    assert (r.grad_norm_post == r.grad_norm_pre) is post_is_pre

    def test_stable_spam_reset_flag_at_interval(self):
        cfg = small_cfg(optimizer__name="stable_spam",
                        optimizer__reset_interval=10)
        result = run(cfg)
        flagged = [r.step for r in result.records if r.reset]
        assert flagged == [10, 20, 30, 40]

    def test_effective_lr_tracks_schedule(self):
        cfg = small_cfg()
        result = run(cfg)
        for r in result.records:
            assert r.effective_lr == lr_schedule(r.step, cfg)

    def test_spam_effective_lr_warmup_after_reset(self):
        cfg = small_cfg(optimizer__name="spam",
                        optimizer__spam_reset_interval=10,
                        optimizer__spam_warmup_steps=5)
        result = run(cfg)
        r11 = result.records[10]  # step 11, first after the reset at 10
        assert r11.effective_lr == pytest.approx(
            lr_schedule(11, cfg) * (1.0 / 5.0), rel=1e-15)

    def test_invalid_config_raises_configerror(self):
        cfg = small_cfg()
        cfg.quant_format = "int5"
        with pytest.raises(ConfigError, match="quant.format"):
            run(cfg)

    def test_spikes_change_trajectory_but_stay_deterministic(self):
        base = run(small_cfg())
        spiked1 = run(small_cfg(spike__probability=0.2, spike__severity=0.5))
        spiked2 = run(small_cfg(spike__probability=0.2, spike__severity=0.5))
        assert spiked1.records[-1].loss == spiked2.records[-1].loss
        assert spiked1.records[-1].loss != base.records[-1].loss

    def test_quant_format_changes_losses(self):
        plain = run(small_cfg())
        quantized = run(small_cfg(quant_format="int4"))
        assert plain.records[5].loss != quantized.records[5].loss


class TestCsv:
    def test_row_shape_and_roundtrip(self, tmp_path):
        path = tmp_path / "r.csv"
        result = run(small_cfg(), records_path=str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == len(result.records) + 1
        first = lines[1].split(",")
        assert len(first) == 8
        assert int(first[0]) == 1
        assert float(first[1]) == result.records[0].loss
        # repr round-trips exactly
        assert first[1] == repr(result.records[0].loss)

    def test_atomic_write_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "r.csv"
        write_records_csv([], str(path))
        assert path.read_text() == CSV_HEADER + "\n"


class TestSweep:
    def test_grid_of_one_matches_run(self, tmp_path):
        cfg = small_cfg()
        result = sweep(cfg, [1e-3], out_dir=str(tmp_path))
        single = run(small_cfg())
        assert result.entries[0].final_loss == single.final_val_loss
        assert result.best_lr == 1e-3

    def test_best_lr_is_argmin_of_finite(self):
        cfg = small_cfg()
        result = sweep(cfg, [3e-4, 1e-3, 3e-3])
        finite = [(e.final_loss, e.lr) for e in result.entries
                  if e.final_loss is not None]
        assert result.best_lr == min(finite)[1]

    def test_diverged_runs_excluded(self):
        cfg = small_cfg(model__kind="quadratic", optimizer__name="sgd")
        cfg.schedule = ScheduleConfig(lr_peak=1.0, total_steps=30,
                                      warmup_steps=0)
        result = sweep(cfg, [1e-3, 1e6])
        bad = [e for e in result.entries if e.lr == 1e6][0]
        assert bad.final_loss is None
        assert result.best_lr == 1e-3

    def test_summary_json_schema(self, tmp_path):
        cfg = small_cfg()
        sweep(cfg, [3e-4, 1e-3], out_dir=str(tmp_path))
        data = json.loads((tmp_path / "sweep_summary.json").read_text())
        assert set(data) == {"best_lr", "runs"}
        assert len(data["runs"]) == 2
        for entry in data["runs"]:
            assert set(entry) == {"lr", "final_loss", "records_path"}
            assert os.path.exists(entry["records_path"])

    def test_parallel_matches_serial(self, tmp_path):
        cfg = small_cfg()
        serial = sweep(cfg, [3e-4, 1e-3], out_dir=str(tmp_path / "s"))
        parallel = sweep(cfg, [3e-4, 1e-3], out_dir=str(tmp_path / "p"),
                         jobs=2)
        assert [e.final_loss for e in serial.entries] == \
            [e.final_loss for e in parallel.entries]
        a = (tmp_path / "s" / "run_lr0.csv").read_bytes()
        b = (tmp_path / "p" / "run_lr0.csv").read_bytes()
        assert a == b

    def test_empty_grid_errors(self):
        with pytest.raises(ValueError):
            sweep(small_cfg(), [])
