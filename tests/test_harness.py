import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from stablespam import harness, models, selftest
from stablespam.harness import (CSV_HEADER, DIVERGENCE_LOSS_CAP, ModelConfig,
                                OptimizerConfig, RunConfig, ScheduleConfig,
                                SpikeConfig, global_grad_norm, lr_schedule,
                                run, sweep, write_records_csv)
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


def int4_cfg(name, lr, total_steps=250, warmup_steps=25):
    """Criterion 7's INT4 task at seed 0."""
    return RunConfig(
        model=ModelConfig(input_dim=4, hidden_dim=32, depth=2, classes=8),
        schedule=ScheduleConfig(lr_peak=lr, total_steps=total_steps,
                                warmup_steps=warmup_steps),
        spike=SpikeConfig(probability=0.1, severity=0.5),
        optimizer=OptimizerConfig(name=name), quant_format="int4")


class TestGlobalGradNorm:
    def test_three_four_five(self):
        assert global_grad_norm([np.array([[3.0]]),
                                 np.array([[4.0]])]) == pytest.approx(5.0)

    def test_single_layer_is_frobenius(self):
        g = make_rng(0).standard_normal((3, 3))
        assert global_grad_norm([g]) == pytest.approx(
            float(np.linalg.norm(g)), rel=1e-12, abs=0)

    def test_matches_flattened_oracle(self):
        rng = make_rng(1)
        layers = [rng.standard_normal((2, 3)) for _ in range(5)]
        flat = np.concatenate([g.ravel() for g in layers])
        assert global_grad_norm(layers) == pytest.approx(
            float(np.linalg.norm(flat)), rel=1e-12, abs=0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            global_grad_norm([])


class TestLrSchedule:
    def test_endpoints(self):
        # the one test that runs this entry of the selftest table
        ok, detail = selftest.check_lr_schedule_endpoints()
        assert ok, detail

    def test_warmup_linear(self):
        cfg = small_cfg()
        cfg.schedule = ScheduleConfig(lr_peak=2e-3, total_steps=100,
                                      warmup_steps=10)
        for step in range(11):
            assert lr_schedule(step, cfg) == pytest.approx(
                2e-3 * step / 10, rel=1e-15, abs=0)

    def test_default_warmup_is_ten_percent(self):
        cfg = small_cfg()
        cfg.schedule = ScheduleConfig(lr_peak=1e-3, total_steps=500)
        assert cfg.resolved_warmup() == 50
        assert lr_schedule(50, cfg) == pytest.approx(1e-3, rel=1e-15, abs=0)

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
    def test_zero_steps_rejected(self):
        # A run with no steps would have no final loss, which means
        # "diverged"; so the key rejects 0.
        cfg = small_cfg()
        cfg.schedule = ScheduleConfig(lr_peak=1e-3, total_steps=0,
                                      warmup_steps=0)
        with pytest.raises(ConfigError,
                           match=r"^schedule\.total_steps: 0 is outside \[1, inf\)"):
            run(cfg)

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
        assert harness._is_bad(DIVERGENCE_LOSS_CAP * 10)

    def test_quantizer_overflow_is_a_diverged_row(self):
        # The forward pass of step 9 meets an inf, which qdq rejects; the
        # row has no loss to keep, and no overflow warning escapes.
        result = run(int4_cfg("sgd", 10.0))
        assert result.diverged
        assert result.final_val_loss is None
        assert [r.step for r in result.records] == list(range(1, 10))
        assert [r.diverged for r in result.records] == [False] * 8 + [True]
        last = result.records[-1]
        assert math.isnan(last.loss)
        assert math.isnan(last.grad_norm_pre)
        assert math.isnan(last.grad_norm_post)

    def test_nonfinite_final_validation_is_divergence(self):
        # One step at lr 1e99 leaves finite weights whose validation
        # forward pass overflows, so qdq rejects an inf there.
        result = run(int4_cfg("sgd", 1e100, total_steps=1, warmup_steps=0))
        assert [r.diverged for r in result.records] == [False]
        assert result.diverged
        assert result.final_val_loss is None

    def test_final_loss_above_cap_is_divergence(self):
        cfg = small_cfg(model__kind="quadratic", optimizer__name="sgd")
        cfg.schedule = ScheduleConfig(lr_peak=1000.0, total_steps=13,
                                      warmup_steps=0)
        result = run(cfg)
        assert len(result.records) == 13
        assert not any(r.diverged for r in result.records)
        assert all(abs(r.loss) <= DIVERGENCE_LOSS_CAP for r in result.records)
        assert result.diverged
        assert result.final_val_loss is None

    def test_nonfinite_gradient_is_a_diverged_row(self, monkeypatch,
                                                  tmp_path):
        # A finite loss with an inf gradient at step 3: the optimizer's door
        # rejects the step, the row keeps the loss, and no weight moves.
        real = models.mlp_forward_backward
        seen = []

        def inf_at_step_3(model, x, y):
            loss, grads = real(model, x, y)
            seen.append((model, loss,
                         {k: w.copy() for k, w in model.params.items()}))
            if len(seen) == 3:
                grads["block0.w_up"][1, 2] = np.inf
            return loss, grads

        monkeypatch.setattr(models, "mlp_forward_backward", inf_at_step_3)
        cfg = small_cfg()  # plain Adam: the door is its only check
        path = tmp_path / "run.csv"
        result = run(cfg, records_path=str(path))
        model, loss, weights = seen[-1]
        assert len(seen) == 3
        assert result.diverged
        assert path.read_text().splitlines()[-1] == \
            f"3,{loss!r},nan,nan,0.0,{lr_schedule(3, cfg)!r},0,1"
        assert all(model.params[k].tobytes() == w.tobytes()
                   for k, w in weights.items())

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
            lr_schedule(11, cfg) * (1.0 / 5.0), rel=1e-15, abs=0)

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
        # The literal header: CSV_HEADER is derived from StepRecord's fields,
        # so comparing with it would not catch reordered fields.
        assert lines[0] == ("step,loss,grad_norm_pre,grad_norm_post,"
                            "clipped_fraction,effective_lr,reset,diverged")
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

    def test_failed_atomic_write_removes_its_temporary_file(self, tmp_path,
                                                            monkeypatch):
        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            write_records_csv([], str(tmp_path / "r.csv"))
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed, lr", [(0, 0.01), (1, 0.3)])
def test_stable_spam_without_reset_is_adam_with_adaclip_and_adagn(
        seed, lr, tmp_path):
    """With MoRet off, Stable-SPAM is Adam behind AdaClip then AdaGN: same
    ``run.csv`` bytes and final loss, on criterion 7's INT4 task."""
    stable = replace(int4_cfg("stable_spam", lr), seed=seed)
    stable.optimizer.reset_interval = 0
    composed = replace(int4_cfg("adam", lr), seed=seed)
    composed.optimizer.transforms = ["adaclip", "adagn"]
    results = [run(cfg, records_path=str(tmp_path / f"{i}.csv"))
               for i, cfg in enumerate((stable, composed))]
    assert (tmp_path / "0.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
    assert results[0].final_val_loss == results[1].final_val_loss


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

    def test_bad_lr_rejected_before_any_run(self, tmp_path):
        # Every grid point is checked first: the good LRs before the NaN
        # leave no CSV behind.
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match=r"schedule\.lr_peak"):
            sweep(small_cfg(), [1e-3, 2e-3, math.nan], out_dir=str(out))
        assert not out.exists()
