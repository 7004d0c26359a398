import concurrent.futures
import contextlib
import json
import math
import os
import stat
import sys
import types
import typing
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablespam import harness, optim, selftest
from stablespam.harness import (CSV_HEADER, DIVERGENCE_LOSS_CAP, ModelConfig,
                                RunConfig, ScheduleConfig, StepRecord,
                                batch_indices, global_grad_norm, lr_schedule,
                                make_optimizer, prepare, run, run_grid, sweep,
                                write_records_csv)
from stablespam.optim import ConfigError
from stablespam.tensor_core import frobenius_norm, make_rng
from tasks import (DIVERGES, STEP_CALLS, int4_cfg, mlp_step_calls, neumaier,
                   set_key, small_cfg)


class TestGlobalGradNorm:
    """``global_grad_norm`` combines the per-tensor norms a layout takes."""

    def test_three_four_five(self):
        assert global_grad_norm([3.0, 4.0]) == 5.0

    def test_single_layer_is_frobenius(self):
        g = make_rng(0).standard_normal((3, 3))
        layout = optim.lay_out({"g": g.shape})
        assert global_grad_norm(layout.tensor_norms(g)) == pytest.approx(
            float(np.linalg.norm(g)), rel=1e-12, abs=0)

    def test_matches_flattened_oracle(self):
        rng = make_rng(1)
        layers = [rng.standard_normal((2, 3)) for _ in range(5)]
        layout = optim.lay_out({i: g.shape for i, g in enumerate(layers)})
        flat = layout.flatten(layers)
        assert global_grad_norm(layout.tensor_norms(flat)) == pytest.approx(
            float(np.linalg.norm(flat)), rel=1e-12, abs=0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            global_grad_norm([])

    def test_adds_the_squares_left_to_right(self, monkeypatch):
        """From Python 3.12 on, builtin ``sum`` compensates a float sum
        (Neumaier), which would give the norm columns other bits there.
        With ``sum`` so patched, the norm still adds left to right."""
        monkeypatch.setattr(optim, "sum", neumaier, raising=False)
        rng = make_rng(2)
        for norms in ([1.0] + [2.0 ** -27] * 200,
                      (rng.random(64) * 10.0 ** rng.integers(-4, 4, 64))
                      .tolist()):
            squares = [n ** 2 for n in norms]
            total = 0.0
            for square in squares:
                total += square
            assert neumaier(squares) != total
            assert global_grad_norm(norms) == math.sqrt(total)


class TestLrSchedule:
    def test_endpoints(self):
        # the one test that runs this entry of the selftest table
        ok, detail = selftest.check_lr_schedule_endpoints()
        assert ok, detail

    def test_warmup_linear(self):
        cfg = small_cfg({"schedule.lr_peak": 2e-3, "schedule.total_steps": 100,
                         "schedule.warmup_steps": 10})
        for step in range(11):
            assert lr_schedule(step, cfg) == pytest.approx(
                2e-3 * step / 10, rel=1e-15, abs=0)

    def test_default_warmup_is_ten_percent(self):
        cfg = small_cfg({"schedule.total_steps": 500,
                         "schedule.warmup_steps": -1})
        assert cfg.resolved_warmup() == 50
        assert lr_schedule(50, cfg) == pytest.approx(1e-3, rel=1e-15, abs=0)

    def test_monotone_decay_after_warmup(self):
        cfg = small_cfg({"schedule.total_steps": 200,
                         "schedule.warmup_steps": 20})
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
        cfg = small_cfg({"schedule.total_steps": 0,
                         "schedule.warmup_steps": 0})
        with pytest.raises(ConfigError,
                           match=r"^schedule\.total_steps: 0 is outside \[1, inf\)"):
            run(cfg)

    def test_different_seeds_differ(self):
        r0 = run(small_cfg({"seed": 0}))
        r1 = run(small_cfg({"seed": 1}))
        assert r0.records[-1].loss != r1.records[-1].loss

    def test_quadratic_converges_toward_optimum(self):
        cfg = small_cfg({"model.kind": "quadratic", "schedule.lr_peak": 5e-2,
                         "schedule.total_steps": 400,
                         "schedule.warmup_steps": 10})
        result = run(cfg)
        assert result.records[-1].loss < result.records[0].loss
        assert not result.diverged

    def test_divergence_detected_within_ten_steps(self):
        result = run(DIVERGES["loss above the cap"].config())
        assert result.diverged
        assert result.records[-1].diverged
        assert result.records[-1].step <= 10
        assert result.final_val_loss is None

    def test_divergence_cap_triggers_before_inf(self):
        assert harness._is_bad(DIVERGENCE_LOSS_CAP * 10)

    @pytest.mark.parametrize("route", DIVERGES)
    def test_each_way_a_run_diverges(self, route, monkeypatch, tmp_path):
        """A diverged run has no final validation loss. Its records stop at
        the route's step, where only a flagged record is diverged: its CSV
        row has NaN norms and ends ``,0,1``."""
        row = DIVERGES[route]
        row.patch(monkeypatch)
        cfg, path = row.config(), tmp_path / "run.csv"
        result = run(cfg, records_path=str(path))
        assert result.diverged and result.final_val_loss is None
        assert [(r.step, r.diverged) for r in result.records] == [
            (step, row.flagged and step == row.last_step)
            for step in range(1, row.last_step + 1)]
        if row.flagged:
            last = result.records[-1]
            assert path.read_text().splitlines()[-1] == (
                f"{last.step},{last.loss!r},nan,nan,0.0,"
                f"{lr_schedule(last.step, cfg)!r},0,1")

    @pytest.mark.parametrize("route,last_step", [
        (route, row.last_step) for route, row in DIVERGES.items()])
    def test_on_step_sees_each_step_that_did_not_diverge(self, route,
                                                         last_step,
                                                         monkeypatch):
        # on_step is called once per step that did not diverge, in step
        # order, with that step's telemetry, and never for a diverged last
        # record, whichever way the run diverged. The benchmark's step_ms_*
        # metrics are the intervals between these calls.
        row = DIVERGES[route]
        row.patch(monkeypatch)
        seen = []
        result = run(row.config(), on_step=lambda step, grads, telemetry:
                     seen.append((step, telemetry)))
        kept = result.records[:-1] if row.flagged else result.records
        assert [step for step, _ in seen] == [r.step for r in kept] == \
            list(range(1, last_step + (not row.flagged)))
        for r, (_, t) in zip(kept, seen):
            assert not r.diverged
            assert r.effective_lr == t.lr
            assert r.reset == t.reset
            assert r.clipped_fraction == t.clipped_fraction

    def test_quantizer_overflow_is_a_diverged_row(self):
        # The row of a forward pass that meets an inf has no loss to keep,
        # and no overflow warning escapes.
        last = run(DIVERGES["inf in qdq"].config()).records[-1]
        assert last.diverged
        assert math.isnan(last.loss)
        assert math.isnan(last.grad_norm_pre)
        assert math.isnan(last.grad_norm_post)

    def test_final_loss_above_cap_is_divergence(self):
        result = run(DIVERGES["final validation above the cap"].config())
        assert not any(r.diverged for r in result.records)
        assert all(abs(r.loss) <= DIVERGENCE_LOSS_CAP for r in result.records)
        assert result.diverged

    def test_nonfinite_gradient_is_a_diverged_row(self, monkeypatch,
                                                  tmp_path):
        # The optimizer's door rejects the step: the row keeps the loss, and
        # no weight moves.
        row = DIVERGES["inf gradient"]
        seen = row.patch(monkeypatch)
        cfg, path = row.config(), tmp_path / "run.csv"
        result = run(cfg, records_path=str(path))
        model, loss, weights = seen[-1]
        assert len(seen) == 3
        assert result.diverged
        assert path.read_text().splitlines()[-1] == \
            f"3,{loss!r},nan,nan,0.0,{lr_schedule(3, cfg)!r},0,1"
        assert all(model.params[k].tobytes() == w.tobytes()
                   for k, w in weights.items())

    def test_telemetry_norms_match_callback(self):
        # Each record's norm columns are, bit for bit, the root of the sum
        # of each tensor's squared frobenius_norm over the gradients that
        # on_step sees (the model's, and the telemetry's transformed ones),
        # and global_grad_norm of the per-tensor norms in that telemetry.
        # The global clip at 0.5 (listed, but for adam_gradclip, whose own
        # it is) clips only in post (or not, in steps under the threshold).
        # Without transforms the post norm is the pre norm; stable_spam's
        # transforms change it in every step. effective_lr is the LR the
        # base applied: SPAM's 5-step warmup scales it below the
        # schedule's in the first 4 steps after each reset boundary.
        cases = [{"optimizer.name": name, "optimizer.grad_clip": clip,
                  "optimizer.transforms": listed if clip else []}
                 for name, listed in (("adam", ["grad_clip"]),
                                      ("adam_gradclip", []),
                                      ("stable_spam", ["grad_clip"]))
                 for clip in (0.0, 0.5)]
        spam = {"optimizer.name": "spam", "optimizer.spam_reset_interval": 10,
                "optimizer.spam_warmup_steps": 5}
        cases.append(spam)
        cases += [{"model.kind": "quadratic", "optimizer.name": name}
                  for name in harness.OPTIMIZER_NAMES]

        def frobenius_total(grads):
            total = 0.0
            for g in grads.values():
                total += frobenius_norm(g) ** 2
            return math.sqrt(total)

        for keys in cases:
            cfg, seen = small_cfg(keys), []
            result = run(cfg, on_step=lambda step, grads, telemetry:
                         seen.append((step, frobenius_total(grads),
                                      frobenius_total(telemetry.grads_post),
                                      len(grads), telemetry)))
            transforms = make_optimizer(cfg.optimizer).transforms
            assert len(seen) == len(result.records) == 40
            for r, (step, pre, post, size, t) in zip(result.records, seen):
                assert r.step == step
                assert r.grad_norm_pre == pre == global_grad_norm(t.norms_pre)
                assert r.grad_norm_post == post == global_grad_norm(
                    t.norms_post)
                assert len(t.norms_pre) == len(t.norms_post) == size
                assert all(type(n) is float
                           for n in t.norms_pre + t.norms_post)
                assert r.effective_lr == t.lr
                if not transforms:
                    assert t.norms_post is t.norms_pre
                elif keys["optimizer.name"] == "stable_spam":
                    assert r.grad_norm_post != r.grad_norm_pre
            if keys is spam:
                warm = [r.step for r in result.records
                        if r.effective_lr != lr_schedule(r.step, cfg)]
                assert warm == [k + j for k in (0, 10, 20, 30)
                                for j in (1, 2, 3, 4)]

    def test_stable_spam_reset_flag_at_interval(self):
        cfg = small_cfg({"optimizer.name": "stable_spam",
                         "optimizer.reset_interval": 10})
        result = run(cfg)
        flagged = [r.step for r in result.records if r.reset]
        assert flagged == [10, 20, 30, 40]

    def test_effective_lr_tracks_schedule(self):
        cfg = small_cfg()
        result = run(cfg)
        for r in result.records:
            assert r.effective_lr == lr_schedule(r.step, cfg)

    def test_spam_effective_lr_warmup_after_reset(self):
        cfg = small_cfg({"optimizer.name": "spam",
                         "optimizer.spam_reset_interval": 10,
                         "optimizer.spam_warmup_steps": 5})
        result = run(cfg)
        r11 = result.records[10]  # step 11, first after the reset at 10
        assert r11.effective_lr == pytest.approx(
            lr_schedule(11, cfg) * (1.0 / 5.0), rel=1e-15, abs=0)

    def test_invalid_config_raises_configerror(self):
        with pytest.raises(ConfigError, match="quant.format"):
            run(small_cfg({"quant.format": "int5"}))

    def test_spikes_change_trajectory_but_stay_deterministic(self):
        base = run(small_cfg())
        spikes = {"spike.probability": 0.2, "spike.severity": 0.5}
        spiked1 = run(small_cfg(spikes))
        spiked2 = run(small_cfg(spikes))
        assert spiked1.records[-1].loss == spiked2.records[-1].loss
        assert spiked1.records[-1].loss != base.records[-1].loss

    def test_quant_format_changes_losses(self):
        plain = run(small_cfg())
        quantized = run(small_cfg({"quant.format": "int4"}))
        assert plain.records[5].loss != quantized.records[5].loss


class RecordingRng:
    """A seeded generator that records how many entries each ``integers``
    draw asks for."""

    def __init__(self, seed):
        self.rng, self.sizes = make_rng(seed), []

    def integers(self, low, high, size):
        self.sizes.append(math.prod(size))
        return self.rng.integers(low, high, size=size)


class TestPrepare:
    def test_draws_nothing_from_the_batch_or_spike_streams(self, monkeypatch):
        made = []

        def recording(seed_seq):
            made.append((seed_seq, make_rng(seed_seq)))
            return made[-1][1]

        monkeypatch.setattr(harness, "make_rng", recording)
        cfg = small_cfg({"spike.probability": 0.2, "spike.severity": 0.5})
        prepared = prepare(cfg)
        streams = made[1:]  # batch order, spike noise
        assert len(streams) == 2
        for seed_seq, rng in streams:
            assert rng.bit_generator.state == \
                make_rng(seed_seq).bit_generator.state
        twin = prepare(cfg)
        assert [(k, w.tobytes()) for k, w in prepared.params.items()] == \
            [(k, w.tobytes()) for k, w in twin.params.items()]
        assert prepared.loss_grad()[0] == run(cfg).records[0].loss
        for seed_seq, rng in streams:  # the first call draws from both
            assert rng.bit_generator.state != \
                make_rng(seed_seq).bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(samples=st.sampled_from([1, 2, 3, 7, 255, 256, 2**31, 2**32 - 1,
                                    2**32, 2**32 + 5, 2**40 + 3, 2**62])
           | st.integers(1, 2**62),
           batch_size=st.integers(1, 70),
           entries=st.integers(1, 64) | st.just(harness.DRAW_ENTRIES),
           steps=st.integers(1, 30), extra=st.integers(0, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_indices_are_one_draw_per_step(self, samples, batch_size,
                                                 entries, steps, extra, seed):
        """The chunked draws yield, step by step, what one
        ``integers(0, samples, size=batch_size)`` per step gives a twin
        stream, also past the run's ``steps``. No draw asks for more than
        ``max(batch_size, DRAW_ENTRIES)`` entries; with few entries a
        draw's chunk ends mid-run and a batch may exceed them."""
        rng, twin = RecordingRng(seed), make_rng(seed)
        with mock.patch.object(harness, "DRAW_ENTRIES", entries):
            batches = batch_indices(rng, samples, batch_size, steps)
            for _ in range(steps + extra):
                want = twin.integers(0, samples, size=batch_size)
                assert next(batches).tobytes() == want.tobytes()
        assert max(rng.sizes) <= max(batch_size, entries)
        assert sum(rng.sizes) == (steps + extra) * batch_size

    def test_a_run_draws_its_batches_in_one_call(self):
        """A 250-step run of batches of 32 draws all of its indices in its
        first call, and a batch above ``DRAW_ENTRIES`` is drawn alone."""
        for batch_size, steps, want in [(32, 250, [8000]), (
                harness.DRAW_ENTRIES + 1, 2, [harness.DRAW_ENTRIES + 1] * 2)]:
            rng = RecordingRng(0)
            batches = batch_indices(rng, 10, batch_size, steps)
            assert rng.sizes == []  # nothing is drawn before the first batch
            for _ in range(steps):
                next(batches)
            assert rng.sizes == want


# numpy's Python wrappers (np.sum, ndarray.all, np.count_nonzero, ...) and
# the stdlib enum module; a traced step may only pass through the
# argument-only array-function dispatchers of ``numpy/_core/multiarray.py``.
WRAPPER_FILES = {("numpy", "_core", "_methods.py"),
                 ("numpy", "_core", "fromnumeric.py"),
                 ("numpy", "_core", "numeric.py")}

RULES = {rule for _, rules in STEP_CALLS.values() for rule in rules}


@pytest.mark.parametrize("name", harness.OPTIMIZER_NAMES)
def test_an_mlp_training_step_runs_no_numpy_or_enum_wrapper(name):
    """One step of an INT4 MLP run with input spikes calls no numpy Python
    wrapper and nothing of ``enum.py``."""
    files = {f for f, _ in mlp_step_calls(name)}
    assert any(f.endswith("optim.py") for f in files), files
    found = sorted(f for f in files if Path(f).parts[-3:] in WRAPPER_FILES
                   or Path(f).name == "enum.py")
    assert not found, found


@pytest.mark.parametrize("name", harness.OPTIMIZER_NAMES)
def test_an_mlp_training_step_makes_at_most_its_package_calls(name):
    """That step makes at most its ``STEP_CALLS`` package calls and exactly
    its rule calls."""
    package = Path(harness.__file__).parent
    calls, (package_calls, rules) = mlp_step_calls(name), STEP_CALLS[name]
    assert sum(n for (f, _), n in calls.items()
               if Path(f).parent == package) <= package_calls
    assert {rule: calls[optim.__file__, rule] for rule in RULES} == \
        {**dict.fromkeys(RULES, 0), **rules}


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

    def test_columns_do_not_depend_on_annotation_text(self, tmp_path):
        """A copy of ``harness`` whose annotations are evaluated (no
        ``from __future__ import annotations``) writes the same bytes."""
        source = Path(harness.__file__).read_text()
        eager = source.replace("from __future__ import annotations\n", "")
        assert eager != source
        module = types.ModuleType("stablespam._eager_harness")
        module.__package__ = "stablespam"
        sys.modules[module.__name__] = module  # dataclasses look it up
        try:
            exec(compile(eager, harness.__file__, "exec"), module.__dict__)
            cfg = RunConfig(model=ModelConfig(kind="quadratic"),
                            schedule=ScheduleConfig(total_steps=2))
            run(cfg, records_path=str(tmp_path / "lazy.csv"))
            records = module.run(cfg).records
            module.write_records_csv(records, str(tmp_path / "eager.csv"))
        finally:
            del sys.modules[module.__name__]
        assert ((tmp_path / "eager.csv").read_bytes()
                == (tmp_path / "lazy.csv").read_bytes())

    def test_an_iterator_writes_the_same_bytes_as_a_list(self, tmp_path):
        records = run(small_cfg({"model.kind": "quadratic"})).records
        assert len(records) == 40
        write_records_csv(records, str(tmp_path / "list.csv"))
        write_records_csv(iter(records), str(tmp_path / "iter.csv"))
        assert ((tmp_path / "iter.csv").read_bytes()
                == (tmp_path / "list.csv").read_bytes())

    def test_special_floats_are_written_as_their_repr(self, tmp_path):
        nan, inf = math.nan, math.inf
        records = [StepRecord(1, nan, inf, -inf, -0.0, 5e-324, False, True),
                   StepRecord(2, 5e-324, -0.0, -inf, inf, nan, True, False)]
        path = tmp_path / "r.csv"
        write_records_csv(records, str(path))
        assert path.read_text() == (CSV_HEADER + "\n"
                                    "1,nan,inf,-inf,-0.0,5e-324,0,1\n"
                                    "2,5e-324,-0.0,-inf,inf,nan,1,0\n")

    # SPAM and Stable-SPAM each set the warmup or MoRet key they read and
    # keep the other at its default, the one value an unread key may take;
    # SGD at LR 1e6 diverges, so its last row is the diverged one. An MLP
    # seed at int64's maximum validates on the split of that seed plus one.
    @pytest.mark.parametrize("name, keys", [
        ("spam", {"optimizer.spam_warmup_steps": 5,
                  "optimizer.reset_interval": 1000}),
        ("stable_spam", {"optimizer.reset_interval": 10,
                         "optimizer.spam_warmup_steps": 150}),
        ("sgd", {"schedule.lr_peak": 1e6}),
        ("adam", {"model.kind": "mlp", "seed": 2**63 - 1}),
    ])
    def test_numpy_typed_config_values_write_the_same_bytes(self, tmp_path,
                                                            name, keys):
        """Numpy-typed LR, warmup, MoRet, SPAM warmup and seed values write
        the Python-number run's bytes and final validation loss, and every
        field holds its annotated type: ``lr_schedule`` and the base's
        ``begin_step`` give the step telemetry, which ``on_step`` sees, a
        float LR and a bool reset."""
        keys = {"model.kind": "quadratic", "optimizer.name": name,
                "schedule.lr_peak": 0.05, "schedule.warmup_steps": 4, **keys}
        typed = {key: np.float64(value) if isinstance(value, float)
                 else np.int64(value) if isinstance(value, int) else value
                 for key, value in keys.items()}
        plain = run(small_cfg(keys), records_path=str(tmp_path / "py.csv"))
        seen = set()
        numpy = run(small_cfg(typed), records_path=str(tmp_path / "np.csv"),
                    on_step=lambda step, grads, t: seen.add(
                        (type(t.lr), type(t.reset))))
        assert seen == {(float, bool)}
        assert ((tmp_path / "np.csv").read_bytes()
                == (tmp_path / "py.csv").read_bytes())
        assert numpy.diverged == plain.diverged == (name == "sgd")
        assert numpy.final_val_loss == plain.final_val_loss
        kinds = typing.get_type_hints(StepRecord)
        assert {(field, type(getattr(record, field)))
                for record in numpy.records for field in kinds} == set(
            kinds.items())

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

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_atomic_write_gives_a_plain_creates_mode(self, tmp_path, umask):
        # The umask is the process's: set for this test and restored.
        before = os.umask(umask)
        try:
            write_records_csv([], str(tmp_path / "r.csv"))
            sweep(small_cfg(), [1e-3], out_dir=str(tmp_path / "s"))
            (tmp_path / "plain").write_text("")
        finally:
            os.umask(before)
        modes = {stat.S_IMODE(path.stat().st_mode)
                 for path in tmp_path.rglob("*") if path.is_file()}
        assert modes == {0o666 & ~umask}


@pytest.mark.parametrize("seed, lr", [(0, 0.01), (1, 0.3)])
def test_stable_spam_without_reset_is_adam_with_adaclip_and_adagn(
        seed, lr, tmp_path):
    """With MoRet off, Stable-SPAM is Adam behind AdaClip then AdaGN: same
    ``run.csv`` bytes and final loss, on criterion 7's INT4 task."""
    stable = int4_cfg("stable_spam", lr, seed)
    stable.optimizer.reset_interval = 0
    composed = int4_cfg("adam", lr, seed, transforms=["adaclip", "adagn"])
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
        cfg = DIVERGES["loss above the cap"].config()
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

    def test_each_point_runs_through_harness_run(self, monkeypatch):
        # The benchmark times a sweep's runs by swapping harness.run.
        lrs = []

        def recorder(cfg, records_path=None, on_step=None):
            lrs.append(cfg.schedule.lr_peak)
            return harness.RunResult(records=[], final_val_loss=1.0)

        monkeypatch.setattr(harness, "run", recorder)
        sweep(small_cfg(), [3e-3, 3e-4, 1e-3], jobs=1)
        assert lrs == [3e-3, 3e-4, 1e-3]

    def test_pool_no_larger_than_the_grid(self, monkeypatch):
        # Under fork the pool starts all its workers at the first submit.
        # A serial stand-in records the size asked for and starts none.
        sizes = []

        def serial_pool(max_workers):
            sizes.append(max_workers)
            return contextlib.nullcontext(types.SimpleNamespace(map=map))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            serial_pool)
        result = sweep(small_cfg(), [3e-4, 1e-3], jobs=64)
        assert sizes == [2]
        assert [e.lr for e in result.entries] == [3e-4, 1e-3]

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


def mixed_grid():
    """Adam at seeds 0 and 1, the quadratic SGD run whose loss passes the
    cap, then Stable-SPAM at seeds 0 and 1."""
    mlp = [small_cfg({"optimizer.name": name, "seed": seed})
           for name in ("adam", "stable_spam") for seed in (0, 1)]
    return mlp[:2] + [DIVERGES["loss above the cap"].config()] + mlp[2:]


class TestRunGrid:
    def test_results_come_back_in_input_order(self):
        cfgs = mixed_grid()
        finals = [r.final_val_loss for r in run_grid(cfgs, jobs=2)]
        assert finals == [run(cfg).final_val_loss for cfg in cfgs]
        assert finals[2] is None and len(set(finals)) == len(cfgs)

    def test_one_worker_and_two_write_the_same_bytes(self, tmp_path):
        cfgs = mixed_grid()
        seen = []
        for jobs in (1, 2):
            paths = [str(tmp_path / f"j{jobs}" / f"{i}.csv")
                     for i in range(len(cfgs))]
            finals = [r.final_val_loss for r in run_grid(cfgs, paths, jobs)]
            seen.append((finals, [Path(p).read_bytes() for p in paths]))
        assert seen[0] == seen[1]

    @pytest.mark.parametrize("bad", [0, 2, 4])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_bad_config_anywhere_writes_nothing(self, tmp_path, bad, jobs):
        cfgs = mixed_grid()
        set_key(cfgs[bad], "schedule.lr_peak", math.nan)
        out = tmp_path / "o"
        paths = [str(out / f"{i}.csv") for i in range(len(cfgs))]
        with pytest.raises(ConfigError, match=r"schedule\.lr_peak"):
            run_grid(cfgs, paths, jobs)
        assert not out.exists()

    def test_iterables_run_like_lists(self, tmp_path):
        """A generator of configs with a path list, and a config list with
        an iterator of paths, each run every config and write every CSV."""
        cfgs = mixed_grid()[:3]
        finals = [r.final_val_loss for r in run_grid(cfgs)]
        for name, given_cfgs, given_paths in [
                ("gen", (cfg for cfg in cfgs), list), ("iter", cfgs, iter)]:
            paths = [str(tmp_path / name / f"{i}.csv") for i in range(3)]
            results = run_grid(given_cfgs, given_paths(paths))
            assert [r.final_val_loss for r in results] == finals
            assert all(Path(p).exists() for p in paths)

    def test_a_path_list_of_another_length_runs_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            run_grid(mixed_grid(), [str(tmp_path / "o" / "0.csv")])
        assert not (tmp_path / "o").exists()
