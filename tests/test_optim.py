import ast
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablespam import harness, optim, oracles, selftest
from stablespam.harness import (OptimizerConfig, RunConfig, make_optimizer,
                                prepare)
from stablespam.optim import (TENSOR, AdaClipState, AdaGnState,
                              AdafactorState, AdamMoments, ConfigError,
                              adaclip, adagn, global_grad_norm,
                              grad_clip_global, spike_clip)
from stablespam.tensor_core import NonFiniteError, frobenius_norm, make_rng
from tasks import (OWN, STEP_CALLS, int4_cfg, memory_orders, mlp_step_calls,
                   named_config, neumaier, traces_of)


def scalar(x):
    return np.array([[float(x)]])


def test_oracles_import_only_math_and_numpy():
    with open(oracles.__file__) as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported and set(imported) <= {"math", "numpy"}, imported


def test_the_global_clip_oracle_adds_the_squares_left_to_right(monkeypatch):
    """The reference global norm adds the squared tensor norms in gradient
    order, as ``optim.global_grad_norm`` does, also where builtin ``sum``
    compensates (Python 3.12 on): with ``sum`` so patched, the trace still
    matches bit for bit."""
    monkeypatch.setattr(oracles, "sum", neumaier, raising=False)
    assert traces_of("adam", "adam_gradclip") == (
        True, "adam/adam_gradclip max dev 0")


def test_the_trace_entries_trace_every_optimizer():
    """A new optimizer cannot ship without an oracle trace; the cases come
    in ``OPTIMIZER_NAMES`` order, the order the passing detail names them."""
    traced = [name for name, _, _ in selftest.TRACE_CASES]
    assert list(dict.fromkeys(traced)) == list(harness.OPTIMIZER_NAMES)


def test_the_set_covers_each_case():
    """The oracle records of the three tensors show, on each seed, AdaClip
    clipping in one tensor alone, an all-zero gradient (AdaGN's zero-norm
    branch) and the global clip acting and idle; MoRet and SPAM reset."""
    cases = selftest.TRACE_CASES
    for seed in selftest.TRACE_SEEDS:
        streams = selftest.trace_sets(seed)[1]
        for name, _, reference in cases:
            records = reference(streams, selftest.LR)
            if name == "stable_spam":
                clipping = [[c > 0 for _, _, c in trace] for trace in records]
                assert 1 in np.sum(clipping, axis=0)
                assert any(not g.any()
                           for trace in records for _, g, _ in trace)
            if name == "adam_gradclip":
                idle = {all(map(np.array_equal, [g for _, g, _ in step], raw))
                        for step, raw in zip(zip(*records), zip(*streams))}
                assert idle == {True, False}
    first = {name: options for name, options, _ in reversed(cases)}
    assert 0 < first["stable_spam"]["reset_interval"] < selftest.TRACE_STEPS
    assert 0 < first["spam"]["spam_reset_interval"] < selftest.TRACE_STEPS
    assert first["spam"]["spam_warmup_steps"] > 0


def test_the_stable_spam_oracle_takes_a_zero_gradient(monkeypatch):
    """The oracle steps all-zero gradients, at step 1 or later, exactly."""
    zero = np.zeros((2, 1, 3))
    monkeypatch.setattr(selftest, "trace_sets", lambda seed: [
        [zero], [zero, np.concatenate([np.ones((1, 1, 3)), zero[:1]])]])
    assert traces_of("stable_spam") == (True, "stable_spam max dev 0")


# ---------------------------------------------------------------------------
# AdaClip
# ---------------------------------------------------------------------------

class TestAdaClip:
    def test_first_step_threshold_equals_gmax(self):
        state = AdaClipState()
        out, clipped = adaclip(scalar(2.0), state, 0.999)
        assert out[0, 0] == 2.0
        assert clipped == 0

    def test_zero_gradient_unchanged(self):
        state = AdaClipState()
        out, clipped = adaclip(np.zeros((2, 2)), state, 0.999)
        assert np.array_equal(out, np.zeros((2, 2)))
        assert clipped == 0

    def test_clipped_entries_bounded_by_threshold(self):
        rng = make_rng(1)
        state = AdaClipState()
        for step in range(1, 40):
            g = rng.standard_normal((4, 4)) * (10.0 if step % 7 == 0 else 1.0)
            out, clipped = adaclip(g, state, 0.99)
            t_hat = state.t_threshold / (1 - 0.99 ** step)
            gmax = float(np.max(np.abs(g)))
            mask = np.abs(g) > t_hat
            assert clipped == np.count_nonzero(mask)
            assert np.all(np.abs(out[mask]) <= t_hat * (1 + 1e-12))
            if mask.any() and gmax > t_hat:
                i, j = np.unravel_index(np.argmax(np.abs(g)), g.shape)
                assert abs(out[i, j]) == pytest.approx(t_hat, rel=1e-12, abs=0)

    def test_nonfinite_errors(self):
        for bad in (math.nan, math.inf, -math.inf):
            g = np.ones((2, 3))
            g[1, 2] = bad
            with pytest.raises(ValueError, match="non-finite gradient"):
                adaclip(g, AdaClipState(), 0.999)


# ---------------------------------------------------------------------------
# AdaGN
# ---------------------------------------------------------------------------

class TestAdaGn:
    def test_first_step_norm_close_to_one(self):
        g = make_rng(2).standard_normal((3, 3))
        out = adagn(g, AdaGnState(), 0.7, 0.9)
        c = frobenius_norm(g)
        assert frobenius_norm(out) == pytest.approx(c / (c + 1e-6),
                                                    rel=1e-12, abs=0)

    def test_constant_norm_stream(self):
        state = AdaGnState()
        g = np.array([[3.0, 4.0]])  # norm 5
        for _ in range(20):
            out = adagn(g, state, 0.7, 0.9)
            assert frobenius_norm(out) == pytest.approx(5.0 / (5.0 + 1e-6),
                                                        rel=1e-12, abs=0)

    def test_step1_scale_invariance(self):
        # invariance is only up to the eps term in the denominator
        g = make_rng(4).standard_normal((3, 3))
        a = adagn(g, AdaGnState(), 0.7, 0.9)
        b = adagn(100.0 * g, AdaGnState(), 0.7, 0.9)
        assert np.allclose(a, b, rtol=1e-5, atol=0)

    def test_zero_gradient_updates_state_but_passes_through(self):
        state = AdaGnState()
        adagn(scalar(5.0), state, 0.7, 0.9)
        out = adagn(np.zeros((1, 1)), state, 0.7, 0.9)
        assert out[0, 0] == 0.0
        assert state.step == 2
        assert state.m_norm == pytest.approx(0.7 * (0.3 * 5.0), rel=1e-12,
                                             abs=0)


# ---------------------------------------------------------------------------
# MoRet
# ---------------------------------------------------------------------------

class TestMoRet:
    def test_interval_one_degenerates_to_sign_step(self):
        # every step resets, so the update is always -lr * g/(|g| + eps)
        opt = make_optimizer(OptimizerConfig(name="stable_spam",
                                             reset_interval=1))
        params = {"w": scalar(0.0)}
        lr = 0.01
        prev = 0.0
        gs = make_rng(5).standard_normal(20) * 2.0
        for step, g in enumerate(gs, start=1):
            opt.step(params, {"w": scalar(g)}, lr, step)
            # reconstruct the transformed gradient that Adam consumed
            moments_g = opt.base.moments.m[0, 0] / (1 - 0.9)
            expected = prev - lr * moments_g / (abs(moments_g) + 1e-6)
            assert params["w"][0, 0] == pytest.approx(expected, rel=0,
                                                      abs=1e-12)
            prev = params["w"][0, 0]


def test_the_parameter_set_is_laid_out_at_the_first_step():
    """Later steps name the first step's tensors; neither the set nor any
    tensor in it may be empty."""
    opt = make_optimizer(OptimizerConfig(name="adam"))
    with pytest.raises(ValueError, match=r"^the parameter set has no tensors$"):
        opt.step({}, {}, 0.1, 1)
    with pytest.raises(ValueError, match=r"^tensor 'e' is empty$"):
        opt.step({"a": np.ones((1, 2)), "e": np.ones((0, 2))},
                 {"a": np.ones((1, 2)), "e": np.ones((0, 2))}, 0.1, 1)
    opt.step({"a": np.ones((1, 2))}, {"a": np.ones((1, 2))}, 0.1, 1)
    with pytest.raises(ValueError, match=r"^the tensors \['b'\] are not "
                                         r"the first step's \['a'\]$"):
        opt.step({"b": np.ones((1, 2))}, {"b": np.ones((1, 2))}, 0.1, 2)


@pytest.mark.parametrize("base", [optim.SgdBase, optim.AdamBase,
                                  optim.LionBase, optim.AdamMiniBase,
                                  optim.AdafactorBase])
def test_vector_weight_updates_as_a_row(base):
    g = np.array([1.0, -2.0, 3.0])
    row, vector = {"w": np.zeros((1, 3))}, {"w": np.zeros(3)}
    optim.ComposedOptimizer([], base()).step(row, {"w": g[None]}, 0.1, 1)
    optim.ComposedOptimizer([], base()).step(vector, {"w": g}, 0.1, 1)
    assert np.array_equal(vector["w"], row["w"])


# ---------------------------------------------------------------------------
# Step rules
# ---------------------------------------------------------------------------

class TestAdam:
    def test_first_step_closed_form(self):
        w = optim.AdamBase().update(TENSOR, scalar(0.0), scalar(3.0), 0.1)
        assert w[0, 0] == pytest.approx(-0.1 * 3.0 / (3.0 + 1e-6),
                                        rel=1e-12, abs=0)

    def test_constant_gradient_magnitude_approaches_lr(self):
        base = optim.AdamBase()
        w = scalar(0.0)
        for _ in range(100):
            w = base.update(TENSOR, w, scalar(0.5), 0.01)
        assert w[0, 0] != 0.0  # moved
        last_update = None
        for _ in range(3):
            before = w[0, 0]
            w = base.update(TENSOR, w, scalar(0.5), 0.01)
            last_update = abs(w[0, 0] - before)
        assert last_update == pytest.approx(0.01, rel=1e-3, abs=1e-12)


class TestSpikeClip:
    def test_worked_example(self):
        out, flagged = spike_clip(scalar(100.0), scalar(1.0), 5000.0)
        assert out[0, 0] == pytest.approx(math.sqrt(5000.0), rel=1e-12, abs=0)
        assert flagged == 1

    def test_below_threshold_unchanged(self):
        out, flagged = spike_clip(scalar(1.0), scalar(1.0), 5000.0)
        assert out[0, 0] == 1.0
        assert flagged == 0

    def test_zero_v_unchanged(self):
        g = np.array([[100.0, 2.0]])
        v = np.array([[0.0, 1.0]])
        out, flagged = spike_clip(g, v, 1.0)
        assert out[0, 0] == 100.0
        assert out[0, 1] == pytest.approx(1.0, rel=1e-6, abs=1e-12)
        assert flagged == 1

    def test_flagged_entry_on_the_boundary_counts(self):
        # g^2 / v = 2.0000000000000004 > 2 flags the entry, and its clipped
        # value sqrt(2 * 5) is g itself: the count is the mask's, not the
        # number of entries that changed.
        g = scalar(math.sqrt(10.0))
        out, flagged = spike_clip(g, scalar(5.0), 2.0)
        assert np.array_equal(out, g)
        assert flagged == 1

    def test_step_reports_the_flagged_share(self):
        # The same boundary entry, next to one far below the threshold.
        base = optim.AdamBase()
        base.second_moment((1, 2))[...] = 5.0
        opt = optim.ComposedOptimizer(["spike_clip"], base, gss_threshold=2.0)
        grads = {"w": np.array([[math.sqrt(10.0), 1.0]])}
        telemetry = opt.step({"w": np.zeros((1, 2))}, grads, 0.1, 1)
        assert telemetry.clipped_fraction == 0.5

    def test_fixed_point(self):
        rng = make_rng(7)
        g = rng.standard_normal((5, 5)) * 50
        v = np.abs(rng.standard_normal((5, 5)))
        once, _ = spike_clip(g, v, 10.0)
        assert np.array_equal(spike_clip(once, v, 10.0)[0], once)


@settings(max_examples=60, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 40)),
                       min_size=2, max_size=6),
       scales=st.lists(st.integers(-30, 30), min_size=6, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_layout_norms_are_each_tensors_frobenius_norm(shapes, scales, seed):
    # Layout.tensor_norms squares the flat vector once and reduces each
    # segment; each norm must be the bytes frobenius_norm gives the tensor
    # alone, at any segment offset and at magnitudes 1e-30..1e30, as a
    # Python float (and as an array entry in Layout.norms). Their
    # combination is the flat vector's norm.
    rng = make_rng(seed)
    parts = [rng.standard_normal(shape) * 10.0**scale
             for shape, scale in zip(shapes, scales)]
    layout = optim.lay_out({str(i): p.shape for i, p in enumerate(parts)})
    flat = layout.flatten(parts)
    want = [frobenius_norm(p) for p in parts]
    got = layout.tensor_norms(flat)
    assert [type(n) for n in got] == [float] * len(parts)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert layout.norms(flat).tobytes() == np.array(want).tobytes()
    assert global_grad_norm(got) == pytest.approx(
        float(np.linalg.norm(flat)), rel=1e-12, abs=0)


class TestGradClipGlobal:
    def test_three_four_five(self):
        layout = optim.lay_out({"a": (1, 1), "b": (1, 1)})
        out = grad_clip_global(np.array([3.0, 4.0]), 1.0, layout)
        assert out[0] == pytest.approx(0.6, rel=1e-12, abs=0)
        assert global_grad_norm(layout.tensor_norms(out)) == pytest.approx(
            1.0, rel=1e-12, abs=0)

    def test_below_threshold_unchanged(self):
        g = np.array([[0.5]])
        out = grad_clip_global(g, 1.0)
        assert out[0, 0] == 0.5 and out is not g

    @pytest.mark.parametrize("threshold", [0.0, -1.0])
    def test_threshold_must_be_positive(self, threshold):
        with pytest.raises(ValueError, match="must be positive"):
            grad_clip_global(np.array([[0.5]]), threshold)


class TestSpam:
    def test_warmup_scale_after_reset(self):
        base = optim.AdamBase(reset_interval=500, reset_style="after",
                              warmup_steps=150)
        assert base.begin_step(501)[1] == pytest.approx(1 / 150, rel=1e-6,
                                                        abs=1e-12)
        assert base.begin_step(650)[1] == 1.0
        assert base.begin_step(900)[1] == 1.0

    def test_unknown_reset_style_rejected(self):
        with pytest.raises(ValueError, match="unknown reset_style 'before'"):
            optim.AdamBase(reset_interval=10, reset_style="before")


class TestAdafactor:
    def test_rank_one_reconstruction_first_step(self):
        # g^2 is rank one => factored estimate reproduces it at t=1
        r = np.array([[1.0], [4.0]])
        c = np.array([[9.0, 16.0]])
        g = np.sqrt(r * c)
        base = optim.AdafactorBase()
        base.update(TENSOR, np.zeros((2, 2)), g, 0.01)
        [state] = base.states
        v_hat = state.row * state.col / np.mean(state.row)
        assert np.allclose(v_hat, g * g, rtol=1e-9, atol=1e-8)

    def test_update_rms_bounded_by_d(self):
        rng = make_rng(11)
        base = optim.AdafactorBase(d=1.0)
        w = np.zeros((3, 3))
        for _ in range(20):
            g = rng.standard_normal((3, 3)) * 10
            new_w = base.update(TENSOR, w, g, 1.0)
            u = (w - new_w) / 1.0
            assert math.sqrt(float(np.mean(u * u))) <= 1.0 + 1e-12
            w = new_w


class TestLion:
    def test_positive_gradient_moves_down_by_lr(self):
        w = optim.LionBase().update(TENSOR, scalar(1.0), scalar(0.5), 0.01)
        assert w[0, 0] == pytest.approx(1.0 - 0.01, rel=1e-15, abs=0)

    def test_zero_gradient_zero_momentum_no_move(self):
        w = optim.LionBase().update(TENSOR, scalar(1.0), scalar(0.0), 0.01)
        assert w[0, 0] == 1.0


class TestAdamMini:
    def test_uniform_gradient_equals_adam(self):
        mini, adam = optim.AdamMiniBase(), optim.AdamBase()
        w1 = np.zeros((2, 3))
        w2 = np.zeros((2, 3))
        for _ in range(10):
            g = np.full((2, 3), 0.7)
            w1 = mini.update(TENSOR, w1, g, 0.01)
            w2 = adam.update(TENSOR, w2, g, 0.01)
        assert np.allclose(w1, w2, rtol=0, atol=1e-12)

    def test_first_step_closed_form(self):
        g = np.array([[3.0, 4.0]])
        w = optim.AdamMiniBase().update(TENSOR, np.zeros((1, 2)), g, 0.1)
        # shared v = mean(g^2) = 12.5; m_hat = g
        expected = -0.1 * g / (math.sqrt(12.5) + 1e-6)
        assert np.allclose(w, expected, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Stable-SPAM and ComposedOptimizer
# ---------------------------------------------------------------------------

class TestStableSpam:
    def test_first_step_closed_form(self):
        opt = make_optimizer(OptimizerConfig(name="stable_spam"))
        params = {"w": scalar(0.0)}
        opt.step(params, {"w": scalar(2.0)}, 0.05, 1)
        # AdaClip no-op; AdaGN gives norm 2/(2+eps); Adam t=1 divides it out
        g_hat = 2.0 / (2.0 + 1e-6)
        assert params["w"][0, 0] == pytest.approx(
            -0.05 * g_hat / (g_hat + 1e-6), rel=1e-9, abs=1e-12)

    def test_reset_observable_and_moments_zeroed(self):
        opt = make_optimizer(OptimizerConfig(name="stable_spam",
                                             reset_interval=5))
        params = {"w": scalar(0.0)}
        resets = [opt.step(params, {"w": scalar(1.0)}, 0.01, step).reset
                  for step in range(1, 5)]
        assert not any(resets)
        assert opt.base.moments.m[0, 0] != 0
        assert opt.step(params, {"w": scalar(1.0)}, 1e-3, 5).reset
        assert opt.base.moments.step_in_cycle == 1  # zeroed, then one update


class TestCompose:
    def test_order_sensitivity_on_spike_trace(self):
        rng = make_rng(21)
        gs = [rng.standard_normal((4, 4)) * (10.0 if i % 17 == 0 else 1.0)
              for i in range(40)]
        traces = []
        for order in (["adaclip", "adagn"], ["adagn", "adaclip"]):
            opt = optim.ComposedOptimizer(order,
                                          optim.AdamBase(reset_interval=10))
            params = {"w": np.zeros((4, 4))}
            traces.append([])
            for step, g in enumerate(gs, start=1):
                opt.step(params, {"w": g}, 0.01, step)
                traces[-1].append(params["w"])
        assert any(not np.array_equal(a, b) for a, b in zip(*traces))

    def test_duplicate_transforms_rejected(self):
        with pytest.raises(ConfigError):
            optim.ComposedOptimizer(["adaclip", "adaclip"], optim.AdamBase())

    def test_unknown_transform_rejected(self):
        with pytest.raises(ConfigError):
            optim.ComposedOptimizer(["sparsify"], optim.AdamBase())

    def test_spike_clip_requires_second_moment(self):
        with pytest.raises(ConfigError):
            optim.ComposedOptimizer(["spike_clip"], optim.LionBase())


@pytest.mark.parametrize("name, transforms, grad_clip, expected", [
    ("adam", [], 0.0, []),
    ("adam", ["adagn", "grad_clip"], 0.5, ["adagn", "grad_clip"]),
    ("adam_gradclip", [], 0.0, ["grad_clip"]),
    ("adam_gradclip", ["adaclip"], 0.0, ["adaclip", "grad_clip"]),
    ("adam_gradclip", ["adagn", "adaclip"], 0.0,
     ["adagn", "adaclip", "grad_clip"]),
    ("spam", ["grad_clip"], 0.0, ["grad_clip", "spike_clip"]),
    ("stable_spam", ["grad_clip", "spike_clip"], 2.0,
     ["grad_clip", "spike_clip", "adaclip", "adagn"]),
])
def test_make_optimizer_transform_order(name, transforms, grad_clip, expected):
    """Listed transforms keep their order, and the optimizer's own come
    last; ``grad_clip``, which a run with the global clip accepts, is that
    clip's threshold (0: 1.0)."""
    ocfg = OptimizerConfig(name=name, transforms=transforms,
                           grad_clip=grad_clip)
    RunConfig(optimizer=ocfg).validate()
    opt = make_optimizer(ocfg)
    assert opt.transforms == expected
    assert opt.grad_clip_threshold == (grad_clip or 1.0)


# The optimizers whose base keeps no second moment for ``spike_clip``.
NO_SECOND_MOMENT = ("sgd", "lion", "adafactor", "adam_mini")


def test_every_transform_list_is_the_listed_then_the_own():
    """For every optimizer and every ordered list of distinct transforms
    (65 lists, 520 pairs), ``make_optimizer`` runs exactly the listed ones,
    then the optimizer's own, or refuses under ``optimizer.transforms`` a
    list that repeats one, or that puts ``spike_clip`` on a base with no
    second moment."""
    lists = [list(p) for k in range(len(optim.TRANSFORM_KINDS) + 1)
             for p in itertools.permutations(optim.TRANSFORM_KINDS, k)]
    assert len(lists) == 65
    for name in harness.OPTIMIZER_NAMES:
        for listed in lists:
            expected = listed + OWN.get(name, [])
            refused = (len(set(expected)) < len(expected)
                       or ("spike_clip" in expected
                           and name in NO_SECOND_MOMENT))
            ocfg = OptimizerConfig(name=name, transforms=listed)
            if refused:
                with pytest.raises(ConfigError,
                                   match=r"^optimizer\.transforms: "):
                    make_optimizer(ocfg)
            else:
                assert make_optimizer(ocfg).transforms == expected


def test_a_state_equals_only_itself():
    # Each holds arrays (AdaGN's and AdaClip's under a Layout), whose
    # field-wise == would raise.
    for make in (lambda: AdamMoments.zeros((2, 2)),
                 lambda: AdafactorState(np.zeros((2, 1)), np.zeros((1, 2))),
                 lambda: AdaGnState(np.zeros(2), np.zeros(2)),
                 lambda: AdaClipState(np.zeros(2))):
        state = make()
        assert state == state and state != make()


def test_make_optimizer_unknown_name():
    with pytest.raises(ConfigError, match=r"^optimizer\.name: unknown value"):
        make_optimizer(OptimizerConfig(name="adamw"))


# A valid value of each numeric optimizer key that is not its default.
CHANGED = {"beta1": 0.5, "beta2": 0.9, "eps": 1e-3, "grad_clip": 0.5,
           "adafactor_eps1": 1e-3, "adafactor_d": 0.5, "lion_beta1": 0.5,
           "lion_beta2": 0.5, "weight_decay": 0.1, "spam_reset_interval": 10,
           "spam_warmup_steps": 5, "gss_threshold": 2.0, "reset_interval": 10,
           "gamma1": 0.5, "gamma2": 0.5, "gamma3": 0.5}


def key_trace(ocfg):
    """The weights after 30 steps of ``ocfg``'s optimizer on two tensors,
    N(0, 1) gradients with every 7th spiked 10x, from ones at lr 0.01. The
    optimizer is built whether or not ``validate`` accepts ``ocfg``."""
    opt = make_optimizer(ocfg)
    rng = make_rng(51)
    params = {"w": np.ones((3, 4)), "gain": np.ones((1, 4))}
    for step in range(1, 31):
        scale = 10.0 if step % 7 == 0 else 1.0
        grads = {key: rng.standard_normal(w.shape) * scale
                 for key, w in params.items()}
        opt.step(params, grads, 0.01, step)
    return [w.tobytes() for w in params.values()]


# "base+transform" is a base behind one transform: AdaGN reads
# ``optimizer.eps``, ``gamma1`` and ``gamma2`` whatever the base, so they
# also change SGD's run there. (Lion's sign update would hide ``eps``.)
@pytest.mark.parametrize("name, key", [
    (name, key) for name in harness.OPTIMIZER_NAMES + ("sgd+adagn",)
    for key in CHANGED])
def test_every_key_an_optimizer_reads_changes_its_run(name, key):
    """Every key that ``validate`` accepts off its default changes the run;
    every key it rejects there, naming the key, would have left it as is."""
    default = named_config(name)
    assert getattr(default, key) != CHANGED[key]
    changed = replace(default, **{key: CHANGED[key]})
    try:
        RunConfig(optimizer=changed).validate()
    except ConfigError as exc:
        assert str(exc).startswith(f"optimizer.{key}: ")
        assert key_trace(changed) == key_trace(default)
    else:
        assert key_trace(changed) != key_trace(default)


# ---------------------------------------------------------------------------
# The flat step's doors: memory order, rejected input, reused weights, one
# call per rule
# ---------------------------------------------------------------------------

# A parameter set in gradient order, a (1, 1) tensor among them.
FLAT_SHAPES = {"out": (3, 4), "bias": (1, 1), "w": (4, 2), "gain": (1, 5)}
FLAT_STEPS = 12


def flat_grads():
    """The gradients of each step: fixed |N(0, 1)| magnitudes with random
    signs, shrinking by 0.8 a step. At step 3 the gradient of ``w`` is all
    zeros, and at step 7 one entry of ``out`` is 100."""
    rng = make_rng(41)
    sizes = {name: np.abs(rng.standard_normal(shape))
             for name, shape in FLAT_SHAPES.items()}
    steps = [{name: size * rng.choice((-1.0, 1.0), size.shape) * 0.8 ** t
              for name, size in sizes.items()} for t in range(FLAT_STEPS)]
    steps[2]["w"][...] = 0.0
    steps[6]["out"][1, 2] = 100.0
    return steps


def flat_optimizer(name):
    """``name`` behind the global clip at 0.5 (listed, but for
    ``adam_gradclip``, whose own it is), a MoRet reset at step 8
    (Stable-SPAM), and SPAM's reset at step 6 and its 3-step warmup."""
    return make_optimizer(OptimizerConfig(
        name=name, transforms=[] if name == "adam_gradclip" else ["grad_clip"],
        reset_interval=8, spam_reset_interval=5, spam_warmup_steps=3,
        grad_clip=0.5))


def base_state(base):
    """Every field of ``base`` in order, with the fields of its moments, or
    of each tensor's state, in place of the state."""
    fields = []
    for held in vars(base).values():
        for x in held if isinstance(held, list) else [held]:
            fields += vars(x).values() if hasattr(x, "__dict__") else [x]
    return [np.asarray(x) for x in fields]


def assert_same_bytes(got, want, what):
    assert len(got) == len(want), what
    for i, (a, b) in enumerate(zip(got, want)):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (what, i)


def rejected_step_changes_nothing(name, spoil, match):
    """Step 5 gets ``spoil(grads)`` and must raise a ValueError matching
    ``match``, which is returned. The optimizer then goes on exactly like a
    twin that never saw that step: the same weights and base state."""
    opt, twin = flat_optimizer(name), flat_optimizer(name)
    ones = {key: np.ones(shape) for key, shape in FLAT_SHAPES.items()}
    params, twin_params = dict(ones), dict(ones)
    for step, grads in enumerate(flat_grads(), start=1):
        if step == 5:
            with pytest.raises(ValueError, match=match) as raised:
                opt.step(params, spoil(grads), 0.01, step)
        opt.step(params, grads, 0.01, step)
        twin.step(twin_params, grads, 0.01, step)
    assert_same_bytes(list(params.values()), list(twin_params.values()),
                      "weights")
    assert_same_bytes(base_state(opt.base), base_state(twin.base), "state")
    return raised.value


@pytest.mark.parametrize("name", harness.OPTIMIZER_NAMES + ("sgd+adagn",))
@settings(max_examples=20, deadline=None)
@given(rows=st.integers(1, 12), cols=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_the_door_reads_values_not_memory_order(name, rows, cols, seed):
    """A one-tensor set steps alike whatever memory order its weights and
    gradients come in: over three steps, each order of ``memory_orders``
    gives the C-ordered input's weights and telemetry, byte for byte."""
    rng = make_rng(seed)
    w0 = rng.standard_normal((rows, cols))
    gs = [rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-3, 4)
          for _ in range(3)]
    traces = {}
    for order in memory_orders(w0):
        opt = make_optimizer(named_config(name))
        params, trace = {"w": memory_orders(w0)[order]}, []
        for step, g in enumerate(gs, start=1):
            t = opt.step(params, {"w": memory_orders(g)[order]}, 0.01, step)
            trace += [params["w"], t.grads_post["w"], t.norms_pre,
                      t.norms_post, t.clipped_fraction, t.lr]
        traces[order] = trace
    for order, trace in traces.items():
        assert_same_bytes(trace, traces["C"], order)


@pytest.mark.parametrize("name", ["sgd+adagn", "adam_mini", "adafactor"])
@settings(max_examples=40, deadline=None)
@given(rows=st.integers(2, 12), cols=st.integers(2, 40),
       seed=st.integers(0, 2**32 - 1))
def test_a_tensor_alone_steps_as_it_does_laid_out(name, rows, cols, seed):
    """A rule with a per-tensor statistic (AdaGN's norm, Adam-mini's mean
    of g^2, Adafactor's row and column means) gives an F-ordered tensor the
    same weights alone as beside another tensor in a laid-out set."""
    rng = make_rng(seed)
    w0 = np.asfortranarray(rng.standard_normal((rows, cols)))
    alone = {"w": w0}
    together = {"w": w0, "other": rng.standard_normal((2, 3))}
    opts = [make_optimizer(named_config(name)) for _ in range(2)]
    for step in range(1, 4):
        g = np.asfortranarray(rng.standard_normal((rows, cols)))
        opts[0].step(alone, {"w": g}, 0.01, step)
        opts[1].step(together, {"w": g, "other": rng.standard_normal((2, 3))},
                     0.01, step)
    assert alone["w"].tobytes() == together["w"].tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", harness.OPTIMIZER_NAMES)
def test_nonfinite_gradient_rejected(name, bad):
    """A step with a non-finite gradient raises and changes nothing.
    ``harness.run`` never passes one: it records a diverged step instead."""
    def spoil(grads):
        spoiled = dict(grads, w=grads["w"].copy())
        spoiled["w"][1, 0] = bad
        return spoiled

    error = rejected_step_changes_nothing(
        name, spoil, r"^non-finite gradient for 'w'$")
    assert isinstance(error, NonFiniteError)


@pytest.mark.parametrize("spoil, match", [
    (lambda grads: {key: g for key, g in grads.items() if key != "w"},
     r"missing \['w'\], extra \[\]$"),
    (lambda grads: dict(grads, c=grads["w"]), r"missing \[\], extra \['c'\]$"),
    (lambda grads: dict(grads, w=grads["w"].T),
     r"\(2, 4\), \(1, 5\)\] \(gradients\) .* not the first step's "
     r"\[\(3, 4\), \(1, 1\), \(4, 2\), \(1, 5\)\]$"),
], ids=["missing", "extra", "reshaped"])
@pytest.mark.parametrize("name", harness.OPTIMIZER_NAMES)
def test_mismatched_gradients_rejected(name, spoil, match):
    """Gradients named unlike the weights raise a plain ValueError, which
    ``harness.run`` does not record as divergence, and change nothing."""
    error = rejected_step_changes_nothing(name, spoil, match)
    assert not isinstance(error, NonFiniteError)


@pytest.mark.parametrize("name", harness.OPTIMIZER_NAMES)
def test_flat_step_names_the_first_nonfinite_tensor(name):
    """A step whose second gradient holds a NaN, +inf or -inf names the
    second, in gradient order: when the fourth is not finite either, and
    when the first is finite but its squares overflow, so that its norm is
    inf as well."""
    def spoiler(bad, first):
        def spoil(grads):
            spoiled = {key: g.copy() for key, g in grads.items()}
            spoiled["out"] *= first
            spoiled["bias"][0, 0] = bad
            spoiled["gain"][0, 3] = -math.inf
            return spoiled
        return spoil

    for bad in (math.nan, math.inf, -math.inf):
        for first in (1.0, 1e200):
            with np.errstate(over="ignore"):
                error = rejected_step_changes_nothing(
                    name, spoiler(bad, first),
                    r"^non-finite gradient for 'bias'$")
            assert isinstance(error, NonFiniteError)


@pytest.mark.parametrize("name", harness.OPTIMIZER_NAMES)
def test_a_finite_gradient_whose_norm_overflows_still_steps(name):
    """Entries near 1e200 are finite, though their squares overflow and the
    tensor's norm is inf: the door lets the step through."""
    opt = flat_optimizer(name)
    params = {key: np.ones(shape) for key, shape in FLAT_SHAPES.items()}
    for step, grads in enumerate(flat_grads()[:5], start=1):
        if step == 5:
            grads = dict(grads, bias=np.full((1, 1), -1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            telemetry = opt.step(params, grads, 0.01, step)
    norms = telemetry.norms_pre
    assert norms[1] == math.inf
    assert all(math.isfinite(n) for n in norms[:1] + norms[2:])


@pytest.mark.parametrize("name", harness.OPTIMIZER_NAMES)
def test_step_reuses_only_the_weights_it_returned(name, monkeypatch):
    """After a step ``params`` holds views of one flat weight vector, which
    the next step uses without concatenating the weights again. A replaced
    tensor is the one used, an in-place edit of a returned view is seen,
    and no array the caller passed in is written: the steps equal a twin's
    that gets fresh copies every step. The gradients keep their keys, arrays
    and bytes, ``params`` its key order, and ``grads_post`` the gradients'."""
    opt, twin = flat_optimizer(name), flat_optimizer(name)
    order = list(reversed(FLAT_SHAPES))
    params = {key: np.ones(FLAT_SHAPES[key]) for key in order}
    flattened = []
    for step, grads in enumerate(flat_grads(), start=1):
        if step == 2:
            def counted(parts, flatten=opt.layout.flatten):
                flattened.append(step)
                return flatten(parts)
            monkeypatch.setattr(opt.layout, "flatten", counted)
        if step == 4:
            params["bias"] = np.full((1, 1), 3.0)
        if step == 7:
            params["w"][1, 0] = -2.0
        passed = [(x, x.tobytes()) for x in params.values()]
        twin_params = {key: x.copy() for key, x in params.items()}
        given = [(key, g, g.tobytes()) for key, g in grads.items()]
        telemetry = opt.step(params, grads, 0.01, step)
        twin.step(twin_params, grads, 0.01, step)
        for x, before in passed:
            assert x.tobytes() == before, step
        assert [(key, g, g.tobytes()) for key, g in grads.items()] == given
        assert list(params) == order
        assert list(telemetry.grads_post) == list(FLAT_SHAPES)
        assert_same_bytes(list(params.values()), list(twin_params.values()),
                          step)
    # One flatten per step for the gradients, and one more for the weights
    # only at step 4, where a tensor was replaced. Adafactor's base joins
    # its per-tensor updates with one more each step.
    steps = list(range(2, FLAT_STEPS + 1))
    joins = steps if name == "adafactor" else []
    assert flattened == sorted([4] + steps + joins)


@pytest.mark.parametrize("name, rules", [
    (name, STEP_CALLS[name][1]) for name in ("adam", "stable_spam",
                                             "adam_mini")])
def test_one_rule_call_per_step_on_the_mlp(name, rules):
    """The flat step's structural guard, with no clock: one step over the
    MLP's 7 tensors calls each rule once, not once per tensor, and the base
    keeps one state for the whole set."""
    calls = mlp_step_calls(name)
    assert {rule: calls[optim.__file__, rule] for rule in rules} == rules
    params, opt, loss_grad, _ = prepare(int4_cfg(name, 1e-2))
    _, grads = loss_grad()
    assert len(grads) == 7
    opt.step(params, grads, 1e-2, 1)
    moments = opt.base.moments
    if name == "adam_mini":
        assert moments.v.shape == (7,)
    else:
        assert moments.m.shape == (sum(g.size for g in grads.values()),)
