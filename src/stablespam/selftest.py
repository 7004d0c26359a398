"""Built-in release-gate checks: optimizer traces against the independent
references in :mod:`stablespam.oracles`, finite-difference gradient checks,
and quantizer properties.

Every optimizer trace is run through ``harness.make_optimizer``, the path
training uses, so a regression in the library shows up as a trace mismatch.
"""

from __future__ import annotations

import math

import numpy as np

from . import harness, models, optim, oracles, quant
from .quant import QuantFormat, QuantSpec
from .tensor_core import make_rng

TRACE_TOL = 1e-12
LR = 0.01


def _trace_gradients(n=100, seed=7):
    rng = make_rng(seed)
    return [float(g) for g in rng.standard_normal(n) * 2.0]


def _named_trace(gs, name, **options):
    """Scalar weight trace of the optimizer ``name`` built from a config."""
    opt = harness.make_optimizer(harness.OptimizerConfig(name=name, **options))
    params = {"w": np.zeros((1, 1))}
    out = []
    for step, g in enumerate(gs, start=1):
        opt.step(params, {"w": np.array([[g]])}, LR, step)
        out.append(float(params["w"][0, 0]))
    return out


def _max_dev(a, b):
    return max(abs(x - y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Checks (each raises AssertionError on failure)
# ---------------------------------------------------------------------------

def check_adam_trace():
    gs = _trace_gradients()
    got = _named_trace(gs, "adam")
    assert _max_dev(got, oracles.adam_trace(gs, LR)) <= TRACE_TOL


def check_sgd_quadratic_descent():
    rng = make_rng(3)
    problem = models.make_quadratic(6, rng)
    loss0, _ = models.quadratic_loss_grad(problem)
    for _ in range(50):
        loss, grad = models.quadratic_loss_grad(problem)
        problem.w = problem.w - 1e-3 * grad
    loss1, _ = models.quadratic_loss_grad(problem)
    assert loss1 < loss0


def check_spam_trace():
    gs = _trace_gradients()
    got = _named_trace(gs, "spam", spam_reset_interval=20,
                       spam_warmup_steps=10, gss_threshold=2.0)
    ref = oracles.spam_trace(gs, LR, theta=2.0, reset_interval=20, warmup=10)
    assert _max_dev(got, ref) <= TRACE_TOL


def check_stable_spam_trace():
    gs = _trace_gradients()
    got = _named_trace(gs, "stable_spam", reset_interval=10)
    ref = oracles.stable_spam_trace(gs, LR, interval=10)
    assert _max_dev(got, ref) <= TRACE_TOL


def check_lion_trace():
    gs = _trace_gradients()
    got = _named_trace(gs, "lion")
    assert _max_dev(got, oracles.lion_trace(gs, LR)) <= TRACE_TOL


def check_adam_mini_trace():
    gs = _trace_gradients()
    got = _named_trace(gs, "adam_mini")
    assert _max_dev(got, oracles.adam_mini_trace(gs, LR)) <= TRACE_TOL


def check_adafactor_trace():
    gs = _trace_gradients()
    got = _named_trace(gs, "adafactor")
    assert _max_dev(got, oracles.adafactor_trace(gs, LR)) <= TRACE_TOL


def check_adaclip_bias_correction():
    state = optim.AdaClipState()
    optim.adaclip(np.array([[1.0, 0.5]]), state, 0.999)
    out, frac = optim.adaclip(np.array([[10.0, 0.1]]), state, 0.999)
    that = 0.010999 / 0.001999
    assert abs(out[0, 0] - that) <= 1e-9
    assert frac == 0.5


def check_adagn_norm_identity():
    rng = make_rng(11)
    state = optim.AdaGnState()
    for step in range(1, 60):
        g = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-3, 4)
        out = optim.adagn(g, state, 0.7, 0.9)
        m_hat = state.m_norm / (1 - 0.7 ** step)
        v_hat = state.v_norm / (1 - 0.9 ** step)
        want = m_hat / (math.sqrt(v_hat) + 1e-6)
        got = math.sqrt(float(np.sum(out * out)))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def check_moret_periodicity():
    base = optim.AdamBase(reset_interval=10)
    moments = base.state["w"] = optim.AdamMoments.zeros((2, 2))
    resets = []
    for step in range(1, 31):
        moments.m[...] = 1.0
        reset, _ = base.begin_step(step)
        resets.append(reset)
        assert not reset or not moments.m.any()
    assert [i + 1 for i, r in enumerate(resets) if r] == [10, 20, 30]


def check_quant_idempotence():
    rng = make_rng(5)
    for fmt in (QuantFormat.INT2, QuantFormat.INT3, QuantFormat.INT4,
                QuantFormat.FP4_E1M2):
        spec = QuantSpec(format=fmt)
        for _ in range(20):
            x = rng.standard_normal((6, 6)) * 3.0
            assert quant.qdq_idempotent_check(x, spec)


def check_quant_fp4_grid():
    expected = sorted({0.0} | {s * v for s in (-1.0, 1.0)
                               for v in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)})
    assert list(quant.grid(QuantFormat.FP4_E1M2)) == expected


def check_quant_absmax_fixed_point():
    rng = make_rng(6)
    for fmt in (QuantFormat.INT4, QuantFormat.FP4_E1M2):
        spec = QuantSpec(format=fmt)
        for _ in range(20):
            x = rng.standard_normal((5, 5))
            out = quant.qdq(x, spec)
            amax = float(np.max(np.abs(x)))
            i, j = np.unravel_index(np.argmax(np.abs(x)), x.shape)
            assert abs(out[i, j]) == amax
            assert float(np.max(np.abs(out))) <= amax


def _fd_check(f, x, analytic, rel_tol=1e-5):
    num = np.zeros_like(x)
    step = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        hi = f()
        x[idx] = orig - step
        lo = f()
        x[idx] = orig
        num[idx] = (hi - lo) / (2 * step)
        it.iternext()
    denom = max(float(np.max(np.abs(num))), 1e-8)
    return float(np.max(np.abs(num - analytic))) / denom <= rel_tol


def check_fd_quadratic():
    rng = make_rng(8)
    problem = models.make_quadratic(5, rng)
    _, grad = models.quadratic_loss_grad(problem)
    assert _fd_check(lambda: models.quadratic_loss_grad(problem)[0],
                     problem.w, grad, rel_tol=1e-7)


def check_fd_rmsnorm():
    rng = make_rng(9)
    x = rng.standard_normal((3, 8))
    gain = rng.standard_normal((1, 8))
    dy = rng.standard_normal((3, 8))

    def loss():
        y, _ = models.rmsnorm_fwd_bwd(x, gain)
        return float(np.sum(y * dy))

    _, bwd = models.rmsnorm_fwd_bwd(x, gain)
    dx, dgain = bwd(dy)
    assert _fd_check(loss, x, dx, rel_tol=1e-6)
    assert _fd_check(loss, gain, dgain, rel_tol=1e-6)


def check_fd_swiglu():
    rng = make_rng(10)
    x = rng.standard_normal((4, 5))
    wg = rng.standard_normal((5, 6))
    wu = rng.standard_normal((5, 6))
    dy = rng.standard_normal((4, 6))

    def loss():
        y, _ = models.swiglu_fwd_bwd(x, wg, wu)
        return float(np.sum(y * dy))

    _, bwd = models.swiglu_fwd_bwd(x, wg, wu)
    dx, dwg, dwu = bwd(dy)
    assert _fd_check(loss, x, dx, rel_tol=1e-6)
    assert _fd_check(loss, wg, dwg, rel_tol=1e-6)
    assert _fd_check(loss, wu, dwu, rel_tol=1e-6)


def check_fd_mlp():
    rng = make_rng(12)
    model = models.init_mlp(5, 6, 2, 3, rng)
    data = models.make_dataset(8, 5, 3, seed=1)
    _, grads = models.mlp_forward_backward(model, data.inputs, data.labels)
    for name, analytic in grads.items():
        ok = _fd_check(
            lambda: models.mlp_loss(model, data.inputs, data.labels),
            model.params[name], analytic)
        assert ok, f"finite-difference mismatch for {name}"


def check_compose_identity():
    rng = make_rng(20)
    gs = [rng.standard_normal((4, 4)) * (10.0 if i % 17 == 0 else 1.0)
          for i in range(60)]
    composed = optim.compose(["adaclip", "adagn"],
                             optim.AdamBase(reset_interval=10))
    params = {"w": np.zeros((4, 4))}
    ref = oracles.stable_spam_matrix_trace(gs, LR, interval=10)
    for step, (g, want) in enumerate(zip(gs, ref), start=1):
        composed.step(params, {"w": g}, LR, step)
        assert np.array_equal(params["w"], want), f"differs at step {step}"


def check_grad_clip_norm_bound():
    rng = make_rng(13)
    layers = [rng.standard_normal((4, 4)) * 5 for _ in range(3)]
    clipped = optim.grad_clip_global(layers, 1.0)
    assert harness.global_grad_norm(clipped) <= 1.0 + 1e-12


def check_lr_schedule_endpoints():
    cfg = harness.RunConfig()
    cfg.schedule.total_steps = 1000
    cfg.schedule.warmup_steps = 100
    assert harness.lr_schedule(100, cfg) == cfg.schedule.lr_peak
    assert abs(harness.lr_schedule(50, cfg) - 0.5 * cfg.schedule.lr_peak) < 1e-15
    assert abs(harness.lr_schedule(1000, cfg) - 0.1 * cfg.schedule.lr_peak) <= 1e-12


CHECKS = [
    ("adam scalar trace vs reference", check_adam_trace),
    ("sgd decreases quadratic loss", check_sgd_quadratic_descent),
    ("spam scalar trace vs reference", check_spam_trace),
    ("stable_spam scalar trace vs reference", check_stable_spam_trace),
    ("lion scalar trace vs reference", check_lion_trace),
    ("adam_mini scalar trace vs reference", check_adam_mini_trace),
    ("adafactor scalar trace vs reference", check_adafactor_trace),
    ("adaclip bias-corrected threshold", check_adaclip_bias_correction),
    ("adagn output-norm identity", check_adagn_norm_identity),
    ("moret reset periodicity", check_moret_periodicity),
    ("quantizer idempotence", check_quant_idempotence),
    ("fp4 e1m2 grid values", check_quant_fp4_grid),
    ("quantizer absmax fixed point", check_quant_absmax_fixed_point),
    ("finite differences: quadratic", check_fd_quadratic),
    ("finite differences: rmsnorm", check_fd_rmsnorm),
    ("finite differences: swiglu", check_fd_swiglu),
    ("finite differences: mlp", check_fd_mlp),
    ("compose stable_spam bitwise vs matrix oracle", check_compose_identity),
    ("global grad clip norm bound", check_grad_clip_norm_bound),
    ("lr schedule endpoints", check_lr_schedule_endpoints),
]


def run_selftest():
    """Run all checks; returns a list of (name, passed, detail)."""
    report = []
    for name, fn in CHECKS:
        try:
            fn()
            report.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001
            report.append((name, False, f"{type(exc).__name__}: {exc}"))
    return report
