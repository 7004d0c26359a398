"""The one table of release-gate checks.

Each ``CHECKS`` entry is a name and a function that takes no arguments,
carries its own data and tolerance, and returns ``(ok, detail)``.
``stablespam selftest`` runs the whole table, and criteria 1-6 and 10 of the
acceptance suite (``tests/test_acceptance.py``) call the same functions. The
checks compare optimizer traces with the independent references in
:mod:`stablespam.oracles`, analytic gradients with central finite
differences, and the quantizer with its stated properties.

Every optimizer trace is built by ``harness.make_optimizer``, the path
training uses, so a regression in the library shows up as a trace mismatch.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import harness, models, optim, oracles, quant
from .quant import QuantFormat, QuantSpec
from .tensor_core import frobenius_norm, make_rng, max_abs

TRACE_TOL = 1e-12
TRACE_SEEDS = (7, 101)
LR = 0.01
QUANT_FORMATS = (QuantFormat.INT2, QuantFormat.INT3, QuantFormat.INT4,
                 QuantFormat.FP4_E1M2)


def _trace_check(*cases):
    """Scalar weight traces against their references, each case a tuple
    ``(name, options, reference)``. The optimizer ``name`` is built from a
    config with ``options`` and steps one weight from zero at ``LR`` through
    100 gradients drawn as N(0, 4) from each trace seed; ``reference(gs, LR)``
    gives the weights it must reach, to ``TRACE_TOL``."""
    devs = []
    for name, options, reference in cases:
        for seed in TRACE_SEEDS:
            gs = [float(g) for g in make_rng(seed).standard_normal(100) * 2.0]
            opt = harness.make_optimizer(
                harness.OptimizerConfig(name=name, **options))
            params = {"w": np.zeros((1, 1))}
            got = []
            for step, g in enumerate(gs, start=1):
                opt.step(params, {"w": np.array([[g]])}, LR, step)
                got.append(params["w"][0, 0])
            devs.append(np.abs(np.subtract(got, reference(gs, LR))))
    worst = float(np.max(devs))  # a NaN anywhere makes it NaN and fails
    names = "/".join(dict.fromkeys(name for name, _, _ in cases))
    return worst <= TRACE_TOL, f"{names} max dev {worst:.2e}"


# ---------------------------------------------------------------------------
# Checks (each returns (ok, detail))
# ---------------------------------------------------------------------------

def check_adam_trace():
    # adam_gradclip clips at 1.0, the library's default threshold
    return _trace_check(
        ("adam", {}, oracles.adam_trace),
        ("adam_gradclip", {},
         partial(oracles.adam_gradclip_trace, threshold=1.0)))


def check_sgd_quadratic_descent():
    rng = make_rng(3)
    problem = models.make_quadratic(6, rng)
    loss0, _ = models.quadratic_loss_grad(problem)
    for _ in range(50):
        loss, grad = models.quadratic_loss_grad(problem)
        problem.w = problem.w - 1e-3 * grad
    loss1, _ = models.quadratic_loss_grad(problem)
    return loss1 < loss0, f"loss {loss0:.4f} -> {loss1:.4f}"


def check_spam_trace():
    return _trace_check(*(
        ("spam", {"spam_reset_interval": k, "spam_warmup_steps": 10,
                  "gss_threshold": 2.0},
         partial(oracles.spam_trace, theta=2.0, reset_interval=k, warmup=10))
        for k in (20, 25)))


def check_stable_spam_trace():
    return _trace_check(*(
        ("stable_spam", {"reset_interval": k},
         partial(oracles.stable_spam_trace, interval=k))
        for k in (10, 20)))


def check_lion_trace():
    return _trace_check(("lion", {}, oracles.lion_trace))


def check_adam_mini_trace():
    return _trace_check(("adam_mini", {}, oracles.adam_mini_trace))


def check_adafactor_trace():
    return _trace_check(("adafactor", {}, oracles.adafactor_trace))


def check_adaclip_bias_correction():
    """AdaClip's worked two-step trace: the second step's bias-corrected
    threshold is 0.010999 / 0.001999 (to 1e-9), and it clips 1 of 2 entries."""
    state = optim.AdaClipState()
    optim.adaclip(np.array([[1.0, 0.5]]), state, 0.999)
    out, frac = optim.adaclip(np.array([[10.0, 0.1]]), state, 0.999)
    err = abs(out[0, 0] - 0.010999 / 0.001999)
    return err <= 1e-9 and frac == 0.5, f"T_hat2 dev {err:.2e}, clipped {frac}"


def check_adagn_norm_identity():
    """AdaGN's output norm equals m_hat / (sqrt(v_hat) + eps) to 1e-12
    relative on 3x4 gradients whose scale jumps by powers of ten (seed 11:
    59 steps at 10^-3..10^3; seed 104: 1000 steps at 10^-4..10^4). After 20
    unit-norm steps, a 10x spike leaves with a norm below 10."""
    devs = []
    for seed, steps, exponents in ((11, 59, (-3, 4)), (104, 1000, (-4, 5))):
        rng = make_rng(seed)
        state = optim.AdaGnState()
        for step in range(1, steps + 1):
            g = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(*exponents)
            out = optim.adagn(g, state, 0.7, 0.9)
            m_hat = state.m_norm / (1 - 0.7 ** step)
            v_hat = state.v_norm / (1 - 0.9 ** step)
            want = m_hat / (math.sqrt(v_hat) + 1e-6)
            devs.append(abs(frobenius_norm(out) - want) / want)
    worst = float(np.max(devs))

    state = optim.AdaGnState()
    unit = make_rng(105).standard_normal((3, 3))
    unit = unit / frobenius_norm(unit)
    for _ in range(20):
        optim.adagn(unit, state, 0.7, 0.9)
    spike = frobenius_norm(optim.adagn(10.0 * unit, state, 0.7, 0.9))
    return (worst <= 1e-12 and spike < 10.0,
            f"max rel dev {worst:.2e}, spike norm {spike:.3f}")


def check_moret_periodicity():
    """AdamBase(reset_interval=10) resets at steps 10, 20 and 30 of 30, and a
    reset leaves the first moment zero."""
    base = optim.AdamBase(reset_interval=10)
    moments = base.state["w"] = optim.AdamMoments.zeros((2, 2))
    resets = []
    for step in range(1, 31):
        moments.m[...] = 1.0
        if base.begin_step(step)[0]:
            resets.append(step)
            if moments.m.any():
                return False, f"first moment not zeroed at step {step}"
    return resets == [10, 20, 30], f"resets at {resets}"


def _quant_batches():
    """(format, stacked matrices) for every quantizer check: per format 20
    6x6 N(0, 9) draws (seed 5); for INT4 and E1M2, 20 5x5 N(0, 1) draws
    (seed 6); per format 10^4 3x3 N(0, 1) draws, each scaled by 10^-3..10^3
    (seed 106)."""
    rng = make_rng(5)
    for fmt in QUANT_FORMATS:
        yield fmt, rng.standard_normal((20, 6, 6)) * 3.0
    rng = make_rng(6)
    for fmt in (QuantFormat.INT4, QuantFormat.FP4_E1M2):
        yield fmt, rng.standard_normal((20, 5, 5))
    rng = make_rng(106)
    for fmt in QUANT_FORMATS:
        xs = rng.standard_normal((10_000, 3, 3))
        yield fmt, xs * 10.0 ** rng.integers(-3, 4, size=(10_000, 1, 1))


def check_quant_idempotence():
    """qdq(qdq(x)) == qdq(x) bit for bit."""
    for fmt, xs in _quant_batches():
        spec = QuantSpec(format=fmt)
        for x in xs:
            once = quant.qdq(x, spec)
            if not np.array_equal(quant.qdq(once, spec), once):
                return False, f"{fmt.value}: not idempotent at {x.tolist()}"
    return True, ""


def check_quant_fp4_grid():
    expected = sorted({0.0} | {s * v for s in (-1.0, 1.0)
                               for v in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75)})
    got = quant.grid(QuantFormat.FP4_E1M2).tolist()
    return got == expected, "" if got == expected else f"grid {got}"


def check_quant_absmax_fixed_point():
    """The entry attaining max|x| comes out as exactly +-max|x|, and every
    output entry is at most max|x| in size and is zero or has its input's
    sign. Together these give max|qdq(x)| == max|x|."""
    for fmt, xs in _quant_batches():
        spec = QuantSpec(format=fmt)
        outs = np.stack([quant.qdq(x, spec) for x in xs])
        mags = np.abs(xs).reshape(len(xs), -1)
        amax = mags.max(axis=1)
        at_max = np.abs(outs).reshape(len(xs), -1)[np.arange(len(xs)),
                                                    mags.argmax(axis=1)]
        failed = [prop for prop, ok in (
            ("absmax entry", np.array_equal(at_max, amax)),
            ("bound", np.all(np.abs(outs) <= amax[:, None, None])),
            ("sign", np.all((outs == 0) | (np.sign(outs) == np.sign(xs)))))
            if not ok]
        if failed:
            return False, f"{fmt.value}: {', '.join(failed)} violated"
    return True, ""


def finite_difference(f, x, h=1e-6):
    """Central differences (f(x + h e_i) - f(x - h e_i)) / 2h of a scalar
    function over each entry of a matrix argument; ``x`` is left as is."""
    num = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        hi, lo = x.copy(), x.copy()
        hi[idx] += h
        lo[idx] -= h
        num[idx] = (f(hi) - f(lo)) / (2 * h)
    return num


def _quadratic_problems(p):
    _, grad = models.quadratic_loss_grad(p)
    yield (lambda w: models.quadratic_loss_grad(
        models.QuadraticProblem(p.a, p.b, w))[0]), p.w, grad


def _layer_problems(layer, args, dy):
    """Each argument of a ``*_fwd_bwd`` layer, under the loss sum(y * dy)."""
    for i, analytic in enumerate(layer(*args)[1](dy)):
        def f(v, i=i):
            return float(np.sum(layer(*args[:i], v, *args[i + 1:])[0] * dy))
        yield f, args[i], analytic


def _mlp_problems(model, x, labels):
    _, grads = models.mlp_forward_backward(model, x, labels)
    for name, analytic in grads.items():
        def f(v, name=name):
            saved = model.params[name]
            model.params[name] = v
            try:
                return models.mlp_loss(model, x, labels)
            finally:
                model.params[name] = saved
        yield f, model.params[name], analytic


_PROBLEMS = {"quadratic": _quadratic_problems,
             "rmsnorm": partial(_layer_problems, models.rmsnorm_fwd_bwd),
             "swiglu": partial(_layer_problems, models.swiglu_fwd_bwd),
             "mlp": _mlp_problems}


def _random_shapes():
    """Twenty (model, arguments) pairs of random shape, five per model, in
    the order one seed-107 stream draws them."""
    rng = make_rng(107)
    for _ in range(5):
        yield "quadratic", (
            models.make_quadratic(int(rng.integers(2, 7)), rng),)
    for _ in range(5):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        yield "rmsnorm", ([rng.standard_normal((rows, cols)),
                           rng.standard_normal((1, cols))],
                          rng.standard_normal((rows, cols)))
    for _ in range(5):
        rows, din, dout = (int(rng.integers(1, 4)), int(rng.integers(2, 5)),
                           int(rng.integers(2, 5)))
        yield "swiglu", ([rng.standard_normal((rows, din)),
                          rng.standard_normal((din, dout)),
                          rng.standard_normal((din, dout))],
                         rng.standard_normal((rows, dout)))
    for _ in range(5):
        din, hidden = int(rng.integers(3, 6)), int(rng.integers(4, 8))
        depth, classes = int(rng.integers(1, 3)), int(rng.integers(2, 5))
        model = models.init_mlp(din, hidden, depth, classes, rng)
        yield "mlp", (model, rng.standard_normal((4, din)),
                      rng.integers(0, classes, size=4))


def _gradient_check(model, fixed, tol):
    """Analytic gradients of one model against central differences, on the
    ``fixed`` arguments and on the model's five random shapes. Each
    gradient is checked at steps 1e-6 and 1e-5 * max(1, max|x|); the error
    is relative to the largest numeric entry and must be below ``tol``."""
    errs = []
    for args in [fixed] + [a for kind, a in _random_shapes() if kind == model]:
        for f, x, analytic in _PROBLEMS[model](*args):
            for h in (1e-6, 1e-5 * max(1.0, max_abs(x))):
                num = finite_difference(f, x, h)
                errs.append(max_abs(num - analytic) / max(max_abs(num), 1e-8))
    worst = float(np.max(errs))
    return worst < tol, f"{model} max rel err {worst:.2e}"


def check_fd_quadratic():
    return _gradient_check("quadratic",
                           (models.make_quadratic(5, make_rng(8)),), 1e-7)


def check_fd_rmsnorm():
    rng = make_rng(9)
    fixed = ([rng.standard_normal((3, 8)), rng.standard_normal((1, 8))],
             rng.standard_normal((3, 8)))
    return _gradient_check("rmsnorm", fixed, 1e-6)


def check_fd_swiglu():
    rng = make_rng(10)
    fixed = ([rng.standard_normal((4, 5)), rng.standard_normal((5, 6)),
              rng.standard_normal((5, 6))], rng.standard_normal((4, 6)))
    return _gradient_check("swiglu", fixed, 1e-6)


def check_fd_mlp():
    model = models.init_mlp(5, 6, 2, 3, make_rng(12))
    data = models.make_dataset(8, 5, 3, seed=1)
    return _gradient_check("mlp", (model, data.inputs, data.labels), 1e-5)


def check_compose_identity():
    """compose(["adaclip", "adagn"], AdamBase(reset_interval=10)) equals
    ``oracles.stable_spam_matrix_trace`` bit for bit on 4x4 N(0, 1) streams
    with a 10x spike every 17th step (seed 20, 60 steps; seed 102, 100
    steps), and its telemetry reports a reset exactly at multiples of 10.
    After 40 steps of a constant gradient c, AdaClip's bias-corrected
    threshold is |c| and Adam's bias-corrected moments are c and c^2, each
    to 1e-12 relative."""
    for seed, steps in ((20, 60), (102, 100)):
        rng = make_rng(seed)
        gs = [rng.standard_normal((4, 4)) * (10.0 if i % 17 == 0 else 1.0)
              for i in range(steps)]
        composed = optim.compose(["adaclip", "adagn"],
                                 optim.AdamBase(reset_interval=10))
        params = {"w": np.zeros((4, 4))}
        ref = oracles.stable_spam_matrix_trace(gs, LR, interval=10)
        resets = []
        for step, (g, want) in enumerate(zip(gs, ref), start=1):
            if composed.step(params, {"w": g}, LR, step).reset:
                resets.append(step)
            if not np.array_equal(params["w"], want):
                return False, f"seed {seed}: differs at step {step}"
        if resets != list(range(10, steps + 1, 10)):
            return False, f"seed {seed}: resets at {resets}"

    c = -2.5
    clip, moments = optim.AdaClipState(), optim.AdamMoments.zeros((1, 1))
    for _ in range(40):
        optim.adaclip(np.array([[c]]), clip, 0.999)
        optim.adam_step(np.zeros((1, 1)), np.array([[c]]), moments, lr=LR)
    t_hat = clip.t_threshold / (1 - 0.999 ** clip.step)
    m_hat = moments.m[0, 0] / (1 - 0.9 ** moments.step_in_cycle)
    v_hat = moments.v[0, 0] / (1 - 0.999 ** moments.step_in_cycle)
    constants_ok = (abs(t_hat - abs(c)) <= 1e-12 * abs(c)
                    and abs(m_hat - c) <= 1e-12 * abs(c)
                    and abs(v_hat - c * c) <= 1e-12 * c * c)
    return constants_ok, (f"bitwise, resets at multiples of 10; T_hat, m_hat, "
                          f"v_hat {t_hat:.17g}, {m_hat:.17g}, {v_hat:.17g}")


def check_grad_clip_norm_bound():
    """After grad_clip_global(layers, 1.0) the global norm is at most
    1 + 1e-12: three 4x4 layers of N(0, 25) (seed 13), and 100 stacks of 1-5
    layers of random shape up to 4x4, N(0, 25) (seed 110)."""
    rng = make_rng(13)
    stacks = [[rng.standard_normal((4, 4)) * 5 for _ in range(3)]]
    rng = make_rng(110)
    for _ in range(100):
        n_layers = int(rng.integers(1, 6))
        stacks.append([rng.standard_normal((int(rng.integers(1, 5)),
                                            int(rng.integers(1, 5)))) * 5.0
                       for _ in range(n_layers)])
    worst = float(np.max([
        harness.global_grad_norm(optim.grad_clip_global(layers, 1.0))
        for layers in stacks]))
    return worst <= 1.0 + 1e-12, f"max post-clip norm {worst!r}"


def check_lr_schedule_endpoints():
    cfg = harness.RunConfig()
    cfg.schedule.total_steps = 1000
    cfg.schedule.warmup_steps = 100
    peak = cfg.schedule.lr_peak
    got = [harness.lr_schedule(step, cfg) for step in (100, 50, 1000)]
    return (got[0] == peak and abs(got[1] - 0.5 * peak) < 1e-15
            and abs(got[2] - 0.1 * peak) <= 1e-12), f"lr at 100/50/1000: {got}"


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
    """Run every check in table order; returns a list of (name, passed,
    detail). A check that raises fails, with the exception as its detail."""
    report = []
    for name, check in CHECKS:
        try:
            ok, detail = check()
        except Exception as exc:  # noqa: BLE001
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        report.append((name, bool(ok), detail))
    return report
