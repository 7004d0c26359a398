"""The one table of release-gate checks.

Each ``CHECKS`` entry is a name and a function that takes no arguments,
carries its own data and tolerance, and returns ``(ok, detail)``; each kind
of check is one entry over its declared cases. ``stablespam selftest`` runs
the whole table. In pytest each entry runs once: criteria 1-6 and 10 of the
acceptance suite (``tests/test_acceptance.py``) call all but ``lr schedule
endpoints``, which ``tests/test_harness.py`` calls, and ``quantizer rounds
to nearest, ties to even``, which ``tests/test_quant.py`` calls one format
at a time. Every expected value comes from :mod:`stablespam.oracles` or is
stated in the check, never from the code it checks: each optimizer's trace
bit for bit (``TRACE_CASES``), the quantizer byte for byte, each norm. The
models' analytic gradients are checked against central finite differences,
and the quantizer's properties in one pass over its check data. Every
optimizer trace steps a parameter set through ``harness.make_optimizer``, as
training does, and checks each step's weights and telemetry: one tensor
alone and three laid out together.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import harness, models, optim, oracles, quant
from .oracles import each_tensor
from .quant import QuantSpec
from .tensor_core import make_rng

TRACE_SEEDS = (7, 101)
# A scalar, the shape of the MLP's gains, and a non-square matrix
TRACE_SHAPES = ((1, 1), (1, 4), (3, 4))
TRACE_STEPS = 100
LR = 0.01
QUANT_FORMATS = tuple(fmt for fmt in QuantSpec if fmt is not QuantSpec.NONE)


def trace_sets(seed):
    """The two parameter sets each trace steps, lists of their tensors'
    gradient streams drawn from one stream of ``seed``: a (3, 4) tensor
    alone (a quadratic run's path), N(0, 4) with every 17th gradient from
    the first spiked 10x; and the ``TRACE_SHAPES`` together (an MLP run's
    path), N(0, 1) times 0.3, 0.1 and 0.25, so that the global clip at 1.0
    acts on some steps only, with the (1, 4) gradient all zero at step 40
    and the (3, 4) one alone spiked 10x at step 70."""
    rng = make_rng(seed)
    alone = rng.standard_normal((TRACE_STEPS, 3, 4)) * 2.0
    alone[::17] *= 10.0
    together = [rng.standard_normal((TRACE_STEPS, *shape)) * scale
                for shape, scale in zip(TRACE_SHAPES, (0.3, 0.1, 0.25))]
    together[1][39] = 0.0
    together[2][69] *= 10.0
    return [alone], together


def _trace_devs(ocfg, reference):
    """Yields, on each parameter set, the largest deviation of each quantity
    ``_trace_check`` compares: the optimizer of ``ocfg`` against ``reference``."""
    for streams in (s for seed in TRACE_SEEDS for s in trace_sets(seed)):
        names = [f"t{k}" for k in range(len(streams))]
        # The weights in the reverse of the gradients' order, as the MLP's
        params = {key: np.zeros(gs.shape[1:])
                  for key, gs in reversed(list(zip(names, streams)))}
        opt, got, want = harness.make_optimizer(ocfg), [], []
        for step, gs in enumerate(zip(*streams), start=1):
            telemetry = opt.step(params, dict(zip(names, gs)), LR, step)
            got.append([telemetry.clipped_fraction] + [
                x for key in names
                for x in (params[key], telemetry.grads_post[key])])
        size = sum(gs[0].size for gs in streams)
        for records in zip(*reference(streams, LR)):
            want.append([sum(c for _, _, c in records) / size] + [
                x for w, g, _ in records for x in (w, g)])
        yield from (np.max(np.abs(np.subtract(a, b)))
                    for a, b in zip(zip(*got), zip(*want), strict=True))


def _trace_check(*cases):
    """Optimizer steps against their references, bit for bit, each case a
    tuple ``(name, options, reference)``. The optimizer ``name``, built by
    ``harness.make_optimizer`` from a config with ``options`` that must pass
    ``RunConfig.validate`` as the CLI's configs do, steps each parameter set
    of ``trace_sets`` from zero at ``LR``. Per step, each tensor's weights
    and ``grads_post`` must be the ``w`` and ``g`` of its oracle record
    ``(w, g, clipped)`` from ``reference(streams, LR)``, and
    ``clipped_fraction`` the clipped counts over the set's size. A case
    that raises fails its name, and the other cases still run."""
    devs, failed = {}, {}
    for name, options, reference in cases:
        try:
            ocfg = harness.OptimizerConfig(name=name, **options)
            harness.RunConfig(optimizer=ocfg).validate()
            devs.setdefault(name, []).extend(_trace_devs(ocfg, reference))
        except Exception as exc:  # noqa: BLE001
            failed.setdefault(
                name, f"{name} raised {type(exc).__name__}: {exc}")
    # np.max, unlike max(), is NaN when any deviation is, and NaN != 0.
    for name, d in devs.items():
        if name not in failed and np.max(d) != 0.0:
            failed[name] = f"{name} max dev {np.max(d):.2e}"
    return not failed, ("; ".join(failed.values())
                        or f"{'/'.join(devs)} max dev 0")


# Every optimizer's trace cases, in ``harness.OPTIMIZER_NAMES`` order.
# adam_gradclip clips at 1.0, the library's default threshold. SPAM runs with
# spike threshold 2, warmup 10 and reset 20 or 25; with reset and warmup off
# and the threshold at 1e300, which nothing reaches, it is Adam. (An
# infinite threshold is not a valid config.)
TRACE_CASES = (
    ("sgd", {}, each_tensor(oracles.sgd_trace)),
    ("adam", {}, each_tensor(oracles.adam_trace)),
    ("adam_gradclip", {}, partial(oracles.adam_gradclip_trace, threshold=1.0)),
    ("adafactor", {}, each_tensor(oracles.adafactor_trace)),
    ("lion", {}, each_tensor(oracles.lion_trace)),
    ("lion", {"weight_decay": 0.1}, each_tensor(oracles.lion_trace, wd=0.1)),
    ("adam_mini", {}, each_tensor(oracles.adam_mini_trace)),
    *(("spam", {"spam_reset_interval": k, "spam_warmup_steps": 10,
                "gss_threshold": 2.0},
       each_tensor(oracles.spam_trace, theta=2.0, reset_interval=k,
                   warmup=10)) for k in (20, 25)),
    ("spam", {"spam_reset_interval": 0, "spam_warmup_steps": 0,
              "gss_threshold": 1e300}, each_tensor(oracles.adam_trace)),
    *(("stable_spam", {"reset_interval": k},
       each_tensor(oracles.stable_spam_trace, interval=k)) for k in (10, 20)),
)


# ---------------------------------------------------------------------------
# Checks (each returns (ok, detail))
# ---------------------------------------------------------------------------

def check_traces():
    return _trace_check(*TRACE_CASES)


def check_adaclip_bias_correction():
    """AdaClip's worked two-step trace: the second step clips its 10.0 to
    the bias-corrected threshold 0.010999 / 0.001999 (to 1e-12), passes its
    0.1 through unchanged, and so clips 1 of 2 entries."""
    state = optim.AdaClipState()
    optim.adaclip(np.array([[1.0, 0.5]]), state, 0.999)
    out, clipped = optim.adaclip(np.array([[10.0, 0.1]]), state, 0.999)
    err = abs(out[0, 0] - 0.010999 / 0.001999)
    return (err <= 1e-12 and out[0, 1] == 0.1 and clipped == 1,
            f"T_hat2 dev {err:.2e}, clipped {clipped} of 2")


def check_adagn_norm_identity():
    """AdaGN's output norms equal ``oracles.adagn_norm_trace`` over the
    input norms, all as ``oracles.norm``, to 1e-12 relative: on gradients
    whose scale jumps by powers of ten (3x4, seed 11: 59 steps at
    10^-3..10^3; 3x4, seed 104: 1000 steps at 10^-4..10^4; 2x5, seed 3: 199
    steps at 10^-4..10^4), and on two spikes, each of which must leave with
    a norm below 10: a 3x3 of unit norm (seed 105) 20 times and then 10
    times it, and [[1, 0]] 9 times and then [[10, 0]]."""
    streams = []
    for seed, shape, steps, exponents in ((11, (3, 4), 59, (-3, 4)),
                                          (104, (3, 4), 1000, (-4, 5)),
                                          (3, (2, 5), 199, (-4, 5))):
        rng = make_rng(seed)
        streams.append([rng.standard_normal(shape)
                        * 10.0 ** rng.integers(*exponents)
                        for _ in range(steps)])
    unit = make_rng(105).standard_normal((3, 3))
    unit = unit / oracles.norm(unit)
    spikes = [[unit] * 20 + [10.0 * unit],
              [np.array([[n, 0.0]]) for n in [1.0] * 9 + [10.0]]]
    devs, spike_norms = [], []
    for gs in streams + spikes:
        state = optim.AdaGnState()
        got = [oracles.norm(optim.adagn(g, state, 0.7, 0.9)) for g in gs]
        want = np.fromiter(oracles.adagn_norm_trace(
            [oracles.norm(g) for g in gs], 0.7, 0.9), float)
        devs.append(np.max(np.abs(got - want) / want))
        spike_norms.append(got[-1])
    worst = float(np.max(devs))
    spike_norms = spike_norms[len(streams):]
    return (worst <= 1e-12 and max(spike_norms) < 10.0,
            f"max rel dev {worst:.2e}, spike norms {np.round(spike_norms, 3)}")


def check_moret_periodicity():
    """AdamBase(reset_interval=10) resets at steps 10, 20 and 30 of 30, and
    AdamBase(reset_interval=1000) at step 1000 of 1000. A reset drops both
    moments and the step count of the cycle, so the step goes on from zeros;
    any other step keeps the moments as they were."""
    resets = []
    for interval, steps in ((10, 30), (1000, 1000)):
        base = optim.AdamBase(reset_interval=interval)
        for step in range(1, steps + 1):
            moments = base.moments = optim.AdamMoments(
                np.full((2, 2), 1.0), np.full((2, 2), 2.0), step - 1)
            if base.begin_step(step)[0]:
                resets.append(step)
                v = base.second_moment((2, 2))
                fresh = base.moments
                if fresh.m.any() or v.any() or fresh.step_in_cycle:
                    return False, f"moments not zeroed at step {step}"
            elif not (base.moments is moments and np.all(moments.m == 1.0)
                      and np.all(moments.v == 2.0)):
                return False, f"moments changed without a reset at step {step}"
    return resets == [10, 20, 30, 1000], f"resets at {resets}"


def _quant_batches():
    """(format, stacked matrices) that ``check_quant_properties`` walks
    once, 40,404 matrices in all: per format 20 6x6 N(0, 9) draws (seed 5);
    for INT4 and E1M2, 20 5x5 N(0, 1) draws (seed 6); per format 10^4 3x3
    N(0, 1) draws, each scaled by 10^-3..10^3 (seed 106); per format the
    same 20 16x16 N(0, 1) draws (seed 23) and a 4x4 zero matrix; per format
    the same 50 5x5 N(0, 1) draws, each scaled by 10^-6..10^6 (seed 29)."""
    rng = make_rng(5)
    for fmt in QUANT_FORMATS:
        yield fmt, rng.standard_normal((20, 6, 6)) * 3.0
    rng = make_rng(6)
    for fmt in (QuantSpec.INT4, QuantSpec.FP4_E1M2):
        yield fmt, rng.standard_normal((20, 5, 5))
    rng = make_rng(106)
    for fmt in QUANT_FORMATS:
        xs = rng.standard_normal((10_000, 3, 3))
        yield fmt, xs * 10.0 ** rng.integers(-3, 4, size=(10_000, 1, 1))
    for fmt in QUANT_FORMATS:
        yield fmt, make_rng(23).standard_normal((20, 16, 16))
        yield fmt, np.zeros((1, 4, 4))
        rng = make_rng(29)
        yield fmt, np.stack([rng.standard_normal((5, 5))
                             * 10.0 ** rng.integers(-6, 7) for _ in range(50)])


def check_quant_properties():
    """Each matrix of every batch quantized once, and that output once
    more: qdq(qdq(x)) == qdq(x) bit for bit (idempotence), the entry
    attaining max|x| comes out as exactly +-max|x| (absmax entry), and
    every output entry is at most max|x| in size (bound) and is zero or has
    its input's sign (sign). The last three give max|qdq(x)| == max|x|.
    Each property that fails is named with the first format it fails in,
    and idempotence with the first matrix too."""
    failed = {}
    for fmt, xs in _quant_batches():
        outs = np.stack([quant.qdq(x, fmt) for x in xs])
        again = np.stack([quant.qdq(y, fmt) for y in outs])
        moved = xs[np.any(again != outs, axis=(1, 2))]
        mags = np.abs(xs).reshape(len(xs), -1)
        amax = mags.max(axis=1)
        at_max = np.abs(outs).reshape(len(xs), -1)[np.arange(len(xs)),
                                                    mags.argmax(axis=1)]
        holds = {"idempotence": not len(moved),
                 "absmax entry": np.array_equal(at_max, amax),
                 "bound": np.all(np.abs(outs) <= amax[:, None, None]),
                 "sign": np.all((outs == 0) | (np.sign(outs) == np.sign(xs)))}
        for prop, ok in holds.items():
            if not ok and prop not in failed:
                failed[prop] = f"{fmt.value}: {prop} violated" + (
                    f" at {moved[0].tolist()}" if prop == "idempotence" else "")
    return not failed, "; ".join(failed.values())


def check_quant_grid_snap(formats=QUANT_FORMATS):
    """qdq(x) equals ``oracles.qdq(x)`` byte for byte. Per format: 10 4x5
    N(0, 9) draws (seed 17), and every midpoint between neighbours of
    ``oracles.grid``, with the top grid value as the absmax entry, times
    2^-30, 1, 2^3 and 2^40, where each stays an exact tie."""
    for fmt in formats:
        g = oracles.grid(fmt.value)
        top, ties = g[-1], (g[:-1] + g[1:]) / 2
        tied = [np.append(ties, top)[None, :] * 2.0 ** k
                for k in (-30, 0, 3, 40)]
        if not all(np.array_equal((x / np.max(np.abs(x)) * top)[0, :-1],
                                  ties) for x in tied):
            return False, f"{fmt.value}: a midpoint is not an exact tie"
        rng = make_rng(17)
        for x in [rng.standard_normal((4, 5)) * 3.0 for _ in range(10)] + tied:
            got, want = quant.qdq(x, fmt), oracles.qdq(x, fmt.value)
            if got.tobytes() != want.tobytes():
                return False, f"{fmt.value}: {got.tolist()} != {want.tolist()}"
    return True, ""


def finite_difference(f, x, h):
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
    _, grad = models.quadratic_loss_grad(p, p.w0)
    yield (lambda w: models.quadratic_loss_grad(p, w)[0]), p.w0, grad


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


def _layer_args(seed, *shapes):
    """A layer's arguments and the upstream gradient ``dy``, of the given
    shapes (``dy``'s last), drawn in that order as N(0, 1) from one seed."""
    rng = make_rng(seed)
    *args, dy = [rng.standard_normal(shape) for shape in shapes]
    return args, dy


def _fd_cases():
    """Each model's fixed argument tuples and tolerance. Each tolerance also
    bounds the absolute error at h = 1e-6 on every fixed input, by 1e-6 for
    the quadratic and 1e-7 for the others: the tolerance times the input's
    largest numeric gradient entry stays below that bound."""
    data = models.make_dataset(8, 5, 3, seed=1)
    return {
        "quadratic": ([(models.make_quadratic(5, make_rng(8)),),
                       (models.make_quadratic(5, make_rng(2)),)], 1e-7),
        "rmsnorm": ([_layer_args(9, (3, 8), (1, 8), (3, 8)),
                     _layer_args(4, (3, 5), (1, 5), (3, 5))], 1e-8),
        "swiglu": ([_layer_args(10, (4, 5), (5, 6), (5, 6), (4, 6)),
                    _layer_args(6, (3, 4), (4, 5), (4, 5), (3, 5))], 3e-9),
        "mlp": ([(models.init_mlp(5, 6, 2, 3, make_rng(12)), data.inputs,
                  data.labels),
                 (models.init_mlp(6, 8, 2, 3, make_rng(9)),
                  make_rng(10).standard_normal((5, 6)),
                  np.array([0, 1, 2, 0, 1]))], 1e-7)}


def check_finite_differences():
    """Each model's analytic gradients against central differences, on its
    fixed argument tuples and then its five random shapes. Each gradient is
    checked at steps 1e-6 and 1e-5 * max(1, max|x|); the error is relative
    to the largest numeric entry and must be below the model's tolerance.
    A model that raises fails, and the other models still run."""
    shapes = list(_random_shapes())
    ok, details = True, []
    for model, (fixed, tol) in _fd_cases().items():
        try:
            errs = []
            for args in fixed + [a for kind, a in shapes if kind == model]:
                for f, x, analytic in _PROBLEMS[model](*args):
                    for h in (1e-6, 1e-5 * max(1.0, np.max(np.abs(x)))):
                        num = finite_difference(f, x, h)
                        errs.append(np.max(np.abs(num - analytic))
                                    / max(np.max(np.abs(num)), 1e-8))
            worst = float(np.max(errs))
            details.append(f"{model} max rel err {worst:.2e}")
        except Exception as exc:  # noqa: BLE001
            worst = np.inf
            details.append(f"{model} raised {type(exc).__name__}: {exc}")
        ok = ok and worst < tol
    return ok, "; ".join(details)


def check_constant_gradient_bias_correction():
    """After 40 steps of a constant gradient c, AdaClip's bias-corrected
    threshold is |c|, Adam's bias-corrected moments are c and c^2, and its
    40th step moves w by -LR * c / (|c| + 1e-6), each to 1e-12 relative."""
    c = -2.5
    clip, moments = optim.AdaClipState(), optim.AdamMoments.zeros((1, 1))
    w = np.zeros((1, 1))
    for _ in range(40):
        optim.adaclip(np.array([[c]]), clip, 0.999)
        w, last = optim.adam_step(w, np.array([[c]]), moments, lr=LR), w
    t_hat = clip.t_threshold / (1 - 0.999 ** clip.step)
    m_hat = moments.m[0, 0] / (1 - 0.9 ** moments.step_in_cycle)
    v_hat = moments.v[0, 0] / (1 - 0.999 ** moments.step_in_cycle)
    got = (t_hat, m_hat, v_hat, w[0, 0] - last[0, 0])
    want = (abs(c), c, c * c, -LR * c / (abs(c) + 1e-6))
    ok = all(abs(x - y) <= 1e-12 * abs(y) for x, y in zip(got, want))
    return ok, "T_hat, m_hat, v_hat, step " + ", ".join(
        f"{x:.17g}" for x in got)


def check_grad_clip_norm_bound():
    """After grad_clip_global(g, 1.0, layout) on the flat vector g of a stack
    of layers, ``oracles.norm(g)`` is at most 1 + 1e-12: three 4x4 layers of
    N(0, 25) (seed 13), 100 stacks of four 3x3 layers of N(0, 25) (seed 8),
    and 100 stacks of 1-5 layers of random shape up to 4x4, N(0, 25) (seed
    110)."""
    rng = make_rng(13)
    stacks = [[rng.standard_normal((4, 4)) * 5 for _ in range(3)]]
    rng = make_rng(8)
    stacks += [[rng.standard_normal((3, 3)) * 5 for _ in range(4)]
               for _ in range(100)]
    rng = make_rng(110)
    for _ in range(100):
        n_layers = int(rng.integers(1, 6))
        stacks.append([rng.standard_normal((int(rng.integers(1, 5)),
                                            int(rng.integers(1, 5)))) * 5.0
                       for _ in range(n_layers)])
    norms = []
    for layers in stacks:
        layout = optim.lay_out({i: x.shape for i, x in enumerate(layers)})
        g = optim.grad_clip_global(layout.flatten(layers), 1.0, layout)
        norms.append(oracles.norm(g))
    worst = float(np.max(norms))
    return worst <= 1.0 + 1e-12, f"max post-clip norm {worst!r}"


def check_lr_schedule_endpoints():
    """With warmup w of n steps (100 of 1000, and 10 of 100) at the default
    peak, the LR is 0 at step 0, half the peak at w/2, exactly the peak at
    w, and 10% of the peak at n to 1e-12 relative."""
    details = []
    ok = True
    for total, warmup in ((1000, 100), (100, 10)):
        cfg = harness.RunConfig(schedule=harness.ScheduleConfig(
            total_steps=total, warmup_steps=warmup))
        peak = cfg.schedule.lr_peak
        got = [harness.lr_schedule(step, cfg)
               for step in (0, warmup // 2, warmup, total)]
        ok = ok and (got[0] == 0.0 and abs(got[1] - 0.5 * peak) < 1e-15
                     and got[2] == peak
                     and abs(got[3] - 0.1 * peak) <= 1e-12 * 0.1 * peak)
        details.append(f"lr at 0/{warmup // 2}/{warmup}/{total}: {got}")
    return ok, "; ".join(details)


CHECKS = [
    ("optimizer traces vs reference", check_traces),
    ("adaclip bias-corrected threshold", check_adaclip_bias_correction),
    ("adagn output-norm identity", check_adagn_norm_identity),
    ("moret reset periodicity", check_moret_periodicity),
    ("quantizer idempotence and absmax fixed point", check_quant_properties),
    ("quantizer rounds to nearest, ties to even", check_quant_grid_snap),
    ("finite differences vs analytic gradients", check_finite_differences),
    ("bias correction on a constant gradient",
     check_constant_gradient_bias_correction),
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
