"""Acceptance suite: ten criteria, one printed pass/fail line each.

Criteria 7 and 8 are deterministic desk-scale phenomenology checks (seeded
runs on the spike-injected INT4 MLP task); the rest are exact property and
oracle checks.
"""

import math
import time

import numpy as np

from stablespam import harness, optim, oracles
from stablespam.harness import (ModelConfig, OptimizerConfig, RunConfig,
                                ScheduleConfig, SpikeConfig, make_optimizer,
                                run)
from stablespam.models import (QuadraticProblem, init_mlp, make_quadratic,
                               mlp_forward_backward, mlp_loss,
                               quadratic_loss_grad, rmsnorm_fwd_bwd,
                               swiglu_fwd_bwd)
from stablespam.optim import (AdaClipState, AdaGnState, AdamMoments, adaclip,
                              adagn, adam_step, compose, grad_clip_global)
from stablespam.quant import QuantFormat, QuantSpec, grid, qdq
from stablespam.tensor_core import frobenius_norm, make_rng


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def scalar(x):
    return np.array([[float(x)]])


def named_trace(gs, lr, name, **options):
    """Scalar weight trace of the optimizer that training builds for a
    config: ``make_optimizer(OptimizerConfig(name=...))``."""
    opt = make_optimizer(OptimizerConfig(name=name, **options))
    params = {"w": scalar(0.0)}
    out = []
    for step, g in enumerate(gs, start=1):
        opt.step(params, {"w": scalar(g)}, lr, step)
        out.append(params["w"][0, 0])
    return out


def test_criterion_01_oracle_equivalence():
    gs = [float(g) for g in make_rng(101).standard_normal(100) * 2.0]
    lr = 0.01
    t0 = time.time()
    runs = {
        "adam": (named_trace(gs, lr, "adam"), oracles.adam_trace(gs, lr)),
        # the library's default threshold for adam_gradclip is 1.0
        "adam_gradclip": (named_trace(gs, lr, "adam_gradclip"),
                          oracles.adam_gradclip_trace(gs, lr, threshold=1.0)),
        "adafactor": (named_trace(gs, lr, "adafactor"),
                      oracles.adafactor_trace(gs, lr)),
        "lion": (named_trace(gs, lr, "lion"), oracles.lion_trace(gs, lr)),
        "adam_mini": (named_trace(gs, lr, "adam_mini"),
                      oracles.adam_mini_trace(gs, lr)),
        "spam": (named_trace(gs, lr, "spam", gss_threshold=2.0,
                             spam_reset_interval=25, spam_warmup_steps=10),
                 oracles.spam_trace(gs, lr, theta=2.0, reset_interval=25,
                                    warmup=10)),
        "stable_spam": (named_trace(gs, lr, "stable_spam", reset_interval=20),
                        oracles.stable_spam_trace(gs, lr, interval=20)),
    }
    worst = max(max(abs(a - b) for a, b in zip(got, ref))
                for got, ref in runs.values())
    elapsed = time.time() - t0
    report(1, "oracle equivalence for all 7 optimizers",
           worst <= 1e-12 and elapsed < 1.0,
           f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_algorithm_fidelity():
    rng = make_rng(102)
    gs = [rng.standard_normal((4, 4)) * (10.0 if i % 17 == 0 else 1.0)
          for i in range(100)]

    composed = compose(["adaclip", "adagn"], optim.AdamBase(reset_interval=10))
    params = {"w": np.zeros((4, 4))}
    reference = oracles.stable_spam_matrix_trace(gs, 0.01, interval=10)
    identical = True
    reset_steps = []
    for step, (g, w) in enumerate(zip(gs, reference), start=1):
        telemetry = composed.step(params, {"w": g}, 0.01, step)
        if telemetry.reset:
            reset_steps.append(step)
        if not np.array_equal(params["w"], w):
            identical = False
            break

    # MoRet zeroing exactly at multiples of the interval
    resets_ok = reset_steps == list(range(10, 101, 10))

    # bias-corrected constants under a constant gradient
    c = -2.5
    clip_state = AdaClipState()
    mom = AdamMoments.zeros((1, 1))
    for _ in range(40):
        adaclip(scalar(c), clip_state, 0.999)
        adam_step(scalar(0.0), scalar(c), mom, lr=0.01)
    t_hat = clip_state.t_threshold / (1 - 0.999 ** clip_state.step)
    m_hat = mom.m[0, 0] / (1 - 0.9 ** mom.step_in_cycle)
    v_hat = mom.v[0, 0] / (1 - 0.999 ** mom.step_in_cycle)
    constants_ok = (abs(t_hat - abs(c)) <= 1e-12 * abs(c)
                    and abs(m_hat - c) <= 1e-12 * abs(c)
                    and abs(v_hat - c * c) <= 1e-12 * c * c)

    report(2, "compose([adaclip, adagn], Adam+MoRet) == Stable-SPAM oracle",
           identical and resets_ok and constants_ok,
           f"bitwise={identical}, resets={reset_steps}")


def test_criterion_03_adaclip_worked_trace():
    state = AdaClipState()
    adaclip(np.array([[1.0, 0.5]]), state, 0.999)
    out, _ = adaclip(np.array([[10.0, 0.1]]), state, 0.999)
    expected = 0.010999 / 0.001999
    err = abs(out[0, 0] - expected)
    report(3, "AdaClip two-step worked trace", err <= 1e-9,
           f"T_hat2 dev {err:.2e}")


def test_criterion_04_adagn_norm_law():
    rng = make_rng(104)
    state = AdaGnState()
    worst = 0.0
    for step in range(1, 1001):
        g = rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-4, 5)
        out = adagn(g, state, 0.7, 0.9)
        mh = state.m_norm / (1 - 0.7 ** step)
        vh = state.v_norm / (1 - 0.9 ** step)
        want = mh / (math.sqrt(vh) + 1e-6)
        worst = max(worst, abs(frobenius_norm(out) - want) / want)
    law_ok = worst <= 1e-12

    spike_state = AdaGnState()
    base = make_rng(105).standard_normal((3, 3))
    base = base / frobenius_norm(base)
    for _ in range(20):
        adagn(base, spike_state, 0.7, 0.9)
    spiked = adagn(10.0 * base, spike_state, 0.7, 0.9)
    attenuated = frobenius_norm(spiked) < 10.0

    report(4, "AdaGN norm law and spike attenuation", law_ok and attenuated,
           f"max rel dev {worst:.2e}, spike norm {frobenius_norm(spiked):.3f}")


def test_criterion_05_quantizer_properties():
    t0 = time.time()
    formats = [QuantFormat.INT2, QuantFormat.INT3, QuantFormat.INT4,
               QuantFormat.FP4_E1M2]
    ok = True
    rng = make_rng(106)
    for fmt in formats:
        spec = QuantSpec(format=fmt)
        xs = rng.standard_normal((10_000, 3, 3)) * \
            10.0 ** rng.integers(-3, 4, size=(10_000, 1, 1))
        for x in xs:
            out = qdq(x, spec)
            amax = float(np.max(np.abs(x)))
            if not (np.array_equal(qdq(out, spec), out)
                    and np.all(np.abs(out) <= amax)
                    and np.all((out == 0) | (np.sign(out) == np.sign(x)))
                    and np.max(np.abs(out)) == amax):
                ok = False
                break
        if not ok:
            break
    g = list(grid(QuantFormat.FP4_E1M2))
    mags = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]
    grid_ok = g == sorted([-m for m in mags] + [0.0] + mags)
    elapsed = time.time() - t0
    report(5, "quantizer properties on 1e4 matrices per format",
           ok and grid_ok and elapsed < 10.0, f"{elapsed:.1f}s")


def _fd(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        xp = x.copy(); xp[idx] += h
        xm = x.copy(); xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
    return g


def _rel_err(analytic, numeric):
    scale = max(float(np.max(np.abs(numeric))), 1e-8)
    return float(np.max(np.abs(analytic - numeric))) / scale


def test_criterion_06_gradient_checks():
    t0 = time.time()
    rng = make_rng(107)
    worst = 0.0

    for _ in range(5):  # quadratic
        dim = int(rng.integers(2, 7))
        p = make_quadratic(dim, rng)
        _, grad = quadratic_loss_grad(p)
        fd = _fd(lambda w: quadratic_loss_grad(
            QuadraticProblem(p.a, p.b, w))[0], p.w)
        worst = max(worst, _rel_err(grad, fd))

    for _ in range(5):  # rmsnorm
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 7))
        x = rng.standard_normal((rows, cols))
        gain = rng.standard_normal((1, cols))
        dy = rng.standard_normal((rows, cols))
        _, bwd = rmsnorm_fwd_bwd(x, gain)
        dx, dgain = bwd(dy)
        worst = max(worst, _rel_err(dx, _fd(
            lambda v: float(np.sum(rmsnorm_fwd_bwd(v, gain)[0] * dy)), x)))
        worst = max(worst, _rel_err(dgain, _fd(
            lambda v: float(np.sum(rmsnorm_fwd_bwd(x, v)[0] * dy)), gain)))

    for _ in range(5):  # swiglu
        rows, din, dout = (int(rng.integers(1, 4)), int(rng.integers(2, 5)),
                           int(rng.integers(2, 5)))
        x = rng.standard_normal((rows, din))
        wg = rng.standard_normal((din, dout))
        wu = rng.standard_normal((din, dout))
        dy = rng.standard_normal((rows, dout))
        _, bwd = swiglu_fwd_bwd(x, wg, wu)
        dx, dwg, dwu = bwd(dy)
        worst = max(worst, _rel_err(dx, _fd(
            lambda v: float(np.sum(swiglu_fwd_bwd(v, wg, wu)[0] * dy)), x)))
        worst = max(worst, _rel_err(dwg, _fd(
            lambda v: float(np.sum(swiglu_fwd_bwd(x, v, wu)[0] * dy)), wg)))
        worst = max(worst, _rel_err(dwu, _fd(
            lambda v: float(np.sum(swiglu_fwd_bwd(x, wg, v)[0] * dy)), wu)))

    for _ in range(5):  # full MLP, no quantization
        din = int(rng.integers(3, 6))
        hidden = int(rng.integers(4, 8))
        depth = int(rng.integers(1, 3))
        classes = int(rng.integers(2, 5))
        model = init_mlp(din, hidden, depth, classes, rng)
        x = rng.standard_normal((4, din))
        labels = rng.integers(0, classes, size=4)
        _, grads = mlp_forward_backward(model, x, labels)
        for name in model.params:
            def f(v, name=name):
                saved = model.params[name]
                model.params[name] = v
                out = mlp_loss(model, x, labels)
                model.params[name] = saved
                return out
            worst = max(worst,
                        _rel_err(grads[name], _fd(f, model.params[name])))

    elapsed = time.time() - t0
    report(6, "gradient checks vs central finite differences",
           worst < 1e-5 and elapsed < 30.0,
           f"max rel err {worst:.2e}, {elapsed:.1f}s")


SEEDS = (0, 1, 2)
LR_RATIO = 30.0 ** 0.25  # five points spanning exactly 30x


def _pheno_run(name, lr, seed, transforms=()):
    cfg = RunConfig(
        model=ModelConfig(input_dim=4, hidden_dim=32, depth=2, classes=8),
        schedule=ScheduleConfig(lr_peak=lr, total_steps=250, warmup_steps=25),
        spike=SpikeConfig(probability=0.1, severity=0.5),
        optimizer=OptimizerConfig(name=name, transforms=list(transforms)),
        quant_format="int4", seed=seed)
    result = run(cfg)
    return None if result.diverged else result.final_val_loss


def _pheno_grid(name, base_lr, transforms=()):
    lrs = [base_lr * LR_RATIO ** i for i in range(5)]
    table = {(seed, lr): _pheno_run(name, lr, seed, transforms)
             for seed in SEEDS for lr in lrs}
    return lrs, table


def test_criterion_07_lr_sensitivity_ordering():
    t0 = time.time()
    lrs, adam = _pheno_grid("adam", 1e-2)
    _, stable = _pheno_grid("stable_spam", 1e-2)

    def bad_count(table):
        total = 0
        for seed in SEEDS:
            vals = [table[(seed, lr)] for lr in lrs]
            finite = [v for v in vals if v is not None]
            best = min(finite) if finite else None
            for v in vals:
                if v is None or (best is not None and v > 2.0 * best):
                    total += 1
        return total

    def best_mean_loss(table):
        # aggregate over seeds per LR (diverged -> inf), then take the best LR
        per_lr = []
        for lr in lrs:
            vals = [table[(seed, lr)] for seed in SEEDS]
            per_lr.append(math.inf if any(v is None for v in vals)
                          else sum(vals) / len(vals))
        return min(per_lr)

    adam_bad, stable_bad = bad_count(adam), bad_count(stable)
    adam_best, stable_best = best_mean_loss(adam), best_mean_loss(stable)
    ordering_ok = adam_bad >= stable_bad
    loss_ok = stable_best <= adam_best * 1.01
    elapsed = time.time() - t0
    report(7, "LR-sensitivity ordering, Adam vs Stable-SPAM",
           ordering_ok and loss_ok and elapsed < 600.0,
           f"bad LRs adam={adam_bad} stable={stable_bad}; "
           f"best adam={adam_best:.4f} stable={stable_best:.4f}; "
           f"{elapsed:.0f}s")


def test_criterion_08_lion_composition_benefit():
    t0 = time.time()
    lrs, plain = _pheno_grid("lion", 3e-3)
    _, composed = _pheno_grid("lion", 3e-3, transforms=("adaclip", "adagn"))

    wins = 0
    bests = []
    for seed in SEEDS:
        p = [plain[(seed, lr)] for lr in lrs]
        c = [composed[(seed, lr)] for lr in lrs]
        p_best = min((v for v in p if v is not None), default=math.inf)
        c_best = min((v for v in c if v is not None), default=math.inf)
        bests.append((p_best, c_best))
        if c_best <= p_best:
            wins += 1
    elapsed = time.time() - t0
    detail = "; ".join(f"seed {s}: lion={p:.3f} composed={c:.3f}"
                       for s, (p, c) in zip(SEEDS, bests))
    report(8, "Lion+AdaClip+AdaGN <= Lion at best LR for >= 2 of 3 seeds",
           wins >= 2, f"wins {wins}/3; {detail}; {elapsed:.0f}s")


def test_criterion_09_harness_determinism(tmp_path):
    cfg_kwargs = dict(
        model=ModelConfig(input_dim=6, hidden_dim=8, depth=1, classes=3),
        schedule=ScheduleConfig(lr_peak=1e-3, total_steps=60, warmup_steps=6),
        spike=SpikeConfig(probability=0.1, severity=0.5),
        optimizer=OptimizerConfig(name="stable_spam"),
        quant_format="int4", seed=3)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(RunConfig(**cfg_kwargs), records_path=str(p1))
    run(RunConfig(**cfg_kwargs), records_path=str(p2))
    identical = p1.read_bytes() == p2.read_bytes()
    report(9, "byte-identical CSV for repeated (config, seed)", identical)


def test_criterion_10_gradclip_contract():
    rng = make_rng(110)
    worst = 0.0
    for _ in range(100):
        n_layers = int(rng.integers(1, 6))
        layers = [rng.standard_normal((int(rng.integers(1, 5)),
                                       int(rng.integers(1, 5)))) * 5.0
                  for _ in range(n_layers)]
        clipped = grad_clip_global(layers, 1.0)
        worst = max(worst, harness.global_grad_norm(clipped))
    report(10, "global gradient norm <= 1 + 1e-12 after clipping",
           worst <= 1.0 + 1e-12, f"max post-clip norm {worst!r}")
