"""Acceptance suite: ten criteria, one printed pass/fail line each.

Criteria 1-6 and 10 are exact property and oracle checks: each runs entries
of the check table in ``stablespam.selftest``, the same functions
``stablespam selftest`` runs. Between them they run every entry once, but
for ``lr schedule endpoints`` (``tests/test_harness.py``) and
``quantizer rounds to nearest, ties to even`` (``tests/test_quant.py``). Criteria 7 and 8
are deterministic desk-scale phenomenology checks (seeded runs on the
spike-injected INT4 MLP task), and criterion 9 checks harness determinism.
"""

import math
import time

from stablespam import selftest
from stablespam.harness import (ModelConfig, OptimizerConfig, RunConfig,
                                ScheduleConfig, SpikeConfig, run)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def report_checks(num, name, checks, limit=math.inf):
    """Criterion ``num`` passes when every ``selftest`` check it names
    passes, all of them within ``limit`` seconds."""
    t0 = time.time()
    results = [check() for check in checks]
    elapsed = time.time() - t0
    details = "; ".join(detail for _, detail in results if detail)
    report(num, name, all(ok for ok, _ in results) and elapsed < limit,
           f"{details}, {elapsed:.2f}s")


def test_criterion_01_oracle_equivalence():
    report_checks(1, "bitwise oracle equivalence for all 8 optimizers", [
        selftest.check_adam_trace, selftest.check_sgd_trace,
        selftest.check_adafactor_trace,
        selftest.check_lion_trace, selftest.check_adam_mini_trace,
        selftest.check_spam_trace, selftest.check_stable_spam_trace],
        limit=1.0)


def test_criterion_02_algorithm_fidelity():
    report_checks(
        2, "MoRet periodicity and bias correction on a constant gradient",
        [selftest.check_moret_periodicity,
         selftest.check_constant_gradient_bias_correction])


def test_criterion_03_adaclip_worked_trace():
    report_checks(3, "AdaClip two-step worked trace",
                  [selftest.check_adaclip_bias_correction])


def test_criterion_04_adagn_norm_law():
    report_checks(4, "AdaGN norm law and spike attenuation",
                  [selftest.check_adagn_norm_identity])


def test_criterion_05_quantizer_properties():
    report_checks(5, "quantizer properties on 1e4 matrices per format", [
        selftest.check_quant_idempotence, selftest.check_quant_fp4_grid,
        selftest.check_quant_absmax_fixed_point], limit=10.0)


def test_criterion_06_gradient_checks():
    report_checks(6, "gradient checks vs central finite differences", [
        selftest.check_fd_quadratic, selftest.check_fd_rmsnorm,
        selftest.check_fd_swiglu, selftest.check_fd_mlp], limit=30.0)


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
    report_checks(10, "global gradient norm <= 1 + 1e-12 after clipping",
                  [selftest.check_grad_clip_norm_bound])
