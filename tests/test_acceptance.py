"""Acceptance suite: ten criteria, one printed pass/fail line each.

Criteria 1-6 and 10 are exact property and oracle checks: each runs entries
of the check table in ``stablespam.selftest``, the same functions
``stablespam selftest`` runs, whose expected values come from
``stablespam.oracles``. Between them they run every entry once, but for
``lr schedule endpoints`` (``tests/test_harness.py``) and ``quantizer rounds
to nearest, ties to even`` (``tests/test_quant.py``). Criterion 1 runs the
one entry that traces all eight optimizers against their oracles, and
criterion 6 the one entry that checks all four models' gradients by finite
differences; criterion 5 runs the other quantizer entry, which checks all
four of its properties in one pass over its data, and criterion 10
measures the clipped norm with ``oracles.norm``. Criteria 7 and 8 are
deterministic desk-scale phenomenology checks on the spike-injected INT4
MLP task, each running its 30 points in one ``harness.run_grid`` call on
two workers; criterion 9 checks determinism.
"""

import math
import time

from stablespam import selftest
from stablespam.harness import run, run_grid
from tasks import int4_cfg, small_cfg


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
    report_checks(1, "bitwise oracle equivalence for all 8 optimizers",
                  [selftest.check_traces], limit=1.0)


def test_criterion_02_algorithm_fidelity():
    report_checks(
        2, "MoRet periodicity; bias correction and Adam's applied step on a "
        "constant gradient",
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
        selftest.check_quant_properties], limit=10.0)


def test_criterion_06_gradient_checks():
    report_checks(6, "gradient checks vs central finite differences",
                  [selftest.check_finite_differences], limit=30.0)


SEEDS = (0, 1, 2)
LR_RATIO = 30.0 ** 0.25  # five points spanning exactly 30x


def _pheno_grids(base_lr, *arms):
    lrs = [base_lr * LR_RATIO ** i for i in range(5)]
    points = [(seed, lr) for seed in SEEDS for lr in lrs]
    runs = iter(run_grid([int4_cfg(name, lr, seed, ts) for name, ts in arms
                          for seed, lr in points], jobs=2))
    return lrs, [{p: next(runs).final_val_loss for p in points} for _ in arms]


def test_criterion_07_lr_sensitivity_ordering():
    t0 = time.time()
    lrs, (adam, stable) = _pheno_grids(1e-2, ("adam", ()), ("stable_spam", ()))

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
    lrs, (plain, composed) = _pheno_grids(
        3e-3, ("lion", ()), ("lion", ("adaclip", "adagn")))

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
    keys = {"schedule.total_steps": 60, "schedule.warmup_steps": 6,
            "spike.probability": 0.1, "spike.severity": 0.5,
            "optimizer.name": "stable_spam", "quant.format": "int4", "seed": 3}
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(small_cfg(keys), records_path=str(p1))
    run(small_cfg(keys), records_path=str(p2))
    identical = p1.read_bytes() == p2.read_bytes()
    report(9, "byte-identical CSV for repeated (config, seed)", identical)


def test_criterion_10_gradclip_contract():
    report_checks(10, "global gradient norm <= 1 + 1e-12 after clipping",
                  [selftest.check_grad_clip_norm_bound])
