"""Microbenchmarks: microseconds per call of single layer functions.

Inputs are float64 standard normals drawn from the workload seed, at the
shapes the traced MLP and quadratic runs call. Each item is warmed up,
then timed in batches sized to about ``BATCH_S`` with the host probe run
between batches (see probe.py); the median and the interquartile range are
taken over the batches' per-call times at reference speed.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time

import numpy as np

from probe import REF_US

BATCHES = 15
BATCH_S = 0.004

# M x K x N: (M, K) @ (K, N). The first six are the MLP's forward and
# transposed backward shapes, the last two the quadratic's.
MATMUL_SHAPES = ((32, 4, 32), (32, 32, 32), (32, 32, 8), (32, 8, 32),
                 (4, 32, 32), (32, 32, 4), (8, 8, 1), (1, 8, 1))
QDQ_FORMATS = ("int2", "int3", "int4", "fp4_e1m2")
UPDATES = {"sgd": "SgdBase", "adam": "AdamBase", "lion": "LionBase",
           "adam_mini": "AdamMiniBase", "adafactor": "AdafactorBase"}


def time_call(fn, host):
    """(median, iqr, calls) of microseconds per call of ``fn()``, each batch
    scaled by the mean of the host probes just before and after it."""
    clock = time.perf_counter
    for _ in range(3):
        fn()
    t0 = clock()
    fn()
    n = max(1, int(BATCH_S / max(clock() - t0, 1e-7)))
    per_call = []
    host.measure()
    for _ in range(BATCHES):
        t0 = clock()
        for _ in range(n):
            fn()
        spent = clock() - t0
        host.measure()
        before, after = host.samples_us[-2:]
        per_call.append(spent / n * 1e6 * 2 * REF_US / (before + after))
    q1, _, q3 = statistics.quantiles(per_call, n=4)
    return statistics.median(per_call), q3 - q1, n * BATCHES


def items(ss, seed):
    """Yield (metric name, zero-argument callable)."""
    rng = np.random.Generator(np.random.PCG64(seed))

    def normal(*shape):
        return rng.standard_normal(shape)

    tc, quant, models, optim, harness = (ss.tensor_core, ss.quant, ss.models,
                                         ss.optim, ss.harness)
    for m, k, n in MATMUL_SHAPES:
        a, b = normal(m, k), normal(k, n)
        yield f"tensor_core.matmul.{m}x{k}x{n}.us", lambda a=a, b=b: tc.matmul(a, b)

    x = normal(32, 32)
    for fmt in QDQ_FORMATS:
        spec = quant.QuantSpec.from_name(fmt)
        yield f"quant.qdq.{fmt}.32x32.us", lambda spec=spec: quant.qdq(x, spec)

    gain, w_gate, w_up, dy = np.ones((1, 32)), normal(32, 32), normal(32, 32), normal(32, 32)
    _, rms_bwd = models.rmsnorm_fwd_bwd(x, gain)
    _, swiglu_bwd = models.swiglu_fwd_bwd(x, w_gate, w_up)
    yield "models.rmsnorm.fwd.32x32.us", lambda: models.rmsnorm_fwd_bwd(x, gain)
    yield "models.rmsnorm.bwd.32x32.us", lambda: rms_bwd(dy)
    yield "models.swiglu.fwd.32x32.us", lambda: models.swiglu_fwd_bwd(x, w_gate, w_up)
    yield "models.swiglu.bwd.32x32.us", lambda: swiglu_bwd(dy)

    g, v = normal(32, 32), normal(32, 32) ** 2
    clip_state, gn_state = optim.AdaClipState(), optim.AdaGnState()
    yield "optim.adaclip.32x32.us", lambda: optim.adaclip(g, clip_state, 0.999)
    yield "optim.adagn.32x32.us", lambda: optim.adagn(g, gn_state, 0.7, 0.9)
    yield "optim.spike_clip.32x32.us", lambda: optim.spike_clip(g, v, 1.0)

    w = normal(32, 32)
    for name, cls in UPDATES.items():
        base = getattr(optim, cls)()
        yield f"optim.update.{name}.32x32.us", \
            lambda base=base: base.update("w", w, g, 1e-3)

    # One full optimizer step over the MLP's parameter set.
    model = models.init_mlp(4, 32, 2, 8, rng, quant=quant.QuantSpec.from_name("int4"))
    batch = normal(32, 4)
    labels = np.arange(32) % 8
    _, grads = models.mlp_forward_backward(model, batch, labels)
    for name in harness.OPTIMIZER_NAMES:
        opt = harness.make_optimizer(harness.OptimizerConfig(name=name))
        params = dict(model.params)
        steps = itertools.count(1)
        yield f"optim.step.{name}.mlp.us", \
            lambda opt=opt, params=params, steps=steps: opt.step(
                params, grads, 1e-3, next(steps))


def run(ss, seed, host):
    """{metric: (median_us, iqr_us, calls)} for every item."""
    out = {}
    for name, fn in items(ss, seed):
        gc.collect()
        out[name] = time_call(fn, host)
    return out
