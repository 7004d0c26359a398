"""The release gate's breaks: each row patches ``(owner, name, value)``s of
library code, an oracle or the gate's data (a dict's item), runs only the
``selftest.CHECKS`` entries it names, and requires each to fail with details
that ``re.search`` each of its patterns. Every entry is named by some row."""

import math
import re

import numpy as np
import pytest

from stablespam import harness, models, optim, oracles, quant, selftest

(TRACES, ADACLIP, ADAGN, MORET, PROPERTIES, SNAP, GRADIENTS, CONSTANT, CLIP,
 SCHEDULE, *unnamed) = (name for name, _ in selftest.CHECKS)


def boom(*args):
    raise RuntimeError("boom")


def times(f, factor):
    return lambda *args, **kwargs: f(*args, **kwargs) * factor


def reversed_stat(stat):
    """``Layout.<stat>`` handing each tensor another tensor's statistic."""
    original = getattr(optim.Layout, stat)
    return lambda layout, x: original(layout, x)[::-1]


def passing_adaclip(g, state, gamma3, eps=1e-6):
    state.step += 1
    state.t_threshold = 1.0
    return g.copy(), 0.0


def adam_without_bias_correction(w, g, moments, lr, beta1=0.9, beta2=0.999,
                                 eps=1e-6):
    moments.step_in_cycle += 1
    moments.m = beta1 * moments.m + (1.0 - beta1) * g
    moments.v = beta2 * moments.v + (1.0 - beta2) * (g * g)
    return w - lr * moments.m / (np.sqrt(moments.v) + eps)


def reset_keeping_the_moments(base, step, begin=optim.AdamBase.begin_step):
    moments = base.moments
    reset, scale = begin(base, step)
    if reset:  # puts the moments back, restarting only the cycle's count
        base.moments = moments
        moments.step_in_cycle = 0
    return reset, scale


def raw_grads_post(opt, params, grads, *args,
                   step=optim.ComposedOptimizer.step):
    telemetry = step(opt, params, grads, *args)
    telemetry.grads_post = dict(grads)
    return telemetry


def broken_qdq(round_codes=np.rint, plus_zero=True, pin=True,
               reciprocal=False):
    """``quant.qdq`` with one rule broken: the rounding, the +0.0 for rint's
    -0.0, the pin of the +-top codes, or the scale, as absmax * (1 / top)."""
    def qdq(x, spec):
        amax = np.max(np.abs(x))
        if amax == 0.0:
            return np.zeros_like(x)
        top = len(oracles.grid(spec.value)) // 2
        codes = round_codes(x / amax * top) + (0.0 if plus_zero else -0.0)
        out = codes * (amax * (1.0 / top) if reciprocal else amax / top)
        if pin:
            out[codes == top] = amax
            out[codes == -top] = -amax
        return out
    return qdq


def late_nan(streams, lr):
    """Adam's oracle, NaN at the three-tensor set's last step: max() skips it."""
    traces = oracles.each_tensor(oracles.adam_trace)(streams, lr)
    w, g, clipped = traces[-1][-1]
    traces[-1][-1] = (w * math.nan if len(streams) > 1 else w, g, clipped)
    return traces


def rmsnorm_dgain_off(x, gain, layer=models.rmsnorm_fwd_bwd):
    y, backward = layer(x, gain)

    def off(dy, want_dx=True):
        dx, dgain = backward(dy, want_dx)
        return dx, dgain * 1.01
    return y, off


DEV = r"max dev \S+"
BREAKS = {
    "adaclip passes everything": ([(optim, "adaclip", passing_adaclip)], {
        TRACES: [rf"^stable_spam {DEV}$"],
        ADACLIP: [r"^T_hat2 dev \S+, clipped 0\.0 of 2$"],
        CONSTANT: [r"^T_hat, m_hat, v_hat, step 25\.49"]}),
    **{f"moret {name}": ([(optim.AdamBase, "begin_step", rule)], {
        MORET: [f"^{re.escape(detail)}$"]}) for name, rule, detail in (
            ("resets one step early", lambda base, step,
             begin=optim.AdamBase.begin_step: begin(base, step + 1),
             "resets at [9, 19, 29, 999]"),
            # The next step's call zeroes the moments, then this step runs.
            ("zeroes a step before the reset", lambda base, step,
             begin=optim.AdamBase.begin_step: (begin(base, step + 1),
                                               begin(base, step))[1],
             "moments changed without a reset at step 9"),
            ("reset keeps the moments", reset_keeping_the_moments,
             "moments not zeroed at step 10"))},
    **{f"layout {stat} reversed": ([(optim.Layout, stat, reversed_stat(stat))],
                                   {TRACES: [rf"^{name} {DEV}$"]})
       for stat, name in (("norms", "stable_spam"), ("max", "stable_spam"),
                          ("means", "adam_mini"))},
    "raw grads_post": ([(optim.ComposedOptimizer, "step", raw_grads_post)], {
        TRACES: [rf"^adam_gradclip {DEV}; spam {DEV}; stable_spam {DEV}$"]}),
    "qdq pin always skipped": ([(quant, "qdq", broken_qdq(pin=False))], {
        PROPERTIES: ["absmax entry violated", "bound violated"],
        SNAP: ["!="]}),
    "qdq reciprocal scale, no pin": ([
        (quant, "qdq", broken_qdq(pin=False, reciprocal=True))], {
        PROPERTIES: ["idempotence violated at", "absmax entry violated"],
        SNAP: ["!="]}),
    "qdq sign flipped": ([(quant, "qdq", times(quant.qdq, -1.0))], {
        PROPERTIES: ["idempotence violated at", "sign violated"],
        SNAP: ["!="]}),
    "qdq keeps -0.0": ([(quant, "qdq", broken_qdq(plus_zero=False))], {
        SNAP: ["!="]}),
    "qdq rounds ties up": ([(quant, "qdq", broken_qdq(
        round_codes=lambda v: np.floor(v + 0.5)))], {SNAP: ["!="]}),
    # INT4 on 17 codes, -8..8: the reference grid keeps its 15.
    "int4 top code 8": ([(quant._TOP_CODES, quant.QuantSpec.INT4, 8)], {
        SNAP: ["^int4: "]}),
    # At a grid step of 0.7, some x / max|x| * top midpoints are not ties.
    "reference grid with inexact ties": ([
        (oracles, "grid", lambda name: np.arange(-7, 8) * 0.7)], {
        SNAP: ["a midpoint is not an exact tie$"]}),
    # A clip that reads half of each norm leaves a clipped stack at norm 2.
    "layout tensor norms halved": ([
        (optim.Layout, "tensor_norms", lambda layout, x,
         norms=optim.Layout.tensor_norms: [n / 2 for n in norms(layout, x)])],
        {CLIP: [r"^max post-clip norm 2\.0"]}),
    "late nan in the adam oracle": ([(selftest, "TRACE_CASES", tuple(
        (name, options, late_nan if name == "adam" else reference)
        for name, options, reference in selftest.TRACE_CASES))], {
        TRACES: [r"^adam max dev nan$"]}),
    # The cases after a raising one still run: stable_spam's catch the norms.
    "lion raises, layout norms reversed": ([(optim.LionBase, "update", boom),
        (optim.Layout, "norms", reversed_stat("norms"))], {
        TRACES: [rf"^lion raised RuntimeError: boom; stable_spam {DEV}$"]}),
    "mlp gradient raises": ([(models, "mlp_forward_backward", boom)], {
        GRADIENTS: [r"^quadratic max rel err \S+; rmsnorm max rel err \S+; "
                    r"swiglu max rel err \S+; mlp raised RuntimeError: boom$"]}),
    "adagn x1.01": ([(optim, "adagn", times(optim.adagn, 1.01))], {
        ADAGN: [r"^max rel dev 1\.00e-02, "],
        TRACES: [r"^stable_spam max dev 1\.10e-02$"]}),
    "lr schedule x1.01": ([
        (harness, "lr_schedule", times(harness.lr_schedule, 1.01))], {
        SCHEDULE: [r"^lr at 0/50/100/1000: (\[0\.0, 0\.000505, 0\.00101, "
                   r"0\.000101\]); lr at 0/5/10/100: \1$"]}),
    # selftest's rmsnorm cases hold the layer from import; the MLP looks it up.
    "rmsnorm dgain x1.01": ([(models, "rmsnorm_fwd_bwd", rmsnorm_dgain_off)], {
        GRADIENTS: [r"; mlp max rel err 1\.00e-02$"]}),
    # The constant-gradient entry corrects m and v itself; Adam's step does not.
    "adam without bias correction": ([
        (optim, "adam_step", adam_without_bias_correction)], {
        TRACES: [rf"^adam max dev 1\.07e\+00; adam_gradclip {DEV}; "
                 rf"spam {DEV}; stable_spam {DEV}$"],
        CONSTANT: [r"^T_hat, m_hat, v_hat, step 2\.5000000000000022, "
                   r"-2\.5000000000000004, 6\.2500000000000053, 0\.0497"]}),
}


@pytest.mark.parametrize("patches, fails", BREAKS.values(), ids=list(BREAKS))
def test_a_break_fails_its_entries(patches, fails, monkeypatch):
    for owner, name, value in patches:
        (monkeypatch.setitem if isinstance(owner, dict)
         else monkeypatch.setattr)(owner, name, value)
    for entry, patterns in fails.items():
        ok, detail = dict(selftest.CHECKS)[entry]()
        assert not ok, (entry, detail)
        for pattern in patterns:
            assert re.search(pattern, detail), (entry, pattern, detail)


def test_every_entry_has_a_break():
    named = [set(fails) for _, fails in BREAKS.values()]
    assert all(named)
    assert set().union(*named) == {name for name, _ in selftest.CHECKS}
