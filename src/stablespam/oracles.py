"""Independent straight-line references for the optimizers and quantizer.

The unit tests and the check table in ``stablespam.selftest``, which serves
both ``stablespam selftest`` and acceptance criteria 1-6 and 10, compare the
library against these. They are written directly from the update rules with
plain Python floats (and numpy arrays for the matrix trace) and import nothing
from the package, so they stay independent of the code paths they check; a
test enforces that this module imports only ``math`` and ``numpy``.
"""

import math

import numpy as np


def adam_trace(gs, lr, b1=0.9, b2=0.999, eps=1e-6, w0=0.0):
    w, m, v = w0, 0.0, 0.0
    out = []
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        w = w - lr * mh / (math.sqrt(vh) + eps)
        out.append(w)
    return out


def adam_gradclip_trace(gs, lr, threshold=1.0, b1=0.9, b2=0.999, eps=1e-6):
    clipped = [g if abs(g) <= threshold else math.copysign(threshold, g)
               for g in gs]
    return adam_trace(clipped, lr, b1, b2, eps)


def adafactor_trace(gs, lr, eps1=1e-30, d=1.0):
    w, v = 0.0, 0.0
    out = []
    for t, g in enumerate(gs, start=1):
        beta = 1.0 - t ** -0.8
        v = beta * v + (1 - beta) * (g * g + eps1)
        u = g / math.sqrt(v)
        u = u / max(1.0, abs(u) / d)
        w = w - lr * u
        out.append(w)
    return out


def lion_trace(gs, lr, b1=0.9, b2=0.99, wd=0.0):
    w, m = 0.0, 0.0
    out = []
    for g in gs:
        c = b1 * m + (1 - b1) * g
        sign = 0.0 if c == 0 else math.copysign(1.0, c)
        w = w - lr * (sign + wd * w)
        m = b2 * m + (1 - b2) * g
        out.append(w)
    return out


def adam_mini_trace(gs, lr, b1=0.9, b2=0.999, eps=1e-6):
    # On a scalar tensor mean(g^2) == g^2, so this matches Adam exactly.
    return adam_trace(gs, lr, b1, b2, eps)


def spam_trace(gs, lr, theta=5000.0, reset_interval=500, warmup=150,
               b1=0.9, b2=0.999, eps=1e-6):
    w, m, v, t_cycle = 0.0, 0.0, 0.0, 0
    out = []
    for step, g in enumerate(gs, start=1):
        if reset_interval and step > 1 and (step - 1) % reset_interval == 0:
            m, v, t_cycle = 0.0, 0.0, 0
        if v > 0 and g * g / v > theta:
            g = math.copysign(math.sqrt(theta * v), g)
        last = ((step - 1) // reset_interval) * reset_interval \
            if reset_interval else 0
        scale = min(1.0, (step - last) / warmup) if warmup else 1.0
        t_cycle += 1
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t_cycle)
        vh = v / (1 - b2 ** t_cycle)
        w = w - lr * scale * mh / (math.sqrt(vh) + eps)
        out.append(w)
    return out


def stable_spam_trace(gs, lr, g1=0.7, g2=0.9, g3=0.999, interval=1000,
                      b1=0.9, b2=0.999, eps=1e-6):
    w, m, v, t_cycle = 0.0, 0.0, 0.0, 0
    thr, mn, vn = 0.0, 0.0, 0.0
    out = []
    for step, g in enumerate(gs, start=1):
        gmax = abs(g)
        thr = g3 * thr + (1 - g3) * gmax
        that = thr / (1 - g3 ** step)
        if abs(g) > that:
            g = g / gmax * that
        gnorm = abs(g)
        mn = g1 * mn + (1 - g1) * gnorm
        vn = g2 * vn + (1 - g2) * gnorm * gnorm
        if gnorm != 0.0:
            mhn = mn / (1 - g1 ** step)
            vhn = vn / (1 - g2 ** step)
            g = g / gnorm * (mhn / (math.sqrt(vhn) + eps))
        if interval and step % interval == 0:
            m, v, t_cycle = 0.0, 0.0, 0
        t_cycle += 1
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t_cycle)
        vh = v / (1 - b2 ** t_cycle)
        w = w - lr * mh / (math.sqrt(vh) + eps)
        out.append(w)
    return out


def stable_spam_matrix_trace(gs, lr, g1=0.7, g2=0.9, g3=0.999, interval=1000,
                             b1=0.9, b2=0.999, eps=1e-6):
    """Stable-SPAM on one weight matrix that starts at zero; returns the
    weights after each step. Every operation is written in the order the
    update rules state it, so a faithful implementation agrees bit for
    bit."""
    w = np.zeros(np.shape(gs[0]))
    m, v, t_cycle = np.zeros_like(w), np.zeros_like(w), 0
    thr, mn, vn = 0.0, 0.0, 0.0
    out = []
    for step, g in enumerate(gs, start=1):
        # AdaClip: entries above the bias-corrected max-abs EMA are rescaled
        gmax = float(np.max(np.abs(g)))
        thr = g3 * thr + (1 - g3) * gmax
        that = thr / (1 - g3 ** step)
        g = np.where(np.abs(g) > that, g / gmax * that, g)
        # AdaGN: the matrix norm becomes mhat_n / (sqrt(vhat_n) + eps)
        gnorm = float(np.sqrt(np.sum(g * g)))
        mn = g1 * mn + (1 - g1) * gnorm
        vn = g2 * vn + (1 - g2) * gnorm * gnorm
        if gnorm != 0.0:
            mhn = mn / (1 - g1 ** step)
            vhn = vn / (1 - g2 ** step)
            g = g / gnorm * (mhn / (math.sqrt(vhn) + eps))
        # MoRet at multiples of the interval, then Adam
        if interval and step % interval == 0:
            m, v, t_cycle = np.zeros_like(w), np.zeros_like(w), 0
        t_cycle += 1
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        mh = m / (1 - b1 ** t_cycle)
        vh = v / (1 - b2 ** t_cycle)
        w = w - lr * mh / (np.sqrt(vh) + eps)
        out.append(w)
    return out


def adagn_norm_trace(norms, g1, g2, eps=1e-6):
    """Output norms of the gradient-norm rescaler for a stream of norms."""
    mn, vn = 0.0, 0.0
    out = []
    for t, n in enumerate(norms, start=1):
        mn = g1 * mn + (1 - g1) * n
        vn = g2 * vn + (1 - g2) * n * n
        mhn = mn / (1 - g1 ** t)
        vhn = vn / (1 - g2 ** t)
        out.append(mhn / (math.sqrt(vhn) + eps))
    return out


def nearest_grid_even(value, grid_values):
    """Brute-force snap with ties to the even signed code index."""
    center = len(grid_values) // 2
    best = None
    for i, g in enumerate(grid_values):
        d = abs(value - g)
        key = (d, (i - center) % 2)  # prefer smaller distance, then even index
        if best is None or key < best[0]:
            best = (key, g)
    return best[1]
