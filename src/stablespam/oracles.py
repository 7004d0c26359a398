"""Independent references for the optimizers, the quantizer and the norm.

The check table in ``stablespam.selftest`` (``stablespam selftest`` and
acceptance criteria 1-6 and 10) takes its expected values from these: the
optimizer traces, each format's value grid, the reference quantizer and
the norm. Each optimizer trace steps one weight array from zero through a
sequence of gradient arrays of its shape and yields a record ``(w, g,
clipped)`` per step: the weights, the gradient the update consumed and the
number of entries clipped. On a parameter set, each tensor runs on its own
stream (``each_tensor``) but for the global clip. All are written from the
update rules and bit layouts, and they import nothing from the package, so
they stay independent of the code they check; a test enforces that this
module imports only ``math`` and ``numpy``.
"""

import math

import numpy as np


def norm(x):
    """The Frobenius norm: numpy's sqrt(sum(x * x))."""
    return np.sqrt(np.sum(x * x))


def each_tensor(trace, **options):
    """A per-tensor rule on a set: ``trace`` on each tensor's stream."""
    return lambda streams, lr: [list(trace(gs, lr, **options))
                                for gs in streams]


def sgd_trace(gs, lr):
    w = np.zeros(np.shape(gs[0]))
    for g in gs:
        w = w - lr * g
        yield w, g, 0


def adam_trace(gs, lr, b1=0.9, b2=0.999, eps=1e-6):
    w = np.zeros(np.shape(gs[0]))
    m, v = np.zeros_like(w), np.zeros_like(w)
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        w = w - lr * mh / (np.sqrt(vh) + eps)
        yield w, g, 0


def adam_gradclip_trace(streams, lr, threshold=1.0, **adam):
    """Adam on a parameter set whose gradients are scaled by threshold / N
    on each step where their global norm N is above ``threshold``. N is the
    root of the sum of the tensors' squared norms, in gradient order."""
    clipped = []
    for step in zip(*streams):
        # Not builtin sum, which compensates from Python 3.12 on
        total = 0.0
        for g in step:
            total += math.sqrt(np.sum(g * g)) ** 2
        norm = math.sqrt(total)
        clipped.append([g if norm <= threshold else g * (threshold / norm)
                        for g in step])
    return [list(adam_trace(gs, lr, **adam)) for gs in zip(*clipped)]


def adafactor_trace(gs, lr, eps1=1e-30, d=1.0):
    """Factored second moment (row and column means of g^2) for a matrix,
    the plain EMA of g^2 when one side is 1."""
    w = np.zeros(np.shape(gs[0]))
    v, row, col = 0.0, 0.0, 0.0
    for t, g in enumerate(gs, start=1):
        beta = 1.0 - t ** -0.8
        sq = g * g + eps1
        if min(w.shape) == 1:
            v = beta * v + (1 - beta) * sq
        else:
            row = beta * row + (1 - beta) * np.mean(sq, axis=1, keepdims=True)
            col = beta * col + (1 - beta) * np.mean(sq, axis=0, keepdims=True)
            v = row * col / np.mean(row)
        u = g / np.sqrt(v)
        u = u / max(1.0, math.sqrt(np.mean(u * u)) / d)
        w = w - lr * u
        yield w, g, 0


def lion_trace(gs, lr, b1=0.9, b2=0.99, wd=0.0):
    w = np.zeros(np.shape(gs[0]))
    m = np.zeros_like(w)
    for g in gs:
        c = b1 * m + (1 - b1) * g
        w = w - lr * (np.sign(c) + wd * w)
        m = b2 * m + (1 - b2) * g
        yield w, g, 0


def adam_mini_trace(gs, lr, b1=0.9, b2=0.999, eps=1e-6):
    """Adam with one second moment per tensor: the EMA of mean(g^2)."""
    w = np.zeros(np.shape(gs[0]))
    m, v = np.zeros_like(w), 0.0
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * np.mean(g * g)
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        w = w - lr * mh / (math.sqrt(vh) + eps)
        yield w, g, 0


def spam_trace(gs, lr, theta=5000.0, reset_interval=500, warmup=150,
               b1=0.9, b2=0.999, eps=1e-6):
    w = np.zeros(np.shape(gs[0]))
    m, v, t_cycle = np.zeros_like(w), np.zeros_like(w), 0
    for step, g in enumerate(gs, start=1):
        if reset_interval and step > 1 and (step - 1) % reset_interval == 0:
            m, v, t_cycle = np.zeros_like(w), np.zeros_like(w), 0
        # where v > 0 and g^2 / v > theta, g becomes sign(g) sqrt(theta v)
        with np.errstate(divide="ignore", invalid="ignore"):
            spike = (v > 0) & (g * g / v > theta)
        g = np.where(spike, np.sign(g) * np.sqrt(theta * v), g)
        last = ((step - 1) // reset_interval) * reset_interval \
            if reset_interval else 0
        scale = min(1.0, (step - last) / warmup) if warmup else 1.0
        t_cycle += 1
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * (g * g)
        mh = m / (1 - b1 ** t_cycle)
        vh = v / (1 - b2 ** t_cycle)
        w = w - lr * scale * mh / (np.sqrt(vh) + eps)
        yield w, g, int(np.sum(spike))


def stable_spam_trace(gs, lr, g1=0.7, g2=0.9, g3=0.999, interval=1000,
                      b1=0.9, b2=0.999, eps=1e-6):
    """Stable-SPAM on one tensor. Every operation is written in the order
    the update rules state it, so a faithful implementation agrees bit for
    bit."""
    w = np.zeros(np.shape(gs[0]))
    m, v, t_cycle = np.zeros_like(w), np.zeros_like(w), 0
    thr, mn, vn = 0.0, 0.0, 0.0
    for step, g in enumerate(gs, start=1):
        # AdaClip: entries above the bias-corrected max-abs EMA are rescaled
        gmax = float(np.max(np.abs(g)))
        thr = g3 * thr + (1 - g3) * gmax
        that = thr / (1 - g3 ** step)
        clip = np.abs(g) > that
        with np.errstate(invalid="ignore"):  # 0 / 0 where g is all zero
            g = np.where(clip, g / gmax * that, g)
        # AdaGN: the tensor's norm becomes mhat_n / (sqrt(vhat_n) + eps)
        gnorm = float(norm(g))
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
        yield w, g, int(np.sum(clip))


def adagn_norm_trace(norms, g1, g2, eps=1e-6):
    """Output norms of the gradient-norm rescaler for a stream of norms."""
    mn, vn = 0.0, 0.0
    for t, n in enumerate(norms, start=1):
        mn = g1 * mn + (1 - g1) * n
        vn = g2 * vn + (1 - g2) * n * n
        mhn = mn / (1 - g1 ** t)
        vhn = vn / (1 - g2 ** t)
        yield mhn / (math.sqrt(vhn) + eps)


MINIFLOATS = {"fp4_e1m2": (1, 2, 1)}  # exponent bits, mantissa bits, bias


def grid(name):
    """The sorted values of ``quant.format`` ``name``, from its bit layout.
    INT-k holds the integers up to 2^(k-1)-1 in size. A minifloat with
    exponent e, M-bit mantissa m and bias b holds, as the OCP Microscaling
    spec lays out FP4, the subnormals 2^(1-b) m / 2^M at e = 0 and the
    normals 2^(e-b) (1 + m / 2^M): E1M2's are m/4 and 1 + m/4."""
    if name in MINIFLOATS:
        ebits, mbits, bias = MINIFLOATS[name]
        mags = [2.0 ** (max(e, 1) - bias) * ((e > 0) + m / 2 ** mbits)
                for e in range(2 ** ebits) for m in range(2 ** mbits)]
    elif name[:3] == "int" and name[3:].isdigit():
        mags = range(2 ** (int(name[3:]) - 1))
    else:
        raise ValueError(f"format {name!r} has no grid")
    return np.array([-m for m in mags[:0:-1]] + list(mags), dtype=float)


def qdq(x, name):
    """Brute-force quantize-dequantize to format ``name``: x / max|x| * top,
    top the largest value of ``grid(name)``, snaps to the nearest grid value
    (on a tie, the one of even signed index) and scales back by max|x| / top;
    +-top give exactly +-max|x|, and zero is +0.0."""
    g = grid(name)
    top, center = g[-1], len(g) // 2
    amax = np.max(np.abs(x)) or 1.0  # a zero x snaps to zeros at any scale
    out = np.zeros(np.shape(x))
    for idx, v in np.ndenumerate(x):
        _, _, c = min((abs(v / amax * top - c), (i - center) % 2, c)
                      for i, c in enumerate(g))
        out[idx] = (amax * np.sign(c) if abs(c) == top
                    else c * (amax / top)) + 0.0
    return out
