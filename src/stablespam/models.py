"""Desk-scale differentiable testbeds with hand-written backprop.

Two models:
  * a quadratic bowl 0.5 w'Aw - b'w with SPD A and closed-form optimum,
    whose weight the caller keeps and passes to ``quadratic_loss_grad``, and
  * a small classifier MLP whose hidden blocks are RMSNorm -> SwiGLU, with a
    plain linear head and cross-entropy loss.

Quantization-aware training: unless ``init_mlp``'s ``quant=`` is
``QuantSpec.NONE`` (the default), every matmul in the MLP forward runs on
quantize-dequantized operands (weights and the activations feeding it).
The backward pass treats each quantize-dequantize as identity
(straight-through), so gradients are full float64 with respect to the
unquantized weights. RMSNorm gains stay unquantized. The backward pass
does not form the gradient of the network's input, which nothing reads:
the first block's RMSNorm backward forms its gain's gradient alone.

``mlp_forward_backward``, ``mlp_loss`` and ``inject_spikes`` are the model's
doors: each makes its batch a 2-D float64 array, and ``inject_spikes`` alone
decides when spikes are off. The layers behind them and their backward
closures take 2-D float64 arrays as given, as are the parameters of an
``MlpModel``.

The layers and ``inject_spikes`` sum, average and take maxima with
``np.add.reduce`` and ``np.maximum.reduce`` (a mean is the sum divided by
the count). That is the arithmetic ``np.sum``, ``np.mean`` and ``np.max``
do, bit for bit, without their Python wrappers, which cost more than the
reductions at these shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quant import QuantSpec, qdq
from .tensor_core import as_matrix, make_rng, matmul

RMSNORM_EPS = 1e-8
QUADRATIC_DELTA = 0.1


# ---------------------------------------------------------------------------
# Quadratic bowl
# ---------------------------------------------------------------------------

@dataclass
class QuadraticProblem:
    a: np.ndarray   # SPD matrix, exactly symmetric
    b: np.ndarray   # (n, 1)
    w0: np.ndarray  # (n, 1) initial parameters


def make_quadratic(dim: int, rng) -> QuadraticProblem:
    """A = M'M + QUADRATIC_DELTA*I with random M: exactly symmetric."""
    m = rng.standard_normal((dim, dim))
    a = matmul(m.T, m) + QUADRATIC_DELTA * np.eye(dim)
    b = rng.standard_normal((dim, 1))
    w = rng.standard_normal((dim, 1))
    return QuadraticProblem(a=a, b=b, w0=w)


def quadratic_loss_grad(p: QuadraticProblem, w):
    """Loss and gradient at the (n, 1) weight ``w``."""
    aw = matmul(p.a, w)
    loss = 0.5 * float(matmul(w.T, aw)[0, 0]) - float(matmul(p.b.T, w)[0, 0])
    grad = aw - p.b
    return loss, grad


# ---------------------------------------------------------------------------
# Layer primitives
# ---------------------------------------------------------------------------

def _sigmoid(z):
    """Both branches of the stable logistic at once: with e = exp(-|z|),
    1 / (1 + e) where z >= 0 and e / (1 + e) below. e <= 1 never overflows."""
    ez = np.abs(z)
    np.negative(ez, out=ez)
    np.exp(ez, out=ez)
    num = np.where(z >= 0, 1.0, ez)
    return np.divide(num, 1.0 + ez, out=num)


def rmsnorm_fwd_bwd(x, gain):
    """y = x / sqrt(mean(x^2) + eps) * gain, rowwise; returns (y, backward).

    backward(dy) -> (dx, dgain); backward(dy, False) -> (None, dgain), for
    a block whose input gradient nothing reads.
    """
    n = x.shape[1]
    r = np.add.reduce(x * x, axis=1, keepdims=True)
    r /= n
    r += RMSNORM_EPS
    np.sqrt(r, out=r)
    y = x / r * gain

    def backward(dy, want_dx=True):
        dgain = np.add.reduce(dy * x / r, axis=0, keepdims=True)
        if not want_dx:
            return None, dgain
        gdy = dy * gain
        dot = np.add.reduce(gdy * x, axis=1, keepdims=True)
        return gdy / r - x * dot / (n * r ** 3), dgain

    return y, backward


def swiglu_fwd_bwd(x, w_gate, w_up):
    """y = silu(x @ w_gate) * (x @ w_up); returns (y, backward).

    backward(dy) -> (dx, dw_gate, dw_up).
    """
    a = matmul(x, w_gate)
    b = matmul(x, w_up)
    sig = _sigmoid(a)
    silu_a = a * sig
    y = silu_a * b

    def backward(dy):
        # d silu(a)/da = sigmoid(a) * (1 + a * (1 - sigmoid(a)))
        da = dy * b * sig * (1.0 + a * (1.0 - sig))
        db = dy * silu_a
        dx = matmul(da, w_gate.T) + matmul(db, w_up.T)
        dw_gate = matmul(x.T, da)
        dw_up = matmul(x.T, db)
        return dx, dw_gate, dw_up

    return y, backward


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

@dataclass
class MlpModel:
    params: dict[str, np.ndarray]
    depth: int
    quant: QuantSpec


def init_mlp(input_dim: int, hidden_dim: int, depth: int, classes: int,
             rng, quant: QuantSpec = QuantSpec.NONE) -> MlpModel:
    params: dict[str, np.ndarray] = {}
    din = input_dim
    for i in range(depth):
        params[f"block{i}.gain"] = np.ones((1, din))
        params[f"block{i}.w_gate"] = rng.standard_normal((din, hidden_dim)) / np.sqrt(din)
        params[f"block{i}.w_up"] = rng.standard_normal((din, hidden_dim)) / np.sqrt(din)
        din = hidden_dim
    params["out.w"] = rng.standard_normal((din, classes)) / np.sqrt(din)
    return MlpModel(params=params, depth=depth, quant=quant)


def _softmax(logits):
    e = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


def _mlp_forward(model: MlpModel, x, labels):
    """The forward pass: (loss, probs, head input, head weight, caches,
    rows), where ``caches`` holds each block's (RMSNorm, SwiGLU) backward
    and ``rows`` indexes the batch's rows, for the label gathers."""
    spec = model.quant
    rows = np.arange(x.shape[0])
    caches = []
    for i in range(model.depth):
        gain = model.params[f"block{i}.gain"]
        normed, rms_bwd = rmsnorm_fwd_bwd(x, gain)
        nq = qdq(normed, spec)
        wg_q = qdq(model.params[f"block{i}.w_gate"], spec)
        wu_q = qdq(model.params[f"block{i}.w_up"], spec)
        x, swiglu_bwd = swiglu_fwd_bwd(nq, wg_q, wu_q)
        caches.append((rms_bwd, swiglu_bwd))
    xq = qdq(x, spec)
    w_out_q = qdq(model.params["out.w"], spec)
    logits = matmul(xq, w_out_q)

    probs = _softmax(logits)
    eps = 1e-300  # guards log(0): a probability of 0 costs 690.78, finite
    log_p = np.log(probs[rows, labels] + eps)
    loss = -(float(np.add.reduce(log_p)) / len(rows))
    return loss, probs, xq, w_out_q, caches, rows


def mlp_forward_backward(model: MlpModel, inputs, labels):
    """Cross-entropy loss and gradients for every parameter tensor.

    With quantization enabled, matmul operands go through qdq in the forward
    pass; the backward pass is straight-through, assigning the gradients of
    the quantized weights to the unquantized ones.
    """
    x = as_matrix(inputs)
    labels = np.asarray(labels, dtype=np.int64)
    loss, probs, xq, w_out_q, caches, rows = _mlp_forward(model, x, labels)

    grads: dict[str, np.ndarray] = {}
    dlogits = probs  # the forward is done with probs
    dlogits[rows, labels] -= 1.0
    dlogits /= len(rows)
    grads["out.w"] = matmul(xq.T, dlogits)
    dx = matmul(dlogits, w_out_q.T)  # straight-through across qdq(x)
    for i in reversed(range(model.depth)):
        rms_bwd, swiglu_bwd = caches[i]
        dnq, dw_gate, dw_up = swiglu_bwd(dx)
        grads[f"block{i}.w_gate"] = dw_gate
        grads[f"block{i}.w_up"] = dw_up
        # Straight-through across qdq(normed). Block 0's input gradient
        # would be the network input's, which nothing reads.
        dx, dgain = rms_bwd(dnq, i > 0)
        grads[f"block{i}.gain"] = dgain
    return loss, grads


def mlp_loss(model: MlpModel, inputs, labels) -> float:
    """The loss of ``mlp_forward_backward`` from its forward pass alone."""
    labels = np.asarray(labels, dtype=np.int64)
    return _mlp_forward(model, as_matrix(inputs), labels)[0]


# ---------------------------------------------------------------------------
# Synthetic data and spike injection
# ---------------------------------------------------------------------------

@dataclass
class SyntheticDataset:
    inputs: np.ndarray   # (N, d)
    labels: np.ndarray   # (N,) int class ids
    centers: np.ndarray  # (classes, d)


def make_dataset(samples: int, dim: int, classes: int, seed: int) -> SyntheticDataset:
    """Gaussian-mixture classification set: unit-variance clusters at random
    centers, classes balanced within one sample, reproducible from seed."""
    rng = make_rng(seed)
    return _sample(2.0 * rng.standard_normal((classes, dim)), samples, rng)


def resample_dataset(dataset: SyntheticDataset, samples: int,
                     seed: int) -> SyntheticDataset:
    """Held-out split: same mixture centers, fresh labels and noise."""
    return _sample(dataset.centers, samples, make_rng(seed))


def _sample(centers, samples: int, rng) -> SyntheticDataset:
    """Balanced labels in a random order, each input its center plus unit
    noise; draws the permutation, then the noise."""
    classes, dim = centers.shape
    labels = np.arange(samples, dtype=np.int64) % classes
    labels = labels[rng.permutation(samples)]
    inputs = centers[labels] + rng.standard_normal((samples, dim))
    return SyntheticDataset(inputs=inputs, labels=labels, centers=centers)


def inject_spikes(batch, probability: float, severity: float, rng) -> np.ndarray:
    """Add Gaussian noise with std severity * max|batch| to a random subset
    of entries (independent Bernoulli(probability) selection)."""
    batch = as_matrix(batch)
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    if severity < 0.0:
        raise ValueError("severity must be >= 0")
    if probability == 0.0 or severity == 0.0:
        return batch.copy()
    mask = rng.random(batch.shape) < probability
    amax = float(np.maximum.reduce(np.abs(batch), axis=None))
    noise = rng.standard_normal(batch.shape) * (severity * amax)
    return np.where(mask, batch + noise, batch)
