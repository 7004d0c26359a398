"""Dense float64 matrix kernel with deterministic reductions.

All numeric state in this package is carried by plain 2-D ``numpy.float64``
arrays. Only the doors call ``as_matrix``: ``ComposedOptimizer.step`` for the
optimizer, ``mlp_forward_backward``, ``mlp_loss`` and ``inject_spikes`` for
the model. Behind them, ``matmul``, ``frobenius_norm`` and ``max_abs`` take
2-D float64 arrays as given. ``NonFiniteError`` is the one error for a NaN or
+-inf where a finite value is needed; ``harness.run`` records it as divergence.

The one non-obvious piece is ``matmul``: every output element is
``((0.0 + p0) + p1) + ...`` with ``pk = a[i, k] * b[k, j]`` added in
ascending k, so the result is bit-identical to a naive triple loop, which
keeps the trace-equality tests exact.

``matmul`` is one summing einsum, ``"ki,kj->ij"`` over ``a.T`` and a
C-ordered copy of ``b``, taken with the longer output axis innermost: for
``m < n`` it computes ``(b.T @ a.T).T`` and returns that C-ordered. Then j,
the innermost output axis, is also the right operand's contiguous axis, and
the left operand does not move along it, so numpy's iterator puts j
innermost and k outside it. einsum's inner loop
(``sum_of_products_stride0_contig_outcontig_two``) is then
``out[j] += a[k, i] * b[k, j]`` over a row of outputs that starts at +0.0.
Each output gets its products one k at a time, in ascending k: SIMD runs
across independent outputs, never across k. No product tensor is formed.
An all-(-0.0) sum stays +0.0, and inf and nan land where the naive loop
puts them.

The einsum is numpy's C entry, ``numpy._core.multiarray.c_einsum``, bound
once at import: it is what ``np.einsum`` calls when ``optimize`` is False,
without that function's Python wrapper and array-function dispatch. At the
MLP's 32-wide shapes those fixed costs are a large part of each call. The
module lives in ``numpy._core`` from numpy 2 on; importing this module
under an older numpy fails with an ``ImportError`` naming its version.

A 1x1 output has only the k axis left, where einsum would take its dot
kernel with several accumulators; so that shape adds its k products with
one ``np.add`` per k.

This holds because einsum's loops are built for numpy's baseline
instruction set, not dispatched to the host's, and on x86-64 that baseline
has no fused multiply-add: each product is rounded before it is added. A
build whose baseline fuses (for example aarch64) or reorders the sum
breaks the contract, so importing this module runs two probes through
``matmul`` itself, and so through the C entry, in ``_check_einsum``, and
raises ``RuntimeError`` naming the property and numpy's version if either
fails. BLAS (``@``) and ``np.sum`` are not used: BLAS blocks and vectorises
the sum over k, and ``np.sum`` adds pairwise wherever k is the innermost
axis it iterates.

Random streams come from ``make_rng`` (PCG64). A given seed produces the
same stream on every platform numpy supports; Gaussian draws use numpy's
ziggurat sampler on top of that stream.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numpy._core.multiarray import c_einsum
except ImportError as exc:
    raise ImportError(
        f"numpy {np.__version__}: stablespam needs numpy>=2, whose "
        f"numpy._core.multiarray holds c_einsum, the C entry of np.einsum "
        f"that matmul calls") from exc


class NonFiniteError(ValueError):
    """A NaN or +-inf where a finite value is needed."""


def as_matrix(x) -> np.ndarray:
    """Coerce input to a 2-D float64 array (1-D inputs become a row)."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    return a


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with sequential ascending-k accumulation.

    Each output element is the sum of a[i, k] * b[k, j] added one k at a
    time starting from +0.0, so the result matches a naive triple loop
    bit-for-bit (an all-(-0.0) sum is +0.0, and inf and nan land where
    they do there). The sum is one call of numpy's C einsum entry,
    ``c_einsum``, over k with the longer output axis innermost: for
    ``m < n`` the product is computed as ``(b.T @ a.T).T``, with the same
    products in the same k order, and copied to C order. A 1x1 output adds
    its products one ``np.add`` at a time instead. The result is a new
    C-ordered array.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    n, m = a.shape[0], b.shape[1]
    if n * m == 1:
        out = np.zeros((1, 1))
        for p in a[0] * b[:, 0]:
            np.add(out, p, out)
        return out
    if m < n:
        return np.ascontiguousarray(
            c_einsum("ki,kj->ij", b, np.ascontiguousarray(a.T)).T)
    return c_einsum("ki,kj->ij", a.T, np.ascontiguousarray(b))


def _check_einsum(product=matmul) -> None:
    """Raise ``RuntimeError`` unless ``product`` rounds each product before
    adding it and adds them in ascending k. Each probe is two rows of 67
    outputs, so einsum's vector loop and its scalar tail both run."""
    x = 1.0 + 2.0**-30
    # fl(x * x) is 1 + 2**-29 exactly; a fused multiply-add keeps 2**-60.
    unfused = product(np.array([[1.0, x]] * 2),
                      np.array([[-(1.0 + 2.0**-29)] * 67, [x] * 67]))
    # Added in ascending k, 2**53 absorbs each 1 and -2**53 cancels it.
    column = np.array([2.0**53] + [1.0] * 32 + [-(2.0**53)])
    ascending = product(np.ones((2, len(column))),
                        np.tile(column[:, None], (1, 67)))
    for name, out in (("round each product before adding it", unfused),
                      ("add the products in ascending k", ascending)):
        if np.any(out != 0.0):
            raise RuntimeError(
                f"numpy {np.__version__}: einsum does not {name}, so matmul "
                f"cannot match a naive triple loop bit for bit")


_check_einsum()


def frobenius_norm(m: np.ndarray) -> float:
    return math.sqrt(np.add.reduce(np.square(m), axis=None))


def max_abs(m: np.ndarray) -> float:
    if m.size == 0:
        raise ValueError("max_abs of an empty matrix")
    return float(np.maximum.reduce(np.abs(m), axis=None))


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Seeded generator; identical seeds give identical streams."""
    return np.random.Generator(np.random.PCG64(seed))
