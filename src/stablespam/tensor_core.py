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

``matmul`` forms the products for a block of k at once, as one C-ordered
``(k, n, m)`` tensor, and sums it over k. Blocks of at least
``_EINSUM_MIN`` products are formed by ``np.einsum("ki,kj->kij")``, smaller
ones by a broadcast ``np.multiply``, whose set-up is cheaper. No index is
summed in that einsum, so each entry is one product, written as
``0.0 + a[i, k] * b[k, j]``: it is never -0.0, and only the sign of a zero
product can differ from the multiply's.

On the einsum path ``matmul`` forms each block with its longer output axis
innermost, where einsum's inner loop runs: for ``m < n`` it computes
``(b.T @ a.T).T`` and returns it C-ordered. Each output element has the same
products, added in the same k order, so the bits are the same. The einsum
path also copies its right operand to C order (``np.ascontiguousarray``,
about 1 us for 1024 entries), so that inner loop reads it contiguously even
when the caller passes a transposed weight, as every backward product does.
The block loop lives in the private ``_ascending_sum``, which both
orientations call; it must not re-enter ``matmul``, whose module attribute a
span tracer may wrap, so that one product would count as two.

The sum is one ``np.add.reduce`` over axis 0 of the block when the output
has more than one element. In a C-ordered block k has the largest stride,
so numpy iterates it outermost and runs its element-wise add over the
``n * m`` outputs once per k: ``out[j] = out[j] + p[k, j]``, in ascending
k, with no pairwise split. Only for a 1x1 output is k the innermost axis
numpy iterates, and there it sums pairwise; so that shape keeps a Python
loop of in-place ``np.add``, one per k. When one einsum block holds all of
k (every MLP training shape) its reduce is the result: ``p[0]`` is never
-0.0, so a reduce that starts from ``p[0]`` equals the sum that starts from
+0.0, and no zeroed output or extra add is needed. Otherwise the blocks are
summed into a +0.0-initialised output, and before each reduce ``p[0]`` is
replaced by ``out + p[0]``. That carries the sum of earlier blocks into
this one, and it keeps an all-(-0.0) sum of multiply products at +0.0
whether numpy starts the reduce from its identity or from ``p[0]``.

BLAS (``@``, or an einsum that sums over k) is not used because it blocks
and vectorises the sum. ``np.sum``, or a reduce over k of a product that
is not C-ordered, is not used because numpy sums pairwise wherever k ends
up the innermost axis it iterates, as the default ``order="K"`` can make
it for a one-column output (the quadratic's 8x8x1 matrix-vector product).
``np.add.accumulate`` over k adds in order but stores every partial sum,
k outputs' worth, and is not used either.

Random streams come from ``make_rng`` (PCG64). A given seed produces the
same stream on every platform numpy supports; Gaussian draws use numpy's
ziggurat sampler on top of that stream.
"""

from __future__ import annotations

import math

import numpy as np

# Most products one block in ``matmul`` holds (256 KiB of float64). The
# 32-row training shapes take one block, so one reduce. Larger shapes split
# along k, not along rows, so each block is still a C-ordered (k, n, m)
# tensor whose reduce over k runs k adds across all n * m outputs.
_BLOCK = 1 << 15
# Fewest products for which ``np.einsum`` forms a block faster than a
# broadcast ``np.multiply``: its set-up costs about 1 us more per call, but
# its loop runs up to twice as fast per product. The MLP's blocks (4096
# products and up) take einsum, the quadratic's (64 and 8) the multiply.
_EINSUM_MIN = 1 << 11


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
    they do there). The products of up to ``_BLOCK // (n * m)``
    consecutive k are formed in one ``np.einsum`` (or, for a block under
    ``_EINSUM_MIN`` products, one broadcast ``np.multiply``). An einsum
    block is formed from a C-ordered copy of the right operand, with the
    longer output axis innermost: for ``m < n`` the product is computed as
    ``(b.T @ a.T).T``, with the same products in the same k order. Each
    block is summed by one ``np.add.reduce`` over k; a block that holds
    all of k is the whole sum, since einsum never writes -0.0, and later
    blocks first take the running sum into their first slice. A 1x1
    output, whose reduce numpy would sum pairwise, adds its products one k
    at a time instead. The product buffer is allocated once per call and
    holds at most ``max(_BLOCK, n * m)`` elements. The result is a new
    C-ordered array.
    """
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    n, inner = a.shape
    m = b.shape[1]
    step = max(1, min(inner, _BLOCK // max(1, n * m)))
    einsum = step * n * m >= _EINSUM_MIN
    if einsum and m < n:
        return np.ascontiguousarray(_ascending_sum(b.T, a.T, step, einsum).T)
    return _ascending_sum(a, b, step, einsum)


def _ascending_sum(a, b, step, einsum):
    """``matmul``'s block loop: ``a @ b`` summed in ascending k, ``step`` k
    per block, formed by einsum or by multiply. It is called by ``matmul``
    alone and never calls it back."""
    n, inner = a.shape
    m = b.shape[1]
    prod = np.empty((step, n, m))
    if einsum:
        b = np.ascontiguousarray(b)
        if step == inner and n * m > 1:
            np.einsum("ki,kj->kij", a.T, b, out=prod)
            return np.add.reduce(prod, axis=0)
    out = np.zeros((n, m))
    for k0 in range(0, inner, step):
        a_blk = a[:, k0 : k0 + step].T
        b_blk = b[k0 : k0 + step]
        p = prod[: len(a_blk)]
        if einsum:
            np.einsum("ki,kj->kij", a_blk, b_blk, out=p)
        else:
            np.multiply(a_blk[:, :, None], b_blk[:, None, :], out=p)
        if n * m == 1:
            for pk in p:
                np.add(out, pk, out)
        else:
            np.add(out, p[0], out=p[0])
            np.add.reduce(p, axis=0, out=out)
    return out


def frobenius_norm(m: np.ndarray) -> float:
    return math.sqrt(np.add.reduce(np.square(m), axis=None))


def max_abs(m: np.ndarray) -> float:
    if m.size == 0:
        raise ValueError("max_abs of an empty matrix")
    return float(np.maximum.reduce(np.abs(m), axis=None))


def make_rng(seed: int | np.random.SeedSequence) -> np.random.Generator:
    """Seeded generator; identical seeds give identical streams."""
    return np.random.Generator(np.random.PCG64(seed))
