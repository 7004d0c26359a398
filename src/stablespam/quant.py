"""Fake quantization (quantize-dequantize) to INT2/INT3/INT4 and FP4 E1M2.

Quantization is simulated entirely in float64 by rounding each value to an
integer code on a symmetric grid scaled by the tensor's absmax. The compute
dtype never changes, so all quantizer properties (idempotence, boundedness,
sign preservation) hold exactly. A format is a member of the one enum
``QuantSpec``, valued by its ``quant.format`` name; ``NONE`` quantizes nothing.

``qdq`` takes a 2-D float64 array as given (the model's doors make one) and
raises ``NonFiniteError`` on a NaN or +-inf entry, naming its index, and
``ValueError`` on one with no entries.

``qdq`` runs on every matmul operand of every step, so, as in ``models``, it
calls numpy's C entries (``np.maximum.reduce``, not ``np.max``) and no
Python wrapper: ``QuantSpec`` members hash by identity, which keeps
``Enum.__hash__`` off its format lookup.

One rule serves every format: ``code = rint(x / absmax * top)``, rounding
half to even on the integer code, and the output is ``code * absmax / top``,
with the +-top codes pinned to exactly +-absmax. The pin is skipped when
``top * (absmax / top) == absmax``, since the +-top codes then give +-absmax
already: for every INT2 absmax (top 1) and most others.

Grid conventions:
  * INT-k: integers -(2^(k-1)-1) .. 2^(k-1)-1 (most-negative two's-complement
    code dropped, keeping the grid symmetric), so top = 2^(k-1)-1.
  * FP4 E1M2: 1 sign / 1 exponent / 2 mantissa bits, exponent bias 1,
    subnormals at e=0 -> {0, +-0.25, +-0.5, +-0.75, +-1.0, +-1.25, +-1.5, +-1.75}.
    That is 0.25 x the INT4 codes, so top = 7 and, under per-tensor absmax
    scaling, ``fp4_e1m2`` gives exactly INT4's values.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .tensor_core import NonFiniteError


class QuantSpec(Enum):
    NONE = "none"
    INT2 = "int2"
    INT3 = "int3"
    INT4 = "int4"
    FP4_E1M2 = "fp4_e1m2"

    # Each member is a singleton, compared by identity: the C hash of
    # ``object`` serves, where ``Enum.__hash__`` runs in Python.
    __hash__ = object.__hash__

    @classmethod
    def from_name(cls, name: str) -> "QuantSpec":
        return cls(name)


# Each format's top code and the value of one code step on its grid().
_CODES = {
    QuantSpec.INT2: (1, 1.0),
    QuantSpec.INT3: (3, 1.0),
    QuantSpec.INT4: (7, 1.0),
    QuantSpec.FP4_E1M2: (7, 0.25),
}


def grid(fmt: QuantSpec) -> np.ndarray:
    """Sorted array of representable values for a (non-NONE) format.

    E1M2 is uniform: its subnormals 0..0.75 run on into its normals 1.0..1.75.
    """
    if fmt is QuantSpec.NONE:
        raise ValueError("NONE format has no grid")
    top, step = _CODES[fmt]
    return np.arange(-top, top + 1) * step


def qdq(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Quantize-dequantize with per-tensor absmax scaling.

    The entry attaining the absmax maps to exactly +-max|x|: codes
    +-top are pinned to +-absmax, which also makes qdq exactly idempotent.
    The pin is skipped when ``top * (absmax / top) == absmax``, where the
    +-top codes already give +-absmax (for 92% of random INT4 absmaxes and
    every INT2 one). The codes are computed in place in the output array.
    A non-finite entry is a ``NonFiniteError`` naming its index, and an
    ``x`` with no entries a ``ValueError``.
    """
    if spec is QuantSpec.NONE:
        return x.copy()
    # inf or nan exactly when some entry is; no entries is a ValueError
    amax = float(np.maximum.reduce(np.abs(x), axis=None))
    if not math.isfinite(amax):
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise NonFiniteError(f"non-finite value at index ({i}, {j})")
    if amax == 0.0:
        return np.zeros_like(x)
    top = _CODES[spec][0]
    scale = amax / top
    codes = x / amax
    codes *= top
    np.rint(codes, out=codes)  # rounds half to even
    codes += 0.0  # turns rint's -0.0 into +0.0
    if top * scale == amax:  # the +-top codes give +-amax unpinned
        codes *= scale
        return codes
    high, low = codes == top, codes == -top
    codes *= scale
    codes[high] = amax
    codes[low] = -amax
    return codes
