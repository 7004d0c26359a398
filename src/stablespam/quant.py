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

Each format reads only its top code: 2^(k-1)-1 for INT-k, whose most-negative
two's-complement code is dropped to keep the grid symmetric, and 7 for E1M2,
whose values {0, +-0.25 .. +-1.75} are 0.25 x INT4's, so that under absmax
scaling ``fp4_e1m2`` gives exactly INT4's values. The value grids live in
``stablespam.oracles.grid``, each built from its format's bit layout.
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


# Each format's top code: its grid runs from -top to top codes.
_TOP_CODES = {QuantSpec.INT2: 1, QuantSpec.INT3: 3, QuantSpec.INT4: 7,
              QuantSpec.FP4_E1M2: 7}


def qdq(x: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Quantize-dequantize with per-tensor absmax scaling.

    The entry attaining the absmax maps to exactly +-max|x|: codes
    +-top are pinned to +-absmax, which also makes qdq exactly idempotent.
    The pin is skipped when ``top * (absmax / top) == absmax``, where the
    +-top codes already give +-absmax: for every INT2 absmax, 92% of random
    INT4 ones, and 96.0% of 4,016 calls in one ``mlp_int4_spike`` unit (seed
    0) and 93.5% of 20,080 in ``lr_grid``'s first. The codes are computed in
    place in the output array. A non-finite entry is a ``NonFiniteError``
    naming its index, and an ``x`` with no entries a ``ValueError``.
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
    top = _TOP_CODES[spec]
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
