"""Fake quantization (quantize-dequantize) to INT2/INT3/INT4 and FP4 E1M2.

Quantization is simulated entirely in float64 by snapping values onto a
finite symmetric grid scaled by the tensor's absmax. The compute dtype never
changes, so all quantizer properties (idempotence, boundedness, sign
preservation) hold exactly.

Grid conventions:
  * INT-k: integers -(2^(k-1)-1) .. 2^(k-1)-1 (most-negative two's-complement
    code dropped, keeping the grid symmetric).
  * FP4 E1M2: 1 sign / 1 exponent / 2 mantissa bits, exponent bias 1,
    subnormals at e=0 -> {0, +-0.25, +-0.5, +-0.75, +-1.0, +-1.25, +-1.5, +-1.75}.

Rounding is nearest, with exact ties going to the grid point whose signed
code index (0 at zero, +-1 for the smallest magnitudes, ...) is even. For
integer grids this is ordinary round-half-to-even on the code value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor_core import as_matrix, max_abs


class QuantFormat(Enum):
    NONE = "none"
    INT2 = "int2"
    INT3 = "int3"
    INT4 = "int4"
    FP4_E1M2 = "fp4_e1m2"


@dataclass(frozen=True)
class QuantSpec:
    format: QuantFormat = QuantFormat.NONE

    @classmethod
    def from_name(cls, name: str) -> "QuantSpec":
        return cls(format=QuantFormat(name))


def _fp4_e1m2_values() -> np.ndarray:
    bias = 1
    mags = []
    for e in (0, 1):
        for m in range(4):
            if e == 0:  # subnormal
                mags.append((m / 4.0) * 2.0 ** (1 - bias))
            else:
                mags.append((1.0 + m / 4.0) * 2.0 ** (e - bias))
    mags = sorted(set(mags))
    return np.array(sorted({-v for v in mags} | set(mags)))


def grid(fmt: QuantFormat) -> np.ndarray:
    """Sorted array of representable values for a (non-NONE) format."""
    if fmt is QuantFormat.NONE:
        raise ValueError("NONE format has no grid")
    if fmt is QuantFormat.FP4_E1M2:
        return _fp4_e1m2_values()
    bits = {QuantFormat.INT2: 2, QuantFormat.INT3: 3, QuantFormat.INT4: 4}[fmt]
    top = 2 ** (bits - 1) - 1
    return np.arange(-top, top + 1, dtype=np.float64)


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise ValueError(f"non-finite value at index ({i}, {j})")


def qdq(x, spec: QuantSpec) -> np.ndarray:
    """Quantize-dequantize with per-tensor absmax scaling.

    The entry attaining the absmax maps to exactly +-max_abs(x): the scaled
    grid's extreme points are pinned to +-absmax, which also makes qdq
    exactly idempotent.
    """
    x = as_matrix(x)
    if spec.format is QuantFormat.NONE:
        return x.copy()
    _check_finite(x)
    amax = max_abs(x)
    if amax == 0.0:
        return np.zeros_like(x)
    g = grid(spec.format)
    gmax = g[-1]
    center = len(g) // 2

    # Snap in code space: every grid value is an exact binary fraction, so
    # exact ties (e.g. -0.5 on INT4 -> code -3.5) survive the transform.
    codes = (x.ravel() / amax) * gmax
    idx = np.searchsorted(g, codes)
    idx = np.clip(idx, 1, len(g) - 1)
    left = g[idx - 1]
    right = g[idx]
    d_left = codes - left
    d_right = right - codes
    choose_right = d_right < d_left
    tie = d_right == d_left
    right_code_even = ((idx - center) % 2) == 0
    choose_right |= tie & right_code_even
    snapped = np.where(choose_right, right, left)

    scale = amax / gmax
    out = snapped * scale
    # Pin the extreme codes so the absmax entry is an exact fixed point.
    out = np.where(snapped == gmax, amax, out)
    out = np.where(snapped == -gmax, -amax, out)
    return out.reshape(x.shape)


def qdq_idempotent_check(x, spec: QuantSpec) -> bool:
    once = qdq(x, spec)
    return np.array_equal(qdq(once, spec), once)
