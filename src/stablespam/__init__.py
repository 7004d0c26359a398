"""Stable-SPAM optimizer family, 4-bit fake quantization, and a desk-scale
training-stability harness."""

from . import harness, models, optim, quant, tensor_core
from .harness import RunConfig, run, sweep
from .optim import compose
from .quant import QuantFormat, QuantSpec, qdq

__version__ = "0.1.0"

__all__ = [
    "harness", "models", "optim", "quant", "tensor_core",
    "RunConfig", "run", "sweep", "compose",
    "QuantFormat", "QuantSpec", "qdq", "__version__",
]
