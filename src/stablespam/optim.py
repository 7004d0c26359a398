"""Optimizer step rules: Stable-SPAM, its components, and baselines.

Stable-SPAM applies, per step and per tensor:

  1. AdaClip  -- elementwise clip against a bias-corrected EMA of the
     historical max-abs gradient entry (coefficient gamma3).
  2. AdaGN    -- rescale the whole gradient matrix by the ratio of the
     bias-corrected EMA of its L2 norm to the sqrt of the bias-corrected
     EMA of its squared norm (coefficients gamma1 / gamma2).
  3. MoRet    -- zero Adam's first/second moments at multiples of the
     reset interval, before that step's moment update.
  4. Adam update with bias correction.

Bias-correction counters: the Adam correction uses ``step_in_cycle`` which
restarts with each MoRet reset (so a constant gradient c keeps m_hat == c
after a reset), while the AdaGN/AdaClip counters are monotone because their
state is never zeroed.

Baselines: SGD, Adam, Adam+GradClip (global threshold clip), Adafactor
(factored second moment with RMS update clipping), SPAM (elementwise
SpikeClip + periodic reset + post-reset linear LR warmup), Lion, and a
simplified Adam-mini that keeps one shared second-moment scalar per tensor.

``ComposedOptimizer`` runs an ordered list of gradient transforms plus a base
update rule, and is the only way the package runs an optimizer: Stable-SPAM
is ``(["adaclip", "adagn"], Adam-with-MoRet)``, SPAM is ``(["spike_clip"],
Adam-with-reset-and-warmup)`` and Adam+GradClip is ``(["grad_clip"], Adam)``.
``stablespam.oracles`` holds an independent reference for each rule, which
the check table in ``stablespam.selftest`` compares these against; the table
serves both ``stablespam selftest`` and acceptance criteria 1-6 and 10.

``ComposedOptimizer.step`` is the one door for input: it rejects gradients
whose names differ from the weights' with a ``ValueError``, makes each weight
and gradient a 2-D float64 array, and rejects a NaN or +-inf gradient with a
``NonFiniteError``, all before any state changes. Behind it, only AdaClip
re-checks (free, from its max).

All epsilon divisors are placed as (sqrt(v_hat) + eps), never sqrt(v + eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_core import NonFiniteError, as_matrix, frobenius_norm


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Per-tensor state
# ---------------------------------------------------------------------------

@dataclass
class AdamMoments:
    m: np.ndarray
    v: np.ndarray
    step_in_cycle: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamMoments":
        return cls(m=np.zeros(shape), v=np.zeros(shape))

    def reset(self) -> None:
        self.m[...] = 0.0
        self.v[...] = 0.0
        self.step_in_cycle = 0


@dataclass
class AdaGnState:
    m_norm: float = 0.0
    v_norm: float = 0.0
    step: int = 0


@dataclass
class AdaClipState:
    t_threshold: float = 0.0
    step: int = 0


@dataclass
class AdamMiniState:
    m: np.ndarray
    v: float = 0.0
    step_in_cycle: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamMiniState":
        return cls(m=np.zeros(shape))


@dataclass
class AdafactorState:
    row: np.ndarray | None = None   # (rows, 1) EMA of row means of g^2
    col: np.ndarray | None = None   # (1, cols) EMA of column means of g^2
    v: np.ndarray | None = None     # unfactored fallback for vectors
    step: int = 0


# ---------------------------------------------------------------------------
# Gradient transforms
# ---------------------------------------------------------------------------

def adaclip(g, state: AdaClipState, gamma3: float):
    """Clip entries above the bias-corrected EMA of historical g_max.

    Flagged entries are rescaled by T_hat / g_max (sign preserved); returns
    the new gradient and the number of entries clipped. State is mutated.
    """
    abs_g = np.abs(g)
    g_max = float(np.max(abs_g))
    if not math.isfinite(g_max):  # inf or nan exactly when some entry is
        raise NonFiniteError("non-finite gradient")
    t = state.step + 1
    state.t_threshold = gamma3 * state.t_threshold + (1.0 - gamma3) * g_max
    state.step = t
    t_hat = state.t_threshold / (1.0 - gamma3 ** t)
    mask = abs_g > t_hat
    out = g.copy()
    if mask.any():
        out[mask] = g[mask] / g_max * t_hat
    return out, int(np.count_nonzero(mask))


def adagn(g, state: AdaGnState, gamma1: float, gamma2: float, eps: float = 1e-6):
    """Rescale g to the bias-corrected historical-norm ratio.

    The output's Frobenius norm is m_hat / (sqrt(v_hat) + eps). A zero
    gradient is returned unchanged but still updates the norm EMAs.
    """
    t = state.step + 1
    g_norm = frobenius_norm(g)
    state.m_norm = gamma1 * state.m_norm + (1.0 - gamma1) * g_norm
    state.v_norm = gamma2 * state.v_norm + (1.0 - gamma2) * g_norm * g_norm
    state.step = t
    if g_norm == 0.0:
        return g.copy()
    m_hat = state.m_norm / (1.0 - gamma1 ** t)
    v_hat = state.v_norm / (1.0 - gamma2 ** t)
    return g / g_norm * (m_hat / (math.sqrt(v_hat) + eps))


def spike_clip(g, v, theta: float) -> np.ndarray:
    """SPAM's elementwise spike clip: g_i <- sign(g_i) * sqrt(theta * v_i)
    wherever g_i^2 / v_i > theta. Entries with v_i == 0 are left unchanged."""
    positive = v > 0
    ratio = np.divide(g * g, v, out=np.zeros_like(g), where=positive)
    mask = positive & (ratio > theta)
    out = g.copy()
    if mask.any():
        out[mask] = np.sign(g[mask]) * np.sqrt(theta * v[mask])
    return out


def global_grad_norm(layers) -> float:
    """The norm of all layers taken together as one vector."""
    layers = list(layers)
    if not layers:
        raise ValueError("global_grad_norm needs at least one layer")
    return math.sqrt(sum(frobenius_norm(g) ** 2 for g in layers))


def grad_clip_global(g_layers, threshold: float):
    """Scale all layers by threshold/N when the global norm N exceeds it."""
    if threshold <= 0:
        raise ValueError("grad clip threshold must be positive")
    total = global_grad_norm(g_layers)
    if total <= threshold:
        return [g.copy() for g in g_layers]
    factor = threshold / total
    return [g * factor for g in g_layers]


# ---------------------------------------------------------------------------
# Step rules
# ---------------------------------------------------------------------------

def adam_step(w, g, moments: AdamMoments, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-6):
    t = moments.step_in_cycle + 1
    moments.step_in_cycle = t
    m, v = moments.m, moments.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return w - lr * m_hat / (np.sqrt(v_hat) + eps)


ADAFACTOR_DECAY_POWER = 0.8


def adafactor_step(w, g, state: AdafactorState, lr: float,
                   eps1: float = 1e-30, d: float = 1.0):
    """Simplified Adafactor: factored second moment for matrices (row/column
    mean accumulators, decay 1 - t^-0.8), unfactored for vectors, update
    clipped so rms(update) <= d."""
    t = state.step + 1
    state.step = t
    beta = 1.0 - t ** (-ADAFACTOR_DECAY_POWER)
    sq = g * g + eps1
    if min(g.shape) == 1:
        if state.v is None:
            state.v = np.zeros_like(g)
        state.v = beta * state.v + (1.0 - beta) * sq
        v_hat = state.v
    else:
        row = np.mean(sq, axis=1, keepdims=True)
        col = np.mean(sq, axis=0, keepdims=True)
        if state.row is None:
            state.row = np.zeros_like(row)
            state.col = np.zeros_like(col)
        state.row = beta * state.row + (1.0 - beta) * row
        state.col = beta * state.col + (1.0 - beta) * col
        v_hat = state.row * state.col / np.mean(state.row)
    u = g / np.sqrt(v_hat)
    rms_u = math.sqrt(float(np.mean(u * u)))
    u = u / max(1.0, rms_u / d)
    return w - lr * u


def lion_step(w, g, m, lr: float, beta1: float = 0.9, beta2: float = 0.99,
              weight_decay: float = 0.0):
    """Lion: sign of the interpolated momentum; m is updated in place.
    sign(0) == 0, so a zero gradient with zero momentum leaves w unchanged."""
    c = beta1 * m + (1.0 - beta1) * g
    update = np.sign(c) + weight_decay * w
    m[...] = beta2 * m + (1.0 - beta2) * g
    return w - lr * update


def adam_mini_step(w, g, state: AdamMiniState, lr: float,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-6):
    """Per-tensor Adam-mini: full first moment, one shared second-moment
    scalar (EMA of mean(g^2)) per tensor."""
    t = state.step_in_cycle + 1
    state.step_in_cycle = t
    state.m[...] = beta1 * state.m + (1.0 - beta1) * g
    state.v = beta2 * state.v + (1.0 - beta2) * float(np.mean(g * g))
    m_hat = state.m / (1.0 - beta1 ** t)
    v_hat = state.v / (1.0 - beta2 ** t)
    return w - lr * m_hat / (math.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Composable multi-tensor optimizers (harness-facing)
# ---------------------------------------------------------------------------

@dataclass
class StepTelemetry:
    clipped_fraction: float = 0.0
    reset: bool = False
    lr_scale: float = 1.0
    grads_post: dict | None = None


class _Base:
    """Per-tensor base update rule with lazily created state. A rule that
    keeps a second moment exposes it as ``second_moment(name, shape)``."""

    def begin_step(self, global_step: int):
        return False, 1.0  # (reset_happened, lr_scale)

    def update(self, name, w, g, lr):
        raise NotImplementedError


class SgdBase(_Base):
    def update(self, name, w, g, lr):
        return w - lr * g


class AdamBase(_Base):
    """Adam, optionally with MoRet. reset_style 'multiple' zeroes moments at
    multiples of the interval (Stable-SPAM); 'after' zeroes them entering the
    following step (SPAM). A positive warmup_steps scales the LR by
    min(1, k / warmup_steps) on the k-th step since the last reset boundary."""

    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-6,
                 reset_interval=0, reset_style="multiple", warmup_steps=0):
        if reset_style not in ("multiple", "after"):
            raise ValueError(f"unknown reset_style {reset_style!r}")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.reset_interval = reset_interval
        self.reset_style = reset_style
        self.warmup_steps = warmup_steps
        self.state: dict[str, AdamMoments] = {}

    def _moments(self, name, shape) -> AdamMoments:
        if name not in self.state:
            self.state[name] = AdamMoments.zeros(shape)
        return self.state[name]

    def begin_step(self, global_step):
        # Steps since the last reset boundary: 1 on the step after one.
        interval = self.reset_interval
        since = (global_step - 1) % interval + 1 if interval else global_step
        if self.reset_style == "multiple":
            reset = bool(interval) and since == interval
        else:
            reset = global_step > 1 and since == 1
        if reset:
            for moments in self.state.values():
                moments.reset()
        scale = 1.0
        if self.warmup_steps > 0:
            scale = min(1.0, since / self.warmup_steps)
        return reset, scale

    def second_moment(self, name, shape):
        return self._moments(name, shape).v

    def update(self, name, w, g, lr):
        moments = self._moments(name, w.shape)
        return adam_step(w, g, moments, lr, self.beta1, self.beta2, self.eps)


class LionBase(_Base):
    def __init__(self, beta1=0.9, beta2=0.99, weight_decay=0.0):
        self.beta1, self.beta2, self.weight_decay = beta1, beta2, weight_decay
        self.state: dict[str, np.ndarray] = {}

    def update(self, name, w, g, lr):
        if name not in self.state:
            self.state[name] = np.zeros(w.shape)
        return lion_step(w, g, self.state[name], lr, self.beta1, self.beta2,
                         self.weight_decay)


class AdamMiniBase(_Base):
    def __init__(self, beta1=0.9, beta2=0.999, eps=1e-6):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.state: dict[str, AdamMiniState] = {}

    def update(self, name, w, g, lr):
        if name not in self.state:
            self.state[name] = AdamMiniState.zeros(w.shape)
        return adam_mini_step(w, g, self.state[name], lr, self.beta1,
                              self.beta2, self.eps)


class AdafactorBase(_Base):
    def __init__(self, eps1=1e-30, d=1.0):
        self.eps1, self.d = eps1, d
        self.state: dict[str, AdafactorState] = {}

    def update(self, name, w, g, lr):
        if name not in self.state:
            self.state[name] = AdafactorState()
        return adafactor_step(w, g, self.state[name], lr, self.eps1, self.d)


TRANSFORM_KINDS = ("adaclip", "adagn", "spike_clip", "grad_clip")


class ComposedOptimizer:
    """Ordered gradient transforms in front of a base update rule.

    Transforms run in listed order; ``adaclip``/``adagn``/``spike_clip`` are
    per-tensor, ``grad_clip`` rescales all tensors against the global norm.
    """

    def __init__(self, transforms, base: _Base, *,
                 gamma1=0.7, gamma2=0.9, gamma3=0.999, eps=1e-6,
                 gss_threshold=5000.0, grad_clip_threshold=1.0):
        transforms = list(transforms)
        for kind in transforms:
            if kind not in TRANSFORM_KINDS:
                raise ConfigError(f"unknown transform '{kind}'")
        if len(set(transforms)) != len(transforms):
            raise ConfigError(f"duplicate transform in {transforms}")
        if "spike_clip" in transforms and not hasattr(base, "second_moment"):
            raise ConfigError(f"spike_clip needs a second moment, which "
                              f"{type(base).__name__} does not keep")
        self.transforms = transforms
        self.base = base
        self.gamma1, self.gamma2, self.gamma3, self.eps = gamma1, gamma2, gamma3, eps
        self.gss_threshold = gss_threshold
        self.grad_clip_threshold = grad_clip_threshold
        self._adaclip: dict[str, AdaClipState] = {}
        self._adagn: dict[str, AdaGnState] = {}

    def step(self, params: dict, grads: dict, lr: float,
             global_step: int) -> StepTelemetry:
        if grads.keys() != params.keys():
            raise ValueError(
                "gradients do not match the weights: missing "
                f"{sorted(params.keys() - grads.keys())}, extra "
                f"{sorted(grads.keys() - params.keys())}")
        weights = {k: as_matrix(w) for k, w in params.items()}
        grads = {k: as_matrix(g) for k, g in grads.items()}
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NonFiniteError(f"non-finite gradient for '{name}'")
        reset, lr_scale = self.base.begin_step(global_step)
        clipped = 0
        total = sum(g.size for g in grads.values())
        for kind in self.transforms:
            if kind == "adaclip":
                for name, g in grads.items():
                    st = self._adaclip.setdefault(name, AdaClipState())
                    grads[name], n_clipped = adaclip(g, st, self.gamma3)
                    clipped += n_clipped
            elif kind == "adagn":
                for name, g in grads.items():
                    st = self._adagn.setdefault(name, AdaGnState())
                    grads[name] = adagn(g, st, self.gamma1, self.gamma2, self.eps)
            elif kind == "spike_clip":
                for name, g in grads.items():
                    v = self.base.second_moment(name, g.shape)
                    clipped_g = spike_clip(g, v, self.gss_threshold)
                    clipped += int(np.sum(clipped_g != g))
                    grads[name] = clipped_g
            elif kind == "grad_clip":
                names = list(grads)
                clipped_list = grad_clip_global([grads[n] for n in names],
                                                self.grad_clip_threshold)
                grads = dict(zip(names, clipped_list))
        for name, w in weights.items():
            params[name] = self.base.update(name, w, grads[name], lr * lr_scale)
        return StepTelemetry(clipped_fraction=clipped / total if total else 0.0,
                             reset=reset, lr_scale=lr_scale, grads_post=grads)
