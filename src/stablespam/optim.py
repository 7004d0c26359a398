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
(factored second moment from zeros, RMS update clipping), SPAM (elementwise
SpikeClip + periodic reset + post-reset linear LR warmup), Lion, and a
simplified Adam-mini whose second moment is one statistic per tensor.
AdaClip and SpikeClip each return ``(gradient, entries their mask flagged)``.

``ComposedOptimizer`` runs an ordered list of gradient transforms plus a base
update rule, and is the only way the package runs an optimizer: Stable-SPAM
is ``(["adaclip", "adagn"], Adam-with-MoRet)``, SPAM is ``(["spike_clip"],
Adam-with-reset-and-warmup)`` and Adam+GradClip is ``(["grad_clip"], Adam)``.
``stablespam.oracles`` holds an independent reference for each rule, which
the check table in ``stablespam.selftest`` compares these against; the table
serves both ``stablespam selftest`` and acceptance criteria 1-6 and 10.

One pass per step. At its first step ``ComposedOptimizer`` lays the
parameter set out (``lay_out``): the tensors in the gradient dict's order,
end to end in one flat float64 vector, each in C order. Every step then
concatenates the gradients once, and each rule runs once on the flat
vectors. The weights are concatenated too, unless every tensor in
``params`` is still the view that the last step put there: then that step's
flat vector is used as it is, so an in-place edit of a view is seen. No
base writes its weight vector in place, so no array a caller holds is
ever written. Elementwise arithmetic (Adam, SGD, Lion, SpikeClip, the
global clip's scale) is the same per entry whatever the vector holds. A
rule's per-tensor statistic (AdaClip's max|g|, AdaGN's norm, Adam-mini's
mean(g^2)) is reduced over each tensor's segment exactly as over the tensor
alone, so its EMAs are updated entry by entry as arrays and then spread back
over the segment's entries; powers such as ``gamma ** t`` stay Python
floats. So each update is bit for bit what the rule gives each tensor on its
own. A tensor's gradient norm has one home, the layout's
``tensor_norms``: one square of the flat vector, then one reduce per
tensor's segment, as Python floats in layout order (``norms`` is the same
norms as a rule's statistic). ``global_grad_norm`` only combines such
norms; the global clip takes its norm that way. A ``Layout`` serves several
tensors; ``OneTensor`` serves one (the rules' default, and every one-tensor
parameter set), whose statistics are Python floats and which costs no
concatenation. Only ``lay_out`` tells them apart: every rule takes the
layout it is handed. Each base keeps its one parameter set's state in one
field, which is ``None`` until the first update; Adafactor's is a list
with one state per tensor, in layout order, since its factoring needs each
tensor's shape.

``ComposedOptimizer.step`` is the one door for input: it rejects gradients
whose names differ from the weights' (or from the first step's) with a
``ValueError``, makes each weight and gradient a C-ordered 2-D float64
array of the first step's shape (so a tensor's bits do not depend on its
memory order, or on whether it is laid out alone or with others), and
rejects a NaN or +-inf gradient with a ``NonFiniteError`` naming the first
such tensor, all before any state changes. It reads that from the
per-tensor norms it takes anyway: a NaN or +-inf entry makes its tensor's
norm NaN or inf, so only when their sum is not finite does it scan the
entries, and a finite tensor whose squares overflow steps. Behind it, only
AdaClip re-checks (free, from its max).

As in ``models``, a step calls numpy's C entries and no Python wrapper:
``np.add.reduce`` and ``np.logical_and.reduce``, not ``np.sum``,
``ndarray.all`` or ``np.count_nonzero``, whose wrappers cost more than the
reductions at these shapes. The results are the same.

Each step returns a ``StepTelemetry``, what it measured and did, for its
caller to record rather than measure again.

All epsilon divisors are placed as (sqrt(v_hat) + eps), never sqrt(v + eps).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tensor_core import NonFiniteError, as_matrix, frobenius_norm


class ConfigError(ValueError):
    pass


# Each default, declared once; OptimizerConfig and the code below read it.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-6  # Adam's, Adam-mini's; EPS also AdaGN's
GAMMA1, GAMMA2, GAMMA3 = 0.7, 0.9, 0.999  # AdaGN's norm EMAs, AdaClip's
GSS_THRESHOLD, GRAD_CLIP = 5000.0, 1.0  # SPAM's spike clip, the global clip
LION_BETA1, LION_BETA2, WEIGHT_DECAY = 0.9, 0.99, 0.0  # Lion's
ADAFACTOR_EPS1, ADAFACTOR_D = 1e-30, 1.0


def _mean(x) -> float:
    """``np.mean`` of every entry, without its wrapper: the same sum,
    divided by the count."""
    return float(np.add.reduce(x, axis=None)) / x.size


# ---------------------------------------------------------------------------
# Layouts: where each tensor lies in the flat vector
# ---------------------------------------------------------------------------

class OneTensor:
    """The layout of one tensor, which is its own flat vector: each
    per-tensor statistic is a Python float, and nothing is concatenated."""

    def __init__(self, name, shape):
        self.names = {name: shape}.keys()
        self.shapes = [shape]

    @staticmethod
    def flatten(parts):
        return parts[0]

    def split(self, flat):
        [name] = self.names
        return {name: flat}

    @staticmethod
    def max(x):
        return float(np.maximum.reduce(x, axis=None))

    @staticmethod
    def tensor_norms(x):
        return [frobenius_norm(x)]

    @staticmethod
    def norms(x):
        return OneTensor.tensor_norms(x)[0]

    means = staticmethod(_mean)

    @staticmethod
    def spread(stat):
        return stat

    sqrt = staticmethod(math.sqrt)
    finite = staticmethod(math.isfinite)

    @staticmethod
    def where(condition, if_true, if_false):
        return if_true if condition else if_false


# The rules' default: one tensor, whatever its name.
TENSOR = OneTensor(None, None)


class Layout:
    """Several tensors laid end to end in one flat float64 vector, in the
    order of ``shapes`` (name -> 2-D shape), each in C order. A per-tensor
    statistic is a float64 array with one entry per tensor."""

    def __init__(self, shapes):
        self.names = shapes.keys()
        self.shapes = list(shapes.values())
        self.sizes = np.array([rows * cols for rows, cols in self.shapes])
        self.starts = self.sizes.cumsum() - self.sizes
        self.slices = [slice(start, start + size) for start, size
                       in zip(self.starts.tolist(), self.sizes.tolist())]

    @staticmethod
    def flatten(parts):
        return np.concatenate(parts, axis=None)

    def split(self, flat):
        return {name: flat[s].reshape(shape) for name, s, shape
                in zip(self.names, self.slices, self.shapes)}

    def max(self, x):
        return np.maximum.reduceat(x, self.starts)

    def tensor_norms(self, x):
        # frobenius_norm of each segment, from one square of the whole
        sq = np.square(x)
        return [math.sqrt(np.add.reduce(sq[s])) for s in self.slices]

    def norms(self, x):
        return np.array(self.tensor_norms(x))

    def means(self, x):
        sums = [np.add.reduce(x[s]) for s in self.slices]
        return np.array(sums) / self.sizes

    def spread(self, stat):
        return stat.repeat(self.sizes)

    sqrt = staticmethod(np.sqrt)

    @staticmethod
    def finite(stat):
        return np.logical_and.reduce(np.isfinite(stat))

    where = staticmethod(np.where)


def lay_out(shapes):
    """The layout of a parameter set, from a dict of its tensors' 2-D shapes
    in order. A set with no tensors, or a tensor with no entries, has no
    statistics, so it is an error."""
    if not shapes:
        raise ValueError("the parameter set has no tensors")
    for name, (rows, cols) in shapes.items():
        if rows * cols == 0:
            raise ValueError(f"tensor '{name}' is empty")
    if len(shapes) == 1:
        return OneTensor(*next(iter(shapes.items())))
    return Layout(shapes)


# ---------------------------------------------------------------------------
# Per-tensor state
# ---------------------------------------------------------------------------

# Adam-mini's ``v``, AdaGN's norms and AdaClip's threshold are per-tensor
# statistics: a laid-out set keeps one float64 array, with an entry per
# tensor, where one tensor keeps a float. A state compares by identity.
@dataclass(eq=False)
class AdamMoments:
    m: np.ndarray
    v: np.ndarray | float
    step_in_cycle: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamMoments":
        return cls(m=np.zeros(shape), v=np.zeros(shape))


@dataclass(eq=False)
class AdaGnState:
    m_norm: float | np.ndarray = 0.0
    v_norm: float | np.ndarray = 0.0
    step: int = 0


@dataclass(eq=False)
class AdaClipState:
    t_threshold: float | np.ndarray = 0.0
    step: int = 0


@dataclass(eq=False)
class AdafactorState:
    row: np.ndarray | float = 0.0   # (rows, 1) EMA of row means of g^2
    col: np.ndarray | float = 0.0   # (1, cols) EMA of column means of g^2
    v: np.ndarray | float = 0.0     # unfactored fallback for vectors
    step: int = 0


# ---------------------------------------------------------------------------
# Gradient transforms
# ---------------------------------------------------------------------------

def adaclip(g, state: AdaClipState, gamma3: float, layout=TENSOR):
    """Clip entries above the bias-corrected EMA of historical g_max.

    Flagged entries are rescaled by T_hat / g_max (sign preserved); returns
    the new gradient and the number of entries clipped. State is mutated.
    Under a ``layout``, each tensor of the flat ``g`` has its own g_max and
    threshold, and ``state.t_threshold`` holds one per tensor.
    """
    abs_g = np.abs(g)
    g_max = layout.max(abs_g)
    if not layout.finite(g_max):  # inf or nan exactly when some entry is
        raise NonFiniteError("non-finite gradient")
    t = state.step + 1
    state.t_threshold = gamma3 * state.t_threshold + (1.0 - gamma3) * g_max
    state.step = t
    t_hat = layout.spread(state.t_threshold / (1.0 - gamma3 ** t))
    mask = abs_g > t_hat
    clipped = int(np.add.reduce(mask, axis=None, dtype=np.intp))
    out = g.copy()
    if clipped:
        np.divide(g, layout.spread(g_max), out=out, where=mask)
        np.multiply(out, t_hat, out=out, where=mask)
    return out, clipped


def adagn(g, state: AdaGnState, gamma1: float, gamma2: float, eps: float = EPS,
          layout=TENSOR):
    """Rescale g to the bias-corrected historical-norm ratio.

    The output's Frobenius norm is m_hat / (sqrt(v_hat) + eps). A zero
    gradient is returned unchanged but still updates the norm EMAs. Under a
    ``layout``, each tensor of the flat ``g`` is rescaled by its own norms,
    and the state's EMAs hold one per tensor.
    """
    t = state.step + 1
    g_norm = layout.norms(g)
    state.m_norm = gamma1 * state.m_norm + (1.0 - gamma1) * g_norm
    state.v_norm = gamma2 * state.v_norm + (1.0 - gamma2) * g_norm * g_norm
    state.step = t
    m_hat = state.m_norm / (1.0 - gamma1 ** t)
    v_hat = state.v_norm / (1.0 - gamma2 ** t)
    scale = m_hat / (layout.sqrt(v_hat) + eps)
    # A zero gradient is divided by 1 and scaled by 1, which leaves it as is.
    zero = g_norm == 0.0
    return (g / layout.spread(layout.where(zero, 1.0, g_norm))
            * layout.spread(layout.where(zero, 1.0, scale)))


def spike_clip(g, v, theta: float):
    """SPAM's elementwise spike clip: g_i <- sign(g_i) * sqrt(theta * v_i)
    wherever g_i^2 / v_i > theta, except where v_i == 0. Returns the new
    gradient and the number of entries flagged."""
    positive = v > 0
    ratio = np.divide(g * g, v, out=np.zeros(g.shape), where=positive)
    mask = positive & (ratio > theta)
    clipped = int(np.add.reduce(mask, axis=None, dtype=np.intp))
    out = g.copy()
    if clipped:
        out[mask] = np.sign(g[mask]) * np.sqrt(theta * v[mask])
    return out, clipped


def global_grad_norm(norms) -> float:
    """The norm of several tensors taken together as one vector, combined
    from each tensor's norm (Python floats, as ``tensor_norms`` gives
    them): the root of the sum of their squares, added left to right in
    the order given. Not builtin ``sum``, which compensates a float sum
    from Python 3.12 on and so would give other bits there."""
    norms = list(norms)
    if not norms:
        raise ValueError("global_grad_norm needs at least one norm")
    total = 0.0
    for n in norms:
        total += n ** 2
    return math.sqrt(total)


def grad_clip_global(g, threshold: float, layout=TENSOR):
    """Scale g by threshold/N when the global norm N of the tensors that
    ``layout`` places in it exceeds the threshold."""
    if threshold <= 0:
        raise ValueError("grad clip threshold must be positive")
    total = global_grad_norm(layout.tensor_norms(g))
    if total <= threshold:
        return g.copy()
    return g * (threshold / total)


# ---------------------------------------------------------------------------
# Step rules
# ---------------------------------------------------------------------------

def adam_step(w, g, moments: AdamMoments, lr: float, beta1: float,
              beta2: float, eps: float):
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


def adafactor_step(w, g, state: AdafactorState, lr: float, eps1: float,
                   d: float):
    """Simplified Adafactor: factored second moment for matrices (row/column
    mean accumulators, decay 1 - t^-0.8), unfactored for vectors, update
    clipped so rms(update) <= d."""
    t = state.step + 1
    state.step = t
    beta = 1.0 - t ** (-ADAFACTOR_DECAY_POWER)
    sq = g * g + eps1
    if min(g.shape) == 1:
        state.v = beta * state.v + (1.0 - beta) * sq
        v_hat = state.v
    else:
        row = np.add.reduce(sq, axis=1, keepdims=True) / sq.shape[1]
        col = np.add.reduce(sq, axis=0, keepdims=True) / sq.shape[0]
        state.row = beta * state.row + (1.0 - beta) * row
        state.col = beta * state.col + (1.0 - beta) * col
        v_hat = state.row * state.col / _mean(state.row)
    u = g / np.sqrt(v_hat)
    rms_u = math.sqrt(_mean(u * u))
    u = u / max(1.0, rms_u / d)
    return w - lr * u


def lion_step(w, g, m, lr: float, beta1: float, beta2: float,
              weight_decay: float):
    """Lion: sign of the interpolated momentum; m is updated in place.
    sign(0) == 0, so a zero gradient with zero momentum leaves w unchanged."""
    c = beta1 * m + (1.0 - beta1) * g
    update = np.sign(c) + weight_decay * w
    m[...] = beta2 * m + (1.0 - beta2) * g
    return w - lr * update


def adam_mini_step(w, g, moments: AdamMoments, lr: float, beta1: float,
                   beta2: float, eps: float, layout):
    """Per-tensor Adam-mini: full first moment, one shared second moment per
    tensor (EMA of mean(g^2)). ``moments.v`` starts at 0.0 and holds one
    per tensor of the ``layout``."""
    t = moments.step_in_cycle + 1
    moments.step_in_cycle = t
    moments.m[...] = beta1 * moments.m + (1.0 - beta1) * g
    moments.v = beta2 * moments.v + (1.0 - beta2) * layout.means(g * g)
    m_hat = moments.m / (1.0 - beta1 ** t)
    v_hat = moments.v / (1.0 - beta2 ** t)
    return w - lr * m_hat / layout.spread(layout.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Composable multi-tensor optimizers (harness-facing)
# ---------------------------------------------------------------------------

class StepTelemetry(NamedTuple):
    """What one step measured and did; a tuple, which ``_replace`` copies
    with a field changed. ``norms_pre`` holds each tensor's gradient norm as
    the gradient entered, and ``norms_post`` each one after the transforms
    (the same list when none ran): one Python float per tensor, in layout
    order. ``lr`` is the LR the base applied: the caller's times its scale."""
    clipped_fraction: float
    reset: bool
    lr: float
    norms_pre: list[float]
    norms_post: list[float]
    grads_post: dict


class _Base:
    """Base update rule. Each base's ``update(layout, w, g, lr)`` updates
    the flat vector of ``layout``, where a bare tensor name stands for one
    tensor, and keeps that one parameter set's state in a field, ``None``
    until the first update. A base is the one caller of its step rule
    (``adam_step``, ...), and hands it every hyperparameter: the rules have
    no defaults. A rule that keeps a second moment exposes it as
    ``second_moment(shape)``."""

    def begin_step(self, global_step: int):
        return False, 1.0  # (reset_happened, lr_scale)


class SgdBase(_Base):
    def update(self, layout, w, g, lr):
        return w - lr * g


class AdamBase(_Base):
    """Adam, optionally with MoRet. reset_style 'multiple' zeroes moments at
    multiples of the interval (Stable-SPAM); 'after' zeroes them entering the
    following step (SPAM). A positive warmup_steps scales the LR by
    min(1, k / warmup_steps) on the k-th step since the last reset boundary."""

    def __init__(self, beta1=BETA1, beta2=BETA2, eps=EPS,
                 reset_interval=0, reset_style="multiple", warmup_steps=0):
        if reset_style not in ("multiple", "after"):
            raise ValueError(f"unknown reset_style {reset_style!r}")
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.reset_interval = reset_interval
        self.reset_style = reset_style
        self.warmup_steps = warmup_steps
        self.moments: AdamMoments | None = None

    def begin_step(self, global_step):
        # Steps since the last reset boundary: 1 on the step after one.
        interval = self.reset_interval
        since = (global_step - 1) % interval + 1 if interval else global_step
        if self.reset_style == "multiple":
            reset = bool(interval) and since == interval
        else:
            reset = global_step > 1 and since == 1
        if reset:
            self.moments = None  # the next step starts from zeros
        scale = 1.0
        if self.warmup_steps > 0:
            scale = min(1.0, since / self.warmup_steps)
        return bool(reset), float(scale)

    def second_moment(self, shape):
        self.moments = self.moments or AdamMoments.zeros(shape)
        return self.moments.v

    def update(self, layout, w, g, lr):
        self.moments = self.moments or AdamMoments.zeros(w.shape)
        return adam_step(w, g, self.moments, lr, self.beta1, self.beta2,
                         self.eps)


class LionBase(_Base):
    def __init__(self, beta1=LION_BETA1, beta2=LION_BETA2,
                 weight_decay=WEIGHT_DECAY):
        self.beta1, self.beta2, self.weight_decay = beta1, beta2, weight_decay
        self.m: np.ndarray | None = None

    def update(self, layout, w, g, lr):
        if self.m is None:
            self.m = np.zeros(w.shape)
        return lion_step(w, g, self.m, lr, self.beta1, self.beta2,
                         self.weight_decay)


class AdamMiniBase(_Base):
    def __init__(self, beta1=BETA1, beta2=BETA2, eps=EPS):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.moments: AdamMoments | None = None

    def update(self, layout, w, g, lr):
        layout = TENSOR if isinstance(layout, str) else layout
        self.moments = self.moments or AdamMoments(np.zeros(w.shape), v=0.0)
        return adam_mini_step(w, g, self.moments, lr, self.beta1, self.beta2,
                              self.eps, layout)


class AdafactorBase(_Base):
    """Adafactor, tensor by tensor: the layout splits the flat vector, and
    ``states`` holds one state per tensor, in layout order."""

    def __init__(self, eps1=ADAFACTOR_EPS1, d=ADAFACTOR_D):
        self.eps1, self.d = eps1, d
        self.states: list[AdafactorState] | None = None

    def update(self, layout, w, g, lr):
        layout = TENSOR if isinstance(layout, str) else layout
        ws, gs = layout.split(w).values(), layout.split(g).values()
        self.states = self.states or [AdafactorState() for _ in ws]
        parts = [adafactor_step(*tensor, lr, self.eps1, self.d)
                 for tensor in zip(ws, gs, self.states)]
        return layout.flatten(parts)


TRANSFORM_KINDS = ("adaclip", "adagn", "spike_clip", "grad_clip")


class ComposedOptimizer:
    """Ordered gradient transforms in front of a base update rule.

    Transforms run in listed order; ``adaclip``/``adagn``/``spike_clip`` are
    per-tensor, ``grad_clip`` rescales all tensors against the global norm.
    Each runs once per step on the flat vector of the ``layout`` laid out at
    the first step. The constructor is the one check of a transform list:
    an unknown or repeated transform, or ``spike_clip`` on a base that keeps
    no second moment, is a ``ConfigError``.
    """

    def __init__(self, transforms, base: _Base, *,
                 gamma1=GAMMA1, gamma2=GAMMA2, gamma3=GAMMA3, eps=EPS,
                 gss_threshold=GSS_THRESHOLD, grad_clip_threshold=GRAD_CLIP):
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
        self.layout = None  # laid out at the first step
        # The last step's flat weight vector and the views it returned.
        self._weights = None
        self._adaclip = AdaClipState()
        self._adagn = AdaGnState()

    def step(self, params: dict, grads: dict, lr: float,
             global_step: int) -> StepTelemetry:
        if grads.keys() != params.keys():
            raise ValueError(
                "gradients do not match the weights: missing "
                f"{sorted(params.keys() - grads.keys())}, extra "
                f"{sorted(grads.keys() - params.keys())}")
        layout = self.layout or lay_out(
            {name: as_matrix(g).shape for name, g in grads.items()})
        if grads.keys() != layout.names:
            raise ValueError(f"the tensors {sorted(grads)} are not the first "
                             f"step's {sorted(layout.names)}")
        gs = [as_matrix(grads[name]) for name in layout.names]
        ws = [params[name] for name in layout.names]
        reuse = self._weights and all(map(operator.is_, ws, self._weights[1]))
        if not reuse:
            ws = [as_matrix(x) for x in ws]
        if [x.shape for x in gs + ws] != layout.shapes * 2:
            raise ValueError(
                f"the shapes of {list(layout.names)} are {[x.shape for x in gs]}"
                f" (gradients) and {[x.shape for x in ws]} (weights), not "
                f"the first step's {layout.shapes}")
        g = layout.flatten(gs)
        w = self._weights[0] if reuse else layout.flatten(ws)
        norms_pre = layout.tensor_norms(g)
        if not math.isfinite(sum(norms_pre)):
            # A NaN or +-inf entry makes its tensor's norm NaN or inf, but
            # so can a finite tensor whose squares overflow: that one steps.
            for name, part, norm in zip(layout.names, gs, norms_pre):
                if not (math.isfinite(norm)
                        or np.logical_and.reduce(np.isfinite(part), axis=None)):
                    raise NonFiniteError(f"non-finite gradient for '{name}'")
        self.layout = layout
        reset, lr_scale = self.base.begin_step(global_step)
        clipped = 0
        for kind in self.transforms:
            if kind == "adaclip":
                g, n_clipped = adaclip(g, self._adaclip, self.gamma3, layout)
                clipped += n_clipped
            elif kind == "adagn":
                g = adagn(g, self._adagn, self.gamma1, self.gamma2, self.eps,
                          layout)
            elif kind == "spike_clip":
                v = self.base.second_moment(g.shape)
                g, n_clipped = spike_clip(g, v, self.gss_threshold)
                clipped += n_clipped
            elif kind == "grad_clip":
                g = grad_clip_global(g, self.grad_clip_threshold, layout)
        norms_post = layout.tensor_norms(g) if self.transforms else norms_pre
        lr = lr * lr_scale
        w = self.base.update(layout, w, g, lr)
        views = layout.split(w)
        params.update(views)
        self._weights = w, list(views.values())
        return StepTelemetry(clipped_fraction=clipped / g.size, reset=reset,
                             lr=lr, norms_pre=norms_pre,
                             norms_post=norms_post, grads_post=layout.split(g))
