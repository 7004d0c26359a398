"""Experiment runner: configs, LR schedule, training loop, sweeps, telemetry.

Telemetry: ``run.csv``'s columns are ``StepRecord``'s fields, which its
header and row format are derived from: ``%r`` for a float, ``%d`` for the
step and the two flags. ``run`` records the loss and what the optimizer's
``StepTelemetry`` says, Python numbers that ``lr_schedule`` and the bases
make; it measures nothing itself. The two norm columns combine, with
``global_grad_norm``, the per-tensor gradient norms the optimizer took: as
it consumed the gradient (after spike injection, before any transform) and
after all transforms. ``effective_lr`` is the LR the optimizer's base
applied; a diverged row applied none: it records ``lr_schedule(step,
cfg)``, with no SPAM warmup. ``run``'s one hook, ``on_step(step, grads,
telemetry)``, is handed the model's gradients and that ``StepTelemetry``
after each step that did not diverge, and never for a diverged row.

Divergence means a NaN/Inf loss, a loss beyond ``DIVERGENCE_LOSS_CAP`` (an
overflow guard: a run past that bound is a few steps from literal Inf, and
flagging early keeps blow-up detection prompt), or a ``NonFiniteError``: a
NaN/Inf that the quantizer meets in the forward pass, or a NaN/Inf
gradient, which the optimizer rejects before it changes any state. A
diverged step is always the last record of a run, and the final validation
loss gets the same test. Since divergence is recorded as data, ``run``
silences numpy's overflow and invalid-value warnings while it trains and
validates. A run has at least one step, so its ``final_val_loss`` is None
exactly when it diverged.

``_key`` declares each config key: its type (its default's), the parser of
its config-file text, the values it accepts and the parts of a run that
read it. ``_OPTIMIZERS`` is the one table of optimizers. ``prepare`` is a
run's whole set-up: it checks the config, spawns the seed streams, switches
on the model kind once and builds the optimizer. ``run`` is ``prepare`` plus
the one training loop. ``run_grid`` runs a list of configs, ``sweep``'s LR
grid and ``compare``'s configs alike: it checks every config before any run
starts, so a config error writes nothing, and runs each point through the
module's ``run``, or on one process pool no larger than the grid.

Determinism: (config, seed) fully determines every record. Independent RNG
streams (init / batch order / spike noise) are spawned from the seed via
``numpy.random.SeedSequence``; the validation split, drawn once at
set-up, uses seed + 1. An MLP run draws its batch indices up to
``DRAW_ENTRIES`` at a time (``batch_indices``): the same integers, in the
same order, as one draw per step.

As in ``models``, a training step calls numpy's C entries and no Python
wrapper. ``Generator.integers`` runs numpy's Python ``prod`` on its size,
which is one more reason to draw the indices in chunks.
"""

from __future__ import annotations

import json
import math
import operator
import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, get_type_hints

import numpy as np

from . import models, optim
from .optim import ConfigError, global_grad_norm
from .quant import QuantSpec
from .tensor_core import NonFiniteError, make_rng

DIVERGENCE_LOSS_CAP = 1e100

# The most batch indices an MLP run draws in one call.
DRAW_ENTRIES = 2**14


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _adam(o, **reset):
    """Adam's base, with its three keys and any MoRet ``reset`` options."""
    return optim.AdamBase(o.beta1, o.beta2, o.eps, **reset)


# Each optimizer: its base update rule, built from the OptimizerConfig, and
# the transforms it always applies, after any listed (see make_optimizer).
_OPTIMIZERS = {
    "sgd": (lambda o: optim.SgdBase(), ()),
    "adam": (_adam, ()),
    "adam_gradclip": (_adam, ("grad_clip",)),
    "adafactor": (lambda o: optim.AdafactorBase(o.adafactor_eps1,
                                                o.adafactor_d), ()),
    "lion": (lambda o: optim.LionBase(o.lion_beta1, o.lion_beta2,
                                      o.weight_decay), ()),
    "adam_mini": (lambda o: optim.AdamMiniBase(o.beta1, o.beta2, o.eps), ()),
    "spam": (lambda o: _adam(o, reset_interval=o.spam_reset_interval,
                             reset_style="after",
                             warmup_steps=o.spam_warmup_steps),
             ("spike_clip",)),
    "stable_spam": (lambda o: _adam(o, reset_interval=o.reset_interval),
                    ("adaclip", "adagn")),
}
OPTIMIZER_NAMES = tuple(_OPTIMIZERS)
# The optimizers whose base keeps Adam's moments: beta1, beta2 and eps's.
_ADAMS = ("adam", "adam_gradclip", "adam_mini", "spam", "stable_spam")


# A key's type is its default's. Each type: the values that have it (no bool
# does), its name in messages and the parser of its config-file text.
_TYPES = {int: ((int, np.integer), "an int", int),
          float: ((int, float, np.integer), "a float", float),
          str: (str, "a str", str),
          list: (list, "a list", lambda text: [
              part.strip() for part in text.split(",") if part.strip()])}


def _key(default, accepts, readers):
    """A config field, typed by its default; the values it accepts: an
    interval such as ``"[0, 1)"`` (an infinite bound is always open, so a
    float must be finite), or a tuple of choices, which a list field applies
    to each entry; and its ``readers``: the optimizer names, transform kinds
    and model kinds that read it, or None if every run does. ``validate``
    rejects a value off the default when no part of the run is a reader.
    ``metadata["parse"]`` reads the key's text; ``metadata["fault"]`` says
    why a value is rejected, or returns None.
    """
    types, named, parse = _TYPES[type(default)]
    if isinstance(accepts, str):
        lo, hi = (float(bound) for bound in accepts[1:-1].split(","))
        above = operator.le if accepts[0] == "[" else operator.lt
        below = operator.le if accepts[-1] == "]" else operator.lt

        def fault(value):
            if not isinstance(value, types) or value is True or value is False:
                return f"{value!r} is not {named}"
            if not (above(lo, value) and below(value, hi)):
                return f"{value!r} is outside {accepts}"
    else:
        def fault(value):
            if not isinstance(value, types):
                return f"{value!r} is not {named}"
            entries = value if isinstance(value, list) else [value]
            for entry in entries:
                if entry not in accepts:
                    return (f"unknown value {entry!r}; "
                            f"choose from {', '.join(accepts)}")
    metadata = {"accepts": accepts, "readers": readers, "parse": parse,
                "fault": fault}
    if isinstance(default, list):
        return field(default_factory=default.copy, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class ModelConfig:
    kind: str = _key("mlp", ("mlp", "quadratic"), None)
    input_dim: int = _key(16, "[1, inf)", ("mlp",))
    hidden_dim: int = _key(32, "[1, inf)", ("mlp",))
    depth: int = _key(2, "[1, inf)", ("mlp",))
    classes: int = _key(4, "[2, inf)", ("mlp",))
    quad_dim: int = _key(8, "[1, inf)", ("quadratic",))


@dataclass
class DataConfig:
    samples: int = _key(256, "[1, inf)", ("mlp",))
    batch_size: int = _key(32, "[1, inf)", ("mlp",))


@dataclass
class OptimizerConfig:
    name: str = _key("adam", OPTIMIZER_NAMES, None)
    beta1: float = _key(optim.BETA1, "[0, 1)", _ADAMS)
    beta2: float = _key(optim.BETA2, "[0, 1)", _ADAMS)
    # Adam's epsilon, and also the one AdaGN adds to its scale's divisor
    # wherever ``adagn`` runs, whatever the base.
    eps: float = _key(optim.EPS, "(0, inf)", _ADAMS + ("adagn",))
    gamma1: float = _key(optim.GAMMA1, "[0, 1)", ("adagn",))
    gamma2: float = _key(optim.GAMMA2, "[0, 1)", ("adagn",))
    gamma3: float = _key(optim.GAMMA3, "[0, 1)", ("adaclip",))
    # Stable-SPAM's MoRet interval; 0: off
    reset_interval: int = _key(1000, "[0, inf)", ("stable_spam",))
    spam_reset_interval: int = _key(500, "[0, inf)", ("spam",))
    spam_warmup_steps: int = _key(150, "[0, inf)", ("spam",))
    gss_threshold: float = _key(optim.GSS_THRESHOLD, "(0, inf)",
                                ("spike_clip",))
    # The global clip's threshold; 0: optim.GRAD_CLIP
    grad_clip: float = _key(0.0, "[0, inf)", ("grad_clip",))
    transforms: list[str] = _key([], optim.TRANSFORM_KINDS, None)
    weight_decay: float = _key(optim.WEIGHT_DECAY, "[0, inf)", ("lion",))
    lion_beta1: float = _key(optim.LION_BETA1, "[0, 1]", ("lion",))
    lion_beta2: float = _key(optim.LION_BETA2, "[0, 1)", ("lion",))
    adafactor_eps1: float = _key(optim.ADAFACTOR_EPS1, "(0, inf)",
                                 ("adafactor",))
    adafactor_d: float = _key(optim.ADAFACTOR_D, "(0, inf)", ("adafactor",))


@dataclass
class ScheduleConfig:
    lr_peak: float = _key(1e-3, "(0, inf)", None)
    total_steps: int = _key(2000, "[1, inf)", None)
    warmup_steps: int = _key(-1, "[-1, inf)", None)  # -1: 10% of total_steps


@dataclass
class SpikeConfig:
    probability: float = _key(0.0, "[0, 1]", ("mlp",))
    severity: float = _key(0.0, "[0, inf)", ("mlp",))


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    spike: SpikeConfig = field(default_factory=SpikeConfig)
    quant_format: str = _key("none", tuple(f.value for f in QuantSpec),
                             ("mlp",))
    seed: int = _key(0, "[0, inf)", None)

    def keys(self):
        """Yield ``(key, owner, field)`` for every config key, where the
        value is ``getattr(owner, field.name)``. A key is ``section.field``,
        or the field name at top level; ``quant_format`` is ``quant.format``.
        """
        for key, section, f in _KEYS:
            yield key, self if section is None else getattr(self, section), f

    def resolved_warmup(self) -> int:
        if self.schedule.warmup_steps >= 0:
            return self.schedule.warmup_steps
        return self.schedule.total_steps // 10

    def validate(self) -> None:
        for key, owner, f in self.keys():
            message = f.metadata["fault"](getattr(owner, f.name))
            if message:
                raise ConfigError(f"{key}: {message}")
        if self.resolved_warmup() > self.schedule.total_steps:
            raise ConfigError("schedule.warmup_steps: must be <= schedule.total_steps")
        # ComposedOptimizer rejects a transform list: a repeat, or a
        # transform the base cannot run.
        parts = {self.model.kind, self.optimizer.name,
                 *make_optimizer(self.optimizer).transforms}
        for key, owner, f in self.keys():
            readers = f.metadata["readers"]
            if (readers and parts.isdisjoint(readers)
                    and getattr(owner, f.name) != f.default):
                raise ConfigError(
                    f"{key}: {self.optimizer.name} on the {self.model.kind} "
                    f"model does not read it (read by {', '.join(readers)})")
        spike = vars(self.spike)
        if (spike["probability"] == 0) != (spike["severity"] == 0):
            key, other = sorted(spike, key=lambda k: spike[k] == 0)
            raise ConfigError(f"spike.{key}: {spike[key]!r} injects nothing "
                              f"while spike.{other} is 0")

    def quant_spec(self) -> QuantSpec:
        return QuantSpec.from_name(self.quant_format)


def _declared_keys():
    for f in fields(RunConfig):
        if f.metadata:  # a top-level key
            yield "quant.format" if f.name == "quant_format" else f.name, None, f
        else:
            for sub in fields(f.default_factory):
                yield f"{f.name}.{sub.name}", f.name, sub


# (key, RunConfig section or None at top level, field), built once so
# keys() does not walk the dataclass fields each call.
_KEYS = tuple(_declared_keys())


def make_optimizer(ocfg: OptimizerConfig) -> optim.ComposedOptimizer:
    """Build a config's optimizer from its ``_OPTIMIZERS`` row: the base
    rule behind ``[*optimizer.transforms, *the row's own]``, which
    ``ComposedOptimizer`` checks; a list it rejects is a ``ConfigError``
    naming ``optimizer.transforms``. The global clip's threshold is
    ``grad_clip`` when positive, else ``optim.GRAD_CLIP``."""
    if ocfg.name not in _OPTIMIZERS:
        raise ConfigError(f"optimizer.name: unknown value '{ocfg.name}'")
    make_base, own = _OPTIMIZERS[ocfg.name]
    try:
        return optim.ComposedOptimizer(
            [*ocfg.transforms, *own], make_base(ocfg),
            gamma1=ocfg.gamma1, gamma2=ocfg.gamma2, gamma3=ocfg.gamma3,
            eps=ocfg.eps, gss_threshold=ocfg.gss_threshold,
            grad_clip_threshold=ocfg.grad_clip or optim.GRAD_CLIP)
    except ConfigError as exc:
        raise ConfigError(f"optimizer.transforms: {exc}") from None


# ---------------------------------------------------------------------------
# Metrics and schedule
# ---------------------------------------------------------------------------

def lr_schedule(step: int, cfg: RunConfig) -> float:
    """Linear warmup 0 -> lr_peak, then cosine decay to 10% of lr_peak."""
    peak = cfg.schedule.lr_peak
    warmup = cfg.resolved_warmup()
    total = cfg.schedule.total_steps
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    if warmup > 0 and step <= warmup:
        return float(peak * step / warmup)
    floor = 0.1 * peak
    progress = (step - warmup) / (total - warmup)
    return float(floor + (peak - floor) * 0.5
                 * (1.0 + math.cos(math.pi * progress)))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

class StepRecord(NamedTuple):
    """One row of ``run.csv``, whose columns are these fields in order.
    ``run`` fills each with its annotated type, never a numpy scalar."""
    step: int
    loss: float
    grad_norm_pre: float
    grad_norm_post: float
    clipped_fraction: float
    effective_lr: float
    reset: bool
    diverged: bool


CSV_HEADER = ",".join(StepRecord._fields)


@dataclass
class RunResult:
    records: list[StepRecord]
    final_val_loss: float | None

    @property
    def diverged(self) -> bool:
        return self.final_val_loss is None


def _is_bad(loss: float) -> bool:
    return not math.isfinite(loss) or abs(loss) > DIVERGENCE_LOSS_CAP


def batch_indices(rng, samples: int, batch_size: int, steps: int):
    """Yield each step's batch indices into ``samples``, without end: the
    integers that one ``rng.integers(0, samples, size=batch_size)`` per step
    would give, in the same order. Up to ``DRAW_ENTRIES`` of them (at least
    one batch) are drawn in one call, and no more batches than the
    ``steps`` the run takes; after those, one batch per call."""
    per_draw = max(1, DRAW_ENTRIES // batch_size)
    while True:
        k = max(1, min(steps, per_draw))
        steps -= k
        yield from rng.integers(0, samples, size=(k, batch_size))


class Prepared(NamedTuple):
    """What ``run`` needs besides the config, before its first step."""
    params: dict[str, np.ndarray]
    optimizer: optim.ComposedOptimizer
    loss_grad: Callable[[], tuple[float, dict[str, np.ndarray]]]
    val_loss: Callable[[], float]


def prepare(cfg: RunConfig) -> Prepared:
    """Check the config and build its run, held-out split included. Draws
    nothing from the batch or spike streams: the first ``loss_grad()`` call
    does."""
    cfg.validate()
    init_rng, batch_rng, spike_rng = map(
        make_rng, np.random.SeedSequence(cfg.seed).spawn(3))

    # The one switch on the model kind. loss_grad() draws a batch (indices,
    # then spikes) and returns (loss, grads); val_loss() only evaluates.
    if cfg.model.kind == "quadratic":
        problem = models.make_quadratic(cfg.model.quad_dim, init_rng)
        params = {"w": problem.w0}

        def loss_grad():
            loss, grad = models.quadratic_loss_grad(problem, params["w"])
            return loss, {"w": grad}

        def val_loss():
            return models.quadratic_loss_grad(problem, params["w"])[0]
    else:
        model = models.init_mlp(cfg.model.input_dim, cfg.model.hidden_dim,
                                cfg.model.depth, cfg.model.classes,
                                init_rng, quant=cfg.quant_spec())
        params = model.params
        dataset = models.make_dataset(cfg.data.samples, cfg.model.input_dim,
                                      cfg.model.classes, cfg.seed)
        # Seed + 1 as a Python int, which cannot wrap as a numpy integer can.
        val = models.resample_dataset(dataset, cfg.data.samples,
                                      int(cfg.seed) + 1)
        batches = batch_indices(batch_rng, cfg.data.samples,
                                cfg.data.batch_size, cfg.schedule.total_steps)

        def loss_grad():
            idx = next(batches)
            x = models.inject_spikes(dataset.inputs[idx],
                                     cfg.spike.probability,
                                     cfg.spike.severity, spike_rng)
            return models.mlp_forward_backward(model, x, dataset.labels[idx])

        def val_loss():
            return models.mlp_loss(model, val.inputs, val.labels)

    return Prepared(params, make_optimizer(cfg.optimizer), loss_grad, val_loss)


def run(cfg: RunConfig, records_path: str | None = None,
        on_step=None) -> RunResult:
    """Execute one training run; optionally write the telemetry CSV.

    ``on_step(step, grads, telemetry)`` is an instrumentation hook, called
    once per step that did not diverge, after ``opt.step``: ``grads`` are
    the model's gradients and ``telemetry`` is the ``StepTelemetry`` that
    ``opt.step`` returned. The tests use it to cross-check recorded norms,
    and the benchmark's ``StepClock`` (``perfbench/run.py``) to time each
    step.
    """
    params, opt, loss_grad, val_loss = prepare(cfg)
    records: list[StepRecord] = []
    diverged = False

    # Overflow on the way to divergence is recorded as data, not warned.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.schedule.total_steps + 1):
            lr = lr_schedule(step, cfg)
            loss = math.nan  # what the record keeps if the forward pass raises
            try:
                loss, grads = loss_grad()
                diverged = _is_bad(loss)
                if not diverged:
                    telemetry = opt.step(params, grads, lr, step)
            except NonFiniteError:
                diverged = True
            if diverged:
                records.append(StepRecord(step, loss, math.nan, math.nan, 0.0,
                                          lr, False, True))
                break

            if on_step is not None:
                on_step(step, grads, telemetry)
            records.append(StepRecord(
                step, loss, global_grad_norm(telemetry.norms_pre),
                global_grad_norm(telemetry.norms_post),
                telemetry.clipped_fraction, telemetry.lr, telemetry.reset,
                False))

        final_val_loss = None
        if not diverged:
            try:
                final_val_loss = val_loss()
            except NonFiniteError:
                final_val_loss = math.nan
            if _is_bad(final_val_loss):
                final_val_loss = None

    if records_path is not None:
        write_records_csv(records, records_path)
    return RunResult(records=records, final_val_loss=final_val_loss)


# ---------------------------------------------------------------------------
# Output files (atomic writes)
# ---------------------------------------------------------------------------

def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8, whole or not at all: into a new
    file beside it, which then replaces ``path``. The new file is created
    as ``open(path, "w")`` creates one, mode 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# A row's format: %r for a float field, %d for the step and the two flags,
# by the annotation's value, whether or not annotations are kept as text.
_ROW = ",".join("%r" if kind is float else "%d"
                for kind in get_type_hints(StepRecord).values()) + "\n"


def write_records_csv(records: Iterable[StepRecord], path: str) -> None:
    """Write the header and a row per record, in one pass over any iterable."""
    atomic_write(path, CSV_HEADER + "\n" + "".join(map(_ROW.__mod__, records)))


# ---------------------------------------------------------------------------
# Grids and sweeps
# ---------------------------------------------------------------------------

def run_grid(cfgs: Iterable[RunConfig], records_paths=None,
             jobs: int = 1) -> list[RunResult]:
    """Run every config, each writing its CSV to its entry of
    ``records_paths`` (None: none), and return the results in input order.
    Both are read once, and every config is checked before any run starts.
    With ``jobs > 1`` and more than one config, the runs share one process
    pool of at most as many workers as configs; otherwise each runs in turn
    through the module attribute ``run``, looked up at call time."""
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("empty grid")
    paths = [None] * len(cfgs) if records_paths is None else list(records_paths)
    for cfg, _ in zip(cfgs, paths, strict=True):  # one path per config
        cfg.validate()
    if jobs > 1 and len(cfgs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        # Under fork the pool starts all its workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(jobs, len(cfgs))) as pool:
            return list(pool.map(run, cfgs, paths))
    return list(map(run, cfgs, paths))


@dataclass
class SweepEntry:
    lr: float
    final_loss: float | None    # None == diverged
    records_path: str | None


@dataclass
class SweepResult:
    entries: list[SweepEntry]
    best_lr: float | None


def sweep(base_cfg: RunConfig, lr_grid, out_dir: str | None = None,
          jobs: int = 1) -> SweepResult:
    """Run the LR grid with identical seeds through ``run_grid``, pick the
    best finite final loss."""
    cfgs = [replace(base_cfg, schedule=replace(base_cfg.schedule,
                                               lr_peak=lr))
            for lr in lr_grid]
    paths = [os.path.join(out_dir, f"run_lr{i}.csv") if out_dir else None
             for i in range(len(cfgs))]
    results = run_grid(cfgs, paths, jobs)
    entries = [SweepEntry(cfg.schedule.lr_peak, res.final_val_loss, path)
               for cfg, res, path in zip(cfgs, results, paths)]
    finite = [e for e in entries if e.final_loss is not None]
    best_lr = min(finite, key=lambda e: e.final_loss).lr if finite else None
    result = SweepResult(entries=entries, best_lr=best_lr)
    if out_dir is not None:
        summary = {
            "best_lr": best_lr,
            "runs": [{"lr": e.lr,
                      "final_loss": e.final_loss if e.final_loss is not None
                      else "diverged",
                      "records_path": e.records_path} for e in entries],
        }
        atomic_write(os.path.join(out_dir, "sweep_summary.json"),
                     json.dumps(summary, indent=2) + "\n")
    return result
