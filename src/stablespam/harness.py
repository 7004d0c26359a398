"""Experiment runner: configs, LR schedule, training loop, sweeps, telemetry.

Telemetry records the raw gradient norm as consumed by the optimizer (after
spike injection, before any transform) and a second channel after all
transforms. Divergence means a NaN/Inf loss or gradient, or a loss beyond
``DIVERGENCE_LOSS_CAP`` (an overflow guard: a run past that bound is a few
steps from literal Inf, and flagging early keeps blow-up detection prompt).
A diverged step is always the last record of a run.

Determinism: (config, seed) fully determines every record. Independent RNG
streams (init / batch order / spike noise) are spawned from the seed via
``numpy.random.SeedSequence``; the validation split uses seed + 1.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import models, optim
from .optim import ConfigError
from .quant import QuantFormat, QuantSpec
from .tensor_core import frobenius_norm

DIVERGENCE_LOSS_CAP = 1e100

CSV_HEADER = ("step,loss,grad_norm_pre,grad_norm_post,"
              "clipped_fraction,effective_lr,reset,diverged")

# Fig-style LR grid presets: "wide" spans 1e-4..3e-3, "step" is 1e-4..1e-3
# in 2e-4 increments.
LR_GRID_PRESETS = {
    "wide": (1e-4, 3e-4, 1e-3, 3e-3),
    "step": (1e-4, 3e-4, 5e-4, 7e-4, 9e-4),
}


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

OPTIMIZER_NAMES = ("sgd", "adam", "adam_gradclip", "adafactor", "lion",
                   "adam_mini", "spam", "stable_spam")


@dataclass
class ModelConfig:
    kind: str = "mlp"          # "mlp" | "quadratic"
    input_dim: int = 16
    hidden_dim: int = 32
    depth: int = 2
    classes: int = 4
    quad_dim: int = 8


@dataclass
class DataConfig:
    samples: int = 256
    batch_size: int = 32


@dataclass
class OptimizerConfig:
    name: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    gamma1: float = 0.7
    gamma2: float = 0.9
    gamma3: float = 0.999
    reset_interval: int = 1000         # Stable-SPAM MoRet interval
    spam_reset_interval: int = 500
    spam_warmup_steps: int = 150
    gss_threshold: float = 5000.0
    grad_clip: float = 0.0             # 0: off, except adam_gradclip clips at 1
    transforms: list[str] = field(default_factory=list)
    weight_decay: float = 0.0
    lion_beta1: float = 0.9
    lion_beta2: float = 0.99
    adafactor_eps1: float = 1e-30
    adafactor_d: float = 1.0


@dataclass
class ScheduleConfig:
    lr_peak: float = 1e-3
    total_steps: int = 2000
    warmup_steps: int = -1   # -1: 10% of total_steps


@dataclass
class SpikeConfig:
    probability: float = 0.0
    severity: float = 0.0


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    data: DataConfig = field(default_factory=DataConfig)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)
    spike: SpikeConfig = field(default_factory=SpikeConfig)
    quant_format: str = "none"
    seed: int = 0

    def resolved_warmup(self) -> int:
        if self.schedule.warmup_steps >= 0:
            return self.schedule.warmup_steps
        return self.schedule.total_steps // 10

    def validate(self) -> None:
        if self.model.kind not in ("mlp", "quadratic"):
            raise ConfigError(f"model.kind: unknown value '{self.model.kind}'")
        if self.optimizer.name not in OPTIMIZER_NAMES:
            raise ConfigError(f"optimizer.name: unknown value '{self.optimizer.name}'")
        try:
            QuantFormat(self.quant_format)
        except ValueError:
            raise ConfigError(f"quant.format: unknown value '{self.quant_format}'") from None
        if self.schedule.lr_peak <= 0:
            raise ConfigError("schedule.lr_peak: must be > 0")
        if self.schedule.total_steps < 0:
            raise ConfigError("schedule.total_steps: must be >= 0")
        if self.resolved_warmup() > self.schedule.total_steps:
            raise ConfigError("schedule.warmup_steps: must be <= schedule.total_steps")
        if not 0.0 <= self.spike.probability <= 1.0:
            raise ConfigError("spike.probability: must be in [0, 1]")
        if self.spike.severity < 0.0:
            raise ConfigError("spike.severity: must be >= 0")
        if self.data.batch_size < 1 or self.data.samples < 1:
            raise ConfigError("data.batch_size and data.samples must be >= 1")
        if self.optimizer.grad_clip < 0:
            raise ConfigError("optimizer.grad_clip: must be >= 0")
        for kind in self.optimizer.transforms:
            if kind not in optim.TRANSFORM_KINDS:
                raise ConfigError(f"optimizer.transforms: unknown transform '{kind}'")

    def quant_spec(self) -> QuantSpec:
        return QuantSpec.from_name(self.quant_format)


def make_optimizer(ocfg: OptimizerConfig) -> optim.ComposedOptimizer:
    """Build the composed optimizer for a config; ``optimizer.transforms``
    are applied in listed order before any built-in transforms.

    Global gradient clipping is the ``grad_clip`` transform and runs once:
    where ``optimizer.transforms`` lists it, or else first whenever
    ``grad_clip > 0`` or the optimizer is ``adam_gradclip``. Its threshold
    is ``grad_clip`` when positive, else 1.0.
    """
    name = ocfg.name
    transforms = list(ocfg.transforms)
    if "grad_clip" not in transforms and (ocfg.grad_clip > 0
                                          or name == "adam_gradclip"):
        transforms.insert(0, "grad_clip")
    builtin: list[str] = []
    if name in ("adam", "adam_gradclip"):
        base = optim.AdamBase(ocfg.beta1, ocfg.beta2, ocfg.eps)
    elif name == "sgd":
        base = optim.SgdBase()
    elif name == "adafactor":
        base = optim.AdafactorBase(optim.AdafactorConfig(
            eps1=ocfg.adafactor_eps1, d=ocfg.adafactor_d))
    elif name == "lion":
        base = optim.LionBase(ocfg.lion_beta1, ocfg.lion_beta2,
                              ocfg.weight_decay)
    elif name == "adam_mini":
        base = optim.AdamMiniBase(ocfg.beta1, ocfg.beta2, ocfg.eps)
    elif name == "spam":
        base = optim.AdamBase(ocfg.beta1, ocfg.beta2, ocfg.eps,
                              reset_interval=ocfg.spam_reset_interval,
                              reset_style="after",
                              warmup_steps=ocfg.spam_warmup_steps)
        builtin = ["spike_clip"]
    elif name == "stable_spam":
        base = optim.AdamBase(ocfg.beta1, ocfg.beta2, ocfg.eps,
                              reset_interval=ocfg.reset_interval,
                              reset_style="multiple")
        builtin = ["adaclip", "adagn"]
    else:
        raise ConfigError(f"optimizer.name: unknown value '{name}'")
    return optim.compose(
        transforms + builtin, base,
        gamma1=ocfg.gamma1, gamma2=ocfg.gamma2, gamma3=ocfg.gamma3,
        eps=ocfg.eps, gss_threshold=ocfg.gss_threshold,
        grad_clip_threshold=ocfg.grad_clip if ocfg.grad_clip > 0 else 1.0)


# ---------------------------------------------------------------------------
# Metrics and schedule
# ---------------------------------------------------------------------------

def global_grad_norm(layers) -> float:
    layers = list(layers)
    if not layers:
        raise ValueError("global_grad_norm needs at least one layer")
    return math.sqrt(sum(frobenius_norm(g) ** 2 for g in layers))


def lr_schedule(step: int, cfg: RunConfig) -> float:
    """Linear warmup 0 -> lr_peak, then cosine decay to 10% of lr_peak."""
    peak = cfg.schedule.lr_peak
    warmup = cfg.resolved_warmup()
    total = cfg.schedule.total_steps
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    if warmup > 0 and step <= warmup:
        return peak * step / warmup
    floor = 0.1 * peak
    if total == warmup:
        return peak
    progress = (step - warmup) / (total - warmup)
    return floor + (peak - floor) * 0.5 * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

@dataclass
class StepRecord:
    step: int
    loss: float
    grad_norm_pre: float
    grad_norm_post: float
    clipped_fraction: float
    effective_lr: float
    reset: bool
    diverged: bool


@dataclass
class RunResult:
    records: list[StepRecord]
    final_val_loss: float | None
    diverged: bool


def _is_bad(loss: float, grads: dict) -> bool:
    if not math.isfinite(loss) or abs(loss) > DIVERGENCE_LOSS_CAP:
        return True
    return any(not np.isfinite(g).all() for g in grads.values())


def run(cfg: RunConfig, records_path: str | None = None,
        on_step=None) -> RunResult:
    """Execute one training run; optionally write the telemetry CSV.

    ``on_step(step, grads_pre, grads_post)`` is an instrumentation hook used
    by tests to cross-check recorded norms.
    """
    cfg.validate()
    seeds = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng = np.random.Generator(np.random.PCG64(seeds[0]))
    batch_rng = np.random.Generator(np.random.PCG64(seeds[1]))
    spike_rng = np.random.Generator(np.random.PCG64(seeds[2]))

    spec = cfg.quant_spec()
    if cfg.model.kind == "quadratic":
        problem = models.make_quadratic(cfg.model.quad_dim, init_rng)
        params = {"w": problem.w}
        dataset = None
        model = None
    else:
        model = models.init_mlp(cfg.model.input_dim, cfg.model.hidden_dim,
                                cfg.model.depth, cfg.model.classes,
                                init_rng, quant=spec)
        params = model.params
        dataset = models.make_dataset(cfg.data.samples, cfg.model.input_dim,
                                      cfg.model.classes, cfg.seed)

    opt = make_optimizer(cfg.optimizer)
    records: list[StepRecord] = []
    diverged = False

    for step in range(1, cfg.schedule.total_steps + 1):
        lr = lr_schedule(step, cfg)
        if cfg.model.kind == "quadratic":
            problem.w = params["w"]
            loss, grad = models.quadratic_loss_grad(problem)
            grads = {"w": grad}
        else:
            idx = batch_rng.integers(0, cfg.data.samples, size=cfg.data.batch_size)
            x = dataset.inputs[idx]
            y = dataset.labels[idx]
            if cfg.spike.probability > 0 and cfg.spike.severity > 0:
                x = models.inject_spikes(x, cfg.spike.probability,
                                         cfg.spike.severity, spike_rng)
            loss, grads = models.mlp_forward_backward(model, x, y)

        if _is_bad(loss, grads):
            records.append(StepRecord(step, loss, math.nan, math.nan, 0.0,
                                      lr, False, True))
            diverged = True
            break

        norm_pre = global_grad_norm(grads.values())
        telemetry = opt.step(params, grads, lr, step)
        norm_post = global_grad_norm(telemetry.grads_post.values())
        if on_step is not None:
            on_step(step, grads, telemetry.grads_post)
        records.append(StepRecord(step, loss, norm_pre, norm_post,
                                  telemetry.clipped_fraction,
                                  lr * telemetry.lr_scale,
                                  telemetry.reset, False))

    final_val_loss = None
    if not diverged and cfg.schedule.total_steps > 0:
        if cfg.model.kind == "quadratic":
            problem.w = params["w"]
            final_val_loss, _ = models.quadratic_loss_grad(problem)
        else:
            val = models.resample_dataset(dataset, cfg.data.samples,
                                          cfg.seed + 1)
            final_val_loss = models.mlp_loss(model, val.inputs, val.labels)
        if not math.isfinite(final_val_loss):
            final_val_loss = None
            diverged = True

    if records_path is not None:
        write_records_csv(records, records_path)
    return RunResult(records=records, final_val_loss=final_val_loss,
                     diverged=diverged)


# ---------------------------------------------------------------------------
# Output files (atomic writes)
# ---------------------------------------------------------------------------

def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def write_records_csv(records, path: str) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            str(r.step), _fmt(r.loss), _fmt(r.grad_norm_pre),
            _fmt(r.grad_norm_post), _fmt(r.clipped_fraction),
            _fmt(r.effective_lr), str(int(r.reset)), str(int(r.diverged)),
        ]))
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepEntry:
    lr: float
    final_loss: float | None    # None == diverged
    records_path: str | None


@dataclass
class SweepResult:
    entries: list[SweepEntry]
    best_lr: float | None


def _sweep_one(args):
    cfg, lr, records_path = args
    run_cfg = replace(cfg, schedule=replace(cfg.schedule, lr_peak=lr))
    result = run(run_cfg, records_path=records_path)
    return SweepEntry(lr=lr, final_loss=result.final_val_loss,
                      records_path=records_path)


def sweep(base_cfg: RunConfig, lr_grid, out_dir: str | None = None,
          jobs: int = 1) -> SweepResult:
    """Run the grid with identical seeds, pick the best finite final loss."""
    lr_grid = list(lr_grid)
    if not lr_grid:
        raise ValueError("empty learning-rate grid")
    base_cfg.validate()
    tasks = []
    for i, lr in enumerate(lr_grid):
        path = os.path.join(out_dir, f"run_lr{i}.csv") if out_dir else None
        tasks.append((base_cfg, lr, path))
    if jobs > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(_sweep_one, tasks))
    else:
        entries = [_sweep_one(t) for t in tasks]
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
        _atomic_write(os.path.join(out_dir, "sweep_summary.json"),
                      json.dumps(summary, indent=2) + "\n")
    return result
