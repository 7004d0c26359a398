"""The benchmark's workloads.

A workload is a cycle of units; a unit is a list of jobs that the measured
loop runs back to back (closed loop, one caller, serial). A job is one
``harness.run`` or one ``harness.sweep(jobs=1)`` and names each CSV it
writes with a key that is stable across processes, so CSV digests can be
compared between traced and untraced runs and against committed digests.

Every function takes the imported ``stablespam`` package as an argument, so
the set-up measurement can re-import it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Criterion 7's phenomenology task: 4 -> 32x2 -> 8 MLP, INT4, spikes
# p=0.1 / severity 0.5, batch 32, 250 steps with 25 warmup steps.
PHENO_MODEL = dict(input_dim=4, hidden_dim=32, depth=2, classes=8)
STEPS, WARMUP = 250, 25
# Same arithmetic as criterion 7, so the CSVs match its runs byte for byte.
GRID_LRS = tuple(1e-2 * (30.0 ** 0.25) ** i for i in range(5))


@dataclass
class Job:
    kind: str                 # "run" or "sweep"
    cfg: object               # RunConfig; a sweep's base config
    keys: tuple[str, ...]     # one digest key per CSV, in write order
    lrs: tuple[float, ...] = ()

    def run_configs(self):
        if self.kind == "run":
            return [self.cfg]
        return [replace(self.cfg, schedule=replace(self.cfg.schedule,
                                                   lr_peak=lr))
                for lr in self.lrs]


@dataclass
class Workload:
    name: str
    cycle: list[list[Job]]
    # Parent span label -> exact count of each descendant span label.
    expected_children: dict[str, dict[str, int]]


def _pheno_cfg(h, name, lr, seed):
    return h.RunConfig(
        model=h.ModelConfig(**PHENO_MODEL),
        schedule=h.ScheduleConfig(lr_peak=lr, total_steps=STEPS,
                                  warmup_steps=WARMUP),
        spike=h.SpikeConfig(probability=0.1, severity=0.5),
        optimizer=h.OptimizerConfig(name=name),
        quant_format="int4", seed=seed)


def _mlp_counts():
    depth = PHENO_MODEL["depth"]
    # Per block: 2 forward + 4 backward matmuls, 3 qdq; the head adds
    # 3 matmuls and 2 qdq.
    return {"models.mlp_forward_backward": {"tensor_core.matmul": 6 * depth + 3,
                                            "quant.qdq": 3 * depth + 2}}


def mlp_int4_spike(ss, seed):
    h = ss.harness
    unit = [Job("run", _pheno_cfg(h, name, 1e-2, seed), (f"{name}/seed{seed}",))
            for name in ("adam", "stable_spam")]
    return Workload("mlp_int4_spike", [unit], _mlp_counts())


def lr_grid(ss, seed):
    h = ss.harness
    cycle = []
    for s in (seed, seed + 1, seed + 2):
        cycle.append([
            Job("sweep", _pheno_cfg(h, name, GRID_LRS[0], s),
                tuple(f"{name}/seed{s}/lr{i}" for i in range(len(GRID_LRS))),
                GRID_LRS)
            for name in ("adam", "stable_spam")])
    return Workload("lr_grid", cycle, _mlp_counts())


def quadratic_all_opt(ss, seed):
    h = ss.harness
    unit = []
    for name in h.OPTIMIZER_NAMES:
        cfg = h.RunConfig(
            model=h.ModelConfig(kind="quadratic"),
            schedule=h.ScheduleConfig(lr_peak=1e-2, total_steps=STEPS,
                                      warmup_steps=WARMUP),
            # The CLI's default clip for adam_gradclip; without it the
            # library runs plain Adam.
            optimizer=h.OptimizerConfig(
                name=name, grad_clip=1.0 if name == "adam_gradclip" else 0.0),
            seed=seed)
        unit.append(Job("run", cfg, (f"{name}/seed{seed}",)))
    return Workload("quadratic_all_opt", [unit],
                    {"models.quadratic_loss_grad": {"tensor_core.matmul": 3}})


WORKLOADS = {f.__name__: f for f in (mlp_int4_spike, lr_grid, quadratic_all_opt)}
