"""Criterion 7's task, declared once for the tests that run or prepare it."""

from stablespam.harness import (ModelConfig, OptimizerConfig, RunConfig,
                                ScheduleConfig, SpikeConfig)


def int4_cfg(name, lr, seed=0, transforms=(), total_steps=250,
             warmup_steps=25):
    """The INT4 MLP with input spikes that criteria 7 and 8 sweep."""
    return RunConfig(
        model=ModelConfig(input_dim=4, hidden_dim=32, depth=2, classes=8),
        schedule=ScheduleConfig(lr_peak=lr, total_steps=total_steps,
                                warmup_steps=warmup_steps),
        spike=SpikeConfig(probability=0.1, severity=0.5),
        optimizer=OptimizerConfig(name=name, transforms=list(transforms)),
        quant_format="int4", seed=seed)
