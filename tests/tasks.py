"""The tests' configs, each key named by its dotted name as a config file
names it, and criterion 7's task, declared once."""

from stablespam.harness import (ModelConfig, OptimizerConfig, RunConfig,
                                ScheduleConfig, SpikeConfig)

# The 6 -> 8 -> 3 MLP of one block, 40 steps.
SMALL = {"model.input_dim": 6, "model.hidden_dim": 8, "model.depth": 1,
         "model.classes": 3, "schedule.total_steps": 40,
         "schedule.warmup_steps": 4}


def set_key(cfg, key, value):
    """Set the config key ``key``, unchecked: ``validate`` judges it."""
    owner, f = {k: (o, f) for k, o, f in cfg.keys()}[key]
    setattr(owner, f.name, value)


def config_line(key, value):
    if isinstance(value, list):
        return f"{key} = {', '.join(value)}"
    return f"{key} = {value if isinstance(value, str) else repr(value)}"


def key_values(cfg):
    return {key: getattr(owner, f.name) for key, owner, f in cfg.keys()}


def config_text(cfg):
    """A config file of ``cfg``: a line for each key off its default."""
    defaults = key_values(RunConfig())
    return "".join(config_line(key, value) + "\n"
                   for key, value in key_values(cfg).items()
                   if value != defaults[key])


def small_cfg(keys=()):
    """The ``SMALL`` MLP with ``keys`` (a dict of key to value) set."""
    cfg = RunConfig()
    for key, value in {**SMALL, **dict(keys)}.items():
        set_key(cfg, key, value)
    return cfg


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
