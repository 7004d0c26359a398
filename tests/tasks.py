"""The tests' configs, each key named by its dotted name as a config file
names it, and criterion 7's task, declared once; the memory orders the
doors' tests pass a matrix in; the one probe of a training step's
Python-level calls; and the compensated float sum that builtin ``sum`` is
from Python 3.12 on."""

import sys
from collections import Counter

import numpy as np

from stablespam.harness import (ModelConfig, OptimizerConfig, RunConfig,
                                ScheduleConfig, SpikeConfig, run)

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
    """The ``SMALL`` MLP with ``keys`` (a dict of key to value) set; with
    ``model.kind`` set to another model, ``SMALL`` less its MLP sizes."""
    keys = dict(keys)
    mlp = keys.get("model.kind", "mlp") == "mlp"
    small = {key: value for key, value in SMALL.items()
             if mlp or not key.startswith("model.")}
    cfg = RunConfig()
    for key, value in {**small, **keys}.items():
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


def named_config(name):
    """The ``OptimizerConfig`` of an optimizer name, where ``base+transform``
    names a base behind one transform."""
    name, _, transform = name.partition("+")
    return OptimizerConfig(name=name, transforms=[transform] if transform
                           else [])


def memory_orders(x):
    """The values of the matrix ``x`` in four memory orders: a C-ordered
    copy, an F-ordered copy, the transposed view of a C-ordered ``x.T``, and
    a view that steps 2 rows and 3 columns of a larger array."""
    rows, cols = x.shape
    strided = np.full((2 * rows, 3 * cols), np.nan)[::2, ::3]
    strided[...] = x
    return {"C": np.array(x, order="C"), "F": np.array(x, order="F"),
            "transposed": np.array(x.T, order="C").T, "strided": strided}


def step_calls(cfg):
    """The Python functions one loop iteration of ``run(cfg)`` calls, counted
    by (file, function name): the ``sys.setprofile`` call events from the
    end of step 4's ``on_step`` to step 5's. Step 5 draws no batch when the
    run's batches fit one draw."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_filename, frame.f_code.co_name] += 1

    def on_step(step, grads_pre, grads_post):
        sys.setprofile(profile if step == 4 else None)

    try:
        run(cfg, on_step=on_step)
    finally:
        sys.setprofile(None)
    return calls


def neumaier(values):
    """The Neumaier-compensated sum of floats, as builtin ``sum`` adds them
    from Python 3.12 on; patched in for ``sum``, it shows on any Python
    whether a sum that must add left to right does."""
    total = lost = 0.0
    for x in values:
        t = total + x
        lost += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + lost
