"""The tests' configs, each key named by its dotted name as a config file
names it, criterion 7's task and the ways a run diverges, declared once;
the memory orders the doors' tests pass a matrix in; the one probe of a
training step's Python-level calls, and what one MLP step calls per
optimizer; the optimizer-trace check of some optimizers only; the
compensated float sum that builtin ``sum`` is from Python 3.12 on; and a
new interpreter at the root, with ``src`` on its path."""

import functools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from stablespam import models, selftest
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


def quadratic_sgd(lr, total_steps=40):
    """The ``SMALL`` quadratic under SGD at peak LR ``lr``, with no warmup."""
    return small_cfg({"model.kind": "quadratic", "optimizer.name": "sgd",
                      "schedule.lr_peak": lr, "schedule.warmup_steps": 0,
                      "schedule.total_steps": total_steps})


def inf_gradient_at_the_third_call(monkeypatch):
    """Patch the MLP's forward/backward to put inf in ``block0.w_up``'s
    gradient at its third call. Returns the list each call appends its
    (model, loss, copy of the weights it saw) to."""
    real, seen = models.mlp_forward_backward, []

    def inf_at_step_3(model, x, y):
        loss, grads = real(model, x, y)
        seen.append((model, loss,
                     {k: w.copy() for k, w in model.params.items()}))
        if len(seen) == 3:
            grads["block0.w_up"][1, 2] = np.inf
        return loss, grads

    monkeypatch.setattr(models, "mlp_forward_backward", inf_at_step_3)
    return seen


class Route(NamedTuple):
    """A way a run diverges: ``config()`` builds its config anew, to run
    after ``patch(monkeypatch)``; the run's last record is of step
    ``last_step``, and is flagged diverged if ``flagged``."""
    config: Callable[[], RunConfig]
    last_step: int
    flagged: bool
    patch: Callable = lambda monkeypatch: None


DIVERGES = {
    # The loss passes DIVERGENCE_LOSS_CAP in training.
    "loss above the cap": Route(lambda: quadratic_sgd(1e6), 8, True),
    # Criterion 7's task: the forward pass of step 9 meets an inf, which qdq
    # rejects, so the row has no loss to keep.
    "inf in qdq": Route(lambda: int4_cfg("sgd", 10.0), 9, True),
    # A finite loss with an inf gradient: the optimizer's door rejects the
    # step, the row keeps the loss, and no weight moves (plain Adam, whose
    # only check the door is).
    "inf gradient": Route(small_cfg, 3, True, inf_gradient_at_the_third_call),
    # One step at lr 1e99 leaves finite weights whose validation forward
    # pass overflows, so qdq rejects an inf there.
    "non-finite final validation": Route(lambda: int4_cfg(
        "sgd", 1e100, total_steps=1, warmup_steps=0), 1, False),
    # Every training loss is under the cap; the final one is 5.05e101.
    "final validation above the cap": Route(
        lambda: quadratic_sgd(1000.0, total_steps=13), 13, False),
}


# The transforms each optimizer applies itself, after any listed; as stated
# here, not read from the code under test.
OWN = {"adam_gradclip": ["grad_clip"], "spam": ["spike_clip"],
       "stable_spam": ["adaclip", "adagn"]}


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

    def on_step(step, grads, telemetry):
        sys.setprofile(profile if step == 4 else None)

    try:
        run(cfg, on_step=on_step)
    finally:
        sys.setprofile(None)
    return calls


# Per optimizer, one MLP step's calls into the package's files, at most
# (numpy's dispatchers and the SIMD path cannot move them; stable_spam's are
# 79 or 80 with AdaClip's branch), and its rule calls, exactly: each rule
# runs once over all 7 tensors, but Adafactor's once per tensor.
STEP_CALLS = {
    "sgd": (66, {}),
    "adam": (67, {"adam_step": 1}),
    "adam_gradclip": (73, {"adam_step": 1, "grad_clip_global": 1}),
    "adafactor": (91, {"adafactor_step": 7}),
    "lion": (67, {"lion_step": 1}),
    "adam_mini": (70, {"adam_mini_step": 1}),
    "spam": (71, {"adam_step": 1, "spike_clip": 1}),
    "stable_spam": (80, {"adam_step": 1, "adaclip": 1, "adagn": 1}),
}


@functools.cache
def mlp_step_calls(name):
    """``step_calls`` of an 8-step INT4 MLP run with input spikes under
    optimizer ``name`` at lr 1e-2, traced once per process; read it, do not
    change it."""
    return step_calls(int4_cfg(name, 1e-2, total_steps=8, warmup_steps=2))


def traces_of(*names):
    """The selftest's optimizer-trace check over the ``TRACE_CASES`` of the
    optimizers ``names`` only."""
    return selftest._trace_check(*(case for case in selftest.TRACE_CASES
                                   if case[0] in names))


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


def run_python(*args, **env):
    """Run a new interpreter with the arguments ``args`` (``"-c", code`` or
    ``"-m", module, ...``) at the root, ``src`` on its path and ``env``
    added to its environment."""
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src"), **env}
    return subprocess.run([sys.executable, *args], cwd=root, env=env,
                          capture_output=True, text=True)
