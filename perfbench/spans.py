"""Span tracing from outside the package.

Each traced function is wrapped on every module attribute that binds it
(``models`` imports ``matmul``/``qdq`` by name, ``optim``/``harness`` import
``frobenius_norm`` by name), so patching one module alone would miss calls.
Spans (name, parent, start, end) are kept in memory; self time and the run
each span belongs to are computed afterwards.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# Label -> attribute path inside the ``stablespam`` package. The first
# component names the layer (module); a three-part label is a method.
TARGETS = (
    "tensor_core.matmul",
    "tensor_core.frobenius_norm",
    "quant.qdq",
    "models.mlp_forward_backward",
    "models.swiglu_fwd_bwd",
    "models.rmsnorm_fwd_bwd",
    "models.quadratic_loss_grad",
    "models.inject_spikes",
    "models.make_dataset",
    "models.init_mlp",
    "optim.ComposedOptimizer.step",
    "optim.adaclip",
    "optim.adagn",
    "optim.spike_clip",
    "optim.grad_clip_global",
    "optim.adam_step",
    "optim.lion_step",
    "optim.adam_mini_step",
    "optim.adafactor_step",
    "harness.global_grad_norm",
    "harness.write_records_csv",
    "harness.sweep",
    "harness.run",
)

RUN = "harness.run"


def _init_mlp_key(args, kwargs):
    # The rng is consumed by the call, so its state is read before it.
    *dims, rng = args[:5]
    return repr((dims, kwargs.get("quant"), rng.bit_generator.state))


# Functions whose inputs are recorded, to count calls that repeat earlier
# inputs (work a cache or a batched engine could skip).
KEY_FUNCS = {
    "models.make_dataset": lambda args, kwargs: repr((args, sorted(kwargs.items()))),
    "models.init_mlp": _init_mlp_key,
}


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "stablespam"
                                  or name.startswith("stablespam."))]


class Tracer:
    """Installs span-recording wrappers; ``remove`` restores the originals.

    Span fields live in flat arrays (label index, parent index, start, end):
    cheap to append, and invisible to the garbage collector, which would
    otherwise slow down as millions of span objects accumulate.
    """

    def __init__(self, package):
        self.package = package
        self.label = array("h")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter = Counter()
        self.keys: dict[str, list[str]] = {label: [] for label in KEY_FUNCS}
        self.bindings: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _original(self, label):
        obj = self.package
        for part in label.split("."):
            obj = getattr(obj, part)
        return obj

    def _wrap(self, label, fn, stack):
        lid = TARGETS.index(label)
        labels, parents, starts, ends = self.label, self.parent, self.start, self.end
        errors = self.errors
        keys = self.keys.get(label)
        keyfn = KEY_FUNCS.get(label)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if keyfn is not None:
                keys.append(keyfn(args, kwargs))
            i = len(labels)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[label] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = _package_modules()
        stack: list[int] = []  # shared, so parents cross function boundaries
        for label in TARGETS:
            fn = self._original(label)
            parts = label.split(".")
            if len(parts) == 3:
                owners = [(getattr(getattr(self.package, parts[0]), parts[1]),
                           parts[2])]
            else:
                owners = [(m, attr) for m in modules
                          for attr, value in vars(m).items() if value is fn]
            if not owners:
                raise RuntimeError(f"no module binds {label}")
            wrapper = self._wrap(label, fn, stack)
            for owner, attr in owners:
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
            self.bindings[label] = len(owners)

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()


def analyse(tracer, expected_children):
    """Per-label calls and self time, and the child-count checks.

    ``expected_children`` maps a parent label to ``{child label: count}``:
    every span of that parent must contain exactly that many descendant
    spans of each child label. Returns (calls, self_s, total_s, violations);
    ``total_s`` is the time inside top-level spans.
    """
    labels, parents = tracer.label, tracer.parent
    durations = [e - s for s, e in zip(tracer.start, tracer.end)]
    child_time = [0.0] * len(labels)
    run_of = [-1] * len(labels)
    run_id = TARGETS.index(RUN)
    for i, (lid, parent) in enumerate(zip(labels, parents)):
        if parent >= 0:
            child_time[parent] += durations[i]
            run_of[i] = run_of[parent]
        if lid == run_id:
            run_of[i] = i
    calls = [0] * len(TARGETS)
    self_s = [0.0] * len(TARGETS)
    total_s = 0.0
    for i, (lid, parent) in enumerate(zip(labels, parents)):
        calls[lid] += 1
        self_s[lid] += durations[i] - child_time[i]
        if parent < 0:
            total_s += durations[i]

    want = {TARGETS.index(p): {TARGETS.index(c): n for c, n in kids.items()}
            for p, kids in expected_children.items()}
    watched = {c for kids in want.values() for c in kids}
    found = {i: Counter() for i, lid in enumerate(labels) if lid in want}
    for lid, parent in zip(labels, parents):
        if lid not in watched:
            continue
        while parent >= 0 and labels[parent] not in want:
            parent = parents[parent]
        if parent >= 0:
            found[parent][lid] += 1
    violations = []
    for i, counts in found.items():
        expected = want[labels[i]]
        got = {c: counts[c] for c in expected}
        if got != expected:
            name = lambda d: {TARGETS[k]: v for k, v in d.items()}
            violations.append(f"{TARGETS[labels[i]]} span {i} (run span "
                              f"{run_of[i]}): expected {name(expected)}, "
                              f"got {name(got)}")
    return (dict(zip(TARGETS, calls)), dict(zip(TARGETS, self_s)), total_s,
            violations)
