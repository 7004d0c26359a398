import ast
import functools
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """Names that a module imports and never reads; names listed in its
    ``__all__`` and ``from __future__`` imports count as used."""
    tree = ast.parse(path.read_text())
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    found = {str(path.relative_to(ROOT)): names
             for pattern in ("src/**/*.py", "tests/*.py", "perfbench/*.py")
             for path in sorted(ROOT.glob(pattern))
             if (names := unused_imports(path))}
    assert not found, found


IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@functools.cache
def references(text):
    """``(name, scope, called)`` for each name a module's source refers to:
    names, attributes, imported names and the identifiers inside string
    constants other than docstrings (``perfbench`` names its targets in
    strings). ``scope`` is the dotted path of the classes and functions the
    reference sits in, the name a top-level assignment binds, or
    ``<module>``; ``called`` says whether the name is a call's callee."""
    tree = ast.parse(text)
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    callees = {id(node.func) for node in ast.walk(tree)
               if isinstance(node, ast.Call)}
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + [child.name]
            elif (not scope and isinstance(child, ast.Assign)
                  and len(child.targets) == 1
                  and isinstance(child.targets[0], ast.Name)):
                inner = [child.targets[0].id]
            if isinstance(child, ast.Name):
                words = [child.id]
            elif isinstance(child, ast.Attribute):
                words = [child.attr]
            elif isinstance(child, ast.alias):
                words = [child.name.split(".")[-1]]
            elif (isinstance(child, ast.Constant)
                  and isinstance(child.value, str)
                  and id(child) not in docstrings):
                words = IDENTIFIER.findall(child.value)
            else:
                words = []
            found.extend((word, ".".join(inner) or "<module>",
                          id(child) in callees) for word in words)
            visit(child, inner)

    visit(tree, [])
    return tuple(found)


def test_every_definition_is_referenced():
    """Each top-level function and class in the package is named somewhere
    other than its own definition: in ``src/``, ``tests/``, ``perfbench/``
    or ``pyproject.toml``. A comment or docstring does not count."""
    used = set(IDENTIFIER.findall((ROOT / "pyproject.toml").read_text()))
    for path in sorted(ROOT.glob("src/**/*.py")) + sorted(
            ROOT.glob("tests/*.py")) + sorted(ROOT.glob("perfbench/*.py")):
        used |= {name for name, scope, _ in references(path.read_text())
                 if name != scope.split(".")[0]}
    unreferenced = [
        f"{path.relative_to(ROOT)}: {node.name}"
        for path in sorted(ROOT.glob("src/stablespam/*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used]
    assert not unreferenced, unreferenced


# Each rule's one home: a symbol that is called (a row ending in "()") or
# named, and the exact ``module.scope``s of the package that may do so.
ONE_HOME = {
    # The doors turn their input into a 2-D float64 array; everything
    # behind them takes such arrays as given.
    "as_matrix()": {"optim.ComposedOptimizer.step", "models.inject_spikes",
                    "models.mlp_forward_backward", "models.mlp_loss"},
    # A tensor's norm is taken by its layout, and the norms are combined by
    # global_grad_norm. The release gate takes every norm from the oracles.
    "frobenius_norm()": {"optim.OneTensor.tensor_norms"},
    "tensor_norms()": {"optim.ComposedOptimizer.step", "optim.Layout.norms",
                       "optim.OneTensor.norms", "optim.grad_clip_global"},
    "global_grad_norm()": {"harness.run", "optim.grad_clip_global"},
    # A config is checked at its doors: the config file, a run's set-up and
    # a grid's points before any run. The selftest checks its own.
    "validate()": {"cli.parse_config_text", "harness.prepare",
                   "harness.run_grid", "selftest._trace_check"},
    # prepare is a run's whole set-up, and its loss_grad and val_loss are a
    # run's only model calls. The selftest builds its own problems.
    "SeedSequence()": {"harness.prepare"},
    "init_mlp()": {"harness.prepare", "selftest._fd_cases",
                   "selftest._random_shapes"},
    "make_dataset()": {"harness.prepare", "selftest._fd_cases"},
    "make_quadratic()": {"harness.prepare", "selftest._fd_cases",
                         "selftest._random_shapes"},
    "mlp_forward_backward()": {"harness.prepare.loss_grad",
                               "selftest._mlp_problems"},
    "mlp_loss()": {"harness.prepare.val_loss", "selftest._mlp_problems.f"},
    "inject_spikes()": {"harness.prepare.loss_grad"},
    "quadratic_loss_grad()": {"harness.prepare.loss_grad",
                              "harness.prepare.val_loss",
                              "selftest._quadratic_problems"},
    "resample_dataset()": {"harness.prepare.val_loss"},
    # Every optimizer is one path: the transforms run in
    # ComposedOptimizer.step and each step rule in its base's update. The
    # selftest entries call what they check.
    "adaclip()": {"optim.ComposedOptimizer.step",
                  "selftest.check_adaclip_bias_correction",
                  "selftest.check_constant_gradient_bias_correction"},
    "adagn()": {"optim.ComposedOptimizer.step",
                "selftest.check_adagn_norm_identity"},
    "spike_clip()": {"optim.ComposedOptimizer.step"},
    "grad_clip_global()": {"optim.ComposedOptimizer.step",
                           "selftest.check_grad_clip_norm_bound"},
    "adam_step()": {"optim.AdamBase.update",
                    "selftest.check_constant_gradient_bias_correction"},
    "lion_step()": {"optim.LionBase.update"},
    "adam_mini_step()": {"optim.AdamMiniBase.update"},
    "adafactor_step()": {"optim.AdafactorBase.update"},
    # Each layout is named only where it is built, and the one-tensor
    # layout by the rules' default and its own norms. Every rule takes
    # whatever layout ComposedOptimizer.step hands it.
    "Layout": {"optim.lay_out"},
    "OneTensor": {"optim.lay_out", "optim.TENSOR", "optim.OneTensor.norms"},
    # Every product goes through matmul's one exact-order kernel call.
    "c_einsum()": {"tensor_core.matmul"},
    # The package writes every file whole or not at all, and reads only the
    # config file.
    "open()": {"harness.atomic_write", "cli._load_cfg"},
    # Every multi-run job goes through run_grid, and only it starts a pool.
    "run_grid()": {"harness.sweep", "cli.cmd_compare"},
    "ProcessPoolExecutor": {"harness.run_grid"},
}
SOURCES = {path.stem: path.read_text()
           for path in sorted(ROOT.glob("src/stablespam/*.py"))}


def homes(sources, row):
    """The ``module.scope``s of ``sources`` (module name -> source text)
    that call the row's symbol, for a row ending in "()", or name it."""
    symbol = row.removesuffix("()")
    return {f"{module}.{scope}" for module, text in sources.items()
            for name, scope, called in references(text)
            if name == symbol and (called or symbol == row)}


@pytest.mark.parametrize("row", ONE_HOME)
def test_one_home(row):
    assert homes(SOURCES, row) == ONE_HOME[row]


@pytest.mark.parametrize("row", ONE_HOME)
def test_every_row_catches_a_break(row):
    """A reference from a scope that the row does not allow fails the row,
    naming that scope, and so does a symbol renamed away."""
    module = min(ONE_HOME[row]).split(".")[0]
    broken = {**SOURCES, module: SOURCES[module]
              + f"\n\ndef intruder():\n    return {row}\n"}
    assert homes(broken, row) - ONE_HOME[row] == {f"{module}.intruder"}
    symbol = row.removesuffix("()")
    renamed = {module: re.sub(rf"\b{symbol}\b", "renamed", text)
               for module, text in SOURCES.items()}
    assert ONE_HOME[row] and not homes(renamed, row)


# Each float comparison in the tests states both of its tolerances, since
# the one left out may be the looser.
TOLERANCES = {"approx": {"rel", "abs"}, "allclose": {"rtol", "atol"},
              "isclose": {"rtol", "atol"}}


def test_every_float_comparison_states_both_tolerances():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(ROOT.glob("tests/*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and TOLERANCES.get(
                 getattr(node.func, "attr", getattr(node.func, "id", None)),
                 set()) - {keyword.arg for keyword in node.keywords}]
    assert not found, found


def private_references(path, modules):
    """``module._name`` for each private name of one of ``modules`` that the
    module at ``path`` reads as an attribute or imports by name. Dunder
    names are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module, names = node.value.id, [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.level:
            module, names = node.module, [alias.name for alias in node.names]
        else:
            continue
        found += [f"{module}.{name}" for name in names
                  if module in modules and name.startswith("_")
                  and not (name.startswith("__") and name.endswith("__"))]
    return found


def test_no_module_reads_another_modules_private_name():
    paths = sorted(ROOT.glob("src/stablespam/*.py"))
    modules = {path.stem for path in paths}
    found = {str(path.relative_to(ROOT)): names for path in paths
             if (names := private_references(path, modules))}
    assert not found, found
