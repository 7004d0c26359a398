import ast
import re
from pathlib import Path

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


# The functions that turn their input into a 2-D float64 array; everything
# behind them takes such arrays as given.
DOORS = {"src/stablespam/optim.py": {"ComposedOptimizer.step"},
         "src/stablespam/models.py": {"mlp_forward_backward", "mlp_loss",
                                      "inject_spikes"}}


def callers_of(path, name):
    """The qualified names of the functions in a module that call ``name``
    or ``<object>.name``; a call at module level is reported as
    ``<module>``."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                callers.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return callers


def test_as_matrix_called_only_at_the_doors():
    found = {str(path.relative_to(ROOT)): callers
             for path in sorted(ROOT.glob("src/**/*.py"))
             if (callers := callers_of(path, "as_matrix"))}
    assert found == DOORS


# A tensor's norm is taken by its layout: global_grad_norm and the harness
# only combine the norms the optimizer took. The selftest's AdaGN entry
# measures its output on its own, as an independent check.
NORM_CALLERS = {"src/stablespam/optim.py": {"OneTensor.tensor_norms"},
                "src/stablespam/selftest.py": {"check_adagn_norm_identity"}}


def test_frobenius_norm_called_only_by_the_layout():
    found = {str(path.relative_to(ROOT)): callers
             for path in sorted(ROOT.glob("src/**/*.py"))
             if (callers := callers_of(path, "frobenius_norm"))}
    assert found == NORM_CALLERS


# The doors a config is checked at: the config file, a run's set-up, and
# a grid's points before any run; the selftest checks its own.
VALIDATE_CALLERS = {"src/stablespam/cli.py": {"parse_config_text"},
                    "src/stablespam/harness.py": {"prepare", "run_grid"},
                    "src/stablespam/selftest.py": {"_trace_check"}}


def test_validate_called_only_at_the_doors():
    found = {str(path.relative_to(ROOT)): callers
             for path in sorted(ROOT.glob("src/**/*.py"))
             if (callers := callers_of(path, "validate"))}
    assert found == VALIDATE_CALLERS


def test_only_prepare_sets_up_a_run():
    """In the harness, one function spawns the seed streams and builds the
    model, its data or the quadratic."""
    harness = ROOT / "src/stablespam/harness.py"
    found = {name: callers_of(harness, name)
             for name in ("SeedSequence", "init_mlp", "make_dataset",
                          "make_quadratic")}
    assert found == dict.fromkeys(found, {"prepare"})


IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def references(path):
    """``(name, owner)`` for each name a module refers to: names, attributes,
    imported names and the identifiers inside string constants other than
    docstrings (``perfbench`` names its targets in strings). ``owner`` is the
    top-level function or class the reference sits in, the name a top-level
    assignment binds, or None."""
    tree = ast.parse(path.read_text())
    docstrings = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Constant)}
    found = []
    for top in tree.body:
        owner = None
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            owner = top.name
        elif isinstance(top, ast.Assign) and len(top.targets) == 1:
            owner = getattr(top.targets[0], "id", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.append((node.id, owner))
            elif isinstance(node, ast.Attribute):
                found.append((node.attr, owner))
            elif isinstance(node, ast.alias):
                found.append((node.name.split(".")[-1], owner))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                found += [(word, owner)
                          for word in IDENTIFIER.findall(node.value)]
    return found


def test_every_definition_is_referenced():
    """Each top-level function and class in the package is named somewhere
    other than its own definition: in ``src/``, ``tests/``, ``perfbench/``
    or ``pyproject.toml``. A comment or docstring does not count."""
    used = set(IDENTIFIER.findall((ROOT / "pyproject.toml").read_text()))
    for path in sorted(ROOT.glob("src/**/*.py")) + sorted(
            ROOT.glob("tests/*.py")) + sorted(ROOT.glob("perfbench/*.py")):
        used |= {name for name, owner in references(path) if name != owner}
    unreferenced = [
        f"{path.relative_to(ROOT)}: {node.name}"
        for path in sorted(ROOT.glob("src/stablespam/*.py"))
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used]
    assert not unreferenced, unreferenced


# Outside its own class, each layout is named only in ``optim`` where it is
# built, and the one-tensor layout also by the rules' default, ``TENSOR``.
# Every rule takes whatever layout ``ComposedOptimizer.step`` hands it.
LAYOUT_NAMERS = {"Layout": {"lay_out"}, "OneTensor": {"lay_out", "TENSOR"}}


def test_layout_named_only_where_it_is_built_or_shapes_state():
    for layout, namers in LAYOUT_NAMERS.items():
        found = {str(path.relative_to(ROOT)): owners
                 for path in sorted(ROOT.glob("src/**/*.py"))
                 if (owners := {owner for name, owner in references(path)
                                if name == layout and owner != layout})}
        assert found == {"src/stablespam/optim.py": namers}, layout


def test_only_run_grid_starts_a_process_pool():
    """Every multi-run job goes through ``harness.run_grid``: no other
    function in the package names ``ProcessPoolExecutor``."""
    found = {str(path.relative_to(ROOT)): owners
             for path in sorted(ROOT.glob("src/**/*.py"))
             if (owners := {owner for name, owner in references(path)
                            if name == "ProcessPoolExecutor"})}
    assert found == {"src/stablespam/harness.py": {"run_grid"}}


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
