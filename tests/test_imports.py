import ast
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
             for path in sorted(ROOT.glob("src/**/*.py")) + sorted(
                 ROOT.glob("tests/*.py"))
             if (names := unused_imports(path))}
    assert not found, found


# The functions that turn their input into a 2-D float64 array; everything
# behind them takes such arrays as given.
DOORS = {"src/stablespam/optim.py": {"ComposedOptimizer.step"},
         "src/stablespam/models.py": {"mlp_forward_backward", "mlp_loss",
                                      "inject_spikes"}}


def as_matrix_callers(path):
    """The qualified names of the functions in a module that call
    ``as_matrix`` or ``<module>.as_matrix``; a call at module level is
    reported as ``<module>``."""
    callers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and "as_matrix" in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                callers.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(path.read_text()), [])
    return callers


def test_as_matrix_called_only_at_the_doors():
    found = {str(path.relative_to(ROOT)): callers
             for path in sorted(ROOT.glob("src/**/*.py"))
             if (callers := as_matrix_callers(path))}
    assert found == DOORS
