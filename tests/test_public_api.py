"""Every public name of the package has a caller in the package itself, no
module imports a name it never uses, and no nested function calls the
function it is nested in.

A name exported by `blhecke.__all__` counts as used when some module other
than `__init__.py` refers to it, as a `Name` or an `Attribute`, outside the
top-level definition that binds it (so recursion alone is not a use).  A name
that only tests call is a test helper and belongs in the tests.  The imports
of `__init__.py` are its re-exports and are exempt from the import check.
"""

import ast
from pathlib import Path

import blhecke

PACKAGE = Path(blhecke.__file__).parent
TESTS = Path(__file__).parent


def _references_outside_own_definition() -> set[str]:
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != own:
                    used.add(name)
    return used


def test_every_public_name_has_a_caller_in_the_package():
    used = _references_outside_own_definition()
    public = [name for name in blhecke.__all__ if not (name.startswith("__") and name.endswith("__"))]
    assert [name for name in public if name not in used] == []


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never refers to as a `Name` or as the
    root of an `Attribute`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"] + sorted(TESTS.glob("*.py"))
    assert [entry for path in paths for entry in _unused_imports(path)] == []


def _recursive_nested_calls(path: Path) -> list[str]:
    """The functions that a function or lambda nested in them calls by name,
    as `f(...)` or, for a method, `self.f(...)`: the recursion through a
    memo's `make` that the walk down left factors (`coxeter.walk_down`)
    replaces.  Direct recursion is not matched."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for outer in ast.walk(tree):
        if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = outer.args.args[0].arg if outer.args.args else None
        nested = [node for stmt in outer.body for node in ast.walk(stmt)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        for call in (node for inner in nested for node in ast.walk(inner) if isinstance(node, ast.Call)):
            func = call.func
            if (isinstance(func, ast.Name) and func.id == outer.name) or (
                    isinstance(func, ast.Attribute) and func.attr == outer.name
                    and isinstance(func.value, ast.Name) and func.value.id == owner):
                found.append(f"{path.name}:{call.lineno} {outer.name}")
    return found


def test_no_nested_function_calls_its_enclosing_function():
    assert [entry for path in sorted(PACKAGE.glob("*.py")) for entry in _recursive_nested_calls(path)] == []
