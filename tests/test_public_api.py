"""Every public name of the package has a caller in the package itself.

A name exported by `blhecke.__all__` counts as used when some module other
than `__init__.py` refers to it, as a `Name` or an `Attribute`, outside the
top-level definition that binds it (so recursion alone is not a use).  A name
that only tests call is a test helper and belongs in the tests.
"""

import ast
from pathlib import Path

import blhecke

PACKAGE = Path(blhecke.__file__).parent


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
