"""Package layout: no module imports a private name from a sibling module,
and every name a module exports in __all__ is defined there.

A name shared across modules is public in the module that owns it; a
`from .mod import _name` means the shared helper lives in the wrong place.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "l1rec"


def private_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            source = "." * node.level + (node.module or "")
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    found.append(f"{path.name}:{node.lineno}: from {source} import {name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path) == []


def module_names(path: pathlib.Path) -> tuple[list[str], set[str]]:
    """(__all__, the names the module binds at top level). Only the package
    __init__ counts imported names as its own: it re-exports by design."""
    tree = ast.parse(path.read_text(), filename=str(path))
    exported, defined = [], set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined.add(target.id)
                    if target.id == "__all__":
                        exported = [ast.literal_eval(e) for e in node.value.elts]
        elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
            defined.update(alias.asname or alias.name for alias in node.names)
    return exported, defined


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_all_names_defined(path):
    exported, defined = module_names(path)
    assert [name for name in exported if name not in defined] == []
