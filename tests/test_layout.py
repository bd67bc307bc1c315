"""Package layout: no module imports a private name from a sibling module.

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
