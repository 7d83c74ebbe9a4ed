"""Package layout: a module's underscore names stay inside it."""

from __future__ import annotations

import ast
from pathlib import Path

import morphplan

PACKAGE = Path(morphplan.__file__).parent


def private_imports(source: str) -> list[str]:
    """Underscore names that a relative ``from . import`` brings in."""
    return [
        f"from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_imports_are_found():
    source = "from .synthesis import Frontier, _hidden\nfrom . import _mod\nfrom os import _exit\n"
    assert private_imports(source) == ["from .synthesis import _hidden", "from . import _mod"]


def test_no_module_imports_a_private_name():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := private_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
