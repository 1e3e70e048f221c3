"""No module of the package imports a private name from another one."""

from __future__ import annotations

import ast

import pytest

from conftest import SRC_DIR

MODULES = sorted((SRC_DIR / "quiver_regrade").glob("*.py"))


def test_modules_are_found():
    assert "linalg.py" in {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_name_from_a_sibling_module(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"{path.name} imports private names: {private}"
