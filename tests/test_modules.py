"""The boundary between the library's modules: each one imports from
another only the names it makes public."""

import ast
from pathlib import Path

import groupzagreb

SRC = Path(groupzagreb.__file__).parent


def test_no_module_imports_a_private_name_from_another():
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private += [f"{path.name}: from .{node.module} import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
