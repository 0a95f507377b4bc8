"""The boundary between the library's modules: each one imports from
another only the names it makes public, and so does every test oracle."""

import ast
from pathlib import Path

import groupzagreb

SRC = Path(groupzagreb.__file__).parent
TESTS = Path(__file__).parent


def test_no_module_imports_a_private_name_from_another():
    private = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private += [f"{path.name}: from .{node.module} import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_no_oracle_imports_a_private_name_from_the_library():
    # an oracle that borrowed a private table or helper would check the
    # library against itself
    private = []
    for path in sorted(TESTS.glob("*_oracles.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("groupzagreb"):
                private += [f"{path.name}: from {node.module} import {alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []
