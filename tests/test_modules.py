"""The boundary between the library's modules: each one imports from
another only the names it makes public, and so does every test oracle; and
the CLI reads, builds and reports every group inside ``_naming``."""

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


# the calls that read, build or report a group in cli.py
_GROUP_CALLS = {"group_report", "build_family", "ingest_cayley", "crosschecks", "_row_for_group"}


def _calls_outside_naming(node: ast.AST, named: bool = False) -> list[str]:
    """The group calls under ``node`` that no ``with _naming(...)`` block
    holds; ``_row_for_group`` runs inside its caller's block."""
    if isinstance(node, ast.FunctionDef) and node.name == "_row_for_group":
        return []
    if isinstance(node, ast.With):
        named = named or any(isinstance(item.context_expr, ast.Call)
                             and getattr(item.context_expr.func, "id", None) == "_naming"
                             for item in node.items)
    found = []
    if isinstance(node, ast.Call) and not named:
        func = node.func
        if (getattr(func, "id", None) in _GROUP_CALLS
                or isinstance(func, ast.Attribute) and func.attr == "build"):
            found.append(f"cli.py:{node.lineno}: {ast.unparse(func)}()")
    for child in ast.iter_child_nodes(node):
        found += _calls_outside_naming(child, named)
    return found


def test_every_group_the_cli_reports_is_named_by_one_block():
    # a read, build or report outside ``_naming`` would end in a traceback,
    # or name no group, where every other failure is one ``error:`` line
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert _calls_outside_naming(tree) == []
