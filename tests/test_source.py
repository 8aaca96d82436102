"""Checks on the package source itself."""

import ast
from pathlib import Path

import fibertrace

SOURCES = sorted(Path(fibertrace.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements; every invariant check must raise a
    # FibertraceError instead, so that it survives optimized runs
    assert any(path.name == "resolution.py" for path in SOURCES)
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the package: {found}"
