"""Checks on the package source itself."""

import ast
import doctest
import re
from pathlib import Path

import fibertrace

SOURCES = sorted(Path(fibertrace.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_star_import_resolves_every_export():
    # a name deleted from a module but left in __all__ breaks the star import
    namespace = {}
    exec("from fibertrace import *", namespace)
    missing = [name for name in fibertrace.__all__ if name not in namespace]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_readme_library_examples():
    # the README's Library block is a doctest, so its outputs cannot drift
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n+```python\n(.*?)^```", text, re.M | re.S)
    assert block, "README.md has no python block under '## Library'"
    test = doctest.DocTestParser().get_doctest(block.group(1), {}, "README Library", str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
