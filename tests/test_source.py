"""Checks on the package source itself."""

import ast
import doctest
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import fibertrace
from fibertrace.cli import main

SOURCES = sorted(Path(fibertrace.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"
REFERENCE = Path(__file__).resolve().parent / "reference.py"


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


def test_no_module_imports_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize, and generates and
    # compiles code for every class at import; the records are named tuples
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names))
        or (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "dataclasses")
    ]
    assert not found, f"dataclasses imports in the package: {found}"


def test_package_imports_only_the_standard_library():
    # the runtime has no dependency: every import is relative or names a
    # module of the standard library
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert any(path.name == "exactalg.py" for path in SOURCES)
    assert not found, f"imports outside the standard library: {found}"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter without site, so only the package's own imports count
    probe = "import sys, fibertrace.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parent.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_plain_cli_call_does_not_import_argparse():
    # a fresh interpreter without site: a plain verb argv is read from the
    # verb table, and only help and usage errors build the argparse parsers
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parent.parent)}
    probe = ("import sys, fibertrace.cli; code = fibertrace.cli.main({}); "
             "print(code, 'argparse' in sys.modules)")
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe.format(["jumps", "--catalog", "kodaira:IV", "--machine"])],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "jump 1/3\n0 False\n", "")
    done = subprocess.run([sys.executable, "-S", "-c", probe.format(["jumps", "-h"])],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: fibertrace jumps [-h] [--graph PATH] [--catalog ID]")
    assert done.stdout.endswith("\n0 True\n")


def test_plain_jumps_call_imports_no_fractions():
    # the jump set holds (class, multiplicity) pairs and the CLI prints them
    # as p/q, so fractions, and decimal with it, is imported only when
    # JumpSet.jumps is read
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parent.parent)}
    probe = ("import sys, fibertrace.cli; code = fibertrace.cli.main({}); "
             "print(code, sorted({{'fractions', 'decimal'}} & set(sys.modules)))")
    argv = ["jumps", "--catalog", "kodaira:IV", "--machine"]
    done = subprocess.run([sys.executable, "-S", "-c", probe.format(argv)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "jump 1/3\n0 []\n", "")
    probe = ("import sys, fibertrace; js = fibertrace.compute_jumps(fibertrace.lookup("
             "fibertrace.FiberTypeId.parse('kodaira:IV'))); before = 'fractions' in sys.modules; "
             "print(before, js.jumps, 'fractions' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", probe],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        0, "False (Fraction(1, 3),) True\n", "")


def test_oracles_stay_independent_of_the_closed_form():
    # the node sum and the cyclotomic oracle arbitrate the closed form, and
    # A'Campo's spectrum the jumps, so none may reach the chain ends, the
    # block arithmetic or either fiber trace
    closed_form = {"chain_ends", "edge_blocks", "block_sum", "at_degree", "singularity_trace",
                   "rational_trace", "limit_trace", "total_trace", "principal_type",
                   "type_classes", "type_jumps"}
    oracles = {"trace_polynomial", "trace_oracle", "packed_inverse_numerators",
               "acampo_spectrum", "per_node_oracle"}
    found = {}
    for path in SOURCES + [REFERENCE]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.FunctionDef) and node.name in oracles:
                names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
                names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
                found[node.name] = sorted(names & closed_form)
    assert set(found) == oracles
    assert not any(found.values()), f"oracles that use the closed form: {found}"


def test_jumps_read_the_graph_alone():
    # compute_jumps needs no chain end and no block: jumps.py imports nothing
    # from the resolution or trace modules
    [path] = [path for path in SOURCES if path.name == "jumps.py"]
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {part for alias in node.names for part in alias.name.split(".")}
    assert "fiber" in imported
    assert not imported & {"resolution", "singtrace"}, sorted(imported)


def test_fiber_trace_reads_the_graph_alone():
    # the fiber trace at any degree is the limit trace moved to its class,
    # so fiber.py names no chain end, singularity or block arithmetic
    [path] = [path for path in SOURCES if path.name == "fiber.py"]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ImportFrom):
            names.add((node.module or "").rsplit(".", 1)[-1])
    assert "limit_trace" in names and "exactalg" in names
    # nor the trace module's map to a degree: the floor map is fiber.py's own
    block_route = {"chain_ends", "Singularity", "edge_blocks", "block_sum", "vertex_block",
                   "_edge_pass", "self_intersections", "at_degree", "singtrace"}
    assert not names & block_route, sorted(names & block_route)


def test_sources_parse_at_the_python_floor():
    # pyproject.toml declares the oldest Python the package runs on; every
    # module, test and benchmark script must parse at that grammar
    pyproject = (README.parent / "pyproject.toml").read_text(encoding="utf-8")
    [floor] = re.findall(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    floor = tuple(map(int, floor))
    paths = SOURCES + sorted(REFERENCE.parent.glob("*.py"))
    paths += sorted((README.parent / "bench").glob("*.py"))
    assert len(paths) > 25
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
    if floor < (3, 11):  # the check has teeth: a grammar newer than the floor is refused
        with pytest.raises(SyntaxError):
            ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)


def test_every_definition_is_used():
    # a function, method or class that no package module and no benchmark
    # script refers to only exists for itself; being listed in __all__ is
    # not a use, as nothing in the program then calls it
    bench = sorted((README.parent / "bench").glob("*.py"))
    assert bench
    defined, used = [], set()
    for path in SOURCES + bench:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and path in SOURCES:
                defined.append((node.name, f"{path.name}:{node.lineno}"))
    unused = [
        f"{name} ({where})" for name, where in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in used
    ]
    assert not unused, f"definitions nothing refers to: {unused}"


def test_every_reference_helper_is_used():
    # the reference arithmetic exists only to check the package, so each of
    # its top-level functions must be named by some other test module; a use
    # inside reference.py alone is not a check of anything
    defined = [node.name for node in ast.parse(REFERENCE.read_text(encoding="utf-8")).body
               if isinstance(node, ast.FunctionDef)]
    used = set()
    for path in sorted(REFERENCE.parent.glob("*.py")):
        if path == REFERENCE:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    assert len(defined) > 15
    unused = sorted(set(defined) - used)
    assert not unused, f"reference helpers no other test names: {unused}"


def test_star_import_resolves_every_export():
    # a name deleted from a module but left in __all__ breaks the star import
    namespace = {}
    exec("from fibertrace import *", namespace)
    missing = [name for name in fibertrace.__all__ if name not in namespace]
    assert not missing, f"__all__ names that do not resolve: {missing}"


def test_readme_names_every_bound():
    # every module-level MAX_* constant is a bound a user can hit, so the
    # README paragraph that lists the bounds must name each of them
    bounds = {
        target.id
        for path in SOURCES
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    }
    assert len(bounds) >= 10
    [limits] = [p for p in README.read_text(encoding="utf-8").split("\n\n")
                if "Work past a fixed bound" in p]
    missing = sorted(name for name in bounds if f"`{name}`" not in limits)
    assert not missing, f"bounds the README limits paragraph does not name: {missing}"


def readme_block(heading):
    """The first fenced block under a README heading."""
    text = README.read_text(encoding="utf-8")
    prose = r"(?:[^#`\n][^\n]*\n|\n)*?"  # paragraphs before the block, no subheading
    block = re.search(rf"^#+ {re.escape(heading)}\n{prose}```\w*\n(.*?)^```", text, re.M | re.S)
    assert block, f"README.md has no fenced block under {heading!r}"
    return block.group(1)


def test_readme_command_line_examples(tmp_path, monkeypatch):
    # every command of the README's Command line block runs, with type4.fg
    # holding the Graph files block
    (tmp_path / "type4.fg").write_text(readme_block("Graph files"), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line, comments=True)
                for line in readme_block("Command line").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "fibertrace" for argv in commands)
    for argv in commands:
        assert main(argv[1:]) == 0, argv


def test_readme_library_examples():
    # the README's Library block is a doctest, so its outputs cannot drift
    test = doctest.DocTestParser().get_doctest(
        readme_block("Library"), {}, "README Library", str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0
