import ast
from pathlib import Path
import subprocess
import sys

import stcores

ROOT = Path(__file__).resolve().parents[1]
MODULES = [p for p in sorted((ROOT / "src" / "stcores").glob("*.py")) if p.name != "__init__.py"]


def _shared_names() -> set[str]:
    # Names that a module of the package, bench/ (not its tests) or tools/
    # imports or reads as an attribute; the package's re-exports and tests
    # don't count.
    bench = [p for p in sorted((ROOT / "bench").glob("*.py")) if not p.name.startswith("test_")]
    shared = set()
    for path in MODULES + bench + sorted((ROOT / "tools").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                shared.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                shared.update(alias.name for alias in node.names)
    assert len(MODULES) > 5 and bench
    return shared


def test_every_public_function_has_a_caller_outside_the_tests():
    # No helper that only tests call. A function counts as used when its
    # own module names it, or another module, bench/ or tools/ imports it or
    # reads it as an attribute. The CLI verbs count too: the parser in
    # cli.py names each one.
    shared = _shared_names()
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        local = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.name}:{node.name}"
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")
            and node.name not in shared | local
        ]
    assert unused == []


def test_every_public_method_has_a_caller_outside_the_tests():
    # The same rule for the methods and properties of module-level classes:
    # each is read as an attribute somewhere in the package, bench/ or tools/.
    shared = _shared_names()
    unused = [
        f"{path.name}:{cls.name}.{node.name}"
        for path in MODULES
        for cls in ast.parse(path.read_text()).body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and node.name not in shared
    ]
    assert unused == []


# One canonical call per verb, as the option table reads it without argparse.
# The calls share one interpreter, so each stage only shows the modules that
# are new since the stage before it. The bijection calls import json to read
# their --input, so they come last: every other stage runs before json is
# loaded and is checked for it.
CANONICAL_CALLS = [
    ["--version"],
    ["count", "-t", "3", "-s", "2", "-N", "10"],
    ["series", "--gf", "psi", "-s", "2", "-t", "3", "-N", "5", "--format", "json"],
    ["grid", "--kind", "anderson", "-s", "7", "-t", "11"],
    ["scan", "--gf", "partition", "-g", "5", "--mod", "5", "-N", "30"],
    ["verify", "examples", "-N", "10"],
    ["bijection", "--map", "gamma", "-s", "7", "-t", "11", "--input", "[3,3,3]"],
    ["bijection", "--map", "zeta-inverse", "-t", "3", "--input", '{"kind":"bar","parts":[4,1]}'],
]


def test_the_cli_imports_neither_click_nor_dataclasses():
    # Every cold CLI call pays for what it imports: click cost about 34 ms of
    # it, dataclasses (with inspect) about 14 ms, and argparse (with gettext,
    # locale and textwrap) and json about 9 ms more. Only help, a rejected
    # argument, a JSON string, a `bijection --input` or the verify report
    # needs argparse or json.
    # -S keeps site from importing any of them first, which would hide them.
    code = f"""
import os, sys
sys.path.insert(0, sys.argv[1])
seen = set(sys.modules)
import stcores.cli
stages = [("import", set(sys.modules) - seen)]
sys.stdout = open(os.devnull, "w")
for argv in {CANONICAL_CALLS!r}:
    seen = set(sys.modules)
    try:
        stcores.cli.main(argv)
    except SystemExit as stop:
        assert stop.code == 0, argv
    stages.append((" ".join(argv), set(sys.modules) - seen))
for stage, modules in stages:
    print(stage, *sorted(modules), sep="\t", file=sys.__stdout__)
"""
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, check=True, timeout=60,
    )
    stages = {
        stage: set(modules) for stage, *modules in (line.split("\t") for line in done.stdout.splitlines())
    }
    assert len(stages) == len(CANONICAL_CALLS) + 1
    assert {"stcores.cli", "stcores.verify"} <= stages["import"]
    forbidden = {"argparse", "gettext", "locale", "textwrap", "json", "click", "dataclasses", "inspect"}
    # json, once loaded, hides from every later stage: no other call may follow a bijection.
    after_bijection = [argv[0] == "bijection" for argv in CANONICAL_CALLS]
    assert after_bijection == sorted(after_bijection)
    allowed = {stage: {"json"} if stage.startswith("bijection") else set() for stage in stages}
    imported = {stage: modules & forbidden - allowed[stage] for stage, modules in stages.items()}
    assert {stage: modules for stage, modules in imported.items() if modules} == {}


def test_all_lists_exactly_the_names_the_package_imports():
    # __all__ is derived from the package's globals; it must hold exactly
    # the names the import block binds, and no submodule.
    tree = ast.parse((ROOT / "src" / "stcores" / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert len(stcores.__all__) == len(set(stcores.__all__))
    assert set(stcores.__all__) == set(imported)


def test_every_source_and_test_file_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10, but a test run on a
    # newer interpreter accepts newer syntax, such as except* or a type
    # statement, that 3.10 cannot parse. CI runs tools/ on 3.11 only, so
    # its scripts are parsed here too.
    files = [path for folder in ("src", "tests", "tools") for path in sorted((ROOT / folder).rglob("*.py"))]
    assert len(files) > 20 and any(path.parent.name == "tools" for path in files)
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
