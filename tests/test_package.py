import ast
import inspect
from pathlib import Path
import subprocess
import sys

import pytest

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


def test_no_tool_imports_a_private_name_of_the_package():
    # tools/ calls stcores through its public names only, so that a private
    # helper can change without breaking a script.
    private = []
    for path in sorted((ROOT / "tools").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = [
            alias
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("stcores")
            for alias in node.names
        ]
        bound = {alias.asname or alias.name for alias in aliases}
        private += [f"{path.name}:{alias.name}" for alias in aliases if alias.name.startswith("_")]
        private += [
            f"{path.name}:{node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound and node.attr.startswith("_")
        ]
    assert private == []


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


# The library's input contract, one refusal table over stcores.__all__: every
# public function that reads a partition or a bar partition refuses input
# that is not one. (1, 2) increases, (2, 0) and (3, -1) end below 1, (True,)
# holds a bool and ([1],) a list; (1, 1) and (4, 4, 1) repeat a part.
NOT_PARTITIONS = ((1, 2), (2, 0), (3, -1), (True,), ([1],))
NOT_BAR_PARTITIONS = (*NOT_PARTITIONS, (1, 1), (4, 4, 1))

# Per reader of a partition: the call and its refusal.
PARTITION_READERS = {
    "decompose": (lambda p: stcores.decompose(p, 2), "input is not a partition"),
    "gks_encode": (lambda p: stcores.gks_encode(p, 3), "input is not a partition"),
    "is_t_core": (lambda p: stcores.is_t_core(p, 3), "input is not a partition"),
    "is_st_core": (lambda p: stcores.is_st_core(p, 3, 5), "input is not a partition"),
    "reconstruct": (
        lambda p: stcores.reconstruct(stcores.StraightTower(g=3, core=(), quotient=((), p, ()))),
        "component 1 is not a partition",
    ),
    "is_self_conjugate": (stcores.is_self_conjugate, "input is not a partition"),
    "zeta": (lambda p: stcores.zeta(p, 3), "input is not a partition"),
    "gamma": (lambda p: stcores.gamma(p, 3, 5), "input is not a partition"),
    "big_gamma": (lambda p: stcores.big_gamma(p, 9, 15), "input is not a partition"),
}
# Per reader of a bar partition: the call. Each refuses with one message.
BAR_PARTITION_READERS = {
    "bar_decompose": lambda b: stcores.bar_decompose(b, 3),
    "bar_length_multiset": stcores.bar_length_multiset,
    "bar_reconstruct": lambda b: stcores.bar_reconstruct(stcores.BarTower(g=3, core=b, quotient=((), ()))),
    "big_gamma_inverse": lambda b: stcores.big_gamma_inverse(b, 9, 15),
    "gamma_inverse": lambda b: stcores.gamma_inverse(b, 3, 5),
    "is_stbar_core": lambda b: stcores.is_stbar_core(b, 3, 5),
    "is_tbar_core": lambda b: stcores.is_tbar_core(b, 3),
    "olsson_encode": lambda b: stcores.olsson_encode(b, 3),
    "zeta_inverse": lambda b: stcores.zeta_inverse(b, 3),
}
# Readers that still answer for input that is not a partition (ROADMAP item
# 5): a call that shows it and what it gives, a value or an exception type.
# Once one of them refuses, its row moves to PARTITION_READERS.
STILL_ANSWER = {
    "conjugate": (lambda: stcores.conjugate((1, 2)), (2,)),
    "diagonal_hooks": (lambda: stcores.diagonal_hooks((1, 2)), IndexError),
    "first_column_hooks": (lambda: stcores.first_column_hooks((3, -1)), frozenset({4, -1})),
    "hook_length_multiset": (lambda: stcores.hook_length_multiset((1, 2)), IndexError),
    "size": (lambda: stcores.size((2, 0)), 2),
}
# The other public names, each with the reason it has no row.
NOT_READERS = {
    "canonicalize any parts by design": ("as_partition", "as_bar_partition"),
    "answers whether its input is a bar partition": ("is_bar_partition",),
    "a type; reconstruct and bar_reconstruct read a tower's parts": (
        "BarPartition", "BarTower", "CountTable", "Partition", "StraightTower", "TruncatedSeries",
    ),
    "decodes hooks, a beta-set, a charge tuple or a lattice path": (
        "from_diagonal_hooks", "from_first_column_hooks", "gks_decode", "olsson_decode", "path_to_core",
    ),
    "reads moduli, sizes, series or a suite name": (
        "anderson_grid", "barcore_counts", "barcore_gf", "congruence_scan", "convolution_psi",
        "convolution_psi_bar", "convolution_psi_star", "core_counts", "core_gf", "count_filtered",
        "dh_grid", "enumerate_bar_partitions", "enumerate_cores_by_paths", "enumerate_partitions",
        "enumerate_self_conjugate", "eta_quotient", "extremal_stats", "partition_gf", "progression_extract",
        "psi_bar_st_gf", "psi_st_gf", "psi_star_st_gf", "run_suite", "selfconj_core_counts",
        "selfconj_core_gf", "selfconj_st_core_counts", "st_core_counts", "stbar_core_counts", "yinyang_grid",
    ),
}


def test_every_public_name_is_in_the_refusal_table_or_named_with_a_reason():
    named = [
        *PARTITION_READERS,
        *BAR_PARTITION_READERS,
        *STILL_ANSWER,
        *(name for names in NOT_READERS.values() for name in names),
    ]
    assert sorted(named) == stcores.__all__


@pytest.mark.parametrize("parts", NOT_PARTITIONS)
@pytest.mark.parametrize("reader", PARTITION_READERS)
def test_every_public_partition_reader_refuses_what_is_not_a_partition(reader, parts):
    read, message = PARTITION_READERS[reader]
    with pytest.raises(ValueError, match=f"^{message}$"):
        read(parts)


@pytest.mark.parametrize("b", NOT_BAR_PARTITIONS)
@pytest.mark.parametrize("reader", BAR_PARTITION_READERS)
def test_every_public_bar_partition_reader_refuses_what_is_not_a_bar_partition(reader, b):
    with pytest.raises(ValueError, match="^input is not a bar partition$"):
        BAR_PARTITION_READERS[reader](b)


@pytest.mark.parametrize("reader", STILL_ANSWER)
def test_each_reader_left_out_of_the_refusal_table_still_answers(reader):
    call, answer = STILL_ANSWER[reader]
    if isinstance(answer, type):
        with pytest.raises(answer):
            call()
    else:
        assert call() == answer


# Per public name that takes a modulus, a divisor or a pair: the call with
# one of them as x, and its refusal. The checks of ``partitions`` refuse a
# parameter that is not an int before any range test, so 2.0 and True are
# refused here whatever the parity or the size the call asks for.
PAIR = "s and t must be integers"
MODULUS_TAKERS = {
    "BarTower": (lambda x: stcores.BarTower(g=x, core=(), quotient=((), ())), "g must be an integer"),
    "StraightTower": (lambda x: stcores.StraightTower(g=x, core=(), quotient=((), ())), "g must be an integer"),
    "anderson_grid": (lambda x: stcores.anderson_grid(x, 3), PAIR),
    "bar_decompose": (lambda x: stcores.bar_decompose((1,), x), "g must be an integer"),
    "barcore_counts": (lambda x: stcores.barcore_counts(x, 5), "t must be an integer"),
    "barcore_gf": (lambda x: stcores.barcore_gf(x, 5), "t must be an integer"),
    "big_gamma": (lambda x: stcores.big_gamma((), 3, x), PAIR),
    "big_gamma_inverse": (lambda x: stcores.big_gamma_inverse((), x, 9), PAIR),
    "congruence_scan": (lambda x: stcores.congruence_scan(stcores.core_gf(2, 5), x, 5), "g must be an integer"),
    "convolution_psi": (lambda x: stcores.convolution_psi(x, 4, 5), PAIR),
    "convolution_psi_bar": (lambda x: stcores.convolution_psi_bar(3, x, 5), PAIR),
    "convolution_psi_star": (lambda x: stcores.convolution_psi_star(x, 4, 5), PAIR),
    "core_counts": (lambda x: stcores.core_counts(x, 5), "t must be an integer"),
    "core_gf": (lambda x: stcores.core_gf(x, 5), "t must be an integer"),
    "decompose": (lambda x: stcores.decompose((1,), x), "g must be an integer"),
    "dh_grid": (lambda x: stcores.dh_grid(2, x), PAIR),
    "enumerate_cores_by_paths": (lambda x: list(stcores.enumerate_cores_by_paths("straight", x, 3)), PAIR),
    "extremal_stats": (lambda x: stcores.extremal_stats(x, 3), PAIR),
    "gamma": (lambda x: stcores.gamma((), x, 5), PAIR),
    "gamma_inverse": (lambda x: stcores.gamma_inverse((), 3, x), PAIR),
    "gks_encode": (lambda x: stcores.gks_encode((1,), x), "t must be an integer"),
    "is_st_core": (lambda x: stcores.is_st_core((1,), 2, x), PAIR),
    "is_stbar_core": (lambda x: stcores.is_stbar_core((1,), x, 5), PAIR),
    "is_t_core": (lambda x: stcores.is_t_core((1,), x), "t must be an integer"),
    "is_tbar_core": (lambda x: stcores.is_tbar_core((1,), x), "t must be an integer"),
    "olsson_encode": (lambda x: stcores.olsson_encode((1,), x), "t must be an integer"),
    "path_to_core": (lambda x: stcores.path_to_core("straight", (1, 2, 2), x, 3), PAIR),
    "progression_extract": (
        lambda x: stcores.progression_extract(stcores.core_gf(2, 5), stcores.core_gf(2, 5), x, 1),
        "g must be an integer",
    ),
    "psi_bar_st_gf": (lambda x: stcores.psi_bar_st_gf(x, 9, 5), PAIR),
    "psi_st_gf": (lambda x: stcores.psi_st_gf(2, x, 5), PAIR),
    "psi_star_st_gf": (lambda x: stcores.psi_star_st_gf(x, 4, 5), PAIR),
    "selfconj_core_counts": (lambda x: stcores.selfconj_core_counts(x, 5), "t must be an integer"),
    "selfconj_core_gf": (lambda x: stcores.selfconj_core_gf(x, 5), "t must be an integer"),
    "selfconj_st_core_counts": (lambda x: stcores.selfconj_st_core_counts(2, x, 5), PAIR),
    "st_core_counts": (lambda x: stcores.st_core_counts(x, 3, 5), PAIR),
    "stbar_core_counts": (lambda x: stcores.stbar_core_counts(3, x, 5), PAIR),
    "yinyang_grid": (lambda x: stcores.yinyang_grid(x, 5), PAIR),
    "zeta": (lambda x: stcores.zeta((), x), "t must be an integer"),
    "zeta_inverse": (lambda x: stcores.zeta_inverse((), x), "t must be an integer"),
}


def test_the_modulus_table_holds_every_public_name_that_takes_s_t_or_g():
    takers = set()
    for name in stcores.__all__:
        try:
            parameters = inspect.signature(getattr(stcores, name)).parameters
        except (TypeError, ValueError):
            continue  # an alias of tuple[int, ...]
        if {"s", "t", "g"} & set(parameters):
            takers.add(name)
    assert set(MODULUS_TAKERS) == takers


@pytest.mark.parametrize("x", (2.0, True))
@pytest.mark.parametrize("name", MODULUS_TAKERS)
def test_every_public_name_refuses_a_modulus_that_is_not_an_int(name, x):
    call, message = MODULUS_TAKERS[name]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(x)
