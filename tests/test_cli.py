"""CLI verbs driven through `main` with captured streams (the `run` fixture).

Each call is checked on its exit code, its stdout and its stderr apart: a
result goes to stdout, and a refused parameter is one `Error:` line on
stderr with nothing on stdout.
"""

from hashlib import sha256
import json
from math import gcd
import re

import pytest

from stcores import cli, lattice, oracle
from stcores import series as series_module, verify as verify_module
from stcores.cli import COUNT_CAPS, GRID_CAP, MAP_CAP, TRUNCATION_CAP
from stcores.series import TruncatedSeries


def test_documented_bijection_call(run):
    result = run("bijection", "--map", "gamma", "-s", "7", "-t", "11", "--input", "[3,3,3]")
    assert result == (0, '{"kind":"bar","parts":[6]}\n', "")


def test_documented_scan_call(run):
    result = run("scan", "--gf", "barcore", "-t", "5", "--mod", "2", "-g", "5", "-N", "60")
    assert result == (0, '{"modulus":2,"g":5,"residues":[3,4],"verified_to":60}\n', "")


def test_documented_series_call(run):
    result = run("series", "--gf", "psi", "-s", "2", "-t", "3", "-N", "5")
    assert result == (0, "n,coefficient\n0,1\n1,1\n2,0\n3,0\n4,0\n5,0\n", "")


def test_truncation_env_var_sets_the_default(run, monkeypatch):
    monkeypatch.setenv("STCORES_TRUNCATION", "3")
    result = run("series", "--gf", "psi", "-s", "2", "-t", "3")
    assert result == (0, "n,coefficient\n0,1\n1,1\n2,0\n3,0\n", "")


def test_series_json_format(run):
    code, out, err = run("series", "--gf", "partition", "-N", "4", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"coefficients": [1, 1, 2, 3, 5]}


def test_count_table_variants(run):
    assert run("count", "-t", "3", "-s", "2", "-N", "4") == (0, "n,count\n0,1\n1,1\n2,0\n3,0\n4,0\n", "")
    code, out, err = run("count", "-t", "5", "--variant", "bar", "-N", "4", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"label": "f_5bar", "counts": [1, 1, 1, 2, 2]}
    code, out, err = run("count", "-t", "8", "--variant", "selfconj", "-N", "3")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "3,1"


def test_the_coprime_bar_series_is_the_bar_count(run):
    code, out, err = run("series", "--gf", "psibar", "-s", "5", "-t", "7")
    assert (code, err) == (0, "")
    counted = out.replace("n,coefficient", "n,count", 1)
    assert run("count", "--variant", "bar", "-s", "5", "-t", "7") == (0, counted, "")


# The generating functions that count each variant: single modulus, pair.
FAMILIES = {
    "straight": ("core", "psi"),
    "selfconj": ("selfconj", "psistar"),
    "bar": ("barcore", "psibar"),
}
PAIR_ERRORS = {
    "straight": "s and t must exceed 1",
    "selfconj": "s and t must exceed 1",
    "bar": "s and t must be odd and exceed 1",
}
MODULUS_ERRORS = {
    "straight": "t must be >= 1",
    "selfconj": "t must be >= 1",
    "bar": "t must be odd and >= 1",
}


@pytest.mark.parametrize("variant", ("straight", "selfconj", "bar"))
def test_count_rejects_a_unit_modulus_like_series(run, variant):
    result = run("count", "--variant", variant, "-t", "3", "-s", "1", "-N", "4")
    assert result == (1, "", f"Error: {PAIR_ERRORS[variant]}\n")
    assert result == run("series", "--gf", FAMILIES[variant][1], "-s", "1", "-t", "3")


@pytest.mark.parametrize("variant", ("straight", "selfconj", "bar"))
@pytest.mark.parametrize(
    "moduli, refused_by",
    [
        ((4, 6), {"bar"}),
        ((1, 5), {"straight", "selfconj", "bar"}),
        ((-3, 5), {"straight", "selfconj", "bar"}),
        ((2, 4), {"bar"}),
        ((0,), {"straight", "selfconj", "bar"}),
        ((-3,), {"straight", "selfconj", "bar"}),
        ((2,), {"bar"}),
    ],
)
def test_count_series_and_scan_print_the_same_error(run, variant, moduli, refused_by):
    *s, t = moduli
    params = ("-s", str(s[0]), "-t", str(t)) if s else ("-t", str(t))
    gf = FAMILIES[variant][1 if s else 0]
    results = [
        run("count", "--variant", variant, *params, "-N", "5"),
        run("series", "--gf", gf, *params, "-N", "5"),
        run("scan", "--gf", gf, *params, "-g", "2", "--mod", "2", "-N", "5"),
    ]
    if variant not in refused_by:
        assert [(code, err) for code, _, err in results] == [(0, "")] * 3
        return
    message = (PAIR_ERRORS if s else MODULUS_ERRORS)[variant]
    assert results == [(1, "", f"Error: {message}\n")] * 3


def test_zeta_and_its_inverse_print_the_same_error(run):
    for map_name in ("zeta", "zeta-inverse"):
        result = run("bijection", "--map", map_name, "-t", "-3", "--input", "[]")
        assert result == (1, "", "Error: t must be odd and >= 1\n")


@pytest.mark.parametrize("truncation", ("0", "5"))
@pytest.mark.parametrize(
    "args, message",
    [
        (("-t", "0"), "t must be >= 1"),
        (("-t", "0", "-s", "5"), "s and t must exceed 1"),
        (("--variant", "bar", "-t", "4"), "t must be odd and >= 1"),
        (("--variant", "bar", "-t", "6"), "t must be odd and >= 1"),
        (("--variant", "bar", "-t", "-1"), "t must be odd and >= 1"),
        (("-t", "-3"), "t must be >= 1"),
        (("--variant", "selfconj", "-t", "0"), "t must be >= 1"),
        (("--variant", "selfconj", "-t", "-3"), "t must be >= 1"),
        (("--variant", "bar", "-t", "0"), "t must be odd and >= 1"),
        (("--variant", "bar", "-t", "2"), "t must be odd and >= 1"),
        (("-t", "3", "-s", "1"), "s and t must exceed 1"),
        (("--variant", "selfconj", "-t", "0", "-s", "5"), "s and t must exceed 1"),
        (("--variant", "selfconj", "-t", "3", "-s", "-2"), "s and t must exceed 1"),
        (("-t", "1", "-s", "3"), "s and t must exceed 1"),
        (("--variant", "selfconj", "-t", "4", "-s", "1"), "s and t must exceed 1"),
        (("--variant", "bar", "-t", "4", "-s", "9"), "s and t must be odd and exceed 1"),
        (("--variant", "bar", "-t", "9", "-s", "4"), "s and t must be odd and exceed 1"),
        (("--variant", "bar", "-t", "1", "-s", "3"), "s and t must be odd and exceed 1"),
        (("--variant", "bar", "-t", "4", "-s", "0"), "s and t must be odd and exceed 1"),
    ],
)
def test_count_rejects_a_bad_modulus_at_every_truncation(run, args, message, truncation):
    assert run("count", *args, "-N", truncation) == (1, "", f"Error: {message}\n")


def never(*args):
    raise AssertionError("work started")


def patch_row(monkeypatch, table, name, function):
    """Put ``function`` in the first column of ``table[name]`` for one test."""
    monkeypatch.setitem(table, name, (function, *table[name][1:]))


@pytest.mark.parametrize("variant", ("straight", "selfconj", "bar"))
def test_count_refuses_a_truncation_past_its_cap(run, variant, monkeypatch):
    patch_row(monkeypatch, cli.COUNTS, variant, never)
    cap = COUNT_CAPS[variant]
    result = run("count", "--variant", variant, "-t", "5", "-N", "200")
    assert result == (1, "", f"Error: -N 200 exceeds the brute-force cap {cap} for --variant {variant}\n")
    assert run("count", "--variant", variant, "-t", "5", "-N", str(cap + 1))[0] == 1


def test_count_caps_admit_the_documented_truncations(run, monkeypatch):
    code, out, err = run("count", "--variant", "selfconj", "-t", "10", "-N", "60")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "60,24"
    seen = []
    patch_row(monkeypatch, cli.COUNTS, "straight", lambda t, n: seen.append(n) or oracle.CountTable("f", (1,)))
    # the default -N of 60, as in the README's `count -t 3 -s 2`, is the cap
    assert run("count", "-t", "5")[0] == 0
    assert seen == [COUNT_CAPS["straight"]] == [60]


# Per --map: the moduli it reads, each at ``value``, as CLI arguments.
def map_moduli(map_name, value):
    return [word for name in cli.MAPS[map_name][1] for word in (f"-{name}", str(value))]


@pytest.mark.parametrize("map_name", cli.MAPS)
def test_every_map_refuses_a_modulus_past_the_cap_before_reading_input(run, map_name, monkeypatch):
    for name in cli.MAPS:
        patch_row(monkeypatch, cli.MAPS, name, never)
    monkeypatch.setattr(cli.formats, "parse_partition_argument", never)
    reads = cli.MAPS[map_name][1]
    for big in (MAP_CAP + 2, 10**30 + 1):
        # -s is checked before -t
        calls = [(map_moduli(map_name, big), f"-{reads[0]}")]
        if reads == "st":
            calls.append((["-s", "3", "-t", str(big)], "-t"))
        for argv, flag in calls:
            result = run("bijection", "--map", map_name, *argv, "--input", "[]")
            assert result == (1, "", f"Error: {flag} {big} exceeds the cap {MAP_CAP} for --map {map_name}\n")


@pytest.mark.parametrize("map_name", cli.MAPS)
def test_every_map_accepts_the_cap(run, map_name, monkeypatch):
    # only the admission is checked: gamma at the cap takes seconds
    seen = []
    patch_row(monkeypatch, cli.MAPS, map_name, lambda parts, *moduli: seen.append(moduli) or ())
    result = run("bijection", "--map", map_name, *map_moduli(map_name, MAP_CAP), "--input", "[]")
    forward = cli.MAPS[map_name][2]
    assert result == (0, '{"kind":"bar","parts":[]}\n' if forward else "[]\n", "")
    assert seen == [(MAP_CAP,) * len(cli.MAPS[map_name][1])]


def test_zeta_and_big_gamma_answer_at_the_cap(run):
    cap = str(MAP_CAP)
    result = run("bijection", "--map", "zeta", "-t", cap, "--input", "[]")
    assert result == (0, '{"kind":"bar","parts":[]}\n', "")
    # g = s = t: big-gamma only maps the g-core through zeta
    result = run("bijection", "--map", "big-gamma", "-s", cap, "-t", cap, "--input", "[]")
    assert result == (0, '{"kind":"bar","parts":[]}\n', "")


# Every choice of --gf and --map, with each modulus it does not read.
UNREAD = [
    (verb, option, choice, name)
    for verb, option, table in (
        ("series", "--gf", cli.GENERATING_FUNCTIONS),
        ("scan", "--gf", cli.GENERATING_FUNCTIONS),
        ("bijection", "--map", cli.MAPS),
    )
    for choice, row in table.items()
    for name in "st"
    if name not in row[1]
]
VERB_ARGS = {"series": (), "scan": ("-g", "5", "--mod", "5"), "bijection": ("--input", "[]")}


@pytest.mark.parametrize("value", ("5", "-7"))
@pytest.mark.parametrize("verb, option, choice, name", UNREAD)
def test_a_modulus_the_choice_does_not_read_is_refused(run, monkeypatch, verb, option, choice, name, value):
    table = cli.GENERATING_FUNCTIONS if option == "--gf" else cli.MAPS
    patch_row(monkeypatch, table, choice, never)
    monkeypatch.setattr(cli.formats, "parse_partition_argument", never)
    read = [word for other in table[choice][1] for word in (f"-{other}", "3")]
    result = run(verb, option, choice, *read, f"-{name}", value, *VERB_ARGS[verb])
    assert result == (1, "", f"Error: {option} {choice} does not read -{name}\n")
    # partition reads neither modulus, the single-modulus series and zeta read -t alone
    assert len(UNREAD) == 2 * (2 + 3) + 2


@pytest.mark.parametrize(
    "argv, message",
    [
        *[
            ((verb, "--gf", gf, *VERB_ARGS[verb]), f"--gf {gf} needs -t")
            for verb in ("series", "scan")
            for gf in ("core", "selfconj", "barcore")
        ],
        *[
            ((verb, "--gf", gf, *moduli, *VERB_ARGS[verb]), f"--gf {gf} needs both -s and -t")
            for verb in ("series", "scan")
            for gf in ("psi", "psistar", "psibar")
            for moduli in ((), ("-s", "3"), ("-t", "5"))
        ],
        # refused before --input is read: "oops" is not JSON
        *[
            (("bijection", "--map", name, "-t", "5", "--input", "oops"), f"{name} needs both -s and -t")
            for name in ("gamma", "gamma-inverse", "big-gamma", "big-gamma-inverse")
        ],
    ],
)
def test_a_missing_modulus_is_refused_before_any_work(run, monkeypatch, argv, message):
    for table in (cli.GENERATING_FUNCTIONS, cli.MAPS):
        for name in table:
            patch_row(monkeypatch, table, name, never)
    monkeypatch.setattr(cli.formats, "parse_partition_argument", never)
    assert run(*argv) == (1, "", f"Error: {message}\n")


def test_grid_kinds(run):
    assert run("grid", "--kind", "yinyang", "-s", "3", "-t", "5") == (0, "2,-1\n", "")
    assert run("grid", "--kind", "dh", "-s", "3", "-t", "5") == (0, "7,1\n", "")
    assert run("grid", "--kind", "dh", "-s", "4", "-t", "5") == (0, "11,3\n1,-7\n", "")
    assert run("grid", "--kind", "anderson", "-s", "2", "-t", "3") == (0, "1,-1,-3\n-2,-4,-6\n", "")


# Per kind: the grid's rows and columns, and the value of cell (i, j),
# 1-indexed from the top left, as each builder's docstring states them.
GRID_FORMULAS = {
    "anderson": (lambda s, t: (s, t), lambda s, t, i, j: s * t - s - t - (j - 1) * s - (i - 1) * t),
    "dh": (lambda s, t: (s // 2, t // 2), lambda s, t, i, j: s * t - s * (2 * j - 1) - t * (2 * i - 1)),
    "yinyang": (lambda s, t: ((s - 1) // 2, (t - 1) // 2), lambda s, t, i, j: t * ((s + 1) // 2 - i) - s * j),
}


@pytest.mark.parametrize("kind", sorted(GRID_FORMULAS))
def test_grid_prints_each_cell_by_its_formula_top_row_first(run, kind):
    shape, cell = GRID_FORMULAS[kind]
    pairs = [(s, t) for s in range(2, 16) for t in range(2, 16) if gcd(s, t) == 1]
    if kind == "yinyang":
        pairs = [(s, t) for s, t in pairs if s % 2 and t % 2 and s < t]
    for s, t in pairs:
        rows, cols = shape(s, t)
        want = "".join(
            ",".join(str(cell(s, t, i, j)) for j in range(1, cols + 1)) + "\n" for i in range(1, rows + 1)
        )
        assert run("grid", "--kind", kind, "-s", str(s), "-t", str(t)) == (0, want, "")


def test_psistar_of_a_large_mixed_parity_reduced_pair_finishes(run):
    # g = 3 and reduced pair (13, 14): 2.0e7 Anderson paths, 1716 diagonal-hooks paths
    code, out, err = run("series", "--gf", "psistar", "-s", "39", "-t", "42", "-N", "60")
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 61
    want = oracle.selfconj_st_core_counts(39, 42, 40).counts
    assert [int(row.split(",")[1]) for row in rows[:41]] == list(want)


@pytest.mark.parametrize("kind", sorted(cli.GRIDS))
def test_grid_refuses_a_parameter_past_its_cap(run, kind, monkeypatch):
    cap = cli.GRIDS[kind][1]
    patch_row(monkeypatch, cli.GRIDS, kind, never)
    for big in (cap + 2, 10**30 + 1):
        # -s is checked before -t
        for s, flag in ((big, "-s"), (3, "-t")):
            result = run("grid", "--kind", kind, "-s", str(s), "-t", str(big))
            assert result == (1, "", f"Error: {flag} {big} exceeds the cap {cap} for --kind {kind}\n")


def test_grid_accepts_its_cap(run, monkeypatch):
    # anderson's s x t grid has four times the cells of the other two
    seen = []
    for kind in cli.GRIDS:
        patch_row(monkeypatch, cli.GRIDS, kind, lambda s, t: seen.append((s, t)) or ((1,),))
    for kind, (_, cap) in cli.GRIDS.items():
        assert run("grid", "--kind", kind, "-s", str(cap - 2), "-t", str(cap)) == (0, "1\n", "")
    assert seen == [(GRID_CAP - 2, GRID_CAP)] + [(2 * GRID_CAP - 3, 2 * GRID_CAP - 1)] * 2


JOINT = ("psi", "psistar", "psibar")


@pytest.mark.parametrize("verb", ("series", "scan"))
@pytest.mark.parametrize("gf, kind", zip(JOINT, ("straight", "selfconj", "bar")))
def test_joint_series_refuse_a_census_past_the_work_cap_before_any_census(run, gf, kind, verb, monkeypatch):
    monkeypatch.setattr(series_module, "census_by_size", never)
    # odd pairs, so that psibar reads them too; the last reduces by g = 3 to
    # (3, 10001), whose straight census comes first in every family
    for s, t, census in (
        (3, 10**30 + 1, f"{kind} census of (3, {10**30 + 1}) to size 60"),
        (9, 3 * 10001, f"straight census of (3, 10001) to size {60 // (6 if gf == 'psistar' else 3)}"),
    ):
        result = run(verb, "--gf", gf, "-s", str(s), "-t", str(t), *VERB_ARGS[verb])
        assert result == (1, "", f"Error: the {census} exceeds the work cap 300000000\n")


@pytest.mark.parametrize("gf", JOINT)
def test_joint_series_take_a_reduced_pair_past_the_old_pair_cap(run, gf, monkeypatch):
    seen = []
    monkeypatch.setattr(series_module, "census_by_size", lambda kind, s, t, limit: seen.append((s, t)) or (1,))
    # before reduction and after
    for s, t in ((3999, 4001), (3 * 4001, 3 * 3999)):
        result = run("series", "--gf", gf, "-s", str(s), "-t", str(t), "-N", "0")
        assert result == (0, "n,coefficient\n0,1\n", "")
    assert set(seen) == {(3999, 4001), (4001, 3999)}


@pytest.mark.parametrize("verb", ("series", "scan", "verify"))
def test_a_truncation_past_its_cap_is_refused_before_any_work(run, verb, monkeypatch):
    for name in cli.GENERATING_FUNCTIONS:
        patch_row(monkeypatch, cli.GENERATING_FUNCTIONS, name, never)
    for name in verify_module.SUITES:
        monkeypatch.setitem(verify_module.SUITES, name, never)
    args = ("all",) if verb == "verify" else ("--gf", "core", "-t", "5", *VERB_ARGS[verb])
    for big in (TRUNCATION_CAP + 1, 10**30):
        assert run(verb, *args, "-N", str(big)) == (1, "", f"Error: -N {big} exceeds the cap {TRUNCATION_CAP}\n")
        # the default read from the environment is refused the same way
        monkeypatch.setenv("STCORES_TRUNCATION", str(big))
        assert run(verb, *args) == (1, "", f"Error: -N {big} exceeds the cap {TRUNCATION_CAP}\n")
        monkeypatch.delenv("STCORES_TRUNCATION")


def test_a_truncation_at_its_cap_is_accepted(run, monkeypatch):
    seen = []
    patch_row(monkeypatch, cli.GENERATING_FUNCTIONS, "core", lambda t, n: seen.append(n) or TruncatedSeries([1]))
    for name in verify_module.SUITES:
        monkeypatch.setitem(verify_module.SUITES, name, lambda n: seen.append(n) or [])
    cap = str(TRUNCATION_CAP)
    assert run("series", "--gf", "core", "-t", "5", "-N", cap) == (0, "n,coefficient\n0,1\n", "")
    assert run("scan", "--gf", "core", "-t", "5", *VERB_ARGS["scan"], "-N", cap)[::2] == (0, "")
    assert run("verify", "all", "-N", cap)[::2] == (0, "")
    assert seen == [TRUNCATION_CAP] * (2 + len(verify_module.SUITES))


def test_grid_rejects_bad_parameters(run):
    code, out, err = run("grid", "--kind", "anderson", "-s", "4", "-t", "6")
    assert (code, out) == (1, "")
    assert "coprime" in err


def test_bijection_inverse_maps(run):
    result = run("bijection", "--map", "zeta", "-t", "3", "--input", "[4,2,1,1]")
    assert result == (0, '{"kind":"bar","parts":[4,1]}\n', "")
    result = run(
        "bijection", "--map", "zeta-inverse", "-t", "3",
        "--input", '{"kind":"bar","parts":[4,1]}',
    )
    assert result == (0, "[4,2,1,1]\n", "")
    result = run(
        "bijection", "--map", "big-gamma-inverse", "-s", "9", "-t", "15",
        "--input", '{"kind":"bar","parts":[3]}',
    )
    assert result == (0, "[]\n", "")


def test_bijection_rejects_mismatched_input_kinds(run):
    code, out, _ = run(
        "bijection", "--map", "gamma", "-s", "7", "-t", "11",
        "--input", '{"kind":"bar","parts":[6]}',
    )
    assert (code, out) == (1, "")
    code, out, err = run("bijection", "--map", "gamma", "-t", "11", "--input", "[3,3,3]")
    assert (code, out) == (1, "")
    assert "-s" in err


def test_bijection_canonicalizes_each_input_once_as_the_kind_its_map_reads(run, monkeypatch):
    calls = []
    for name in ("as_partition", "as_bar_partition"):

        def counted(parts, real=getattr(cli, name), name=name):
            calls.append(name)
            return real(parts)

        monkeypatch.setattr(cli, name, counted)
    bar = '{"kind":"bar","parts":[1,4]}'
    result = run("bijection", "--map", "zeta-inverse", "-t", "3", "--input", bar)
    assert result == (0, "[4,2,1,1]\n", "")
    result = run("bijection", "--map", "zeta", "-t", "3", "--input", "[1,0,1,2,4]")
    assert result == (0, '{"kind":"bar","parts":[4,1]}\n', "")
    result = run("bijection", "--map", "gamma-inverse", "-s", "7", "-t", "11", "--input", "[6]")
    assert result == (0, "[3,3,3]\n", "")
    assert calls == ["as_bar_partition", "as_partition", "as_bar_partition"]


@pytest.mark.parametrize(
    "map_name, text, message",
    (
        ("zeta-inverse", '{"kind":"bar","parts":[2,2]}', "bar partition parts must be distinct"),
        ("zeta-inverse", "[3,-1]", "partition parts must be nonnegative, got -1"),
        ("zeta", "[3,-1]", "partition parts must be nonnegative, got -1"),
        ("zeta", '{"kind":"bar","parts":[2,2]}', "zeta expects a straight partition as input"),
    ),
)
def test_bijection_refuses_bad_parts_in_one_line(run, map_name, text, message):
    assert run("bijection", "--map", map_name, "-t", "3", "--input", text) == (1, "", f"Error: {message}\n")


PAIR_MAPS = {
    "gamma": lattice.gamma,
    "gamma-inverse": lattice.gamma_inverse,
    "big-gamma": lattice.big_gamma,
    "big-gamma-inverse": lattice.big_gamma_inverse,
}


@pytest.mark.parametrize(
    "map_name, parts, s, t, message",
    (
        ("gamma", (2,), 7, 11, "input is not self-conjugate"),
        ("gamma", (4, 1, 1, 1), 7, 11, "input is not an (s,t)-core"),
        ("gamma", (2,), 6, 11, "s and t must be odd and exceed 1"),
        ("gamma", (2,), 9, 15, "s and t must be coprime"),
        ("gamma", (2,), 1, 3, "s and t must be odd and exceed 1"),
        ("gamma-inverse", (7,), 7, 11, "input is not an (s-bar, t-bar)-core"),
        ("gamma-inverse", (7,), 6, 11, "s and t must be odd and exceed 1"),
        ("gamma-inverse", (7,), 9, 15, "s and t must be coprime"),
        ("big-gamma", (2,), 9, 15, "input is not self-conjugate"),
        ("big-gamma", (5, 1, 1, 1, 1), 9, 15, "input is not an (s,t)-core"),
        ("big-gamma", (2,), 3, 5, "gcd(s, t) must exceed 1"),
        ("big-gamma", (2,), 6, 10, "s and t must be odd and exceed 1"),
        ("big-gamma-inverse", (9,), 9, 15, "input is not an (s-bar, t-bar)-core"),
        ("big-gamma-inverse", (9,), 3, 5, "gcd(s, t) must exceed 1"),
        ("big-gamma-inverse", (9,), 6, 10, "s and t must be odd and exceed 1"),
    ),
)
def test_pair_maps_refuse_bad_input_in_the_library_and_the_cli(run, map_name, parts, s, t, message):
    # The pair is checked first, then self-conjugacy, then membership.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PAIR_MAPS[map_name](parts, s, t)
    text = json.dumps(list(parts))
    result = run("bijection", "--map", map_name, "-s", str(s), "-t", str(t), "--input", text)
    assert result == (1, "", f"Error: {message}\n")


def test_bijection_rejects_bad_json(run):
    code, out, err = run("bijection", "--map", "zeta", "-t", "3", "--input", "oops")
    assert (code, out) == (1, "")
    assert "JSON" in err


def test_scan_on_a_joint_series(run):
    code, out, err = run("scan", "--gf", "psi", "-s", "10", "-t", "15", "--mod", "5", "-g", "5", "-N", "30")
    assert (code, err) == (0, "")
    assert 4 in json.loads(out)["residues"]


def test_verify_single_suite_passes(run):
    code, out, err = run("verify", "examples")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[-1] == "all 20 checks passed"
    assert all(" PASS " in line for line in lines[:-1])


@pytest.mark.parametrize("truncation", ("0", "1"))
def test_verify_all_at_a_tiny_truncation_keeps_every_check(run, truncation):
    code, out, err = run("verify", "all", "-N", truncation)
    assert (code, err) == (0, "")
    # Two counting labels name their cap, min(N, 40); set to 40, the report
    # is byte for byte the one `verify all -N 40` prints.
    text = re.sub(f"enumeration to {truncation}$", "enumeration to 40", out, flags=re.M)
    assert sha256(text.encode()).hexdigest() == (
        "fd5134f05a628dee47fc9cafa32f142f2be6ee336f52f1ef663e6778e79a9ee0"
    )


def test_verify_report_records_every_printed_check(run, tmp_path):
    code, plain, err = run("verify", "all", "-N", "5")
    assert (code, err) == (0, "")
    path = tmp_path / "report.json"
    assert run("verify", "all", "-N", "5", "--report", str(path)) == (0, plain, "")
    report = json.loads(path.read_text())
    assert report["truncation"] == 5
    printed = [tuple(line.split(" PASS ", 1)) for line in plain.splitlines()[:-1]]
    recorded = [
        (f"[{suite['name']}]", check["label"]) for suite in report["suites"] for check in suite["checks"]
    ]
    assert recorded == printed
    assert [suite["name"] for suite in report["suites"]] == sorted(verify_module.SUITES)
    assert all(check["passed"] for suite in report["suites"] for check in suite["checks"])
    assert all(suite["wall_s"] >= 0 for suite in report["suites"])
    details = {check["label"]: check["detail"] for suite in report["suites"] for check in suite["checks"]}
    assert details["conjugation is an involution preserving hooks"] == "all 19 cases"


def test_verify_report_says_which_member_scans_saw_no_coefficient(run, tmp_path):
    # -N 3 reaches no exponent 5k+4, 7k+5 or 11k+6: the six member scans pass
    # as before, and the report says that they examined nothing
    path = tmp_path / "report.json"
    code, out, err = run("verify", "congruence", "-N", "3", "--report", str(path))
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "all 12 checks passed"
    (suite,) = json.loads(path.read_text())["suites"]
    scans = [(check["passed"], check["detail"]) for check in suite["checks"][:6]]
    assert scans == [(True, f"no coefficient on {p} up to 3") for p in ("5k+4", "7k+5", "11k+6") * 2]
    # one step further, 5k+4 has its first term
    run("verify", "congruence", "-N", "4", "--report", str(path))
    (suite,) = json.loads(path.read_text())["suites"]
    assert suite["checks"][0]["detail"] == "scan to 4 reports residues (4,)"
    # the (15-bar,25-bar) check reads the nonresidues 5k+3 and 5k+4 together:
    # -N 2 reaches neither, and -N 3 scans the first of them
    bar_label = "(15-bar,25-bar)-core counts even on the nonresidue progressions"
    for limit, detail in (("2", "no coefficient on 5k+3 or 5k+4 up to 2"), ("3", "scan to 3 reports residues (3,)")):
        code, out, err = run("verify", "congruence", "-N", limit, "--report", str(path))
        assert (code, err, out.splitlines()[-1]) == (0, "", "all 12 checks passed")
        (suite,) = json.loads(path.read_text())["suites"]
        assert suite["checks"][7] == {"label": bar_label, "passed": True, "detail": detail}


def test_verify_report_is_not_written_for_an_unknown_suite(run, tmp_path):
    path = tmp_path / "report.json"
    assert run("verify", "nope", "--report", str(path))[:2] == (1, "")
    assert not path.exists()


def test_verify_report_to_a_missing_directory_is_a_one_line_error(run, tmp_path):
    path = tmp_path / "no" / "such" / "report.json"
    # `run` reads a nonzero code only from SystemExit; any other exception propagates
    code, out, err = run("verify", "examples", "--report", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("Error: ") and err.count("\n") == 1
    assert "No such file or directory" in err
    assert not path.parent.exists()


def test_verify_rejects_unknown_suite(run):
    code, out, err = run("verify", "nope")
    assert (code, out) == (1, "")
    assert "examples" in err


def test_verify_exits_nonzero_on_a_failing_check_and_still_writes_the_report(run, monkeypatch, tmp_path):
    checks = [("a check that holds", True, ""), ("a stubbed check", False, "got 1, expected 2")]
    monkeypatch.setitem(verify_module.SUITES, "examples", lambda n: checks)
    path = tmp_path / "report.json"
    out = "\n".join(
        (
            "[examples] PASS a check that holds",
            "[examples] FAIL a stubbed check: got 1, expected 2",
            "1 of 2 checks failed\n",
        )
    )
    assert run("verify", "examples", "--report", str(path)) == (1, out, "")
    (suite,) = json.loads(path.read_text())["suites"]
    assert [tuple(check.values()) for check in suite["checks"]] == checks


@pytest.mark.parametrize("flag", ("--version", "--help"))
def test_top_level_flags(run, flag):
    code, out, err = run(flag)
    assert (code, err) == (0, "")
    assert out
