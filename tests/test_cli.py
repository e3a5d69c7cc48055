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

from stcores import cli, oracle
from stcores import verify as verify_module
from stcores.cli import COUNT_CAPS


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


COUNTERS = {
    "straight": "core_counts",
    "selfconj": "selfconj_core_counts",
    "bar": "barcore_counts",
}


@pytest.mark.parametrize("variant", ("straight", "selfconj", "bar"))
def test_count_refuses_a_truncation_past_its_cap(run, variant, monkeypatch):
    def never(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(oracle, COUNTERS[variant], never)
    cap = COUNT_CAPS[variant]
    result = run("count", "--variant", variant, "-t", "5", "-N", "200")
    assert result == (1, "", f"Error: -N 200 exceeds the brute-force cap {cap} for --variant {variant}\n")
    assert run("count", "--variant", variant, "-t", "5", "-N", str(cap + 1))[0] == 1


def test_count_caps_admit_the_documented_truncations(run, monkeypatch):
    code, out, err = run("count", "--variant", "selfconj", "-t", "10", "-N", "60")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "60,24"
    seen = []
    monkeypatch.setattr(
        oracle, "core_counts", lambda t, n: seen.append(n) or oracle.CountTable("f", (1,))
    )
    # the default -N of 60, as in the README's `count -t 3 -s 2`, is the cap
    assert run("count", "-t", "5")[0] == 0
    assert seen == [COUNT_CAPS["straight"]] == [60]


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


@pytest.mark.parametrize("flag", ("--version", "--help"))
def test_top_level_flags(run, flag):
    code, out, err = run(flag)
    assert (code, err) == (0, "")
    assert out
