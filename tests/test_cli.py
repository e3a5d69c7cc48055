from hashlib import sha256
import json
import re

from click.testing import CliRunner
import pytest

from stcores import oracle
from stcores import verify as verify_module
from stcores.cli import COUNT_CAPS, main


runner = CliRunner()


def invoke(*args, **kwargs):
    result = runner.invoke(main, list(args), **kwargs)
    return result


def test_documented_bijection_call():
    result = invoke("bijection", "--map", "gamma", "-s", "7", "-t", "11", "--input", "[3,3,3]")
    assert result.exit_code == 0
    assert result.output == '{"kind":"bar","parts":[6]}\n'


def test_documented_scan_call():
    result = invoke("scan", "--gf", "barcore", "-t", "5", "--mod", "2", "-g", "5", "-N", "60")
    assert result.exit_code == 0
    assert result.output == '{"modulus":2,"g":5,"residues":[3,4],"verified_to":60}\n'


def test_documented_series_call():
    result = invoke("series", "--gf", "psi", "-s", "2", "-t", "3", "-N", "5")
    assert result.exit_code == 0
    assert result.output == "n,coefficient\n0,1\n1,1\n2,0\n3,0\n4,0\n5,0\n"


def test_truncation_env_var_sets_the_default():
    result = invoke(
        "series", "--gf", "psi", "-s", "2", "-t", "3",
        env={"STCORES_TRUNCATION": "3"},
    )
    assert result.exit_code == 0
    assert result.output == "n,coefficient\n0,1\n1,1\n2,0\n3,0\n"


def test_series_json_format():
    result = invoke("series", "--gf", "partition", "-N", "4", "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output) == {"coefficients": [1, 1, 2, 3, 5]}


def test_count_table_variants():
    result = invoke("count", "-t", "3", "-s", "2", "-N", "4")
    assert result.exit_code == 0
    assert result.output == "n,count\n0,1\n1,1\n2,0\n3,0\n4,0\n"
    result = invoke("count", "-t", "5", "--variant", "bar", "-N", "4", "--format", "json")
    assert result.exit_code == 0
    assert json.loads(result.output) == {"label": "f_5bar", "counts": [1, 1, 1, 2, 2]}
    result = invoke("count", "-t", "8", "--variant", "selfconj", "-N", "3")
    assert result.output.splitlines()[-1] == "3,1"


@pytest.mark.parametrize("variant", ("straight", "selfconj", "bar"))
def test_count_rejects_a_unit_modulus_like_series(variant):
    result = invoke("count", "--variant", variant, "-t", "3", "-s", "1", "-N", "4")
    assert result.exit_code != 0
    assert "s and t must exceed 1" in result.output
    assert result.output == invoke("series", "--gf", "psi", "-s", "1", "-t", "3").output


@pytest.mark.parametrize("truncation", ("0", "5"))
@pytest.mark.parametrize(
    "args, message",
    [
        (("-t", "0"), "t must be >= 1"),
        (("-t", "0", "-s", "5"), "s and t must exceed 1"),
        (("--variant", "bar", "-t", "4"), "t must be odd and >= 1"),
        (("--variant", "bar", "-t", "4", "-s", "9"), "t must be odd and >= 1"),
        (("--variant", "bar", "-t", "9", "-s", "4"), "t must be odd and >= 1"),
    ],
)
def test_count_rejects_a_bad_modulus_at_every_truncation(args, message, truncation):
    result = invoke("count", *args, "-N", truncation)
    assert result.exit_code == 1
    assert result.output == f"Error: {message}\n"


COUNTERS = {
    "straight": "core_counts",
    "selfconj": "selfconj_core_counts",
    "bar": "barcore_counts",
}


@pytest.mark.parametrize("variant", ("straight", "selfconj", "bar"))
def test_count_refuses_a_truncation_past_its_cap(variant, monkeypatch):
    def never(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(oracle, COUNTERS[variant], never)
    cap = COUNT_CAPS[variant]
    result = invoke("count", "--variant", variant, "-t", "5", "-N", "200")
    assert result.exit_code == 1
    assert result.output == f"Error: -N 200 exceeds the brute-force cap {cap} for --variant {variant}\n"
    assert invoke("count", "--variant", variant, "-t", "5", "-N", str(cap + 1)).exit_code == 1


def test_count_caps_admit_the_documented_truncations(monkeypatch):
    result = invoke("count", "--variant", "selfconj", "-t", "10", "-N", "60")
    assert result.exit_code == 0
    assert result.output.splitlines()[-1] == "60,24"
    seen = []
    monkeypatch.setattr(
        oracle, "core_counts", lambda t, n: seen.append(n) or oracle.CountTable("f", (1,))
    )
    # the default -N of 60, as in the README's `count -t 3 -s 2`, is the cap
    assert invoke("count", "-t", "5").exit_code == 0
    assert seen == [COUNT_CAPS["straight"]] == [60]


def test_grid_kinds():
    assert invoke("grid", "--kind", "yinyang", "-s", "3", "-t", "5").output == "2,-1\n"
    assert invoke("grid", "--kind", "dh", "-s", "3", "-t", "5").output == "7,1\n"
    assert invoke("grid", "--kind", "dh", "-s", "4", "-t", "5").output == "11,3\n1,-7\n"
    anderson = invoke("grid", "--kind", "anderson", "-s", "2", "-t", "3")
    assert anderson.output == "1,-1,-3\n-2,-4,-6\n"


def test_psistar_of_a_large_mixed_parity_reduced_pair_finishes():
    # g = 3 and reduced pair (13, 14): 2.0e7 Anderson paths, 1716 diagonal-hooks paths
    result = invoke("series", "--gf", "psistar", "-s", "39", "-t", "42", "-N", "60")
    assert result.exit_code == 0
    rows = result.output.splitlines()[1:]
    assert len(rows) == 61
    want = oracle.selfconj_st_core_counts(39, 42, 40).counts
    assert [int(row.split(",")[1]) for row in rows[:41]] == list(want)


def test_grid_rejects_bad_parameters():
    result = invoke("grid", "--kind", "anderson", "-s", "4", "-t", "6")
    assert result.exit_code != 0
    assert "coprime" in result.output


def test_bijection_inverse_maps():
    result = invoke("bijection", "--map", "zeta", "-t", "3", "--input", "[4,2,1,1]")
    assert result.output == '{"kind":"bar","parts":[4,1]}\n'
    result = invoke(
        "bijection", "--map", "zeta-inverse", "-t", "3",
        "--input", '{"kind":"bar","parts":[4,1]}',
    )
    assert result.output == "[4,2,1,1]\n"
    result = invoke(
        "bijection", "--map", "big-gamma-inverse", "-s", "9", "-t", "15",
        "--input", '{"kind":"bar","parts":[3]}',
    )
    assert result.output == "[]\n"


def test_bijection_rejects_mismatched_input_kinds():
    result = invoke(
        "bijection", "--map", "gamma", "-s", "7", "-t", "11",
        "--input", '{"kind":"bar","parts":[6]}',
    )
    assert result.exit_code != 0
    result = invoke("bijection", "--map", "gamma", "-t", "11", "--input", "[3,3,3]")
    assert result.exit_code != 0
    assert "-s" in result.output


def test_bijection_rejects_bad_json():
    result = invoke("bijection", "--map", "zeta", "-t", "3", "--input", "oops")
    assert result.exit_code != 0
    assert "JSON" in result.output


def test_scan_on_a_joint_series():
    result = invoke("scan", "--gf", "psi", "-s", "10", "-t", "15", "--mod", "5", "-g", "5", "-N", "30")
    assert result.exit_code == 0
    assert 4 in json.loads(result.output)["residues"]


def test_verify_single_suite_passes():
    result = invoke("verify", "examples")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[-1] == "all 20 checks passed"
    assert all(" PASS " in line for line in lines[:-1])


@pytest.mark.parametrize("truncation", ("0", "1"))
def test_verify_all_at_a_tiny_truncation_keeps_every_check(truncation):
    result = invoke("verify", "all", "-N", truncation)
    assert result.exit_code == 0
    # Two counting labels name their cap, min(N, 40); set to 40, the report
    # is byte for byte the one `verify all -N 40` prints.
    text = re.sub(f"enumeration to {truncation}$", "enumeration to 40", result.output, flags=re.M)
    assert sha256(text.encode()).hexdigest() == (
        "fd5134f05a628dee47fc9cafa32f142f2be6ee336f52f1ef663e6778e79a9ee0"
    )


def test_verify_report_records_every_printed_check(tmp_path):
    plain = invoke("verify", "all", "-N", "5")
    path = tmp_path / "report.json"
    reported = invoke("verify", "all", "-N", "5", "--report", str(path))
    assert plain.exit_code == reported.exit_code == 0
    assert reported.output == plain.output
    report = json.loads(path.read_text())
    assert report["truncation"] == 5
    printed = [tuple(line.split(" PASS ", 1)) for line in plain.output.splitlines()[:-1]]
    recorded = [
        (f"[{suite['name']}]", check["label"]) for suite in report["suites"] for check in suite["checks"]
    ]
    assert recorded == printed
    assert [suite["name"] for suite in report["suites"]] == sorted(verify_module.SUITES)
    assert all(check["passed"] for suite in report["suites"] for check in suite["checks"])
    assert all(suite["wall_s"] >= 0 for suite in report["suites"])
    details = {check["label"]: check["detail"] for suite in report["suites"] for check in suite["checks"]}
    assert details["conjugation is an involution preserving hooks"] == "all 19 cases"


def test_verify_report_is_not_written_for_an_unknown_suite(tmp_path):
    path = tmp_path / "report.json"
    assert invoke("verify", "nope", "--report", str(path)).exit_code != 0
    assert not path.exists()


def test_verify_report_to_a_missing_directory_is_a_one_line_error(tmp_path):
    path = tmp_path / "no" / "such" / "report.json"
    result = invoke("verify", "examples", "--report", str(path))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.output.splitlines()[-1].startswith("Error: ")
    assert "No such file or directory" in result.output.splitlines()[-1]
    assert not path.parent.exists()


def test_verify_rejects_unknown_suite():
    result = invoke("verify", "nope")
    assert result.exit_code != 0
    assert "examples" in result.output


@pytest.mark.parametrize("flag", ("--version", "--help"))
def test_top_level_flags(flag):
    assert invoke(flag).exit_code == 0
