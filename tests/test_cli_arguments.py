"""Argument checks of the CLI, driven through `main` with captured streams.

A bad option value is a usage error: exit 2, nothing on stdout, and a
message on stderr naming the option. A bad parameter that the library
refuses prints one `Error:` line to stderr and exits 1.
"""

import os
from pathlib import Path
import subprocess
import sys

import pytest

import stcores
from stcores import cli


def test_version_prints_the_program_and_version(run):
    assert run("--version") == (0, "stcores, version 0.1.0\n", "")


@pytest.mark.parametrize(
    "args",
    (
        ("count", "-t", "5"),
        ("series", "--gf", "partition"),
        ("scan", "--gf", "partition", "-g", "5", "--mod", "5"),
        ("verify", "examples"),
    ),
)
def test_a_negative_truncation_is_refused(run, args):
    code, out, err = run(*args, "-N", "-1")
    assert (code, out) == (2, "")
    assert "argument -N/--truncation: '-1' is not a nonnegative integer" in err


@pytest.mark.parametrize("value", ("-1", "abc"))
def test_a_bad_truncation_in_the_environment_is_refused(run, monkeypatch, value):
    monkeypatch.setenv("STCORES_TRUNCATION", value)
    code, out, err = run("series", "--gf", "partition")
    assert (code, out) == (2, "")
    assert f"argument -N/--truncation: '{value}' is not a nonnegative integer" in err
    # an explicit -N wins and never reads the variable
    assert run("series", "--gf", "partition", "-N", "2") == (0, "n,coefficient\n0,1\n1,1\n2,2\n", "")


@pytest.mark.parametrize(
    "args, option",
    (
        (("series", "--gf", "eta"), "--gf"),
        (("scan", "--gf", "eta", "-g", "5", "--mod", "5"), "--gf"),
        (("series", "--gf", "partition", "--format", "xml"), "--format"),
        (("count", "-t", "5", "--variant", "shifted"), "--variant"),
        (("grid", "--kind", "hex", "-s", "2", "-t", "3"), "--kind"),
        (("bijection", "--map", "omega", "-t", "3", "--input", "[]"), "--map"),
    ),
)
def test_an_unknown_choice_is_refused(run, args, option):
    code, out, err = run(*args)
    assert (code, out) == (2, "")
    assert f"argument {option}: invalid choice" in err


def test_a_refused_parameter_is_one_line_on_stderr(run):
    assert run("count", "-t", "0", "-N", "5") == (1, "", "Error: t must be >= 1\n")


@pytest.mark.parametrize(
    "params, message",
    (
        (("-g", "1", "--mod", "2"), "g must be >= 2"),
        (("-g", "0", "--mod", "1"), "g must be >= 2"),
        (("-g", "2", "--mod", "1"), "modulus must be >= 2"),
        (("-g", "5", "--mod", "-3"), "modulus must be >= 2"),
    ),
)
def test_scan_refuses_a_small_divisor_or_modulus_in_one_line(run, params, message):
    assert run("scan", "--gf", "partition", *params, "-N", "5") == (1, "", f"Error: {message}\n")


def test_a_lopsided_pair_passes_the_census_work_cap_at_the_default_truncation(run):
    # The (2,1601)-cores are the 801 staircases; those up to size 60 have
    # sizes k(k+1)/2 for k = 0..10.
    code, out, err = run("series", "--gf", "psi", "-s", "2", "-t", "1601")
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    staircases = [str(k * (k + 1) // 2) for k in range(11)]
    assert [n for n, c in (row.split(",") for row in rows) if c == "1"] == staircases
    assert len(rows) == 61


def test_scan_reports_no_residue_beyond_the_truncation(run):
    # p(1) = 1: at -N 0 no residue but 0 has a coefficient to check.
    assert run("scan", "--gf", "partition", "-g", "5", "--mod", "5", "-N", "0") == (
        0, '{"modulus":5,"g":5,"residues":[],"verified_to":0}\n', ""
    )


def test_a_report_path_that_is_a_directory_is_a_one_line_error(run, tmp_path):
    # The report is opened before any suite runs, so no check prints.
    code, out, err = run("verify", "examples", "--report", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("Error: ") and "Is a directory" in err and err.count("\n") == 1


def test_a_closed_stdout_ends_the_call_quietly():
    # The reader is gone before the child prints, as when `| head` exits.
    src = str(Path(stcores.__file__).parents[1])
    child = subprocess.Popen(
        [sys.executable, "-c", "from stcores.cli import main; main(['series', '--gf', 'partition'])"],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert err == b""


def test_a_broken_pipe_points_stdout_at_devnull_and_exits_1(monkeypatch, tmp_path, capsys):
    # The same exit in this process: stdout's descriptor is left on devnull,
    # so the interpreter's final flush cannot fail again.
    def closed(text):
        raise BrokenPipeError

    monkeypatch.setattr(cli, "_echo", closed)
    with open(tmp_path / "stdout", "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(SystemExit) as stop:
            cli.main(["series", "--gf", "partition", "-N", "5"])
        assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
    assert stop.value.code == 1
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "map_name, pair",
    (("zeta", ("-t", "3")), ("gamma", ("-s", "7", "-t", "11")), ("big-gamma", ("-s", "21", "-t", "33"))),
)
def test_a_forward_map_refuses_a_huge_part_at_once(map_name, pair):
    # Conjugating takes one step per column: the self-conjugacy test compares
    # the first row with the first column before it conjugates.
    src = str(Path(stcores.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "stcores.cli", "bijection", "--map", map_name, *pair, "--input", f"[{10**30}]"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=10,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "Error: input is not self-conjugate\n")
