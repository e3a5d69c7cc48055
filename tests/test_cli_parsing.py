"""How the CLI reads its arguments: the option-table reader against argparse.

`cli._read` reads a well-formed call in canonical form straight from
`cli.OPTIONS` and leaves everything else to the argparse parser that
`cli._parser` builds from the same table. These tests pin what argparse
prints for help and rejected input, and check that the reader either
declines an argv or reads exactly what argparse reads.
"""

from contextlib import redirect_stderr, redirect_stdout
import importlib.util
import io
import json
import os
from pathlib import Path
import shlex
import sys
from unittest import mock

from hypothesis import example, given, settings, strategies as st
import pytest

from stcores import cli
from test_documented_commands import documented_commands

ROOT = Path(__file__).resolve().parents[1]

# (argv, environment, exit code, stdout, stderr) of `--help`, each verb's
# `--help` and a set of rejected calls, as the argparse-built parser printed
# them before the option table replaced it (Python 3.11, COLUMNS=80); the
# straight census refusals at (1600,1601) with the default -N, at (31,37)
# with -N 200, at (31,37) to size 200 for psibar with g = 3, and at
# (1601,1602), past the retired reduced-pair cap; the self-conjugate and bar
# census refusals at (3999,4001) with -N 4000 and the bar one at
# (3, 10**30 + 1); and the zeta-inverse refusal of a bar partition that is
# not a 3-bar-core.
MESSAGES = json.loads((Path(__file__).with_name("cli_messages.json")).read_text())


def outcome(parse, argv: list[str]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as stop:
            result = ("exit", stop.code)
    return result, out.getvalue(), err.getvalue()


def parsed(argv: list[str]) -> dict:
    return vars(cli._parser("stcores").parse_args(argv))


def assert_read_like_argparse(argv: list[str], accepted: bool = False) -> None:
    read = outcome(cli._read, argv)
    if read[0] is None and not accepted:
        assert read[1:] == ("", "")
    else:
        assert read == outcome(parsed, argv)


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="captured from Python 3.11's argparse, whose wording and layout vary by version",
)
@pytest.mark.parametrize("case", MESSAGES, ids=lambda case: shlex.join(case["argv"]) or "(none)")
def test_help_and_usage_errors_are_byte_identical(case, run, monkeypatch):
    monkeypatch.delenv("STCORES_TRUNCATION", raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    for name, value in case["env"].items():
        monkeypatch.setenv(name, value)
    assert run(*case["argv"]) == (case["code"], case["stdout"], case["stderr"])


def bench_pool() -> list[tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.pool()


@pytest.mark.parametrize("argv", bench_pool(), ids=" ".join)
def test_the_reader_accepts_every_benchmark_call(argv, monkeypatch):
    monkeypatch.delenv("STCORES_TRUNCATION", raising=False)
    assert_read_like_argparse(list(argv), accepted=True)


@pytest.mark.parametrize("command", documented_commands())
def test_the_reader_accepts_every_documented_command(command, monkeypatch):
    words = shlex.split(command)
    monkeypatch.delenv("STCORES_TRUNCATION", raising=False)
    while "=" in words[0]:
        name, value = words.pop(0).split("=", 1)
        monkeypatch.setenv(name, value)
    assert_read_like_argparse(words[1:], accepted=True)


CHOICES = sorted(
    {choice for options in cli.OPTIONS.values() for _, kw in options for choice in kw.get("choices", ())}
)
VALUES = st.one_of(
    st.sampled_from(CHOICES),
    st.integers(-3, 70).map(str),
    st.sampled_from(["", " 7", "abc", "1_0", "+5", "٣", "-", "--", "-x", "--gf", "all", "[3,3]", "x=1"]),
)
JUNK = st.sampled_from(["-h", "--help", "--version", "--", "-N60", "--tru", "--foo", "-t", "stray", ""])


def values(draw, kw: dict) -> str:
    """Mostly a value the option accepts, sometimes anything."""
    if draw(st.integers(0, 5)) == 5:
        return draw(VALUES)
    if "choices" in kw:
        return draw(st.sampled_from(kw["choices"]))
    if "type" in kw:
        return str(draw(st.integers(0, 40)))
    return draw(st.sampled_from(["[3,3]", "all", "examples", "-x", "-"]))


def sometimes(draw, one_in: int) -> bool:
    return draw(st.integers(1, one_in)) == one_in


@st.composite
def argvs(draw) -> list[str]:
    """A call built from one verb's options, then perhaps spoiled."""
    name = draw(st.sampled_from([*cli._VERBS, "frobnicate", "", "-h", "--version"]))
    options = list(cli.OPTIONS.get(cli._VERBS.get(name), ()))
    argv = [name]
    if options and not options[0][0][0].startswith("-") and not sometimes(draw, 6):
        argv.append(values(draw, {}))
    optional = [(flags, kw) for flags, kw in options if flags[0].startswith("-")]
    for flags, kw in draw(st.permutations(optional)):
        # Usually once; sometimes repeated, sometimes left out.
        for _ in range(1 + sometimes(draw, 12) - sometimes(draw, 8 if kw.get("required") else 2)):
            flag, value = draw(st.sampled_from(flags)), values(draw, kw)
            argv += [f"{flag}={value}"] if sometimes(draw, 10) else [flag, value]
    while sometimes(draw, 3):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.one_of(JUNK, VALUES)))
    return argv


@settings(max_examples=600, deadline=None)
@given(argvs(), st.sampled_from([None, "", "abc", "-1", "7", " 12 "]))
@example(["verify", "-x", "-N", "5"], None)
@example(["bijection", "--map", "zeta", "-t", "3", "--input", "-x"], None)
@example(["scan", "--gf", "core", "-t", "5", "-g", "5", "--mod", "5", "-N", "abc", "-N", "9"], None)
@example(["series", "--gf", "core", "-t", "5", "-s", "-3"], "abc")
def test_the_reader_declines_or_reads_what_argparse_reads(argv, truncation):
    environ = {k: v for k, v in os.environ.items() if k != "STCORES_TRUNCATION"}
    if truncation is not None:
        environ["STCORES_TRUNCATION"] = truncation
    with mock.patch.dict(os.environ, environ, clear=True):
        assert_read_like_argparse(argv)
