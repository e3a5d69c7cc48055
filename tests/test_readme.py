"""README's library example and its table of caps, checked against the code.

The library example runs as written, and each value its comments state is
the one it computes. Every cap constant of `stcores.cli`, and the census
work cap of `stcores.lattice` for each census family, has a row in the
"Parameter errors" tables that quotes its value and the message `main`
prints just past it.
"""

from pathlib import Path
import re

import pytest

from stcores import cli, lattice, series
from stcores.cli import COUNT_CAPS, GRID_CAP, MAP_CAP, TRUNCATION_CAP

README = Path(__file__).resolve().parents[1] / "README.md"


def section(title: str) -> str:
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_the_library_example_computes_what_its_comments_state():
    (block,) = re.findall(r"```python\n(.*?)```", section("Library example"), flags=re.S)
    names = {}
    exec(block, names)
    assert names["tower"].core == (4, 2, 1, 1)
    assert names["bar"] == (20, 19, 18, 10, 8, 7, 4)
    assert names["btower"].core == (4, 1)
    assert f"# 3-core {names['tower'].core} plus a 3-quotient" in block
    assert f"# {names['bar']}" in block
    assert f"# 3-bar-core {names['btower'].core} plus a 3-bar-quotient" in block


# Per cap constant of the CLI: its value and a call just past it.
CAP_CALLS = [
    ("COUNT_CAPS", COUNT_CAPS["straight"], ("count", "-t", "5", "-N", str(COUNT_CAPS["straight"] + 1))),
    (
        "COUNT_CAPS",
        COUNT_CAPS["selfconj"],
        ("count", "--variant", "selfconj", "-t", "5", "-N", str(COUNT_CAPS["selfconj"] + 1)),
    ),
    ("COUNT_CAPS", COUNT_CAPS["bar"], ("count", "--variant", "bar", "-t", "5", "-N", str(COUNT_CAPS["bar"] + 1))),
    ("MAP_CAP", MAP_CAP, ("bijection", "--map", "gamma", "-s", str(MAP_CAP + 1), "-t", "3", "--input", "[]")),
    ("GRID_CAP", GRID_CAP, ("grid", "--kind", "anderson", "-s", str(GRID_CAP + 1), "-t", "3")),
    ("TRUNCATION_CAP", TRUNCATION_CAP, ("series", "--gf", "partition", "-N", str(TRUNCATION_CAP + 1))),
]


def test_every_cap_of_the_cli_has_a_readme_row():
    caps = {name for name in vars(cli) if name.endswith(("_CAP", "_CAPS"))}
    assert caps == {name for name, _, _ in CAP_CALLS}
    assert len(CAP_CALLS) == len(caps) - 1 + len(COUNT_CAPS)


def never(*args):
    raise AssertionError("work started")


def assert_one_row_quotes(cap, code, out, err):
    assert (code, out) == (1, "")
    message = err.removeprefix("Error: ").removesuffix("\n")
    rows = [line for line in section("Parameter errors").splitlines() if f"| `{message}` |" in line]
    assert len(rows) == 1
    condition = rows[0].split(" | ")[0]
    assert re.search(rf"\babove {cap}\b", condition)


@pytest.mark.parametrize("name, cap, argv", CAP_CALLS, ids=[" ".join(argv[:3]) for _, _, argv in CAP_CALLS])
def test_each_cap_row_quotes_its_value_and_the_message_past_it(run, monkeypatch, name, cap, argv):
    for table in (cli.GENERATING_FUNCTIONS, cli.COUNTS, cli.GRIDS, cli.MAPS):
        for choice, row in table.items():
            monkeypatch.setitem(table, choice, (never, *row[1:]))
    monkeypatch.setattr(cli.formats, "parse_partition_argument", never)
    assert_one_row_quotes(cap, *run(*argv))


# Per census family: a call whose census passes the work cap.
CENSUS_CALLS = [
    ("scan", "--gf", "psi", "-s", "31", "-t", "37", "-g", "5", "--mod", "5", "-N", "200"),
    ("series", "--gf", "psistar", "-s", "3999", "-t", "4001", "-N", "4000"),
    ("series", "--gf", "psibar", "-s", "3999", "-t", "4001", "-N", "4000"),
]


@pytest.mark.parametrize("argv", CENSUS_CALLS, ids=[argv[2] for argv in CENSUS_CALLS])
def test_each_census_work_cap_row_quotes_its_value_and_the_message_past_it(run, monkeypatch, argv):
    # The series builders apply this cap themselves, before any census DP.
    monkeypatch.setattr(series, "census_by_size", never)
    assert_one_row_quotes(lattice.CENSUS_WORK_CAP, *run(*argv))
