import json

from hypothesis import given, strategies as st
import pytest

from stcores.core_quotient import BarTower, StraightTower, bar_decompose, decompose
from stcores.formats import (
    bar_to_json,
    checks_report,
    count_table_csv,
    count_table_json,
    grid_csv,
    parse_partition_argument,
    partition_to_json,
    scan_report_json,
    series_csv,
    series_json,
)
from stcores.lattice import yinyang_grid
from stcores.oracle import CountTable, core_counts
from stcores.series import TruncatedSeries


def test_partition_json_is_compact():
    assert partition_to_json((3, 2, 1)) == "[3,2,1]"
    assert partition_to_json(()) == "[]"


def test_bar_json_tags_the_kind_first():
    assert bar_to_json((4, 1)) == '{"kind":"bar","parts":[4,1]}'


def tower_to_json(tower: StraightTower | BarTower) -> str:
    """Core, quotient, and weight as one object; bar towers carry a tag."""
    payload: dict[str, object] = {}
    if isinstance(tower, BarTower):
        payload["kind"] = "bar"
    payload["g"] = tower.g
    payload["core"] = list(tower.core)
    payload["quotient"] = [list(comp) for comp in tower.quotient]
    payload["weight"] = tower.weight
    return json.dumps(payload, separators=(",", ":"))


def core_tuple_to_json(entries: tuple[int, ...], t: int) -> str:
    """Runner tuple with its modulus, e.g. `{"t":3,"entries":[2,0,-2]}`."""
    return json.dumps({"t": t, "entries": list(entries)}, separators=(",", ":"))


def test_tower_json_shapes():
    assert (
        tower_to_json(decompose((4, 2, 1, 1, 1), 2))
        == '{"g":2,"core":[1],"quotient":[[],[3,1]],"weight":4}'
    )
    assert (
        tower_to_json(bar_decompose((5, 3, 1), 3))
        == '{"kind":"bar","g":3,"core":[],"quotient":[[1],[1,1]],"weight":3}'
    )


def test_core_tuple_json():
    assert core_tuple_to_json((2, 0, -2), 3) == '{"t":3,"entries":[2,0,-2]}'


def test_scan_report_matches_the_documented_shape():
    got = scan_report_json(5, 2, (3, 4), 60)
    assert got == '{"modulus":2,"g":5,"residues":[3,4],"verified_to":60}'


@pytest.mark.parametrize(
    "text, kind, parts",
    (
        ("[3,3,3]", "straight", (3, 3, 3)),
        ("[]", "straight", ()),
        ('{"kind":"bar","parts":[6]}', "bar", (6,)),
        ('{"kind": "bar", "parts": []}', "bar", ()),
        # parts come back as given; the caller canonicalizes them once
        ("[1,0,3]", "straight", (1, 0, 3)),
        ('{"kind":"bar","parts":[1,4,4]}', "bar", (1, 4, 4)),
    ),
)
def test_parse_partition_argument(text, kind, parts):
    assert parse_partition_argument(text) == (kind, parts)


@pytest.mark.parametrize(
    "text, message",
    (
        ("nope", "not valid JSON"),
        ("[true]", "integers"),
        ("[1.5]", "integers"),
        ('{"parts":[2]}', "kind"),
        ('"str"', "integers"),
    ),
)
def test_parse_partition_argument_rejections(text, message):
    with pytest.raises(ValueError, match=message):
        parse_partition_argument(text)


def test_count_table_renderings():
    table = core_counts(2, 4)
    assert count_table_csv(table) == "n,count\n0,1\n1,1\n2,0\n3,1\n4,0"
    assert count_table_json(table) == '{"label":"f_2","counts":[1,1,0,1,0]}'


def test_series_renderings():
    series = TruncatedSeries([1, 1, 2], 3)
    assert series_csv(series) == "n,coefficient\n0,1\n1,1\n2,2\n3,0"
    assert series_json(series) == '{"coefficients":[1,1,2,0]}'


def test_grid_csv_rows():
    assert grid_csv(yinyang_grid(3, 5)) == "2,-1"
    assert grid_csv(yinyang_grid(3, 7)) == "4,1,-2"


def test_checks_report_text():
    text, failures = checks_report({"demo": [("works", True, "all 3 cases")]})
    assert failures == 0
    assert text == "[demo] PASS works\nall 1 checks passed"
    text, failures = checks_report(
        {"demo": [("works", True, ""), ("breaks", False, "n=2")]}
    )
    assert failures == 1
    assert "[demo] FAIL breaks: n=2" in text
    assert text.endswith("1 of 2 checks failed")


# Negative, small and multi-hundred-digit integers.
INTS = st.one_of(st.integers(-1000, 1000), st.integers(-(10**400), 10**400))
COMPACT = {"separators": (",", ":")}


@given(st.lists(INTS, max_size=8), st.lists(INTS, max_size=8), INTS, INTS, INTS, st.text(max_size=12))
def test_the_direct_emitters_write_what_json_dumps_writes(parts, coeffs, g, modulus, top, label):
    assert partition_to_json(parts) == json.dumps(parts, **COMPACT)
    assert bar_to_json(parts) == json.dumps({"kind": "bar", "parts": parts}, **COMPACT)
    assert scan_report_json(g, modulus, parts, top) == json.dumps(
        {"modulus": modulus, "g": g, "residues": parts, "verified_to": top}, **COMPACT
    )
    series = TruncatedSeries(coeffs, max(len(coeffs) - 1, 0))
    assert series_json(series) == json.dumps({"coefficients": list(series.coeffs)}, **COMPACT)
    table = CountTable(label, tuple(coeffs))
    assert count_table_json(table) == json.dumps({"label": label, "counts": coeffs}, **COMPACT)


# Int lists as json.dumps writes them, compact and spaced, bare and tagged.
DUMPED = st.builds(
    lambda parts, tagged, separators: json.dumps(
        {"kind": "bar", "parts": parts} if tagged else parts, separators=separators
    ),
    st.lists(INTS, max_size=6),
    st.booleans(),
    st.sampled_from([(",", ":"), (", ", ": ")]),
)
JUNK = st.text(alphabet="[]{},:-0123456789 .e+\"abkindpartsr\u0663", max_size=16)


@given(st.one_of(DUMPED, JUNK, JUNK.map(lambda text: '{"kind":"bar","parts":' + text + "}")))
def test_partition_arguments_are_read_as_json_reads_them(text):
    try:
        value = json.loads(text)
    except json.JSONDecodeError as err:
        with pytest.raises(ValueError) as raised:
            parse_partition_argument(text)
        assert str(raised.value) == f"input is not valid JSON: {err}"
        return
    kind = "straight"
    if isinstance(value, dict) and value.get("kind") == "bar":
        kind, value = "bar", value.get("parts")
    if isinstance(value, list) and all(type(x) is int for x in value):
        assert parse_partition_argument(text) == (kind, tuple(value))
    else:
        with pytest.raises(ValueError):
            parse_partition_argument(text)
