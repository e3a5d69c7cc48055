"""JSON and CSV serialization for the command-line interface.

All emitters return strings without a trailing newline and are deterministic:
compact JSON separators, insertion-ordered keys, fixed row order. Partitions
are JSON arrays (largest part first); bar partitions are tagged objects so
the two kinds cannot be confused downstream.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .bar_partitions import BarPartition, as_bar_partition
from .core_quotient import BarTower, StraightTower
from .lattice import SignedGrid
from .oracle import CountTable
from .partitions import Partition, as_partition
from .series import TruncatedSeries

_COMPACT = {"separators": (",", ":")}


def partition_to_json(p: Partition) -> str:
    """`[5,3,3]` style array, `[]` for the empty partition."""
    return json.dumps(list(p), **_COMPACT)


def bar_to_json(b: BarPartition) -> str:
    """Tagged object, e.g. `{"kind":"bar","parts":[6]}`."""
    return json.dumps({"kind": "bar", "parts": list(b)}, **_COMPACT)


def tower_to_json(tower: StraightTower | BarTower) -> str:
    """Core, quotient, and weight as one object; bar towers carry a tag."""
    payload: dict[str, object] = {}
    if isinstance(tower, BarTower):
        payload["kind"] = "bar"
    payload["g"] = tower.g
    payload["core"] = list(tower.core)
    payload["quotient"] = [list(comp) for comp in tower.quotient]
    payload["weight"] = tower.weight
    return json.dumps(payload, **_COMPACT)


def core_tuple_to_json(entries: tuple[int, ...], t: int) -> str:
    """Runner tuple with its modulus, e.g. `{"t":3,"entries":[2,0,-2]}`."""
    return json.dumps({"t": t, "entries": list(entries)}, **_COMPACT)


def scan_report_json(g: int, modulus: int, residues: Sequence[int], verified_to: int) -> str:
    """Congruence scan result, e.g. `{"modulus":2,"g":5,"residues":[3,4],"verified_to":60}`."""
    return json.dumps(
        {
            "modulus": modulus,
            "g": g,
            "residues": list(residues),
            "verified_to": verified_to,
        },
        **_COMPACT,
    )


def parse_partition_argument(text: str) -> tuple[str, tuple[int, ...]]:
    """Parse a CLI partition argument into ("straight" | "bar", parts).

    Accepts a JSON array for a straight partition and either a JSON array or
    a `{"kind":"bar","parts":[...]}` object for a bar partition; the caller
    decides which kind it needs.

    Raises:
        ValueError: on malformed JSON or a wrong shape.
    """
    try:
        value = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"input is not valid JSON: {err}") from None
    if isinstance(value, dict):
        if value.get("kind") != "bar" or "parts" not in value:
            raise ValueError('object input must look like {"kind":"bar","parts":[...]}')
        return "bar", as_bar_partition(_int_list(value["parts"]))
    return "straight", as_partition(_int_list(value))


def _int_list(value: object) -> list[int]:
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise ValueError("parts must be a JSON array of integers")
    return value


def count_table_csv(table: CountTable) -> str:
    """`n,count` header plus one row per size."""
    lines = ["n,count"]
    lines.extend(f"{n},{c}" for n, c in table.rows())
    return "\n".join(lines)


def count_table_json(table: CountTable) -> str:
    return json.dumps({"label": table.label, "counts": list(table.counts)}, **_COMPACT)


def series_csv(series: TruncatedSeries) -> str:
    """`n,coefficient` header plus one row per exponent."""
    lines = ["n,coefficient"]
    lines.extend(f"{n},{series[n]}" for n in range(series.truncation + 1))
    return "\n".join(lines)


def series_json(series: TruncatedSeries) -> str:
    return json.dumps({"coefficients": list(series.coeffs)}, **_COMPACT)


def grid_csv(grid: SignedGrid) -> str:
    """Plain integer CSV, one grid row per line, top row first."""
    return "\n".join(",".join(str(v) for v in row) for row in grid.values)


def checks_report(results: dict[str, list[tuple[str, bool, str]]]) -> tuple[str, int]:
    """Render verification results; returns (text, number of failures).

    One line per check: `[suite] PASS label` or `[suite] FAIL label: detail`,
    followed by a one-line summary.
    """
    lines = []
    failures = 0
    total = 0
    for suite in results:
        for label, passed, detail in results[suite]:
            total += 1
            if passed:
                lines.append(f"[{suite}] PASS {label}")
            else:
                failures += 1
                lines.append(f"[{suite}] FAIL {label}: {detail}")
    if failures:
        lines.append(f"{failures} of {total} checks failed")
    else:
        lines.append(f"all {total} checks passed")
    return "\n".join(lines), failures


def checks_report_json(
    results: dict[str, list[tuple[str, bool, str]]], wall_s: dict[str, float], truncation: int
) -> str:
    """Verification results with each suite's wall time, as one JSON object.

    Every check keeps its label, pass flag and detail; a passing check's
    detail carries its case total (e.g. "all 9296 cases"). Unlike the text
    report, the wall times differ from run to run.
    """
    return json.dumps(
        {
            "truncation": truncation,
            "suites": [
                {
                    "name": suite,
                    "wall_s": round(wall_s[suite], 6),
                    "checks": [
                        {"label": label, "passed": passed, "detail": detail}
                        for label, passed, detail in checks
                    ],
                }
                for suite, checks in results.items()
            ],
        },
        **_COMPACT,
    )
