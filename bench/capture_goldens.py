"""Capture the golden stdout of every invocation the workloads can draw.

    python3 bench/capture_goldens.py

Runs each invocation once through launch.py, two at a time, and accepts its
output only after a cross-check against an independent source:

  series   coefficients n <= 25 equal the brute-force oracle's count table;
  scan     residues equal those recomputed here from the same series' output;
  count    entries n <= 25 equal the generating-function coefficients;
  verify   every check passed.

Writes goldens.json: per invocation, the sha256 of stdout and the number of
exact answers it prints (coefficients, count entries, residues, or check
lines). Run it only on a commit whose output is trusted: the benchmark
counts any later difference as a failure.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from run import child_env  # noqa: E402
from stcores import oracle, series  # noqa: E402

PREFIX = 25


def option(argv: workloads.Argv, flag: str) -> int | None:
    return int(argv[argv.index(flag) + 1]) if flag in argv else None


def answers(argv: workloads.Argv, stdout: str) -> list:
    """The exact answers an invocation printed, in order."""
    verb = argv[0]
    if verb == "--version":
        return []
    if verb == "verify":
        return [line for line in stdout.splitlines() if line.startswith("[")]
    if verb == "scan":
        return json.loads(stdout)["residues"]
    if "json" in argv:
        value = json.loads(stdout)
        return value["coefficients"] if verb == "series" else value["counts"]
    return [int(line.split(",")[1]) for line in stdout.splitlines()[1:]]


def oracle_counts(gf: str, s: int | None, t: int | None, limit: int) -> list[int]:
    if gf == "partition":
        return [oracle.count_filtered(n, lambda p: True) for n in range(limit + 1)]
    single = {
        "core": oracle.core_counts,
        "selfconj": oracle.selfconj_core_counts,
        "barcore": oracle.barcore_counts,
    }
    if gf in single:
        return list(single[gf](t, limit).counts)
    joint = {
        "psi": oracle.st_core_counts,
        "psistar": oracle.selfconj_st_core_counts,
        "psibar": oracle.stbar_core_counts,
    }
    return list(joint[gf](s, t, limit).counts)


def series_coefficients(variant: str, s: int | None, t: int, limit: int) -> list[int]:
    if s is None:
        single = {
            "straight": series.core_gf,
            "selfconj": series.selfconj_core_gf,
            "bar": series.barcore_gf,
        }
        return list(single[variant](t, limit).coeffs)
    joint = {
        "straight": series.psi_st_gf,
        "selfconj": series.psi_star_st_gf,
        "bar": series.psi_bar_st_gf,
    }
    return list(joint[variant](s, t, limit).coeffs)


def residues(coefficients: list[int], g: int, modulus: int) -> list[int]:
    return [
        r for r in range(g) if all(c % modulus == 0 for c in coefficients[r::g])
    ]


def cross_check(argv: workloads.Argv, stdout: str, outputs: dict[str, str]) -> None:
    """Raise ValueError unless the output agrees with an independent source.

    ``outputs`` maps invocation keys to stdout; a scan is checked against
    the CSV output of the `series` invocation with the same parameters.
    """
    verb = argv[0]
    got = answers(argv, stdout)
    s, t = option(argv, "-s"), option(argv, "-t")
    if verb == "series":
        want = oracle_counts(argv[argv.index("--gf") + 1], s, t, PREFIX)
        if got[: PREFIX + 1] != want:
            raise ValueError(f"{workloads.key(argv)}: n <= {PREFIX} {got[:PREFIX + 1]} != oracle {want}")
    elif verb == "scan":
        i = argv.index("-g")
        source = ("series",) + argv[1:i] + argv[i + 4 :]
        coefficients = answers(source, outputs[workloads.key(source)])
        want = residues(coefficients, option(argv, "-g"), option(argv, "--mod"))
        if got != want:
            raise ValueError(f"{workloads.key(argv)}: residues {got} != {want} from the series")
    elif verb == "count":
        variant = argv[argv.index("--variant") + 1] if "--variant" in argv else "straight"
        want = series_coefficients(variant, s, t, PREFIX)
        if got[: PREFIX + 1] != want:
            raise ValueError(f"{workloads.key(argv)}: n <= {PREFIX} {got[:PREFIX + 1]} != series {want}")
    elif verb == "verify":
        if not got or any(" PASS " not in line for line in got):
            raise ValueError(f"{workloads.key(argv)}: not every check passed")


def launch(argv: workloads.Argv) -> bytes:
    done = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), *argv],
        capture_output=True,
        env=child_env(),
        check=True,
    )
    return done.stdout


def main() -> None:
    ops = list(dict.fromkeys(workloads.pool()))
    with ThreadPoolExecutor(max_workers=2) as pool:
        outputs = dict(zip(map(workloads.key, ops), pool.map(launch, ops)))
    texts = {k: v.decode() for k, v in outputs.items()}
    goldens = {}
    for argv in ops:
        stdout = texts[workloads.key(argv)]
        cross_check(argv, stdout, texts)
        goldens[workloads.key(argv)] = {
            "sha256": hashlib.sha256(outputs[workloads.key(argv)]).hexdigest(),
            "answers": len(answers(argv, stdout)),
        }
    (BENCH / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"captured {len(goldens)} golden outputs", file=sys.stderr)


if __name__ == "__main__":
    main()
