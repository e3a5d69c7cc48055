"""The three benchmark workloads as seeded draws from fixed parameter pools.

A workload is a list of slots. Each slot is a list of alternative `stcores`
argument vectors that cost the same work on the same layer, so the seed
changes what the program is asked without changing the layer mix or the
amount of work. A draw takes one alternative per slot and shuffles their
order. Every alternative of every slot has a golden stdout digest in
goldens.json.
"""

from __future__ import annotations

import random

Argv = tuple[str, ...]


def _series_large() -> list[list[Argv]]:
    # One `series` slot per generating-function family, CSV or JSON. The
    # truncation is set per family so each invocation costs about one second
    # of product kernel (cost ~ factors x N^2, with ~N factors), keeping a
    # round of eight invocations near 10 s; the seed moves N by at most 1%. The joint pairs have reduced pairs (2,3) and (5,7), whose censuses
    # are tiny. One `scan` slot checks p(n) on one of Ramanujan's three
    # progressions; every scan prints one residue, so the number of answers
    # does not depend on the seed.
    families = [
        ("partition", [()], 360),
        ("core", [("-t", "5"), ("-t", "7")], 360),
        ("selfconj", [("-t", "6"), ("-t", "8")], 500),
        ("barcore", [("-t", "5"), ("-t", "7")], 360),
        ("psi", [("-s", "10", "-t", "15"), ("-s", "15", "-t", "10")], 360),
        ("psibar", [("-s", "15", "-t", "21"), ("-s", "21", "-t", "15")], 360),
        ("psistar", [("-s", "12", "-t", "18"), ("-s", "18", "-t", "12")], 500),
    ]
    slots = [
        [
            ("series", "--gf", gf) + params + ("-N", str(n)) + fmt
            for params in choices
            for n in (base_n - 4, base_n, base_n + 4)
            for fmt in ((), ("--format", "json"))
        ]
        for gf, choices, base_n in families
    ]
    slots.append(
        [
            ("scan", "--gf", "partition", "-g", str(p), "--mod", str(p), "-N", str(n))
            for p in (5, 7, 11)
            for n in (356, 360, 364)
        ]
    )
    return slots


def _census_pairs() -> list[list[Argv]]:
    # One slot per reduced pair (s', t'). Every family and multiplier g
    # runs the same Anderson census of (s', t') at the same orientation;
    # at N = 60 the series kernel only raises small census polynomials to
    # the power g.
    multipliers = {"psi": (2, 3), "psistar": (2, 3), "psibar": (3, 5)}
    slots = []
    for sp, tp in ((7, 11), (9, 11), (9, 13)):
        slot = []
        for gf, gs in multipliers.items():
            for g in gs:
                base = ("series", "--gf", gf, "-s", str(g * sp), "-t", str(g * tp), "-N", "60")
                slot += [base, base + ("--format", "json")]
        slots.append(slot)
    return slots


def _verify_oracle() -> list[list[Argv]]:
    # Every suite in one process, so the suites share cached oracle tables
    # as they do in the acceptance tests, plus brute-force count tables.
    def both(argv: Argv) -> list[Argv]:
        return [argv, argv + ("--format", "json")]

    return [
        [("verify", "all", "-N", "40")],
        both(("count", "-t", "6", "-s", "10", "-N", "40")),
        both(("count", "--variant", "bar", "-t", "3", "-s", "9", "-N", "60")),
        [
            argv
            for t in ("10", "12", "14", "16")
            for argv in both(("count", "--variant", "selfconj", "-t", t, "-N", "60"))
        ],
    ]


WORKLOADS = {
    "series-large": _series_large,
    "census-pairs": _census_pairs,
    "verify-oracle": _verify_oracle,
}

VERSION: Argv = ("--version",)


def draw(name: str, seed: int) -> list[Argv]:
    """The invocations one run of workload ``name`` makes, fixed by ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    ops = [rng.choice(slot) for slot in WORKLOADS[name]()]
    rng.shuffle(ops)
    return ops


def pool() -> list[Argv]:
    """Every invocation any seed of any workload can draw, plus --version."""
    ops = [VERSION]
    for build in WORKLOADS.values():
        for slot in build():
            ops += slot
    return ops


def key(argv: Argv) -> str:
    return " ".join(argv)
