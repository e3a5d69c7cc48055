"""Acceptance gate: every shipped claim, one test per claim family.

Each test drives one verify suite at its full documented scale and fails
with the label of every check that did not hold, so the -v report reads as
one pass/fail line per claim family.

Each suite's rendered report, followed by every check's detail, is also
pinned by sha256: the report fixes the labels and their order, the details
fix the case totals, scan residues and coefficient ranges, which the report
prints only for failures. A change that drops, renames, reorders or
re-counts a check fails here.
"""

from hashlib import sha256

import pytest

from stcores.formats import checks_report
from stcores.verify import run_suite

DIGESTS = {
    "examples": "e81d2aa424171e51c278525465b3a59051f09dc466825414722428beb75b89be",
    "counting": "7170cc6e3c41d68570a17b26ade4140c1c97b00c893fad8d2d9c31b95a1b7be8",
    "genfun": "7012cd1ad137847f94d45742bbe107ac9a547c0d62f915b0989e45d7228584d5",
    "convolution": "e58b4375783d6bbfb3c3a11d613819ec622b3f237d6ecbbbcb1c85a22a85d6cc",
    "congruence": "b78c66a01c56ddfd47dae7e3c9c629b71ac9d491f03de7da441d52d45678b50f",
    "bounds": "979c4a8928960a60b58d60797a22d99e9c26e1a929e4cfcb791cf96278107108",
    "bijections": "5241934b29989651afb7c2dc10966f41353bfd391ee28875a518b68a48eb32a4",
    "structure": "8a6b02ba384e5ad41739cf13b3c08ab02f0ae1bfbf4664c99f8aab6eba999caf",
}


def run(name: str, limit: int) -> None:
    checks = run_suite(name, limit)
    failed = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    assert not failed, f"{len(failed)} of {len(checks)} checks failed: " + "; ".join(failed)
    text, _ = checks_report({name: checks})
    details = "\n".join(detail for _, _, detail in checks)
    assert sha256(f"{text}\n{details}".encode()).hexdigest() == DIGESTS[name]


def test_worked_examples_reproduce_exactly():
    run("examples", 60)


def test_census_counts_sizes_and_spot_enumeration():
    run("counting", 60)


def test_generating_functions_match_enumeration():
    run("genfun", 40)


def test_convolution_identities_hold():
    run("convolution", 40)


def test_congruences_hold_on_their_progressions():
    run("congruence", 60)


def test_lower_bounds_positivity_and_growth():
    run("bounds", 40)


def test_bijections_round_trip_at_scale():
    run("bijections", 30)


def test_structural_invariants_hold_exhaustively():
    run("structure", 25)


def test_every_suite_name_is_covered_here():
    import stcores.verify as verify

    assert sorted(verify.SUITES) == [
        "bijections",
        "bounds",
        "congruence",
        "convolution",
        "counting",
        "examples",
        "genfun",
        "structure",
    ]


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v"]))
