"""Differential tests: the beta-set and tower kernels against the slow forms they replaced.

The reference functions below are the earlier implementations, kept verbatim
apart from their names: a frozenset beta-set for the t-core test, a checked
decode loop, a nested hook loop, towers that spread the whole padded
beta-set over re-sorted runners, a per-part isinstance test of partition
shape, and a bead builder that decodes through the checked beta-set decoder.
"""

from hypothesis import given, strategies as st
import pytest

from stcores.core_quotient import StraightTower, decompose, reconstruct
from stcores.encodings import abacus, from_abacus
from stcores.oracle import enumerate_partitions
from stcores.partitions import (
    conjugate,
    first_column_hooks,
    from_first_column_hooks,
    hook_length_multiset,
    is_partition,
    is_t_core,
)


def reference_is_t_core(p, t):
    if t < 1:
        raise ValueError("t must be >= 1")
    beta = first_column_hooks(p)
    return all(b < t or (b - t) in beta for b in beta)


def reference_from_first_column_hooks(beta):
    values = sorted(beta, reverse=True)
    if len(values) != len(set(values)):
        raise ValueError("beta-set values must be distinct")
    if values and values[-1] < 0:
        raise ValueError("beta-set values must be nonnegative")
    n = len(values)
    parts = []
    for i, v in enumerate(values):
        part = v - (n - 1 - i)
        if part < 0:
            raise ValueError(f"{values} is not a valid beta-set")
        if part > 0:
            parts.append(part)
    return tuple(parts)


def reference_hook_length_multiset(p):
    conj = conjugate(p)
    hooks = []
    for i, row in enumerate(p):
        for j in range(row):
            hooks.append(row - j + conj[j] - i - 1)
    return tuple(sorted(hooks, reverse=True))


def _padded_beta(p, n_beads):
    k = len(p)
    values = [p[i] + n_beads - 1 - i for i in range(k)]
    values.extend(range(n_beads - 1 - k, -1, -1))
    return values


def _runner_values(beta, g):
    runners = [[] for _ in range(g)]
    for b in beta:
        runners[b % g].append(b // g)
    for r in runners:
        r.sort(reverse=True)
    return runners


def _partition_from_runner(values):
    m = len(values)
    return tuple(part for i, v in enumerate(values) if (part := v - (m - 1 - i)) > 0)


def reference_decompose(p, g):
    if g < 2:
        raise ValueError("g must be >= 2")
    n_beads = g * ((len(p) + g - 1) // g)
    beta = _padded_beta(p, n_beads)
    runners = _runner_values(beta, g)
    quotient = tuple(_partition_from_runner(r) for r in runners)
    core_beta = []
    for residue, r in enumerate(runners):
        core_beta.extend(residue + g * j for j in range(len(r)))
    core = reference_from_first_column_hooks(core_beta)
    return StraightTower(g=g, core=core, quotient=quotient)


def reference_reconstruct(tower):
    g = tower.g
    if not reference_is_t_core(tower.core, g):
        raise ValueError("tower core is not a g-core")
    depth = max((len(q) for q in tower.quotient), default=0)
    n_beads = g * (((len(tower.core) + g - 1) // g) + depth)
    core_runners = _runner_values(_padded_beta(tower.core, n_beads), g)
    beta = []
    for residue, (positions, q) in enumerate(zip(core_runners, tower.quotient)):
        m = len(positions)
        padded = list(q) + [0] * (m - len(q))
        beta.extend(residue + g * (padded[i] + m - 1 - i) for i in range(m))
    return reference_from_first_column_hooks(beta)


def reference_is_partition(parts):
    return all(isinstance(p, int) and not isinstance(p, bool) and p >= 1 for p in parts) and all(
        map(int.__ge__, parts, parts[1:])
    )


def reference_from_abacus(surplus, quotient):
    g = len(surplus)
    level = max(map(len, quotient)) - min(surplus)
    beta = []
    for residue, (a, q) in enumerate(zip(surplus, quotient)):
        if q and not reference_is_partition(q):
            raise ValueError(f"component {residue} is not a partition")
        top = residue + g * (level + a - 1)
        beta += [top + g * (x - i) for i, x in enumerate(q)]
        beta += range(top - g * len(q), residue - 1, -g)
    return from_first_column_hooks(beta)


class Part(int):
    """An int subclass, read as the int it is."""


SMALL = [p for n in range(21) for p in enumerate_partitions(n)]
MODULI = range(2, 8)


def _errors(f, *args):
    try:
        return ("ok", f(*args))
    except ValueError as err:
        return ("error", str(err))


def test_is_t_core_matches_the_frozenset_test():
    for p in SMALL:
        for t in (1, *MODULI, 30):
            assert is_t_core(p, t) == reference_is_t_core(p, t), (p, t)


def test_hook_length_multiset_matches_the_nested_loop():
    for p in SMALL:
        assert hook_length_multiset(p) == reference_hook_length_multiset(p), p


def test_beta_set_decode_matches_the_checked_loop():
    for p in SMALL:
        beta = first_column_hooks(p)
        for shift in range(3):
            padded = set(range(shift)) | {b + shift for b in beta}
            assert from_first_column_hooks(padded) == reference_from_first_column_hooks(padded) == p


def test_towers_match_the_padded_runner_form():
    for p in SMALL:
        for g in MODULI:
            tower = decompose(p, g)
            assert tower == reference_decompose(p, g), (p, g)
            assert reconstruct(tower) == reference_reconstruct(tower) == p, (p, g)


@pytest.mark.parametrize("g", range(1, 8))
def test_abacus_matches_the_padded_runners(g):
    for p in SMALL:
        if sum(p) > 16:
            continue
        n_beads = g * ((len(p) + g - 1) // g)
        runners = _runner_values(_padded_beta(p, n_beads), g)
        surplus = tuple(len(r) - n_beads // g for r in runners)
        quotient = tuple(_partition_from_runner(r) for r in runners)
        assert abacus(p, g) == (surplus, quotient), (p, g)


def test_reconstruct_matches_on_towers_with_extra_depth():
    # Quotients deeper than the core's own runners force phantom padding.
    for g in (2, 3, 5):
        for core in [p for p in SMALL if sum(p) <= 8 and is_t_core(p, g)]:
            for q in ((), (3,), (2, 2, 1), (1, 1, 1, 1)):
                for slot in range(g):
                    quotient = tuple(q if i == slot else () for i in range(g))
                    tower = StraightTower(g=g, core=core, quotient=quotient)
                    assert reconstruct(tower) == reference_reconstruct(tower)


@pytest.mark.parametrize(
    "beta",
    ([3, 3, 1], (2, 0, 2), [4, -1], [-2], {0, -3, 5}),
)
def test_beta_set_decode_errors_are_unchanged(beta):
    got = _errors(from_first_column_hooks, beta)
    assert got == _errors(reference_from_first_column_hooks, beta)
    assert got[0] == "error"


@pytest.mark.parametrize("t", (0, -3))
def test_is_t_core_rejects_the_same_moduli(t):
    assert _errors(is_t_core, (2, 1), t) == _errors(reference_is_t_core, (2, 1), t)
    assert _errors(is_t_core, (2, 1), t) == ("error", "t must be >= 1")


@pytest.mark.parametrize("g, core", ((2, (2,)), (3, (4, 1)), (4, (4,)), (5, (2, 2, 1, 1))))
def test_reconstruct_refuses_the_same_cores(g, core):
    tower = StraightTower(g=g, core=core, quotient=((1,),) + ((),) * (g - 1))
    got = _errors(reconstruct, tower)
    assert got == _errors(reference_reconstruct, tower) == ("error", "tower core is not a g-core")


@pytest.mark.parametrize("g", range(1, 8))
def test_from_abacus_matches_the_checked_decode_of_its_beads(g):
    cases = 0
    for n in range(26):
        for p in enumerate_partitions(n):
            surplus, quotient = abacus(p, g)
            assert from_abacus(surplus, quotient) == reference_from_abacus(surplus, quotient) == p
            cases += 1
    assert cases == 9296


# parts of every type the readers meet: ints in and out of range, bools,
# floats equal to an int, and an int subclass
parts = st.one_of(
    st.integers(min_value=-1, max_value=4),
    st.booleans(),
    st.sampled_from((1.0, 2.0)),
    st.integers(min_value=1, max_value=4).map(Part),
)


@given(st.lists(parts, max_size=5), st.booleans())
def test_is_partition_matches_the_per_part_test(xs, as_tuple):
    seq = tuple(xs) if as_tuple else xs
    assert is_partition(seq) is reference_is_partition(seq)


@given(st.lists(parts, max_size=5))
def test_from_abacus_refuses_the_components_the_per_part_test_refuses(xs):
    quotient = ((), tuple(xs), ())
    assert _errors(from_abacus, (1, 0, -1), quotient) == _errors(reference_from_abacus, (1, 0, -1), quotient)
