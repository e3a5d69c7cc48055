import ast
from functools import cache
from math import comb
from pathlib import Path

import pytest

from stcores import oracle
from stcores.bar_partitions import enumerate_bar_partitions, is_bar_partition, is_tbar_core
from stcores.oracle import (
    CountTable,
    barcore_counts,
    core_counts,
    count_filtered,
    enumerate_partitions,
    enumerate_self_conjugate,
    extremal_stats,
    not_g_core_counts,
    selfconj_core_counts,
    selfconj_st_core_counts,
    st_core_counts,
    stbar_core_counts,
)
from stcores.partitions import from_diagonal_hooks, is_partition, is_self_conjugate, is_t_core


PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


@pytest.mark.parametrize("n", range(11))
def test_enumerate_partitions_counts(n):
    seen = list(enumerate_partitions(n))
    assert len(seen) == PARTITION_COUNTS[n]
    assert len(set(seen)) == len(seen)
    assert all(is_partition(p) and sum(p) == n for p in seen)


def test_enumerate_self_conjugate_counts():
    got = [len(list(enumerate_self_conjugate(n))) for n in range(11)]
    assert got == [1, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2]
    assert all(
        is_self_conjugate(p) for n in range(11) for p in enumerate_self_conjugate(n)
    )


@pytest.mark.parametrize(
    "enumerate_size", (enumerate_partitions, enumerate_self_conjugate, enumerate_bar_partitions)
)
def test_enumerators_refuse_a_negative_size(enumerate_size):
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        list(enumerate_size(-1))


def _bar_recursion(remaining, largest, prefix):
    # The recursion enumerate_bar_partitions ran before it shared one with
    # enumerate_self_conjugate.
    if remaining == 0:
        yield prefix
        return
    for part in range(min(remaining, largest), 0, -1):
        if remaining - part > part * (part - 1) // 2:
            break
        yield from _bar_recursion(remaining - part, part - 1, prefix + (part,))


def _odd_hook_recursion(remaining, largest, prefix):
    # The unpruned recursion over distinct odd diagonal hooks that
    # enumerate_self_conjugate ran before.
    if remaining == 0:
        yield prefix
        return
    d = largest if largest % 2 == 1 else largest - 1
    while d >= 1:
        if d <= remaining:
            yield from _odd_hook_recursion(remaining - d, d - 2, prefix + (d,))
        d -= 2


def test_the_shared_distinct_part_recursion_matches_both_former_recursions():
    for n in range(61):
        assert list(enumerate_bar_partitions(n)) == list(_bar_recursion(n, n, ()))
        expected = [from_diagonal_hooks(hooks) for hooks in _odd_hook_recursion(n, n, ())]
        assert list(enumerate_self_conjugate(n)) == expected


def test_a_negative_limit_gives_an_empty_count_table():
    assert core_counts(3, -1).counts == ()


def test_count_filtered_agrees_with_direct_enumeration():
    assert count_filtered(6, lambda p: len(p) <= 2) == 4
    assert count_filtered(0, lambda p: True) == 1
    # (6), (5,1), (4,2), (3,2,1)
    assert sum(1 for b in enumerate_bar_partitions(6) if is_bar_partition(b)) == 4


def test_count_tables_expose_rows():
    table = core_counts(2, 6)
    assert isinstance(table, CountTable)
    assert table.label == "f_2"
    assert table.counts == (1, 1, 0, 1, 0, 0, 1)
    assert table[3] == 1


@pytest.mark.parametrize("n", [-1, 11])
def test_count_tables_refuse_a_size_outside_the_limit(n):
    # as TruncatedSeries refuses an exponent outside its truncation; a
    # negative size no longer wraps around to the largest one
    with pytest.raises(IndexError, match=f"^size {n} outside 0..10$"):
        core_counts(3, 10)[n]


def test_joint_count_tables_small_values():
    assert st_core_counts(2, 3, 5).counts == (1, 1, 0, 0, 0, 0)
    # only () and (1) are simultaneously 2- and 3-core
    assert selfconj_st_core_counts(4, 6, 8).counts[0] == 1
    assert stbar_core_counts(9, 15, 6).counts[0] == 1
    assert selfconj_core_counts(3, 6).counts == (1, 1, 0, 0, 0, 1, 0)


def test_not_g_core_counts_hand_value():
    # of the three partitions of 3, all are 4-cores and only the staircase
    # (2,1) is a 2-core
    assert not_g_core_counts((4,), 2, 3)[3] == 2
    assert not_g_core_counts((16,), 8, 2, variant="selfconj")[2] == 0
    assert not_g_core_counts((9,), 3, 9, variant="bar")[9] >= 1
    # (2,1) is a (4,6)-core and a 2-core, (3) and (1,1,1) are not 2-cores
    assert not_g_core_counts((4, 6), 2, 3)[3] == 2
    assert not_g_core_counts((4,), 2, 3).label == "straight 4-cores not 2-cores"
    assert not_g_core_counts((4, 6), 2, 3).label == "straight (4,6)-cores not 2-cores"


def test_not_g_core_rejects_unknown_variant():
    with pytest.raises(ValueError, match="variant"):
        not_g_core_counts((4,), 2, 3, variant="typo")


def test_extremal_stats_closed_form_and_exhaustive_agree():
    assert extremal_stats(2, 3) == (2, 1)
    assert extremal_stats(3, 4) == (comb(7, 3) // 7, 5)
    assert extremal_stats(5, 7) == (66, 48)
    assert extremal_stats(5, 8) == (99, 63)
    # the pruned walk to the largest size finds the same total and extreme
    for s, t in ((2, 3), (3, 4), (5, 7), (5, 8)):
        total, max_size = extremal_stats(s, t)
        counts = st_core_counts(s, t, max_size).counts
        assert (sum(counts), max(n for n, c in enumerate(counts) if c)) == (total, max_size)


@pytest.mark.parametrize(
    "moduli", [(1,), (2,), (3,), (5,), (7,), (16,), (4, 6), (5, 7), (6, 10), (10, 15)]
)
def test_pruned_cores_match_the_filtered_enumeration(moduli):
    # each set filtered on its own, apart from the shared reference below
    want = [
        sum(1 for p in enumerate_partitions(n) if all(is_t_core(p, t) for t in moduli))
        for n in range(23)
    ]
    assert _table("straight", moduli, 22) == tuple(want)


@pytest.mark.parametrize("moduli", [(1,), (3,), (5,), (7,), (3, 9), (9, 15), (21,)])
def test_pruned_barcores_match_the_filtered_enumeration(moduli):
    want = [
        sum(1 for b in enumerate_bar_partitions(n) if all(is_tbar_core(b, t) for t in moduli))
        for n in range(31)
    ]
    assert _table("bar", moduli, 30) == tuple(want)


@pytest.mark.parametrize(
    "variant, moduli, message",
    [
        ("straight", (0,), "t must be >= 1"),
        ("straight", (3, -2), "t must be >= 1"),
        ("bar", (4,), "t must be odd and >= 1"),
        ("bar", (9, 0), "t must be odd and >= 1"),
    ],
)
def test_count_tables_check_moduli_before_walking(variant, moduli, message):
    for limit in (0, 5):
        with pytest.raises(ValueError, match=message):
            not_g_core_counts(moduli, 3, limit, variant)
        with pytest.raises(ValueError, match=message):
            not_g_core_counts((3,), moduli[-1], limit, variant)


def test_a_modulus_above_the_size_prunes_nothing():
    # 10**7 rather than 10**9, so that a walk that kept it would still finish
    far = 10**7 + 1
    limit = 12
    partitions = tuple(sum(1 for _ in enumerate_partitions(n)) for n in range(limit + 1))
    bar_partitions = tuple(sum(1 for _ in enumerate_bar_partitions(n)) for n in range(limit + 1))
    assert core_counts(far, limit).counts == partitions
    assert st_core_counts(3, far, limit).counts == core_counts(3, limit).counts
    assert barcore_counts(far, limit).counts == bar_partitions
    assert stbar_core_counts(far, 5, limit).counts == barcore_counts(5, limit).counts
    assert not_g_core_counts((3,), far, limit).counts == (0,) * (limit + 1)
    assert oracle._moduli("bar", (3, far), limit) == (3,)
    with pytest.raises(ValueError, match="^t must be odd and >= 1$"):
        barcore_counts(10**9, 3)


LIMIT = 35
# t = 1 and 2, even and non-coprime pairs, a modulus above LIMIT and the
# triples whose tables verify reads. The cases run one group of sets after
# another, so a set added in a later group leaves each earlier case id
# naming the same case.
STRAIGHT_GROUPS = (
    (
        (1,), (2,), (3,), (5,), (16,), (22,), (37,),
        (4, 6), (6, 9), (8, 12), (16, 8), (16, 4), (22, 11), (9, 15), (5, 7),
    ),
    ((7,), (6, 10), (10, 15), (4, 6, 2)),
)
BAR_GROUPS = (
    ((1,), (3,), (5,), (9,), (21,), (37,), (9, 3), (21, 3), (9, 15), (15, 21), (7, 11)),
    ((7,), (3, 9), (9, 15, 3)),
)
STRAIGHT_MODULI = sum(STRAIGHT_GROUPS, ())
BAR_MODULI = sum(BAR_GROUPS, ())


@cache
def _reference_counts(family):
    """Unpruned tables for every moduli set of ``family``, n <= LIMIT.

    Each partition (straight and self-conjugate) or bar partition is tested
    with ``is_t_core`` or ``is_tbar_core`` once per distinct modulus.
    """
    items, is_core, moduli_sets = {
        "straight": (enumerate_partitions, is_t_core, STRAIGHT_MODULI),
        "selfconj": (enumerate_self_conjugate, is_t_core, STRAIGHT_MODULI),
        "bar": (enumerate_bar_partitions, is_tbar_core, BAR_MODULI),
    }[family]
    distinct = sorted({t for m in moduli_sets for t in m})
    tables = {m: [0] * (LIMIT + 1) for m in moduli_sets}
    for n in range(LIMIT + 1):
        for p in items(n):
            cores = {t for t in distinct if is_core(p, t)}
            for m in moduli_sets:
                if cores.issuperset(m):
                    tables[m][n] += 1
    return {m: tuple(c) for m, c in tables.items()}


def _table(family, moduli, limit):
    if len(moduli) == 3:
        # a triple is read the way verify reads it: the pair table less the
        # table of pair-cores that are not cores for the third modulus
        pair = _table(family, moduli[:2], limit)
        not_third = not_g_core_counts(moduli[:2], moduli[2], limit, family).counts
        return tuple(a - b for a, b in zip(pair, not_third))
    if len(moduli) == 1:
        single = {"straight": core_counts, "selfconj": selfconj_core_counts, "bar": barcore_counts}
        return single[family](moduli[0], limit).counts
    joint = {"straight": st_core_counts, "selfconj": selfconj_st_core_counts, "bar": stbar_core_counts}
    return joint[family](*moduli, limit).counts


@pytest.mark.parametrize(
    "family, moduli",
    [
        (family, m)
        for straight, bar in zip(STRAIGHT_GROUPS, BAR_GROUPS)
        for family, sets in (("straight", straight), ("selfconj", straight), ("bar", bar))
        for m in sets
    ],
)
def test_count_walks_match_the_unpruned_reference(family, moduli):
    want = _reference_counts(family)[moduli]
    assert _table(family, moduli, LIMIT) == want
    # a table that ends at a modulus is the prefix of the longer one
    short = min(moduli[0], LIMIT)
    assert _table(family, moduli, short) == want[: short + 1]


@pytest.mark.parametrize(
    "t, g, variant",
    [
        (16, 4, "straight"),
        (22, 11, "straight"),
        (16, 8, "selfconj"),
        (22, 11, "selfconj"),
        (9, 3, "bar"),
        (21, 3, "bar"),
    ],
)
def test_not_g_core_counts_match_the_unpruned_reference(t, g, variant):
    reference = _reference_counts(variant)
    want = tuple(a - b for a, b in zip(reference[(t,)], reference[(t, g)]))
    assert not_g_core_counts((t,), g, LIMIT, variant).counts == want


def test_barcore_counts_small_values():
    assert barcore_counts(3, 5).counts == (1, 1, 1, 0, 0, 1)


def test_oracle_imports_only_the_partition_modules():
    # an independent second source: no series, lattice or tower code
    used = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.Import):
            used.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [node.module] if node.module else [alias.name for alias in node.names]
            used.update(f"stcores.{name}" for name in names)
        elif isinstance(node, ast.ImportFrom):
            used.add(node.module)
    local = {name for name in used if name.split(".")[0] == "stcores"}
    assert local <= {"stcores.partitions", "stcores.bar_partitions"}
