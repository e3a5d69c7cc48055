from hypothesis import given, strategies as st
import pytest

from stcores.bar_partitions import (
    as_bar_partition,
    bar_length_multiset,
    bar_length_multiset_by_diagram,
    enumerate_bar_partitions,
    is_bar_partition,
    is_tbar_core,
)


bar_partitions = st.sets(st.integers(min_value=1, max_value=14), max_size=6).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_as_bar_partition_sorts():
    assert as_bar_partition([1, 4]) == (4, 1)
    assert as_bar_partition([]) == ()


def test_as_bar_partition_rejects_duplicates():
    with pytest.raises(ValueError, match="distinct"):
        as_bar_partition([3, 3])


@pytest.mark.parametrize(
    "parts, message",
    (
        ([2, -1], "^partition parts must be nonnegative, got -1$"),
        ([2, 1.0], "^partition parts must be integers, got 1.0$"),
        ([True], "^partition parts must be integers, got True$"),
    ),
)
def test_as_bar_partition_refuses_parts_as_as_partition_does(parts, message):
    with pytest.raises(ValueError, match=message):
        as_bar_partition(parts)


@pytest.mark.parametrize(
    "parts, ok",
    (
        ((), True),
        ((5, 3, 1), True),
        ((3, 3), False),
        ((1, 2), False),
        ((2, 0), False),
    ),
)
def test_is_bar_partition(parts, ok):
    assert is_bar_partition(parts) is ok


def test_worked_bar_length_multiset():
    assert bar_length_multiset((5, 3, 1)) == (8, 6, 5, 4, 3, 3, 1, 1, 1)
    assert bar_length_multiset(()) == ()


@pytest.mark.parametrize("b", ((1, 1), (4, 4, 1), (1, 4), (2, 0), (3, -1), (True,), (2.0,), ("a",), (3, None)))
def test_bar_length_multiset_refuses_input_that_is_not_a_bar_partition(b):
    # each part is tested before a row above subtracts it, so (3, None)
    # is refused as the others are, not by a TypeError
    with pytest.raises(ValueError, match="^input is not a bar partition$"):
        bar_length_multiset(b)


@given(bar_partitions)
def test_row_formula_matches_the_shifted_diagram(b):
    assert bar_length_multiset(b) == bar_length_multiset_by_diagram(b)


def _bar_lengths_by_cell_scan(b):
    # The cell scan that bar_length_multiset_by_diagram ran before: the
    # shifted cells (r, r+1..r+b[r]) and the attached columns j, rows
    # j..j+b[j]-1, held as a set of cells whose arms and legs are counted.
    k = len(b)
    if k == 0:
        return ()
    limit = k + b[0] + 1
    occupied = {(r, c) for r in range(k) for c in range(r + 1, r + b[r] + 1)}
    occupied |= {(r, j) for j in range(k) for r in range(j, j + b[j])}
    bars = []
    for r in range(k):
        for c in range(r + 1, r + b[r] + 1):
            arm = sum(1 for cc in range(c + 1, limit) if (r, cc) in occupied)
            leg = sum(1 for rr in range(r + 1, limit) if (rr, c) in occupied)
            bars.append(arm + leg + 1)
    return tuple(sorted(bars, reverse=True))


def test_the_doubled_diagram_matches_the_cell_scan_to_size_30():
    seen = 0
    for n in range(31):
        for b in enumerate_bar_partitions(n):
            assert bar_length_multiset_by_diagram(b) == _bar_lengths_by_cell_scan(b), b
            seen += 1
    assert seen == 2035


@given(bar_partitions)
def test_bar_count_equals_size(b):
    assert len(bar_length_multiset(b)) == sum(b)


@pytest.mark.parametrize(
    "b, t, ok",
    (
        ((), 3, True),
        ((4, 2), 5, True),
        ((3, 2, 1), 5, False),
        ((3,), 3, False),
        ((4, 1), 5, False),
    ),
)
def test_is_tbar_core_examples(b, t, ok):
    assert is_tbar_core(b, t) is ok


@given(bar_partitions, st.sampled_from((3, 5, 7, 9)))
def test_tbar_core_means_no_bar_divisible_by_t(b, t):
    assert is_tbar_core(b, t) == all(x % t for x in bar_length_multiset(b))


@pytest.mark.parametrize(
    "n, count",
    ((0, 1), (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (6, 4), (7, 5), (8, 6), (9, 8), (10, 10)),
)
def test_enumeration_counts_partitions_into_distinct_parts(n, count):
    seen = list(enumerate_bar_partitions(n))
    assert len(seen) == count
    assert len(set(seen)) == count
    assert all(sum(b) == n and is_bar_partition(b) for b in seen)
