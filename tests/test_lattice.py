from collections import Counter
from functools import cache
from math import comb, gcd

from hypothesis import given, strategies as st
import pytest

from stcores.bar_partitions import is_tbar_core
from stcores.core_quotient import is_st_core, is_stbar_core
from stcores.lattice import (
    anderson_grid,
    anderson_path_to_core,
    barcore_to_yy_path,
    big_gamma,
    big_gamma_inverse,
    census_by_size,
    dh_grid,
    dh_path_to_selfconj,
    enumerate_barcores_by_yy,
    enumerate_paths,
    enumerate_selfconj_by_dh,
    enumerate_st_cores_by_paths,
    gamma,
    gamma_inverse,
    heights_to_path,
    path_heights,
    selfconj_to_dh_path,
    yinyang_grid,
    yy_path_to_barcore,
)
from stcores.oracle import enumerate_self_conjugate, extremal_stats
from stcores.partitions import is_self_conjugate, is_t_core


def test_enumerate_paths_is_the_binomial_family():
    paths = list(enumerate_paths(2, 2))
    assert paths == ["UURR", "URUR", "URRU", "RUUR", "RURU", "RRUU"]
    assert len(list(enumerate_paths(3, 4))) == comb(7, 3)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_heights_round_trip(rows, cols):
    for path in enumerate_paths(rows, cols):
        heights = path_heights(path, rows, cols)
        assert heights_to_path(heights, rows) == path


def test_anderson_grid_small_values():
    grid = anderson_grid(2, 3)
    # value at row r, column c is st - s - t - cs - rt, zero-indexed
    assert grid.rows == 2 and grid.cols == 3
    assert grid.values == ((1, -1, -3), (-2, -4, -6))
    assert grid.border_heights() == (1, 2, 2)


def test_anderson_grid_rejects_common_factors():
    with pytest.raises(ValueError, match="coprime"):
        anderson_grid(4, 6)


def test_dh_and_yinyang_grid_small_values():
    assert dh_grid(3, 5).values == ((7, 1),)
    assert dh_grid(7, 11).rows == 3 and dh_grid(7, 11).cols == 5
    assert dh_grid(4, 5).values == ((11, 3), (1, -7))
    assert dh_grid(2, 3).values == ((1,),)
    assert yinyang_grid(3, 5).values == ((2, -1),)


@pytest.mark.parametrize("s", (1, 4))
def test_yinyang_grid_needs_odd_interior_s(s):
    with pytest.raises(ValueError, match="odd"):
        yinyang_grid(s, 5)


@pytest.mark.parametrize(
    "s, t, count, largest",
    ((2, 3, 2, 1), (3, 4, 5, 5), (5, 7, 66, 48)),
)
def test_path_census_counts_and_extremes(s, t, count, largest):
    cores = list(enumerate_st_cores_by_paths(s, t))
    assert len(cores) == count
    assert len(set(cores)) == count
    assert max(sum(p) for p in cores) == largest
    assert all(is_st_core(p, s, t) for p in cores)


@cache
def _anderson_cores(s, t):
    return tuple(enumerate_st_cores_by_paths(s, t))


def _counts_by_size(cores):
    sizes = Counter(sum(p) for p in cores)
    return [sizes[n] for n in range(max(sizes) + 1)]


@pytest.mark.parametrize(
    "s, t", [(s, t) for s in range(2, 12) for t in range(s + 1, 12) if gcd(s, t) == 1]
)
def test_anderson_dp_counts_the_enumerated_sizes(s, t):
    want = _counts_by_size(_anderson_cores(s, t))
    assert census_by_size(anderson_grid(s, t), beta_sets=True) == want
    assert census_by_size(anderson_grid(t, s), beta_sets=True) == want


@pytest.mark.parametrize(
    "s, t", [(s, t) for s in range(3, 14, 2) for t in range(s + 2, 14, 2) if gcd(s, t) == 1]
)
def test_dh_and_yy_dp_count_the_enumerated_sizes(s, t):
    want = _counts_by_size(enumerate_selfconj_by_dh(s, t))
    assert census_by_size(dh_grid(s, t)) == want
    assert census_by_size(dh_grid(t, s)) == want
    assert census_by_size(yinyang_grid(s, t)) == _counts_by_size(enumerate_barcores_by_yy(s, t))


MIXED_PARITY = [
    (s, t) for s in range(2, 14) for t in range(s + 1, 14) if gcd(s, t) == 1 and (s + t) % 2
]


@pytest.mark.parametrize("s, t", MIXED_PARITY)
def test_dh_grid_counts_mixed_parity_pairs(s, t):
    # Ford-Mai-Sze: C(floor(s/2) + floor(t/2), floor(s/2)) self-conjugate
    # (s,t)-cores for every coprime pair, one per diagonal-hooks path.
    cores = list(enumerate_selfconj_by_dh(s, t))
    assert len(set(cores)) == len(cores) == comb(s // 2 + t // 2, s // 2)
    assert all(is_self_conjugate(p) and is_t_core(p, s) and is_t_core(p, t) for p in cores)
    want = _counts_by_size(cores)
    assert census_by_size(dh_grid(s, t)) == want
    assert census_by_size(dh_grid(t, s)) == want
    if s <= 11 and t <= 11:
        # the filtered Anderson enumeration is the independent source; past
        # (10,11) it walks over a million paths
        filtered = [p for p in _anderson_cores(s, t) if is_self_conjugate(p)]
        assert set(cores) == set(filtered)
        assert want == _counts_by_size(filtered)


def test_anderson_dp_reaches_a_census_past_enumeration():
    # C(30, 13) = 119,759,850 paths: far too many to walk one by one.
    counts = census_by_size(anderson_grid(13, 17), beta_sets=True)
    assert (sum(counts), len(counts) - 1) == (comb(30, 13) // 30, 2016)
    assert (sum(counts), len(counts) - 1) == extremal_stats(13, 17)
    assert counts[0] == counts[1] == counts[-1] == 1


def test_worked_anderson_path():
    p = anderson_path_to_core("URUURRURURURRURRRR", 7, 11)
    assert p == (5, 3, 3, 3, 2, 2, 1, 1, 1)


def test_worked_dh_and_yy_paths():
    assert dh_path_to_selfconj("RURRRUUR", 7, 11) == (3, 3, 3)
    assert yy_path_to_barcore("RURRRUUR", 7, 11) == (6,)


def test_worked_gamma_pair():
    assert gamma((3, 3, 3), 7, 11) == (6,)
    assert gamma_inverse((6,), 7, 11) == (3, 3, 3)
    # parameter order must not matter
    assert gamma((3, 3, 3), 11, 7) == (6,)


@pytest.mark.parametrize("s, t", ((3, 5), (5, 7)))
def test_gamma_bijects_the_two_censuses(s, t):
    want = {b for b in enumerate_barcores_by_yy(s, t)}
    got = set()
    for p in enumerate_selfconj_by_dh(s, t):
        assert is_self_conjugate(p) and is_t_core(p, s) and is_t_core(p, t)
        b = gamma(p, s, t)
        assert gamma_inverse(b, s, t) == p
        got.add(b)
    assert got == want
    assert len(want) == comb(s // 2 + t // 2, s // 2)


@pytest.mark.parametrize("s, t", ((3, 5), (5, 7)))
def test_dh_and_yy_paths_round_trip(s, t):
    for p in enumerate_selfconj_by_dh(s, t):
        assert dh_path_to_selfconj(selfconj_to_dh_path(p, s, t), s, t) == p
    for b in enumerate_barcores_by_yy(s, t):
        assert yy_path_to_barcore(barcore_to_yy_path(b, s, t), s, t) == b


def test_big_gamma_rejects_trivial_or_even_parameters():
    with pytest.raises(ValueError, match="odd"):
        big_gamma((1,), 3, 5)
    with pytest.raises(ValueError, match="odd"):
        big_gamma((1,), 6, 10)


def test_big_gamma_on_the_empty_partition():
    # the image need not keep the size, only invert exactly
    assert big_gamma((), 9, 15) == (3,)
    assert big_gamma_inverse((3,), 9, 15) == ()


def test_big_gamma_round_trips_small_self_conjugate_cores():
    count = 0
    for n in range(21):
        for p in enumerate_self_conjugate(n):
            if not (is_t_core(p, 9) and is_t_core(p, 15)):
                continue
            b = big_gamma(p, 9, 15)
            assert is_stbar_core(b, 9, 15)
            assert big_gamma_inverse(b, 9, 15) == p
            count += 1
    assert count > 10
