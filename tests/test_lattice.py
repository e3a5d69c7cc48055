from collections import Counter
from functools import cache
from itertools import product
from math import comb, gcd

import pytest

from stcores.bar_partitions import is_tbar_core
from stcores.core_quotient import is_st_core, is_stbar_core
from stcores.lattice import (
    _border_heights,
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
    selfconj_to_dh_path,
    yinyang_grid,
    yy_path_to_barcore,
)
from stcores.oracle import enumerate_self_conjugate, extremal_stats
from stcores.partitions import is_self_conjugate, is_t_core


def test_enumerate_paths_is_the_binomial_family():
    paths = list(enumerate_paths(2, 2))
    assert paths == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert len(list(enumerate_paths(3, 4))) == comb(7, 3)


def test_enumerate_paths_yields_every_height_profile_once():
    for rows, cols in product(range(6), repeat=2):
        paths = list(enumerate_paths(rows, cols))
        profiles = [h for h in product(range(rows + 1), repeat=cols) if list(h) == sorted(h)]
        assert paths == profiles
        assert len(set(paths)) == comb(rows + cols, rows)


@pytest.mark.parametrize(
    "path",
    ((0, 1, 1, 1), (0, 1, 1, 1, 3, 3), (0, 2, 1, 1, 3), (0, 1, 1, 1, 4), (-1, 1, 1, 1, 3)),
    ids=("too short", "too long", "falling step", "above the grid", "below the grid"),
)
def test_decoders_refuse_a_malformed_path(path):
    # the (7,11) diagonal-hooks and yin-yang grids are 3 x 5
    for decode in (dh_path_to_selfconj, yy_path_to_barcore):
        with pytest.raises(ValueError, match=r"^path does not fit a 3 x 5 grid$"):
            decode(path, 7, 11)


def test_anderson_grid_small_values():
    grid = anderson_grid(2, 3)
    # value at row r, column c is st - s - t - cs - rt, zero-indexed from the
    # top left; a grid is its columns, left to right, each from the bottom up
    assert grid == ((-2, 1), (-4, -1), (-6, -3))
    assert _border_heights(grid) == (1, 2, 2)


def test_anderson_grid_rejects_common_factors():
    with pytest.raises(ValueError, match="coprime"):
        anderson_grid(4, 6)


def test_dh_and_yinyang_grid_small_values():
    # columns left to right, each from the bottom up
    assert dh_grid(3, 5) == ((7,), (1,))
    assert [len(column) for column in dh_grid(7, 11)] == [3] * 5
    assert dh_grid(4, 5) == ((1, 11), (-7, 3))
    assert dh_grid(2, 3) == ((1,),)
    assert yinyang_grid(3, 5) == ((2,), (-1,))


@pytest.mark.parametrize("s", (1, 4))
def test_yinyang_grid_needs_odd_interior_s(s):
    with pytest.raises(ValueError, match="odd"):
        yinyang_grid(s, 5)


def test_yinyang_grid_needs_s_below_t():
    with pytest.raises(ValueError, match="^s must be less than t$"):
        yinyang_grid(5, 3)


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


@pytest.mark.parametrize("s, t", ((2, 3), (3, 2), (3, 5), (4, 7), (5, 7), (7, 11), (11, 7)))
def test_bounded_anderson_walk_yields_what_the_filtered_walk_did(s, t):
    # the walk generates only heights at or above the sign border; the
    # reference filters every height profile, and the order must not change
    border = _border_heights(anderson_grid(s, t))
    want = [
        anderson_path_to_core(path, s, t)
        for path in enumerate_paths(s, t)
        if all(map(int.__ge__, path, border))
    ]
    assert list(enumerate_st_cores_by_paths(s, t)) == want


@cache
def _anderson_cores(s, t):
    return tuple(enumerate_st_cores_by_paths(s, t))


def _largest(s, t):
    """(s^2 - 1)(t^2 - 1)/24: the largest (s,t)-core and self-conjugate
    (s,t)-core size, and an upper bound on the (s-bar, t-bar)-core sizes."""
    return (s * s - 1) * (t * t - 1) // 24


def _counts_by_size(cores, limit):
    """counts[0..limit] of the cores by size."""
    sizes = Counter(sum(p) for p in cores)
    assert max(sizes) <= limit
    return [sizes[n] for n in range(limit + 1)]


@pytest.mark.parametrize(
    "s, t", [(s, t) for s in range(2, 12) for t in range(s + 1, 12) if gcd(s, t) == 1]
)
def test_anderson_dp_counts_the_enumerated_sizes(s, t):
    want = _counts_by_size(_anderson_cores(s, t), _largest(s, t))
    assert census_by_size(anderson_grid(s, t), _largest(s, t), beta_sets=True) == want
    assert census_by_size(anderson_grid(t, s), _largest(s, t), beta_sets=True) == want
    assert want[-1] == 1  # the bound is the largest size, padded with nothing


@pytest.mark.parametrize(
    "s, t", [(s, t) for s in range(3, 14, 2) for t in range(s + 2, 14, 2) if gcd(s, t) == 1]
)
def test_dh_and_yy_dp_count_the_enumerated_sizes(s, t):
    limit = _largest(s, t)
    want = _counts_by_size(enumerate_selfconj_by_dh(s, t), limit)
    assert census_by_size(dh_grid(s, t), limit) == want
    assert census_by_size(dh_grid(t, s), limit) == want
    bar = _counts_by_size(enumerate_barcores_by_yy(s, t), limit)
    assert census_by_size(yinyang_grid(s, t), limit) == bar


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
    want = _counts_by_size(cores, _largest(s, t))
    assert census_by_size(dh_grid(s, t), _largest(s, t)) == want
    assert census_by_size(dh_grid(t, s), _largest(s, t)) == want
    if s <= 11 and t <= 11:
        # the filtered Anderson enumeration is the independent source; past
        # (10,11) it walks over a million paths
        filtered = [p for p in _anderson_cores(s, t) if is_self_conjugate(p)]
        assert set(cores) == set(filtered)
        assert want == _counts_by_size(filtered, _largest(s, t))


COPRIME_TO_10_11 = [(s, t) for s in range(2, 11) for t in range(s + 1, 12) if gcd(s, t) == 1]


@pytest.mark.parametrize("s, t", COPRIME_TO_10_11)
def test_truncated_census_is_the_full_census_cut_at_the_limit(s, t):
    grids = [(anderson_grid(s, t), True), (dh_grid(s, t), False)]
    if s % 2 and t % 2:
        grids.append((yinyang_grid(s, t), False))
    for grid, beta_sets in grids:
        full = census_by_size(grid, _largest(s, t), beta_sets=beta_sets)
        for limit in (0, 1, 5, 17, 40, 80):
            want = (full + [0] * limit)[: limit + 1]
            assert census_by_size(grid, limit, beta_sets=beta_sets) == want


@pytest.mark.parametrize("s, t, limit", ((19, 23, 18), (101, 103, 40)))
def test_small_sizes_of_a_large_pair_count_every_partition(s, t, limit):
    # No hook of a partition of n < min(s, t) reaches s or t, so every such
    # partition is an (s,t)-core; p(n) comes from Euler's recurrence here.
    # (101,103) stops at 40: every subset of 1..limit is a trapped set
    # there, and the DP took 0.4 s at 40, 1.8 s at 60 and 5.1 s at 80.
    p = [1]
    for n in range(1, limit + 1):
        total = 0
        for j in range(1, n + 1):
            for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if k <= n:
                    total += (-1) ** (j + 1) * p[n - k]
        p.append(total)
    assert census_by_size(anderson_grid(s, t), limit, beta_sets=True) == p


def test_anderson_dp_reaches_a_census_past_enumeration():
    # C(30, 13) = 119,759,850 paths: far too many to walk one by one.
    counts = census_by_size(anderson_grid(13, 17), _largest(13, 17), beta_sets=True)
    assert (sum(counts), len(counts) - 1) == (comb(30, 13) // 30, 2016)
    assert (sum(counts), len(counts) - 1) == extremal_stats(13, 17)
    assert counts[0] == counts[1] == counts[-1] == 1


def test_worked_anderson_path():
    p = anderson_path_to_core((1, 3, 3, 4, 5, 6, 6, 7, 7, 7, 7), 7, 11)
    assert p == (5, 3, 3, 3, 2, 2, 1, 1, 1)


def test_worked_dh_and_yy_paths():
    assert dh_path_to_selfconj((0, 1, 1, 1, 3), 7, 11) == (3, 3, 3)
    assert yy_path_to_barcore((0, 1, 1, 1, 3), 7, 11) == (6,)


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
    with pytest.raises(ValueError, match=r"^gcd\(s, t\) must exceed 1$"):
        big_gamma((1,), 3, 5)
    with pytest.raises(ValueError, match="^s and t must be odd and exceed 1$"):
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
