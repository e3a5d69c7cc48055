from collections import Counter
from functools import cache
from itertools import product
from math import comb, gcd

import pytest

from stcores import core_quotient, encodings, lattice
from stcores.bar_partitions import enumerate_bar_partitions, is_tbar_core
from stcores.core_quotient import (
    BarTower,
    StraightTower,
    bar_decompose,
    bar_reconstruct,
    decompose,
    is_st_core,
    is_stbar_core,
    reconstruct,
)
from stcores.encodings import zeta, zeta_inverse
from stcores.lattice import (
    FAMILIES,
    _border_heights,
    _paths_above,
    anderson_grid,
    big_gamma,
    big_gamma_inverse,
    census_by_size,
    core_to_path,
    dh_grid,
    enumerate_cores_by_paths,
    gamma,
    gamma_inverse,
    path_to_core,
    yinyang_grid,
)
from stcores.oracle import enumerate_self_conjugate, extremal_stats
from stcores.partitions import conjugate, diagonal_hooks, is_self_conjugate, is_t_core


def _every_path(rows, cols):
    """Every monotonic path of a rows x cols grid: the walk over a zero border."""
    return list(_paths_above((0,) * cols, rows))


def test_paths_over_a_zero_border_are_the_binomial_family():
    paths = _every_path(2, 2)
    assert paths == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert len(_every_path(3, 4)) == comb(7, 3)


def test_paths_over_a_zero_border_yield_every_height_profile_once():
    for rows, cols in product(range(6), repeat=2):
        paths = _every_path(rows, cols)
        profiles = [h for h in product(range(rows + 1), repeat=cols) if list(h) == sorted(h)]
        assert paths == profiles
        assert len(set(paths)) == comb(rows + cols, rows)


@pytest.mark.parametrize(
    "path",
    ((0, 1, 1, 1), (0, 1, 1, 1, 3, 3), (0, 2, 1, 1, 3), (0, 1, 1, 1, 4), (-1, 1, 1, 1, 3)),
    ids=("too short", "too long", "falling step", "above the grid", "below the grid"),
)
def test_decoders_refuse_a_malformed_path(path):
    # the (7,11) diagonal-hooks and yin-yang grids are 3 x 5, and the
    # (3,5) Anderson grid too
    for family, (s, t) in (("straight", (3, 5)), ("selfconj", (7, 11)), ("bar", (7, 11))):
        with pytest.raises(ValueError, match=r"^path does not fit a 3 x 5 grid$"):
            path_to_core(family, path, s, t)


def test_a_straight_path_below_the_border_is_refused():
    # the (2,3) Anderson border is (1, 2, 2): the floor path traps -2, -4, -1, ...
    with pytest.raises(ValueError, match="^path traps negative values$"):
        path_to_core("straight", (0, 0, 0), 2, 3)
    assert path_to_core("straight", (1, 2, 2), 2, 3) == ()
    # the other families decode every path, on either side of the border
    assert path_to_core("selfconj", (0, 0), 4, 5) == (4, 1, 1, 1)


def _cells(grid):
    """The grid's columns as tuples, after checking that each is a range."""
    assert all(type(column) is range for column in grid)
    return tuple(map(tuple, grid))


def test_anderson_grid_small_values():
    grid = anderson_grid(2, 3)
    # value at row r, column c is st - s - t - cs - rt, zero-indexed from the
    # top left; a grid is its columns, left to right, each from the bottom up
    assert _cells(grid) == ((-2, 1), (-4, -1), (-6, -3))
    assert _border_heights(grid) == (1, 2, 2)


def test_anderson_grid_rejects_common_factors():
    with pytest.raises(ValueError, match="coprime"):
        anderson_grid(4, 6)


def test_dh_and_yinyang_grid_small_values():
    # columns left to right, each from the bottom up
    assert _cells(dh_grid(3, 5)) == ((7,), (1,))
    assert [len(column) for column in dh_grid(7, 11)] == [3] * 5
    assert _cells(dh_grid(4, 5)) == ((1, 11), (-7, 3))
    assert _cells(dh_grid(2, 3)) == ((1,),)
    assert _cells(yinyang_grid(3, 5)) == ((2,), (-1,))


# The grids as tuples of cells, each cell by its formula: an independent
# source for the builders' ranges.
TUPLE_GRIDS = {
    anderson_grid: lambda s, t: tuple(tuple(y * t - (c + 1) * s for y in range(s)) for c in range(t)),
    dh_grid: lambda s, t: tuple(
        tuple(s * t - s * (2 * j - 1) - t * (2 * i - 1) for i in range(s // 2, 0, -1))
        for j in range(1, t // 2 + 1)
    ),
    yinyang_grid: lambda s, t: tuple(
        tuple(t * k - s * j for k in range(1, (s + 1) // 2)) for j in range(1, (t + 1) // 2)
    ),
}
COPRIME_TO_30 = [(s, t) for s in range(2, 30) for t in range(s + 1, 31) if gcd(s, t) == 1]


@pytest.mark.parametrize("build", TUPLE_GRIDS, ids=lambda build: build.__name__)
def test_grids_match_their_cell_formulas_and_count_their_negatives(build):
    pairs = [(s, t) for s, t in COPRIME_TO_30 if s % 2 and t % 2]
    if build is not yinyang_grid:
        pairs = COPRIME_TO_30 + [(t, s) for s, t in COPRIME_TO_30]
    for s, t in pairs:
        grid, want = build(s, t), TUPLE_GRIDS[build](s, t)
        assert _cells(grid) == want, (s, t)
        assert _border_heights(grid) == tuple(sum(v < 0 for v in column) for column in want)


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
    cores = list(enumerate_cores_by_paths("straight", s, t))
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
        path_to_core("straight", path, s, t)
        for path in _every_path(s, t)
        if all(map(int.__ge__, path, border))
    ]
    assert list(enumerate_cores_by_paths("straight", s, t)) == want


@pytest.mark.parametrize("s, t", ((3, 5), (5, 7), (7, 11)))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_walk_builds_its_grid_once(monkeypatch, family, s, t):
    # each walk builds its grid and border once and decodes every path
    # in place, in the order the per-path decoder gives
    build, above_border, decode = FAMILIES[family]
    grid = build(s, t)
    calls = Counter()
    monkeypatch.setitem(
        FAMILIES, family, (lambda s, t: calls.update([family]) or build(s, t), above_border, decode)
    )
    cores = list(enumerate_cores_by_paths(family, s, t))
    assert calls == {family: 1}
    border = _border_heights(grid) if above_border else (0,) * len(grid)
    paths = list(_paths_above(border, len(grid[0])))
    assert cores == [path_to_core(family, path, s, t) for path in paths]


@cache
def _anderson_cores(s, t):
    return tuple(enumerate_cores_by_paths("straight", s, t))


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
    assert census_by_size("straight", s, t, _largest(s, t)) == want
    assert census_by_size("straight", t, s, _largest(s, t)) == want
    assert want[-1] == 1  # the bound is the largest size, padded with nothing


@pytest.mark.parametrize(
    "s, t", [(s, t) for s in range(3, 14, 2) for t in range(s + 2, 14, 2) if gcd(s, t) == 1]
)
def test_dh_and_yy_dp_count_the_enumerated_sizes(s, t):
    limit = _largest(s, t)
    want = _counts_by_size(enumerate_cores_by_paths("selfconj", s, t), limit)
    assert census_by_size("selfconj", s, t, limit) == want
    assert census_by_size("selfconj", t, s, limit) == want
    bar = _counts_by_size(enumerate_cores_by_paths("bar", s, t), limit)
    assert census_by_size("bar", s, t, limit) == bar


MIXED_PARITY = [
    (s, t) for s in range(2, 14) for t in range(s + 1, 14) if gcd(s, t) == 1 and (s + t) % 2
]


@pytest.mark.parametrize("s, t", MIXED_PARITY)
def test_dh_grid_counts_mixed_parity_pairs(s, t):
    # Ford-Mai-Sze: C(floor(s/2) + floor(t/2), floor(s/2)) self-conjugate
    # (s,t)-cores for every coprime pair, one per diagonal-hooks path.
    cores = list(enumerate_cores_by_paths("selfconj", s, t))
    assert len(set(cores)) == len(cores) == comb(s // 2 + t // 2, s // 2)
    assert all(is_self_conjugate(p) and is_t_core(p, s) and is_t_core(p, t) for p in cores)
    want = _counts_by_size(cores, _largest(s, t))
    assert census_by_size("selfconj", s, t, _largest(s, t)) == want
    assert census_by_size("selfconj", t, s, _largest(s, t)) == want
    if s <= 11 and t <= 11:
        # the filtered Anderson enumeration is the independent source; past
        # (10,11) it walks over a million paths
        filtered = [p for p in _anderson_cores(s, t) if is_self_conjugate(p)]
        assert set(cores) == set(filtered)
        assert want == _counts_by_size(filtered, _largest(s, t))


COPRIME_TO_10_11 = [(s, t) for s in range(2, 11) for t in range(s + 1, 12) if gcd(s, t) == 1]


@pytest.mark.parametrize("s, t", COPRIME_TO_10_11)
def test_truncated_census_is_the_full_census_cut_at_the_limit(s, t):
    families = ["straight", "selfconj"] + ["bar"] * (s % 2 and t % 2)
    for family in families:
        full = census_by_size(family, s, t, _largest(s, t))
        for limit in (0, 1, 5, 17, 40, 80):
            want = (full + [0] * limit)[: limit + 1]
            assert census_by_size(family, s, t, limit) == want


@pytest.mark.parametrize("s, t, limit", ((19, 23, 18), (101, 103, 40), (1600, 1601, 10)))
def test_small_sizes_of_a_large_pair_count_every_partition(s, t, limit):
    # No hook of a partition of n < min(s, t) reaches s or t, so every such
    # partition is an (s,t)-core; p(n) comes from Euler's recurrence here.
    # (101,103) stops at 40: every subset of 1..limit is a trapped set
    # there, and the DP took 0.4 s at 40, 1.8 s at 60 and 5.1 s at 80.
    # (1600,1601) has 1601 columns of 1600 cells, of which the DP visits only
    # the few heights next to each border.
    p = [1]
    for n in range(1, limit + 1):
        total = 0
        for j in range(1, n + 1):
            for k in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2):
                if k <= n:
                    total += (-1) ** (j + 1) * p[n - k]
        p.append(total)
    assert census_by_size("straight", s, t, limit) == p


def _distinct_part_counts(parts, limit):
    """Number of partitions of n = 0..limit into distinct members of ``parts``."""
    counts = [1] + [0] * limit
    for part in parts:
        for n in range(limit, part - 1, -1):
            counts[n] += counts[n - part]
    return counts


@pytest.mark.parametrize(
    "family, parts", (("selfconj", range(1, 11, 2)), ("bar", range(1, 11)))
)
def test_small_sizes_of_a_large_odd_pair_count_every_core(family, parts):
    # Below min(s, t) every self-conjugate partition and every bar partition
    # is a core of the pair; self-conjugate partitions of n correspond to
    # partitions of n into distinct odd parts (their diagonal hooks).
    assert census_by_size(family, 1599, 1601, 10) == _distinct_part_counts(parts, 10)


def test_anderson_dp_reaches_a_census_past_enumeration():
    # C(30, 13) = 119,759,850 paths: far too many to walk one by one.
    counts = census_by_size("straight", 13, 17, _largest(13, 17))
    assert (sum(counts), len(counts) - 1) == (comb(30, 13) // 30, 2016)
    assert (sum(counts), len(counts) - 1) == extremal_stats(13, 17)
    assert counts[0] == counts[1] == counts[-1] == 1


def test_worked_anderson_path():
    p = path_to_core("straight", (1, 3, 3, 4, 5, 6, 6, 7, 7, 7, 7), 7, 11)
    assert p == (5, 3, 3, 3, 2, 2, 1, 1, 1)


def test_worked_dh_and_yy_paths():
    assert path_to_core("selfconj", (0, 1, 1, 1, 3), 7, 11) == (3, 3, 3)
    assert path_to_core("bar", (0, 1, 1, 1, 3), 7, 11) == (6,)


def test_worked_gamma_pair():
    assert gamma((3, 3, 3), 7, 11) == (6,)
    assert gamma_inverse((6,), 7, 11) == (3, 3, 3)
    # parameter order must not matter
    assert gamma((3, 3, 3), 11, 7) == (6,)


@pytest.mark.parametrize("s, t", ((3, 5), (5, 7)))
def test_gamma_bijects_the_two_censuses(s, t):
    want = {b for b in enumerate_cores_by_paths("bar", s, t)}
    got = set()
    for p in enumerate_cores_by_paths("selfconj", s, t):
        assert is_self_conjugate(p) and is_t_core(p, s) and is_t_core(p, t)
        b = gamma(p, s, t)
        assert gamma_inverse(b, s, t) == p
        got.add(b)
    assert got == want
    assert len(want) == comb(s // 2 + t // 2, s // 2)


@pytest.mark.parametrize(
    "s, t", [(s, t) for s in range(3, 16, 2) for t in range(s + 2, 16, 2) if gcd(s, t) == 1]
)
def test_dh_and_yy_paths_round_trip(s, t):
    # core_to_path inverts path_to_core on every path of the two grids, which
    # share their shape for odd s and t, and gamma reads each path across
    for path in _every_path((s - 1) // 2, (t - 1) // 2):
        p = path_to_core("selfconj", path, s, t)
        b = path_to_core("bar", path, s, t)
        assert core_to_path("selfconj", p, s, t) == path
        assert core_to_path("bar", b, s, t) == path
        assert gamma(p, s, t) == b
        assert gamma_inverse(b, s, t) == p


def _scanning_core_to_path(family, core, s, t):
    """core_to_path on a valid core by testing every cell of each column."""
    build = dh_grid if family == "selfconj" else yinyang_grid
    marked = set(diagonal_hooks(core) if family == "selfconj" else core)
    path = []
    for column in TUPLE_GRIDS[build](s, t):
        hb = sum(v < 0 for v in column)
        up = sum(abs(v) in marked for v in column[hb:])
        down = sum(abs(v) in marked for v in column[:hb])
        assert not (up and down)
        path.append(hb + up - down)
    return tuple(path)


@pytest.mark.parametrize(
    "s, t", [(s, t) for s in range(3, 14, 2) for t in range(s + 2, 18, 2) if gcd(s, t) == 1]
)
def test_core_to_path_reads_what_a_scan_of_every_cell_reads(s, t):
    for family in ("selfconj", "bar"):
        for core in enumerate_cores_by_paths(family, s, t):
            assert core_to_path(family, core, s, t) == _scanning_core_to_path(family, core, s, t)


def test_gamma_round_trips_at_a_pair_of_a_hundred_million_cells():
    # Each grid is 10,000 x 10,001 cells; only the marked runs are read.
    assert gamma_inverse(gamma((), 20001, 20003), 20001, 20003) == ()


@pytest.mark.parametrize("family", ("straight", "anderson", "Bar"))
def test_core_to_path_refuses_every_other_family(family):
    with pytest.raises(ValueError, match=f"^no path inverse for family '{family}'$"):
        core_to_path(family, (), 3, 5)


def _count_grid_builds(monkeypatch):
    """A Counter of the self-conjugate and bar grid builds from here on."""
    calls = Counter()
    for family in ("selfconj", "bar"):
        build, above_border, decode = FAMILIES[family]
        counted = lambda s, t, family=family, build=build: calls.update([family]) or build(s, t)
        monkeypatch.setitem(FAMILIES, family, (counted, above_border, decode))
    return calls


def test_each_gamma_call_builds_each_grid_once(monkeypatch):
    calls = _count_grid_builds(monkeypatch)
    assert gamma((3, 3, 3), 7, 11) == (6,)
    assert calls == {"selfconj": 1, "bar": 1}
    calls.clear()
    assert gamma_inverse((6,), 7, 11) == (3, 3, 3)
    assert calls == {"selfconj": 1, "bar": 1}


@pytest.mark.parametrize(
    "s, t", [(s, t) for s in range(2, 16) for t in range(s + 1, 16) if gcd(s, t) == 1]
)
def test_censuses_meet_their_closed_forms(s, t):
    # A third source for each census, read from the DP alone at the largest
    # size; each average is written as an integer identity.
    limit = _largest(s, t)
    average = (s + t + 1) * (s - 1) * (t - 1)  # 24 times the average size
    straight = census_by_size("straight", s, t, limit)
    count = comb(s + t, s) // (s + t)  # Anderson
    assert sum(straight) == count
    assert straight[limit] == 1  # Olsson-Stanton
    assert 24 * sum(n * c for n, c in enumerate(straight)) == count * average  # Armstrong
    selfconj = census_by_size("selfconj", s, t, limit)
    count = comb(s // 2 + t // 2, s // 2)  # Ford-Mai-Sze
    assert sum(selfconj) == count
    assert 24 * sum(n * c for n, c in enumerate(selfconj)) == count * average  # Chen-Huang-Wang
    if s % 2 and t % 2:
        bar = census_by_size("bar", s, t, limit)
        assert sum(bar) == comb((s - 1) // 2 + (t - 1) // 2, (s - 1) // 2)


def test_big_gamma_builds_the_reduced_grids_once_and_none_at_a_unit_modulus(monkeypatch):
    calls = _count_grid_builds(monkeypatch)
    # (9,15) reduces to (3,5): gamma runs on the middle component, even an
    # empty one, whose image (1,) is not empty
    for p, b in (((2, 1), ()), ((), (3,))):
        assert big_gamma(p, 9, 15) == b
        assert calls == {"selfconj": 1, "bar": 1}
        calls.clear()
        assert big_gamma_inverse(b, 9, 15) == p
        assert calls == {"selfconj": 1, "bar": 1}
        calls.clear()
    # (9,27) reduces to (1,3): every quotient component is a 1-core, so empty
    assert big_gamma((2, 1), 9, 27) == (2,)
    assert big_gamma_inverse((2,), 9, 27) == (2, 1)
    assert not calls


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


@pytest.mark.parametrize(
    "s, t, limit, sources",
    [(3, 9, 24, 6), (9, 3, 24, 6), (5, 15, 24, 15), (15, 25, 30, 143), (21, 35, 30, 170)],
)
def test_big_gamma_bijects_where_a_reduced_modulus_is_one_or_g_exceeds_three(s, t, limit, sources):
    # (3,9), (9,3) and (5,15) reduce to a pair with a 1, where no gamma runs
    # and the middle component must stay empty; (15,25) and (21,35) take
    # g = 5 and 7 over the reduced pair (3,5).
    cores = [
        p
        for n in range(limit + 1)
        for p in enumerate_self_conjugate(n)
        if is_t_core(p, s) and is_t_core(p, t)
    ]
    images = [big_gamma(p, s, t) for p in cores]
    assert len(cores) == sources
    assert all(is_stbar_core(b, s, t) for b in images)
    assert len(set(images)) == len(images)
    assert [big_gamma_inverse(b, s, t) for b in images] == cores
    assert [big_gamma(big_gamma_inverse(b, s, t), s, t) for b in images] == images


def _tower_big_gamma(p, s, t):
    """big_gamma by the tower route: decompose, zeta on the core, bar_reconstruct."""
    g = gcd(s, t)
    sp, tp, half = s // g, t // g, (g - 1) // 2
    tower = decompose(p, g)
    lam0 = gamma(tower.quotient[half], sp, tp) if min(sp, tp) > 1 else ()
    return bar_reconstruct(BarTower(g=g, core=zeta(tower.core, g), quotient=(lam0,) + tower.quotient[:half]))


def _tower_big_gamma_inverse(b, s, t):
    """big_gamma_inverse by the tower route: bar_decompose, zeta_inverse, reconstruct."""
    g = gcd(s, t)
    sp, tp = s // g, t // g
    tower = bar_decompose(b, g)
    middle = gamma_inverse(tower.quotient[0], sp, tp) if min(sp, tp) > 1 else ()
    half = tower.quotient[1:]
    quotient = half + (middle,) + tuple(conjugate(q) for q in reversed(half))
    return reconstruct(StraightTower(g=g, core=zeta_inverse(tower.core, g), quotient=quotient))


# Each (s, t) that a big-gamma test above bijects, with the largest size of its sources.
BIG_GAMMA_GRIDS = ((9, 15, 20), (3, 9, 24), (5, 15, 24), (15, 25, 30), (21, 35, 30))


@pytest.mark.parametrize("s, t, limit", BIG_GAMMA_GRIDS)
def test_big_gamma_matches_the_tower_route_it_replaces(s, t, limit):
    # The forward map on every self-conjugate (s,t)-core of the grid, and the
    # inverse on every (s-bar, t-bar)-core to the same size and every image.
    cores = [p for n in range(limit + 1) for p in enumerate_self_conjugate(n) if is_st_core(p, s, t)]
    images = [big_gamma(p, s, t) for p in cores]
    assert images == [_tower_big_gamma(p, s, t) for p in cores]
    bars = {b for n in range(limit + 1) for b in enumerate_bar_partitions(n) if is_stbar_core(b, s, t)}
    assert len(bars) > 1
    for b in sorted(bars.union(images)):
        assert big_gamma_inverse(b, s, t) == _tower_big_gamma_inverse(b, s, t)


def test_big_gamma_runs_no_tower_and_no_core_codec(monkeypatch):
    # Neither map goes through a tower or zeta, and neither decodes or
    # encodes a core: the abacus passes carry the g-core part themselves.
    def never(*args):
        raise AssertionError("a codec or tower ran")

    for module in (encodings, core_quotient):
        for name in ("gks_decode", "gks_encode", "olsson_decode", "olsson_encode", "zeta", "zeta_inverse"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, never)
    for name in ("decompose", "reconstruct", "bar_decompose", "bar_reconstruct"):
        monkeypatch.setattr(core_quotient, name, never)
    towers = {"BarTower", "StraightTower", "decompose", "reconstruct", "bar_decompose", "bar_reconstruct"}
    assert not towers.union({"zeta", "zeta_inverse"}) & set(vars(lattice))
    for p, b in (((2, 1), ()), ((), (3,)), ((10, 2, 1, 1, 1, 1, 1, 1, 1, 1), (10, 3, 1))):
        assert big_gamma(p, 9, 15) == b
        assert big_gamma_inverse(b, 9, 15) == p


@pytest.mark.parametrize(
    "call",
    [
        lambda: path_to_core("foo", (0,), 2, 3),
        lambda: list(enumerate_cores_by_paths("foo", 2, 3)),
        lambda: census_by_size("foo", 2, 3, 5),
    ],
    ids=["path_to_core", "enumerate_cores_by_paths", "census_by_size"],
)
def test_an_unknown_family_is_a_value_error(call):
    with pytest.raises(ValueError, match="^family must be straight, selfconj, or bar$"):
        call()
