"""Signed lattice grids and the monotonic-path bijections, including gamma.

Three grids share one path mechanism. A monotonic path from the bottom-left
to the top-right corner of an R x C cell grid is stored as its column
heights: a non-decreasing C-tuple over 0..R whose entry c counts the cells of
column c below the path. A grid is stored as its C columns from left to
right, each a ``range`` from the bottom row up (every cell is linear in its
position). The heights and the grid's sign border determine the trapped
cells, whose values decode a partition. :data:`FAMILIES` holds each family's
grid, path bound and decoder, keyed "straight", "selfconj" and "bar"; on it,
:func:`path_to_core` decodes one path, :func:`core_to_path` recovers the path
of a self-conjugate or bar core, :func:`enumerate_cores_by_paths` walks them
all, and :func:`census_by_size` counts the cores of each size up to a limit
without walking the paths one by one, for the pair in either order, and
:func:`check_census` judges its work before it runs. :func:`big_gamma`
composes the bead pass of ``encodings`` with its strip builder and gamma on
the middle component; no tower is built.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Iterator

from .bar_partitions import BarPartition
from .core_quotient import is_st_core, is_stbar_core
from .encodings import abacus, bar_abacus, conjugate_tuple, from_abacus, from_bar_abacus
from .partitions import (
    Partition,
    check_pair,
    common_divisor,
    conjugate,
    diagonal_hooks,
    from_diagonal_hooks,
    from_first_column_hooks,
    is_self_conjugate,
)

Path = tuple[int, ...]
# The columns from left to right, each a range from the bottom row up. For the
# coprime parameters used here no entry is zero, and signs split along a
# monotonic path: every column has its negatives at the bottom, every row at
# the right.
Grid = tuple[range, ...]


def _border_heights(grid: Grid) -> tuple[int, ...]:
    """Per column, the number of negative cells (measured from the bottom)."""
    return tuple(len(range(column.start, min(column.stop, 0), column.step)) for column in grid)


def anderson_grid(s: int, t: int) -> Grid:
    """The s x t grid with st - s - t at the top left.

    A right step subtracts s, a down step subtracts t: cell (r, c), row r from
    the top, holds st - s - t - c*s - r*t, which is y*t - (c+1)*s at height
    y = s - 1 - r.

    Raises:
        ValueError: unless s, t > 1 are coprime.
    """
    check_pair(s, t, coprime=True)
    return tuple(range(-c * s, (t - c) * s, t) for c in range(1, t + 1))


def dh_grid(s: int, t: int) -> Grid:
    """The floor(s/2) x floor(t/2) diagonal-hooks grid.

    Cell (i, j), 1-indexed from the top left, holds st - s(2j-1) - t(2i-1), so
    row i is at height floor(s/2) - i; all entries are odd and their absolute
    values are pairwise distinct. Coprime s and t are never both even, so this
    holds for either parity (Ford-Mai-Sze).

    Raises:
        ValueError: unless s, t > 1 are coprime.
    """
    check_pair(s, t, coprime=True)
    return tuple(
        range(s * t - s * (2 * j - 1) - t * (2 * (s // 2) - 1), s * t - s * (2 * j - 1), 2 * t)
        for j in range(1, t // 2 + 1)
    )


def yinyang_grid(s: int, t: int) -> Grid:
    """The (s-1)/2 x (t-1)/2 Yin-Yang grid for odd coprime s < t.

    Cell (i, j), 1-indexed from the top left, holds t((s+1)/2 - i) - s*j, which
    is t*k - s*j with k = (s+1)/2 - i counting the rows from the bottom. A
    right step subtracts s and a down step subtracts t. Corners: top left
    t(s-1)/2 - s, bottom left t - s, and on the negative side the absolute
    values are (t-s)/2 (top right) and s(t-1)/2 - t (bottom right).

    Raises:
        ValueError: unless s and t are odd, coprime and exceed 1 (checked
            first, as for every pair), then unless s < t.
    """
    check_pair(s, t, odd=True, coprime=True)
    if s >= t:
        raise ValueError("s must be less than t")
    return tuple(range(t - s * j, t * ((s + 1) // 2) - s * j, t) for j in range(1, (t + 1) // 2))


# Per family: its grid builder, whether a path must stay weakly above the
# sign border, and the decoder of its trapped values, in any order.
# "straight": (s,t)-cores on Anderson's grid; the k trapped values of sum S
# are the first-column hooks (a beta-set) of a core of size S - k(k-1)/2.
# "selfconj": self-conjugate (s,t)-cores on the diagonal-hooks grid, and
# "bar": (s-bar, t-bar)-cores on the yin-yang grid; every path counts, and
# the trapped |values| are the diagonal hooks or the parts of a core of size S.
FAMILIES = {
    "straight": (anderson_grid, True, from_first_column_hooks),
    "selfconj": (dh_grid, False, lambda trapped: from_diagonal_hooks([abs(v) for v in trapped])),
    "bar": (yinyang_grid, False, lambda trapped: tuple(sorted(map(abs, trapped), reverse=True))),
}


def _family(name: str) -> tuple:
    """The :data:`FAMILIES` row of ``name``, or a ValueError naming the families."""
    if name not in FAMILIES:
        raise ValueError("family must be straight, selfconj, or bar")
    return FAMILIES[name]


def path_to_core(family: str, path: Path, s: int, t: int) -> Partition | BarPartition:
    """The core of ``family`` decoded from the values the path traps in its grid.

    Raises:
        ValueError: for an unknown family; if the path does not fit the grid,
            or if a straight path dips below the sign border.
    """
    build, above_border, decode = _family(family)
    grid = build(s, t)
    rows, cols = len(grid[0]), len(grid)
    rising = not any(map(int.__gt__, path, path[1:]))
    if len(path) != cols or not rising or path and not 0 <= path[0] <= path[-1] <= rows:
        raise ValueError(f"path does not fit a {rows} x {cols} grid")
    trapped: list[int] = []
    for column, hp, hb in zip(grid, path, _border_heights(grid)):
        if above_border and hp < hb:
            raise ValueError("path traps negative values")
        trapped += column[hb:hp] if hp >= hb else column[hp:hb]
    return decode(trapped)


def core_to_path(family: str, core: Partition | BarPartition, s: int, t: int) -> Path:
    """The unique path that :func:`path_to_core` decodes to ``core``, for "selfconj" or "bar".

    A grid cell is marked when its |value| is a diagonal hook (selfconj) or a
    part (bar) of the core. Neither grid repeats an absolute value, so per
    column the run of marked cells next to the border raises or lowers the
    path by its length. Every such core is the image of one path, so the runs
    trace it.

    Raises:
        ValueError: for any other family; unless ``core`` is a self-conjugate
            (s,t)-core (selfconj), or an (s-bar, t-bar)-core (bar), whose
            check refuses a ``core`` that is not a bar partition.
    """
    if family == "selfconj":
        if not is_self_conjugate(core):
            raise ValueError("input is not self-conjugate")
        if not is_st_core(core, s, t):
            raise ValueError("input is not an (s,t)-core")
        marked = set(diagonal_hooks(core))
    elif family == "bar":
        if not is_stbar_core(core, s, t):
            raise ValueError("input is not an (s-bar, t-bar)-core")
        marked = set(core)
    else:
        raise ValueError(f"no path inverse for family {family!r}")
    grid = FAMILIES[family][0](s, t)
    heights = []
    for column, hb in zip(grid, _border_heights(grid)):
        up = sum(1 for _ in takewhile(marked.__contains__, column[hb:]))
        down = sum(1 for _ in takewhile(marked.__contains__, map(abs, reversed(column[:hb]))))
        heights.append(hb + up - down)
    return tuple(heights)


def gamma(p: Partition, s: int, t: int) -> BarPartition:
    """Coprime-parameter bijection from self-conjugate (s,t)-cores to bar-cores.

    Reads the core's diagonal-hooks path, unchanged, in the Yin-Yang grid of
    the same shape.

    Raises:
        ValueError: unless s, t are odd, coprime, > 1 and ``p`` is a
            self-conjugate (s,t)-core.
    """
    s, t = sorted((s, t))
    check_pair(s, t, odd=True, coprime=True)
    return path_to_core("bar", core_to_path("selfconj", p, s, t), s, t)


def gamma_inverse(b: BarPartition, s: int, t: int) -> Partition:
    """Inverse of :func:`gamma`: read the bar-core's path in the other grid."""
    s, t = sorted((s, t))
    check_pair(s, t, odd=True, coprime=True)
    return path_to_core("selfconj", core_to_path("bar", b, s, t), s, t)


def big_gamma(p: Partition, s: int, t: int) -> BarPartition:
    """Bijection from self-conjugate (s,t)-cores to (s-bar, t-bar)-cores, odd g > 1.

    :func:`~stcores.encodings.abacus` reads p's runner surpluses and g-quotient,
    and :func:`~stcores.encodings.from_bar_abacus` builds the strips back: the
    first (g-1)/2 surpluses are the charges (zeta on the g-core), gamma at the
    reduced parameters sends the middle component to component 0, and the
    first (g-1)/2 components shift up one slot.

    Raises:
        ValueError: unless s, t > 1 are odd with gcd(s,t) > 1, and ``p`` is
            a self-conjugate (s,t)-core.
    """
    check_pair(s, t, odd=True)
    g = common_divisor(s, t)
    if not is_self_conjugate(p):
        raise ValueError("input is not self-conjugate")
    if not is_st_core(p, s, t):
        raise ValueError("input is not an (s,t)-core")
    sp, tp, half = s // g, t // g, (g - 1) // 2
    surplus, quotient = abacus(p, g)
    # s' or t' is 1 only when g is s or t: p is then a g-core, its quotient
    # is empty, and gamma would refuse the unit modulus. Elsewhere gamma runs
    # even on an empty middle, whose image need not be empty.
    lam0 = gamma(quotient[half], sp, tp) if min(sp, tp) > 1 else ()
    return from_bar_abacus(surplus[:half], (lam0,) + quotient[:half])


def big_gamma_inverse(b: BarPartition, s: int, t: int) -> Partition:
    """Inverse of :func:`big_gamma`: ``bar_abacus``, then ``from_abacus`` on the mirrored halves.

    Raises:
        ValueError: unless s, t > 1 are odd with gcd(s,t) > 1, and ``b`` is
            a bar partition (checked first) and an (s-bar, t-bar)-core.
    """
    check_pair(s, t, odd=True)
    g = common_divisor(s, t)
    charges, quotient = bar_abacus(b, g)
    if not is_stbar_core(b, s, t):
        raise ValueError("input is not an (s-bar, t-bar)-core")
    sp, tp = s // g, t // g
    middle = gamma_inverse(quotient[0], sp, tp) if min(sp, tp) > 1 else ()
    half = quotient[1:]
    mirror = tuple(conjugate(q) for q in reversed(half))
    return from_abacus(charges + (0,) + conjugate_tuple(charges), half + (middle,) + mirror)


def enumerate_cores_by_paths(family: str, s: int, t: int) -> Iterator[Partition | BarPartition]:
    """All cores of ``family`` for a coprime pair, one per valid path, in lexicographic path order.

    One descent over the columns of a grid built once carries each path's
    trapped values; a straight walk starts every column at its border.
    """
    build, above_border, decode = _family(family)
    grid = build(s, t)
    rows = len(grid[0])
    columns = tuple(zip(grid, _border_heights(grid)))

    def descend(c: int, low: int, trapped: tuple[int, ...]) -> Iterator[Partition | BarPartition]:
        if c == len(columns):
            yield decode(trapped)
            return
        column, hb = columns[c]
        for h in range(max(low, hb) if above_border else low, rows + 1):
            yield from descend(c + 1, h, trapped + tuple(column[hb:h] if h >= hb else column[h:hb]))

    yield from descend(0, 0, ())


# Largest census work, as check_census counts it, that the series builders
# take on. It and the two weights below are fitted to tools/census_grid.csv (in
# process, 2-vCPU Xeon, Python 3.11.7): accepted cells take up to 3.0 s (bar,
# (1599,1601) to 4000), refused ones from 0.007 s (straight, (4,1601) at L = 90):
# the straight weights date from the walk along the grid's long side.
CENSUS_WORK_CAP = 300_000_000
# Work per column, walked even at limit 0. It bounds t at 10**4: past it the
# straight sets term undercounted a small s ((3,100001) at L = 60 took 4.9 s).
_COLUMN_WORK = 30_000
# Work per self-conjugate or bar state: the most that keeps every census of t <=
# 1601 to L <= 4000, which a reduced pair cap took on before, within the cap.
_STATE_WORK = 15


def check_census(family: str, s: int, t: int, limit: int, cap: int = CENSUS_WORK_CAP) -> None:
    """Refuse the census of ``family`` to ``limit`` whose estimated work passes ``cap``.

    Takes the coprime pair in either order; below, s < t. A unit modulus
    passes, since :func:`census_by_size` walks no grid for it. Every census
    walks its columns: t * _COLUMN_WORK. The straight one keeps every (k, S)
    state of a column to the end; their number grows with traps = min(limit,
    (s-1)(t-1)/2), the most values a core can trap, and with sets, the number
    of sets of non-multiples of s up to ``limit`` closed under subtracting s:
    t * min(traps**3.6, sets**1.3), compared exactly as fifth and tenth
    powers. The others keep up to limit + 1 sums, _STATE_WORK each, at every
    height that traps no |value| over ``limit``: one per column of t//2 and at
    most one per cell of distinct |value| up to it.

    Raises:
        ValueError: for an unknown family; if the work passes ``cap``, naming
            the pair in ascending order.
    """
    straight = _family(family)[1]
    s, t = sorted((s, t))
    if s == 1:
        return
    if t * _COLUMN_WORK <= cap:
        if straight:
            traps = min(limit, (s - 1) * (t - 1) // 2)
            q, a = divmod(limit, s)
            sets = (q + 2) ** a * (q + 1) ** (s - 1 - a)
            if t**5 * traps**18 <= cap**5 or t**10 * sets**13 <= cap**10:
                return
        elif _STATE_WORK * (t // 2 + min(limit, (s // 2) * (t // 2))) * (limit + 1) <= cap:
            return
    raise ValueError(f"the {family} census of {(s, t)} to size {limit} exceeds the work cap {cap}")


def census_by_size(family: str, s: int, t: int, limit: int) -> list[int]:
    """Number of cores of ``family`` of each size up to ``limit``, over the paths of its grid.

    Counts what :func:`enumerate_cores_by_paths` decodes, without building a
    path or a partition: the size of a core adds up over the trapped cells,
    so one pass column by column over states (height, k, S) suffices, where S
    sums the trapped |values| so far and k counts the trapped cells of a
    straight path, 0 elsewhere; the size is S - k(k-1)/2. Every final height
    is accepted, since the path may finish its column profile below the top.
    A straight path must stay weakly above the sign border; others need not.

    Every trapped |value| is a hook length of the core (a first-column hook,
    a diagonal hook or a bar part), so at most its size: a column height that
    traps a value above ``limit`` is skipped, and above the border so is every
    higher one. Where the size is S, which only grows along the path, a state
    with S > limit is dropped as well; the straight size does not grow
    monotonically, so it is cut only at the end. Each column starts at the
    lowest height a state holds; the border path traps nothing, so it stays.

    The pair may come in either order. Anderson's grid is walked along its
    shorter side, (larger, smaller), as the straight states all last to the
    end; the others take (smaller, larger), as yin-yang needs. A unit modulus
    leaves only the empty core, and builds no grid.

    Returns:
        counts[n], the number of cores of size n, for n = 0..limit.
    """
    build, above_border, _ = _family(family)
    small, large = sorted((s, t))
    if small == 1:
        return [1] + [0] * limit
    grid = build(large, small) if above_border else build(small, large)
    # states maps each height that path prefixes reach to {(k, S): prefixes}.
    states: dict[int, dict[tuple[int, int], int]] = {0: {(0, 0): 1}}
    for column, hb in zip(grid, _border_heights(grid)):
        new: dict[int, dict[tuple[int, int], int]] = {}
        reach: dict[tuple[int, int], int] = {}
        for h in range(min(states), len(column) + 1):
            for key, n in states.get(h, {}).items():
                reach[key] = reach.get(key, 0) + n
            # Every column grows from the bottom up, so the |value| trapped
            # farthest from the border is the largest, and grows with h above it.
            if h < hb and (above_border or -column[h] > limit):
                continue
            if h > hb and column[h - 1] > limit:
                break
            trapped = column[hb:h] if h >= hb else column[h:hb]
            m, w = len(trapped) if above_border else 0, abs(sum(trapped))
            level = {
                (k + m, sum_ + w): n
                for (k, sum_), n in reach.items()
                if above_border or sum_ + w <= limit
            }
            if level:
                new[h] = level
        states = new
    counts = [0] * (limit + 1)
    for level in states.values():
        for (k, sum_), n in level.items():
            if (size := sum_ - k * (k - 1) // 2) <= limit:
                counts[size] += n
    return counts
