"""Signed lattice grids and the monotonic-path bijections, including gamma.

Three grids share one path mechanism. A monotonic path from the bottom-left
to the top-right corner of an R x C cell grid is stored as its column
heights: a non-decreasing C-tuple over 0..R whose entry c counts the cells of
column c below the path. A grid is stored the same way, as its C columns from
left to right, each read from the bottom row up. The heights, together with
the grid's sign border, determine the trapped cells, whose values decode a
partition.
:func:`census_by_size` counts the cores of each size up to a limit over all
paths of a grid without walking them one by one.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator

from .bar_partitions import BarPartition, is_tbar_core
from .core_quotient import BarTower, bar_decompose, bar_reconstruct, decompose, reconstruct, StraightTower
from .encodings import zeta, zeta_inverse
from .partitions import (
    Partition,
    check_pair,
    common_divisor,
    conjugate,
    diagonal_hooks,
    from_diagonal_hooks,
    from_first_column_hooks,
    is_self_conjugate,
    is_t_core,
)

Path = tuple[int, ...]
# The columns from left to right, each from the bottom row up. For the
# coprime parameters used here no entry is zero, and signs split along a
# monotonic path: every column has its negatives at the bottom, every row at
# the right.
Grid = tuple[tuple[int, ...], ...]


def _border_heights(grid: Grid) -> tuple[int, ...]:
    """Per column, the number of negative cells (measured from the bottom)."""
    return tuple(sum(v < 0 for v in column) for column in grid)


def anderson_grid(s: int, t: int) -> Grid:
    """The s x t grid with st - s - t at the top left.

    A right step subtracts s, a down step subtracts t: cell (r, c), row r from
    the top, holds st - s - t - c*s - r*t, which is y*t - (c+1)*s at height
    y = s - 1 - r.

    Raises:
        ValueError: unless s, t > 1 are coprime.
    """
    check_pair(s, t, coprime=True)
    return tuple(tuple(y * t - (c + 1) * s for y in range(s)) for c in range(t))


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
        tuple(s * t - s * (2 * j - 1) - t * (2 * i - 1) for i in range(s // 2, 0, -1))
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
    return tuple(tuple(t * k - s * j for k in range(1, (s + 1) // 2)) for j in range(1, (t + 1) // 2))


def enumerate_paths(rows: int, cols: int) -> Iterator[Path]:
    """All monotonic paths of an R x C grid, exactly once, in lexicographic order."""
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be nonnegative")
    yield from combinations_with_replacement(range(rows + 1), cols)


def _check_path(path: Path, rows: int, cols: int) -> None:
    """Refuse anything but ``cols`` non-decreasing heights within 0..rows."""
    rising = not any(map(int.__gt__, path, path[1:]))
    if len(path) != cols or not rising or path and not 0 <= path[0] <= path[-1] <= rows:
        raise ValueError(f"path does not fit a {rows} x {cols} grid")


def _trapped_values(
    grid: Grid, path: Path, border: tuple[int, ...] | None = None
) -> tuple[list[int], list[int]]:
    """Values between the path and the sign border, split by side.

    ``border`` is ``_border_heights(grid)``, passed in by callers that reuse it.

    Returns (above, below): above holds the positive values trapped where the
    path rises over the border, below the negative values where it dips under.
    """
    _check_path(path, len(grid[0]), len(grid))
    if border is None:
        border = _border_heights(grid)
    above: list[int] = []
    below: list[int] = []
    for column, hp, hb in zip(grid, path, border):
        above += column[hb:hp]
        below += column[hp:hb]
    return above, below


def anderson_path_to_core(path: Path, s: int, t: int) -> Partition:
    """The (s,t)-core whose first-column hooks are the path's trapped values.

    The path must stay weakly above the sign border.

    Raises:
        ValueError: if the path dips below the border.
    """
    grid = anderson_grid(s, t)
    above, below = _trapped_values(grid, path)
    if below:
        raise ValueError("path traps negative values")
    return from_first_column_hooks(above)


def dh_path_to_selfconj(path: Path, s: int, t: int) -> Partition:
    """The self-conjugate (s,t)-core with the path's trapped |values| as diagonal hooks.

    Every monotonic path is valid; trapped cells may lie on either side of the
    border.
    """
    grid = dh_grid(s, t)
    above, below = _trapped_values(grid, path)
    return from_diagonal_hooks([abs(v) for v in above + below])


def yy_path_to_barcore(path: Path, s: int, t: int) -> BarPartition:
    """The (s-bar, t-bar)-core whose parts are the path's trapped |values|."""
    grid = yinyang_grid(s, t)
    above, below = _trapped_values(grid, path)
    return tuple(sorted((abs(v) for v in above + below), reverse=True))


def _path_from_marked(grid: Grid, marked: set[int]) -> Path:
    """Recover the path trapping exactly the cells whose |value| is marked.

    Works because the grids used here never repeat an absolute value: per
    column, marked cells adjacent to the border raise or lower the path by
    their count.

    Raises:
        ValueError: if no monotonic path traps exactly the marked set.
    """
    heights = []
    for column, hb in zip(grid, _border_heights(grid)):
        up = sum(abs(v) in marked for v in column[hb:])
        down = sum(abs(v) in marked for v in column[:hb])
        if up and down:
            raise ValueError("marked values straddle the border in one column")
        heights.append(hb + up - down)
    if any(map(int.__gt__, heights, heights[1:])):
        raise ValueError("marked values do not trace a monotonic path")
    return tuple(heights)


def selfconj_to_dh_path(p: Partition, s: int, t: int) -> Path:
    """The unique path whose trapped values give the self-conjugate core ``p``.

    Raises:
        ValueError: unless ``p`` is a self-conjugate (s,t)-core.
    """
    if not is_self_conjugate(p):
        raise ValueError("input is not self-conjugate")
    if not (is_t_core(p, s) and is_t_core(p, t)):
        raise ValueError("input is not an (s,t)-core")
    path = _path_from_marked(dh_grid(s, t), set(diagonal_hooks(p)))
    if dh_path_to_selfconj(path, s, t) != p:
        raise ValueError("diagonal hooks do not fit the grid")
    return path


def barcore_to_yy_path(b: BarPartition, s: int, t: int) -> Path:
    """The unique path whose trapped values give the bar-core ``b``.

    Raises:
        ValueError: unless ``b`` is an (s-bar, t-bar)-core.
    """
    if not (is_tbar_core(b, s) and is_tbar_core(b, t)):
        raise ValueError("input is not an (s-bar, t-bar)-core")
    path = _path_from_marked(yinyang_grid(s, t), set(b))
    if yy_path_to_barcore(path, s, t) != b:
        raise ValueError("parts do not fit the grid")
    return path


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
    path = selfconj_to_dh_path(p, s, t)
    return yy_path_to_barcore(path, s, t)


def gamma_inverse(b: BarPartition, s: int, t: int) -> Partition:
    """Inverse of :func:`gamma`: read the bar-core's path in the other grid."""
    s, t = sorted((s, t))
    check_pair(s, t, odd=True, coprime=True)
    path = barcore_to_yy_path(b, s, t)
    return dh_path_to_selfconj(path, s, t)


def big_gamma(p: Partition, s: int, t: int) -> BarPartition:
    """Bijection from self-conjugate (s,t)-cores to (s-bar, t-bar)-cores, odd g > 1.

    Builds the bar tower directly: the g-core maps through zeta, the first
    (g-1)/2 quotient components shift up one slot, and the middle (self
    conjugate) component crosses to component 0 through gamma at the reduced
    parameters.

    Raises:
        ValueError: unless s, t > 1 are odd with gcd(s,t) > 1, and ``p`` is
            a self-conjugate (s,t)-core.
    """
    check_pair(s, t, odd=True)
    g = common_divisor(s, t)
    if not is_self_conjugate(p):
        raise ValueError("input is not self-conjugate")
    if not (is_t_core(p, s) and is_t_core(p, t)):
        raise ValueError("input is not an (s,t)-core")
    sp, tp = s // g, t // g
    tower = decompose(p, g)
    bar_core = zeta(tower.core, g)
    middle = tower.quotient[(g - 1) // 2]
    if sp == 1 or tp == 1:
        if middle != ():
            raise ValueError("middle component must be empty when s' or t' is 1")
        lam0: BarPartition = ()
    else:
        lam0 = gamma(middle, sp, tp)
    components = (lam0,) + tower.quotient[: (g - 1) // 2]
    return bar_reconstruct(BarTower(g=g, core=bar_core, quotient=components))


def big_gamma_inverse(b: BarPartition, s: int, t: int) -> Partition:
    """Inverse of :func:`big_gamma`.

    Raises:
        ValueError: unless s, t > 1 are odd with gcd(s,t) > 1, and ``b`` is
            an (s-bar, t-bar)-core.
    """
    check_pair(s, t, odd=True)
    g = common_divisor(s, t)
    if not (is_tbar_core(b, s) and is_tbar_core(b, t)):
        raise ValueError("input is not an (s-bar, t-bar)-core")
    sp, tp = s // g, t // g
    tower = bar_decompose(b, g)
    core = zeta_inverse(tower.core, g)
    if sp == 1 or tp == 1:
        if tower.quotient[0] != ():
            raise ValueError("component 0 must be empty when s' or t' is 1")
        middle: Partition = ()
    else:
        middle = gamma_inverse(tower.quotient[0], sp, tp)
    half = list(tower.quotient[1:])
    quotient = half + [middle] + [conjugate(q) for q in reversed(half)]
    return reconstruct(StraightTower(g=g, core=core, quotient=tuple(quotient)))


def _paths_above(border: tuple[int, ...], rows: int, low: int = 0) -> Iterator[Path]:
    """The paths with every height h_c >= border[c], in lexicographic order.

    Each height starts at the larger of the previous height (``low``) and the
    border, so no path that dips below the border is generated.
    """
    if not border:
        yield ()
        return
    for h in range(max(low, border[0]), rows + 1):
        for rest in _paths_above(border[1:], rows, h):
            yield (h,) + rest


def enumerate_st_cores_by_paths(s: int, t: int) -> Iterator[Partition]:
    """All (s,t)-cores for coprime s, t, one per valid Anderson path."""
    grid = anderson_grid(s, t)
    border = _border_heights(grid)
    for path in _paths_above(border, s):
        above, _ = _trapped_values(grid, path, border)
        yield from_first_column_hooks(above)


def enumerate_selfconj_by_dh(s: int, t: int) -> Iterator[Partition]:
    """All self-conjugate (s,t)-cores for coprime s, t, one per path."""
    grid = dh_grid(s, t)
    for path in enumerate_paths(len(grid[0]), len(grid)):
        yield dh_path_to_selfconj(path, s, t)


def enumerate_barcores_by_yy(s: int, t: int) -> Iterator[BarPartition]:
    """All (s-bar, t-bar)-cores for odd coprime s < t, one per path."""
    grid = yinyang_grid(s, t)
    for path in enumerate_paths(len(grid[0]), len(grid)):
        yield yy_path_to_barcore(path, s, t)


def census_by_size(grid: Grid, limit: int, *, beta_sets: bool = False) -> list[int]:
    """Number of cores of each size up to ``limit`` over the monotonic paths of ``grid``.

    Counts what the path enumerators above decode, without building a path or
    a partition: the size of a core adds up over the trapped cells, so one
    pass column by column over states (height, k, S) suffices, where k counts
    the trapped cells so far and S sums their |values|. Every final height is
    accepted, since the path may finish its column profile below the top.

    With ``beta_sets`` (the Anderson grid) only paths weakly above the sign
    border count, and k trapped values of sum S are a beta-set of a core of
    size S - k(k-1)/2. Otherwise (the diagonal-hooks and yin-yang grids)
    every path counts and the size is S.

    Every trapped |value| is a hook length of the core (a first-column hook,
    a diagonal hook or a bar part), so at most its size: a column height that
    traps a value above ``limit`` is skipped. Where the size is S, which only
    grows along the path, a state with S > limit is dropped as well; the
    Anderson size does not grow monotonically, so it is cut only at the end.

    Returns:
        counts[n], the number of cores of size n, for n = 0..limit.
    """
    heights = range(len(grid[0]) + 1)
    # states[h] maps (k, S) to the number of path prefixes ending at height h.
    states: list[dict[tuple[int, int], int]] = [{} for _ in heights]
    states[0][(0, 0)] = 1
    for values, hb in zip(grid, _border_heights(grid)):
        column = [abs(v) for v in values]
        new: list[dict[tuple[int, int], int]] = [{} for _ in heights]
        reach: dict[tuple[int, int], int] = {}
        for h in heights:
            for key, n in states[h].items():
                reach[key] = reach.get(key, 0) + n
            if beta_sets and h < hb:
                continue
            trapped = column[hb:h] if h >= hb else column[h:hb]
            if max(trapped, default=0) > limit:
                continue
            m, w = len(trapped), sum(trapped)
            new[h] = {
                (k + m, sum_ + w): n
                for (k, sum_), n in reach.items()
                if beta_sets or sum_ + w <= limit
            }
        states = new
    counts = [0] * (limit + 1)
    for level in states:
        for (k, sum_), n in level.items():
            size = sum_ - k * (k - 1) // 2 if beta_sets else sum_
            if size <= limit:
                counts[size] += n
    return counts
