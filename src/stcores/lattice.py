"""Signed lattice grids and the monotonic-path bijections, including gamma.

Three grids share one path mechanism. Paths run from the bottom-left corner to
the top-right corner of an R x C cell grid, one step right (R) or up (U) at a
time, and are stored as strings over {R, U}. The column-height profile of a
path, together with the grid's sign border, determines the trapped cells,
whose values decode a partition. :func:`census_by_size` counts the cores of
each size over all paths of a grid without walking them one by one.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .bar_partitions import BarPartition, is_tbar_core
from .core_quotient import BarTower, bar_decompose, bar_reconstruct, decompose, reconstruct, StraightTower
from .encodings import zeta, zeta_inverse
from .partitions import (
    Frozen,
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

Path = str


class SignedGrid(Frozen):
    """A rows x cols matrix of signed integers with a monotone sign border.

    values[r][c] uses matrix indexing, row 0 at the top. For the coprime
    parameters used here no entry is zero, and signs split along a monotonic
    path: every column has its negatives at the bottom, every row at the
    right.
    """

    __slots__ = ("rows", "cols", "values")
    rows: int
    cols: int
    values: tuple[tuple[int, ...], ...]

    def __init__(self, rows: int, cols: int, values: tuple[tuple[int, ...], ...]) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "values", values)

    def border_heights(self) -> tuple[int, ...]:
        """Per column, the number of negative cells (measured from the bottom)."""
        return tuple(
            sum(1 for r in range(self.rows) if self.values[r][c] < 0)
            for c in range(self.cols)
        )


def anderson_grid(s: int, t: int) -> SignedGrid:
    """The s x t grid with st - s - t at the top left.

    A right step subtracts s, a down step subtracts t: cell (r, c) holds
    st - s - t - c*s - r*t.

    Raises:
        ValueError: unless s, t > 1 are coprime.
    """
    check_pair(s, t, coprime=True)
    base = s * t - s - t
    values = tuple(
        tuple(base - c * s - r * t for c in range(t)) for r in range(s)
    )
    return SignedGrid(rows=s, cols=t, values=values)


def dh_grid(s: int, t: int) -> SignedGrid:
    """The floor(s/2) x floor(t/2) diagonal-hooks grid.

    Cell (i, j), 1-indexed, holds st - s(2j-1) - t(2i-1); all entries are odd
    and their absolute values are pairwise distinct. Coprime s and t are never
    both even, so this holds for either parity (Ford-Mai-Sze).

    Raises:
        ValueError: unless s, t > 1 are coprime.
    """
    check_pair(s, t, coprime=True)
    values = tuple(
        tuple(s * t - s * (2 * j - 1) - t * (2 * i - 1) for j in range(1, t // 2 + 1))
        for i in range(1, s // 2 + 1)
    )
    return SignedGrid(rows=s // 2, cols=t // 2, values=values)


def yinyang_grid(s: int, t: int) -> SignedGrid:
    """The (s-1)/2 x (t-1)/2 Yin-Yang grid for odd coprime s < t.

    Cell (i, j), 1-indexed, holds t((s+1)/2 - i) - s*j, so a right step
    subtracts s and a down step subtracts t. Corners: top left t(s-1)/2 - s,
    bottom left t - s, and on the negative side the absolute values are
    (t-s)/2 (top right) and s(t-1)/2 - t (bottom right).

    Raises:
        ValueError: unless s and t are odd, coprime and exceed 1 (checked
            first, as for every pair), then unless s < t.
    """
    check_pair(s, t, odd=True, coprime=True)
    if s >= t:
        raise ValueError("s must be less than t")
    values = tuple(
        tuple(t * ((s + 1) // 2 - i) - s * j for j in range(1, (t - 1) // 2 + 1))
        for i in range(1, (s - 1) // 2 + 1)
    )
    return SignedGrid(rows=(s - 1) // 2, cols=(t - 1) // 2, values=values)


def path_heights(path: Path, rows: int, cols: int) -> tuple[int, ...]:
    """Column-height profile of a monotonic path.

    heights[c] is the level (0 = bottom) at which the path crosses column c.

    Raises:
        ValueError: on malformed step strings or wrong step counts.
    """
    heights = []
    y = 0
    for step in path:
        if step == "R":
            heights.append(y)
        elif step == "U":
            y += 1
        else:
            raise ValueError(f"path steps must be R or U, got {step!r}")
    if len(heights) != cols or y != rows:
        raise ValueError(f"path does not fit a {rows} x {cols} grid")
    return tuple(heights)


def heights_to_path(heights: tuple[int, ...], rows: int) -> Path:
    """Inverse of :func:`path_heights` for a non-decreasing profile."""
    steps = []
    y = 0
    for h in heights:
        if h < y or h > rows:
            raise ValueError("heights must be non-decreasing and within the grid")
        steps.append("U" * (h - y))
        steps.append("R")
        y = h
    steps.append("U" * (rows - y))
    return "".join(steps)


def enumerate_paths(rows: int, cols: int) -> Iterator[Path]:
    """All monotonic paths of an R x C grid, exactly once, in a fixed order."""
    if rows < 0 or cols < 0:
        raise ValueError("rows and cols must be nonnegative")
    total = rows + cols
    for up_slots in combinations(range(total), rows):
        steps = ["R"] * total
        for i in up_slots:
            steps[i] = "U"
        yield "".join(steps)


def _trapped_values(
    grid: SignedGrid, path: Path, border: tuple[int, ...] | None = None
) -> tuple[list[int], list[int]]:
    """Values between the path and the sign border, split by side.

    ``border`` is ``grid.border_heights()``, passed in by callers that reuse it.

    Returns (above, below): above holds the positive values trapped where the
    path rises over the border, below the negative values where it dips under.
    """
    heights = path_heights(path, grid.rows, grid.cols)
    if border is None:
        border = grid.border_heights()
    above: list[int] = []
    below: list[int] = []
    for c in range(grid.cols):
        hp, hb = heights[c], border[c]
        for y in range(hb, hp):
            above.append(grid.values[grid.rows - 1 - y][c])
        for y in range(hp, hb):
            below.append(grid.values[grid.rows - 1 - y][c])
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


def _path_from_marked(grid: SignedGrid, marked: set[int]) -> Path:
    """Recover the path trapping exactly the cells whose |value| is marked.

    Works because the grids used here never repeat an absolute value: per
    column, marked cells adjacent to the border raise or lower the path by
    their count.

    Raises:
        ValueError: if no monotonic path traps exactly the marked set.
    """
    border = grid.border_heights()
    heights = []
    for c in range(grid.cols):
        hb = border[c]
        up = sum(
            1 for y in range(hb, grid.rows) if abs(grid.values[grid.rows - 1 - y][c]) in marked
        )
        down = sum(
            1 for y in range(0, hb) if abs(grid.values[grid.rows - 1 - y][c]) in marked
        )
        if up and down:
            raise ValueError("marked values straddle the border in one column")
        heights.append(hb + up - down)
    for c in range(grid.cols - 1):
        if heights[c] > heights[c + 1]:
            raise ValueError("marked values do not trace a monotonic path")
    return heights_to_path(tuple(heights), grid.rows)


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


def enumerate_st_cores_by_paths(s: int, t: int) -> Iterator[Partition]:
    """All (s,t)-cores for coprime s, t, one per valid Anderson path."""
    grid = anderson_grid(s, t)
    border = grid.border_heights()
    # Heights never fall, so a path stays weakly above the border once it does
    # so at each column c where the border rises to hb: hb up steps among the
    # first hb + c steps.
    rises = [(hb + c, hb) for c, hb in enumerate(border) if hb > (border[c - 1] if c else 0)]
    for path in enumerate_paths(grid.rows, grid.cols):
        if all(path.count("U", 0, end) >= hb for end, hb in rises):
            above, _ = _trapped_values(grid, path, border)
            yield from_first_column_hooks(above)


def enumerate_selfconj_by_dh(s: int, t: int) -> Iterator[Partition]:
    """All self-conjugate (s,t)-cores for coprime s, t, one per path."""
    grid = dh_grid(s, t)
    for path in enumerate_paths(grid.rows, grid.cols):
        yield dh_path_to_selfconj(path, s, t)


def enumerate_barcores_by_yy(s: int, t: int) -> Iterator[BarPartition]:
    """All (s-bar, t-bar)-cores for odd coprime s < t, one per path."""
    grid = yinyang_grid(s, t)
    for path in enumerate_paths(grid.rows, grid.cols):
        yield yy_path_to_barcore(path, s, t)


def census_by_size(grid: SignedGrid, *, beta_sets: bool = False) -> list[int]:
    """Number of cores of each size over the monotonic paths of ``grid``.

    Counts what the path enumerators above decode, without building a path or
    a partition: the size of a core adds up over the trapped cells, so one
    pass column by column over states (height, k, S) suffices, where k counts
    the trapped cells so far and S sums their |values|. Every final height is
    accepted, since the path may finish its column profile below the top.

    With ``beta_sets`` (the Anderson grid) only paths weakly above the sign
    border count, and k trapped values of sum S are a beta-set of a core of
    size S - k(k-1)/2. Otherwise (the diagonal-hooks and yin-yang grids)
    every path counts and the size is S.

    Returns:
        counts[n], the number of cores of size n, up to the largest size.
    """
    border = grid.border_heights()
    # states[h] maps (k, S) to the number of path prefixes ending at height h.
    states: list[dict[tuple[int, int], int]] = [{} for _ in range(grid.rows + 1)]
    states[0][(0, 0)] = 1
    for c, hb in enumerate(border):
        column = [abs(grid.values[grid.rows - 1 - y][c]) for y in range(grid.rows)]
        new: list[dict[tuple[int, int], int]] = [{} for _ in range(grid.rows + 1)]
        reach: dict[tuple[int, int], int] = {}
        for h in range(grid.rows + 1):
            for key, n in states[h].items():
                reach[key] = reach.get(key, 0) + n
            if beta_sets and h < hb:
                continue
            trapped = column[hb:h] if h >= hb else column[h:hb]
            m, w = len(trapped), sum(trapped)
            new[h] = {(k + m, sum_ + w): n for (k, sum_), n in reach.items()}
        states = new
    sizes: dict[int, int] = {}
    for level in states:
        for (k, sum_), n in level.items():
            size = sum_ - k * (k - 1) // 2 if beta_sets else sum_
            sizes[size] = sizes.get(size, 0) + n
    counts = [0] * (max(sizes) + 1)
    for size, n in sizes.items():
        counts[size] = n
    return counts
