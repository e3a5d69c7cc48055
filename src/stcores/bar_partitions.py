"""Bar partitions: partitions into distinct parts and their bar lengths.

Bar lengths are the hook lengths right of the diagonal in the doubled
diagram; the row formula is the production implementation, the diagram an
independent test oracle. One recursion over distinct parts 1, 1 + step, ...
enumerates the bar partitions (step 1) and the distinct odd diagonal hooks of
the self-conjugate partitions in ``oracle`` (step 2).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .partitions import _not_int, as_partition, check_modulus, is_partition

BarPartition = tuple[int, ...]


def as_bar_partition(parts: Iterable[int]) -> BarPartition:
    """Canonicalize into a strictly decreasing tuple of positive integers.

    Raises:
        ValueError: on repeated parts, or as :func:`as_partition` does.
    """
    cleaned = as_partition(parts)
    if len(cleaned) != len(set(cleaned)):
        raise ValueError("bar partition parts must be distinct")
    return cleaned


def is_bar_partition(parts: tuple[int, ...]) -> bool:
    """True if ``parts`` is strictly decreasing with positive entries."""
    return is_partition(parts) and len(set(parts)) == len(parts)


def bar_length_multiset(b: BarPartition) -> tuple[int, ...]:
    """All bar lengths, sorted decreasing; cardinality equals the size.

    Row i contributes the sums b[i] + b[j] for j > i together with
    {1..b[i]} minus the differences b[i] - b[j] for j > i. Read from the last
    row up, so a part out of place raises ValueError before a row reads it.
    """
    bars, lower = [], []
    for x in reversed(b):
        if type(x) is not int and _not_int(x) or x <= (lower[-1] if lower else 0):
            raise ValueError("input is not a bar partition")
        gaps = {x - y for y in lower}
        bars.extend(x + y for y in lower)
        bars.extend(v for v in range(1, x + 1) if v not in gaps)
        lower.append(x)
    return tuple(sorted(bars, reverse=True))


def bar_length_multiset_by_diagram(b: BarPartition) -> tuple[int, ...]:
    """Bar lengths read off the doubled diagram (test oracle).

    D(b) has Frobenius coordinates (b[0]..b[k-1] | b[0]-1..b[k-1]-1): row
    r < k holds r + b[r] + 1 cells, and column c < k holds c + b[c]. The bar
    lengths are the hooks of the cells (r, c) with r < c <= r + b[r]: arm
    r + b[r] - c plus leg, column c's length less r + 1, plus one.
    """
    columns = [c + x for c, x in enumerate(b)]
    columns += [sum(r + x >= c for r, x in enumerate(b)) for c in range(len(b), max(b, default=0) + 1)]
    bars = [x - c + columns[c] for r, x in enumerate(b) for c in range(r + 1, r + x + 1)]
    return tuple(sorted(bars, reverse=True))


def is_tbar_core(b: BarPartition, t: int) -> bool:
    """True if no bar of length t exists.

    t appears as a bar length iff two distinct parts sum to t, or some part
    x >= t has x - t absent from the parts (x - t = 0 counts as absent).

    Args:
        b: a bar partition.
        t: odd integer >= 1.

    Raises:
        ValueError: unless t is odd and >= 1 (checked first) and ``b`` is a
            bar partition; every part is read, even past a bar of length t.
    """
    check_modulus(t, odd=True)
    # read bottom up: t - x and x - t lie below x, so ``parts`` already holds them
    parts = set()
    core = True
    low = 0
    for x in reversed(b):
        if type(x) is not int and _not_int(x) or x <= low:
            raise ValueError("input is not a bar partition")
        low = x
        if 0 < t - x < x and t - x in parts or x >= t and x - t not in parts:
            core = False
        parts.add(x)
    return core


def enumerate_bar_partitions(n: int) -> Iterator[BarPartition]:
    """Every partition of n into distinct parts once, in decreasing lexicographic order."""
    yield from _distinct_parts(n, 1)


def _distinct_parts(n: int, step: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n into distinct parts 1, 1 + step, ..., in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        top = min(remaining, largest)
        for part in range(top - (top - 1) % step, 0, -step):
            # the m parts below `part` carry at most m*part - step*m(m+1)/2
            m = (part - 1) // step
            if remaining - part > m * part - step * m * (m + 1) // 2:
                break
            yield from rec(remaining - part, part - step, prefix + (part,))

    yield from rec(n, n, ())
