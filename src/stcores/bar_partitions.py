"""Bar partitions: partitions into distinct parts and their bar lengths.

Bar lengths are hook lengths of shifted-diagram boxes inside the
shift-symmetric diagram. The fast row formula is the production
implementation; the literal diagram embedding is kept as a test oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .partitions import as_partition, check_modulus, is_partition

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
    {1..b[i]} minus the differences b[i] - b[j] for j > i.
    """
    k = len(b)
    bars = []
    for i in range(k):
        lower = b[i + 1 :]
        gaps = {b[i] - x for x in lower}
        bars.extend(b[i] + x for x in lower)
        bars.extend(v for v in range(1, b[i] + 1) if v not in gaps)
    return tuple(sorted(bars, reverse=True))


def bar_length_multiset_by_diagram(b: BarPartition) -> tuple[int, ...]:
    """Bar lengths read off the shift-symmetric diagram (slow oracle).

    The shifted diagram places row r (0-indexed) in columns r..r+b[r]-1; the
    shift-symmetric diagram attaches, one position left of each diagonal cell,
    a hanging column of b[j] boxes, which pushes the shifted rows one column
    right. In the combined shape the shifted cells sit at (r, r+1..r+b[r]) and
    attached column j occupies rows j..j+b[j]-1. Bar lengths are the hook
    lengths, inside the combined shape, of the shifted cells.
    """
    k = len(b)
    if k == 0:
        return ()
    limit = k + b[0] + 1
    occupied = set()
    for r in range(k):
        for c in range(r + 1, r + b[r] + 1):
            occupied.add((r, c))
    for j in range(k):
        for r in range(j, j + b[j]):
            occupied.add((r, j))
    bars = []
    for r in range(k):
        for c in range(r + 1, r + b[r] + 1):
            arm = sum(1 for cc in range(c + 1, limit) if (r, cc) in occupied)
            leg = sum(1 for rr in range(r + 1, limit) if (rr, c) in occupied)
            bars.append(arm + leg + 1)
    return tuple(sorted(bars, reverse=True))


def is_tbar_core(b: BarPartition, t: int) -> bool:
    """True if no bar of length t exists.

    t appears as a bar length iff two distinct parts sum to t, or some part
    x >= t has x - t absent from the parts (x - t = 0 counts as absent).

    Args:
        b: a bar partition.
        t: odd integer >= 1.
    """
    check_modulus(t, odd=True)
    parts = set(b)
    for x in b:
        other = t - x
        if 0 < other < x and other in parts:
            return False
        if x >= t and (x - t) not in parts:
            return False
    return True


def enumerate_bar_partitions(n: int) -> Iterator[BarPartition]:
    """Yield every partition of n into distinct parts exactly once.

    Deterministic order: decreasing lexicographic by part tuple.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def rec(remaining: int, largest: int, prefix: BarPartition) -> Iterator[BarPartition]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(remaining, largest), 0, -1):
            # the tail below `part` can carry at most part*(part-1)/2
            if remaining - part > part * (part - 1) // 2:
                break
            yield from rec(remaining - part, part - 1, prefix + (part,))

    yield from rec(n, n, ())
