"""Brute-force enumeration oracle.

Everything here counts by generating objects and testing them against the
definitions alone. No generating functions and no lattice bijections are
consulted, so these counts serve as an independent second source for every
formula in the library.

Core counts use pruned generation: the pieces of a partition are placed one
at a time in ascending order, and a branch is dropped at the first piece
that creates a forbidden hook or bar. A cut branch can never be repaired,
because each test is settled when its largest piece is placed. Two walks
do all the work:

- ``_straight_walk`` places parts: the part a_j at index j adds the beta
  value b = a_j + j, larger than every earlier value. t is a hook length iff
  some b >= t has b - t outside the beta-set. Every later value exceeds
  b > b - t, so whether b - t is missing is settled once b is placed;
- ``_distinct_walk`` places distinct values and tests them against a set of
  sums T: a value v >= T needs v - T placed (v - T = 0 counts as missing),
  and no two values, nor one value twice, may sum to T. Both tests involve
  only values <= v, so they are settled once v is placed. With T running
  over the moduli and every positive value allowed this is the t-bar-core
  test of a bar partition (a value equal to T/2 never occurs, as every
  t-bar modulus is odd). Self-conjugate partitions are given by their set D
  of distinct odd diagonal hooks, and by Ford-Mai-Sze (J. Number Theory
  2009, Prop. 3.3) such a partition is a t-core iff D passes the 2t-bar-core
  test (h > 2t needs h - 2t in D, no two members sum to 2t) and has no
  h = t, which is h + h = 2t; so they walk the odd values with T = 2t.

Every node of such a tree is itself a core, so the count tables
(``core_counts`` and the rest) walk the tree once up to the largest size
with an explicit stack and count each accepted node by its size; no
partition is built. These two walks are the only pruned enumerations
here, so each pruning rule is written once. A per-size count is read off a
table, and ``not_g_core_counts`` takes a tuple of moduli: the (4,6)-cores
that are not 2-cores are the (4,6) table less the (4,6,2) table.

``enumerate_partitions``, ``bar_partitions.enumerate_bar_partitions`` and
``enumerate_self_conjugate`` with the predicates of ``partitions`` and
``bar_partitions`` remain the unpruned reference that the walks are tested
against. The last two share one recursion over distinct parts, at step 1
and at step 2 (distinct odd diagonal hooks, read by ``from_diagonal_hooks``).
"""

from __future__ import annotations

from functools import cache
from math import comb
from typing import Callable, Iterable, Iterator

from .bar_partitions import _distinct_parts
from .partitions import Frozen, Partition, check_modulus, check_pair, from_diagonal_hooks


class CountTable(Frozen):
    """Counts indexed by size, with the parameters that produced them."""

    __slots__ = ("label", "counts")
    label: str
    counts: tuple[int, ...]

    def __init__(self, label: str, counts: tuple[int, ...]) -> None:
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "counts", counts)

    def __getitem__(self, n: int) -> int:
        if not 0 <= n < len(self.counts):
            raise IndexError(f"size {n} outside 0..{len(self.counts) - 1}")
        return self.counts[n]


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n as weakly decreasing tuples, exactly once.

    Iterative ascending-composition generation, reversed on emission; the
    order is deterministic (increasing lexicographic in ascending form).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    # Kelleher's accelAsc, emitting each ascending composition reversed.
    a = [0] * (n + 1)
    k = 1
    a[1] = n
    while k != 0:
        x = a[k - 1] + 1
        y = a[k] - 1
        k -= 1
        while x <= y:
            a[k] = x
            y -= x
            k += 1
        a[k] = x + y
        yield tuple(a[k::-1])


def enumerate_self_conjugate(n: int) -> Iterator[Partition]:
    """All self-conjugate partitions of n, via distinct odd diagonal hooks."""
    for hooks in _distinct_parts(n, 2):
        yield from_diagonal_hooks(hooks)


def _moduli(variant: str, moduli: Iterable[int], limit: int) -> tuple[int, ...]:
    """The ``moduli`` of a walk up to size ``limit``, validated.

    No hook, bar or diagonal-hook sum of a partition of size <= limit reaches
    a modulus above limit, so such a modulus prunes nothing and is dropped.
    """
    moduli = tuple(moduli)
    for t in moduli:
        check_modulus(t, odd=variant == "bar")
    return tuple(t for t in moduli if t <= limit)


def _straight_walk(moduli: tuple[int, ...], limit: int) -> list[int]:
    # A node is a partition whose parts were placed in ascending order; the
    # part x at index j has beta value x + j, and bit b of `allowed` is set
    # when beta value b creates no hook of any length t.
    counts = [0] * (limit + 1)
    counts[0] = 1
    stack = [(0, 1, 0, 0)]  # size, smallest next part, beta-set bitmask, parts placed
    while stack:
        size, smallest, beta, j = stack.pop()
        allowed = -1
        for t in moduli:
            allowed &= beta << t | (1 << t) - 1
        room = limit - size
        # bit i of `bits` is the part smallest + i
        bits = allowed >> (smallest + j) & (1 << (room - smallest + 1)) - 1
        while bits:
            low = bits & -bits
            bits ^= low
            x = smallest + low.bit_length() - 1
            counts[size + x] += 1
            if x + x <= room:
                stack.append((size + x, x, beta | low << (smallest + j), j + 1))
    return counts


def _distinct_walk(sums: tuple[int, ...], alphabet: range, limit: int) -> list[int]:
    # A node is a set of distinct values from `alphabet` placed in ascending
    # order. A value v >= T needs v - T placed, and bit v of `pairs` is set
    # when v sums to some T with a placed value or with itself (v = T/2).
    counts = [0] * (limit + 1)
    counts[0] = 1
    values = sum(1 << v for v in alphabet)
    seed = 0
    for total in sums:
        if total % 2 == 0:
            seed |= 1 << total // 2
    stack = [(0, 1, 0, seed)]  # size, smallest next value, placed bitmask, pairs bitmask
    while stack:
        size, smallest, placed, pairs = stack.pop()
        allowed = values & ~pairs
        for total in sums:
            allowed &= placed << total | (1 << total) - 1
        room = limit - size
        bits = allowed >> smallest & (1 << (room - smallest + 1)) - 1
        while bits:
            low = bits & -bits
            bits ^= low
            v = smallest + low.bit_length() - 1
            counts[size + v] += 1
            if v + v < room:
                partners = pairs
                for total in sums:
                    if total > v:
                        partners |= 1 << (total - v)
                stack.append((size + v, v + 1, placed | low << smallest, partners))
    return counts


_WALKS: dict[str, Callable[[tuple[int, ...], int], list[int]]] = {
    "straight": _straight_walk,
    "selfconj": lambda moduli, limit: _distinct_walk(
        tuple(2 * t for t in moduli), range(1, limit + 1, 2), limit
    ),
    "bar": lambda moduli, limit: _distinct_walk(moduli, range(1, limit + 1), limit),
}


@cache
def _counts(variant: str, moduli: tuple[int, ...], limit: int) -> tuple[int, ...]:
    """Cores of every size 0..limit for all of ``moduli``, from one walk."""
    moduli = _moduli(variant, moduli, limit)
    if limit < 0:
        return ()
    return tuple(_WALKS[variant](moduli, limit))


def count_filtered(n: int, predicate: Callable[[Partition], bool]) -> int:
    """Number of partitions of n satisfying a predicate."""
    return sum(1 for p in enumerate_partitions(n) if predicate(p))


def core_counts(t: int, limit: int) -> CountTable:
    """f_t(0..limit) by one pruned walk."""
    return CountTable(label=f"f_{t}", counts=_counts("straight", (t,), limit))


def selfconj_core_counts(t: int, limit: int) -> CountTable:
    """f*_t(0..limit) by one pruned walk over diagonal hooks."""
    return CountTable(label=f"f*_{t}", counts=_counts("selfconj", (t,), limit))


def barcore_counts(t: int, limit: int) -> CountTable:
    """f_tbar(0..limit) by one pruned walk."""
    return CountTable(label=f"f_{t}bar", counts=_counts("bar", (t,), limit))


def st_core_counts(s: int, t: int, limit: int) -> CountTable:
    """psi_{s,t}(0..limit) by one pruned walk."""
    check_pair(s, t)
    return CountTable(label=f"psi_{s},{t}", counts=_counts("straight", (s, t), limit))


def selfconj_st_core_counts(s: int, t: int, limit: int) -> CountTable:
    """psi*_{s,t}(0..limit) by one pruned walk over diagonal hooks."""
    check_pair(s, t)
    return CountTable(label=f"psi*_{s},{t}", counts=_counts("selfconj", (s, t), limit))


def stbar_core_counts(s: int, t: int, limit: int) -> CountTable:
    """psi_{sbar,tbar}(0..limit) by one pruned walk."""
    check_pair(s, t, odd=True)
    return CountTable(label=f"psi_{s}bar,{t}bar", counts=_counts("bar", (s, t), limit))


def not_g_core_counts(
    moduli: tuple[int, ...], g: int, limit: int, variant: str = "straight"
) -> CountTable:
    """Cores for every modulus in ``moduli`` that are not g-cores, sizes 0..limit.

    The ``moduli`` table less the ``moduli + (g,)`` table of the same
    variant: "straight", "selfconj" (self-conjugate partitions) or "bar"
    (odd moduli and g, bar-cores less bar-cores that are also g-bar-cores).
    """
    if variant not in _WALKS:
        raise ValueError("variant must be straight, selfconj, or bar")
    single = _counts(variant, moduli, limit)
    joint = _counts(variant, (*moduli, g), limit)
    name = ",".join(map(str, moduli))
    if len(moduli) > 1:
        name = f"({name})"
    return CountTable(
        label=f"{variant} {name}-cores not {g}-cores",
        counts=tuple(a - b for a, b in zip(single, joint)),
    )


def extremal_stats(s: int, t: int) -> tuple[int, int]:
    """Total count and largest size of (s,t)-cores for coprime s, t.

    Evaluates binomial(s+t, t)/(s+t) and (s*s - 1)(t*t - 1)/24; the
    ``counting`` suite of ``verify`` checks both against the path census.

    Raises:
        ValueError: for non-coprime input.
    """
    check_pair(s, t, coprime=True)
    return comb(s + t, t) // (s + t), (s * s - 1) * (t * t - 1) // 24
