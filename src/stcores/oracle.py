"""Brute-force enumeration oracle.

Everything here counts by generating objects and testing them against the
definitions alone. No generating functions and no lattice bijections are
consulted, so these counts serve as an independent second source for every
formula in the library.

Core counts use pruned generation: ``_walk`` places distinct positive values
one at a time in ascending order, the j-th weighing its value less shift * j,
and tests each against a set of sums T: a value v >= T needs v - T placed
(v - T = 0 counts as missing), and no two values, nor one value twice, may
sum to a pair sum. Both tests involve only values <= v, so a cut branch can
never be repaired: each is settled once v is placed. One row of ``_WALKS``
per variant says what the values are:

- partitions walk their beta values at shift 1: the part a_j at index j
  (parts ascending) is the beta value a_j + j, and t is a hook length iff
  some beta value b >= t has b - t outside the beta-set;
- bar partitions walk their parts at shift 0, with the moduli as both sums
  and pair sums: the t-bar-core test (a value equal to T/2 never occurs, as
  every t-bar modulus is odd);
- self-conjugate partitions walk their set D of distinct odd diagonal hooks,
  the even values blocked. By Ford-Mai-Sze (J. Number Theory 2009, Prop.
  3.3) such a partition is a t-core iff D passes the 2t-bar-core test (h >
  2t needs h - 2t in D, no two members sum to 2t) and has no h = t, which
  is h + h = 2t; so 2t is both a sum and a pair sum.

Every node of such a tree is itself a core, so the count tables
(``core_counts`` and the rest) walk the tree once up to the largest size
with an explicit stack and count each accepted node by its size; no
partition is built. This walk is the only pruned enumeration here, so
each pruning rule is written once. A per-size count is read off a
table, and ``not_g_core_counts`` takes a tuple of moduli: the (4,6)-cores
that are not 2-cores are the (4,6) table less the (4,6,2) table.

``enumerate_partitions``, ``bar_partitions.enumerate_bar_partitions`` and
``enumerate_self_conjugate`` with the predicates of ``partitions`` and
``bar_partitions`` remain the unpruned reference that the walk is tested
against. The last two share one recursion over distinct parts, at step 1
and at step 2 (distinct odd diagonal hooks, read by ``from_diagonal_hooks``).
"""

from __future__ import annotations

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


def _walk(
    sums: tuple[int, ...], pair_sums: tuple[int, ...], blocked: int, shift: int, limit: int
) -> list[int]:
    # A node is a set of distinct positive values placed in ascending order,
    # the j-th weighing its value less shift * j. A value v >= T in `sums`
    # needs v - T placed, and bit v of `pairs` is set when v is blocked or
    # sums to some T in `pair_sums` with a placed value or with itself.
    counts = [0] * (limit + 1)
    counts[0] = 1
    below = [(total, (1 << total) - 1) for total in sums]
    # partners[v] has bit T - v for each pair sum T > v: what placing v rules out
    partners = [sum(1 << total - v for total in pair_sums if total > v) for v in range(limit + 1)]
    pairs = blocked | sum(1 << total // 2 for total in pair_sums if total % 2 == 0)
    gap = 1 - shift  # the next weight exceeds the last by at least this
    stack = [(0, 1, 0, pairs, 0)]  # size, smallest next value, placed bitmask, pairs bitmask, shift * j
    while stack:
        size, smallest, placed, pairs, j = stack.pop()
        allowed = ~pairs
        for total, mask in below:
            allowed &= placed << total | mask
        # bit i of `bits` is the value smallest + i, of weight smallest + i - j
        base = size - j
        bits = allowed >> smallest & (1 << (limit - base - smallest + 1)) - 1
        # a child of value v, weight x = v - j, has room for another value
        # iff x + x + gap <= limit - size
        top = limit - size - gap + j + j
        while bits:
            low = bits & -bits
            bits ^= low
            v = smallest + low.bit_length() - 1
            counts[base + v] += 1
            if v + v <= top:
                stack.append((base + v, v + 1, placed | low << smallest, pairs | partners[v], j + shift))
    return counts


# Per variant: the walk's sums, pair sums, blocked values and shift, from the
# moduli and the limit. Partitions walk their beta values, bar partitions
# their parts, and self-conjugate partitions their odd diagonal hooks.
_WALKS: dict[str, Callable[[tuple[int, ...], int], tuple]] = {
    "straight": lambda moduli, limit: (moduli, (), 0, 1),
    "selfconj": lambda moduli, limit: (
        doubled := tuple(2 * t for t in moduli),
        doubled,
        sum(1 << v for v in range(2, limit + 1, 2)),
        0,
    ),
    "bar": lambda moduli, limit: (moduli, moduli, 0, 0),
}


def _counts(variant: str, moduli: tuple[int, ...], limit: int) -> tuple[int, ...]:
    """Cores of every size 0..limit for all of ``moduli``, from one walk."""
    moduli = _moduli(variant, moduli, limit)
    if limit < 0:
        return ()
    return tuple(_walk(*_WALKS[variant](moduli, limit), limit))


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
