"""Brute-force enumeration oracle.

Everything here counts by generating objects and testing them against the
definitions alone. No generating functions and no lattice bijections are
consulted, so these counts serve as an independent second source for every
formula in the library.

Core counts use pruned generation: ``enumerate_cores`` and
``enumerate_barcores`` place the parts of a partition one at a time in
ascending order and drop a branch at the first part that creates a
forbidden hook or bar. A cut branch can never be repaired, because each
test is settled when its largest part is placed:

- straight partitions: the part a_j at index j adds the beta value
  b = a_j + j, larger than every earlier value. t is a hook length iff some
  b >= t has b - t outside the beta-set. Every later value exceeds b > b - t,
  so whether b - t is missing is settled once b is placed;
- bar partitions: the parts are distinct, and t is a bar length iff two
  parts sum to t or some part x >= t has x - t missing (x - t = 0 counts as
  missing). Both tests involve only parts <= x, so they are settled once x
  is placed.

``enumerate_partitions`` with ``count_filtered`` and the predicates of
``partitions`` and ``bar_partitions`` remain the unpruned reference that the
generators are tested against. Self-conjugate counts filter
``enumerate_self_conjugate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, gcd
from typing import Callable, Iterable, Iterator

from .bar_partitions import BarPartition, enumerate_bar_partitions
from .partitions import (
    Partition,
    from_diagonal_hooks,
    is_self_conjugate,
    is_t_core,
)


@dataclass(frozen=True)
class CountTable:
    """Counts indexed by size, with the parameters that produced them."""

    label: str
    counts: tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        return self.counts[n]

    @property
    def limit(self) -> int:
        return len(self.counts) - 1

    def rows(self) -> Iterator[tuple[int, int]]:
        return iter(enumerate(self.counts))


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
    if n < 0:
        raise ValueError("n must be nonnegative")

    def rec(remaining: int, largest: int, prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield prefix
            return
        d = largest if largest % 2 == 1 else largest - 1
        while d >= 1:
            if d <= remaining:
                yield from rec(remaining - d, d - 2, prefix + (d,))
            d -= 2

    for hooks in rec(n, n, ()):
        yield from_diagonal_hooks(hooks)


def enumerate_cores(n: int, moduli: Iterable[int]) -> Iterator[Partition]:
    """Partitions of n that are t-cores for every t in ``moduli``, exactly once.

    Parts are placed in ascending order with the beta-set carried as an int
    bitmask; a part whose beta value b has some t <= b with b - t missing
    ends its branch (see the module docstring for why that is final).
    """
    moduli = tuple(moduli)
    if any(t < 1 for t in moduli):
        raise ValueError("t must be >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    placed: list[int] = []

    def grow(remaining: int, smallest: int, beta: int) -> Iterator[Partition]:
        j = len(placed)
        # bit x is set when part x at index j (beta value x + j) creates no
        # hook of any length t
        allowed = -1
        for t in moduli:
            allowed &= beta << t | (1 << t) - 1
        allowed >>= j
        for x in range(smallest, remaining // 2 + 1):
            if allowed >> x & 1:
                placed.append(x)
                yield from grow(remaining - x, x, beta | 1 << (x + j))
                placed.pop()
        if remaining >= smallest and allowed >> remaining & 1:
            yield (remaining, *reversed(placed))

    yield from grow(n, 1, 0)


def enumerate_barcores(n: int, moduli: Iterable[int]) -> Iterator[BarPartition]:
    """Bar partitions of n that are t-bar-cores for every t in ``moduli``.

    Distinct parts are placed in ascending order with the parts carried as
    an int bitmask; a part x that sums to some t with a smaller part, or has
    x >= t with x - t missing, ends its branch.
    """
    moduli = tuple(moduli)
    if any(t < 1 or t % 2 == 0 for t in moduli):
        raise ValueError("t must be odd and >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    placed: list[int] = []

    def grow(remaining: int, smallest: int, parts: int, pairs: int) -> Iterator[BarPartition]:
        # bit x of `pairs` is set when x sums to some t with a placed part;
        # bit x of `allowed` is set when part x creates no bar of any length t
        allowed = ~pairs
        for t in moduli:
            allowed &= parts << t | (1 << t) - 1
        for x in range(smallest, (remaining - 1) // 2 + 1):
            if allowed >> x & 1:
                placed.append(x)
                partners = pairs
                for t in moduli:
                    if t > x:
                        partners |= 1 << (t - x)
                yield from grow(remaining - x, x + 1, parts | 1 << x, partners)
                placed.pop()
        if remaining >= smallest and allowed >> remaining & 1:
            yield (remaining, *reversed(placed))

    yield from grow(n, 1, 0, 0)


def _count(items: Iterable[object]) -> int:
    return sum(1 for _ in items)


def count_filtered(
    n: int, predicate: Callable[[tuple[int, ...]], bool], *, bar: bool = False
) -> int:
    """Number of partitions (or bar partitions) of n satisfying a predicate."""
    items = enumerate_bar_partitions(n) if bar else enumerate_partitions(n)
    return sum(1 for p in items if predicate(p))


@cache
def core_counts(t: int, limit: int) -> CountTable:
    """f_t(0..limit) by pruned enumeration."""
    counts = tuple(_count(enumerate_cores(n, (t,))) for n in range(limit + 1))
    return CountTable(label=f"f_{t}", counts=counts)


@cache
def selfconj_core_counts(t: int, limit: int) -> CountTable:
    """f*_t(0..limit) by filtering self-conjugate partitions."""
    counts = tuple(
        sum(1 for p in enumerate_self_conjugate(n) if is_t_core(p, t))
        for n in range(limit + 1)
    )
    return CountTable(label=f"f*_{t}", counts=counts)


@cache
def barcore_counts(t: int, limit: int) -> CountTable:
    """f_tbar(0..limit) by pruned enumeration."""
    counts = tuple(_count(enumerate_barcores(n, (t,))) for n in range(limit + 1))
    return CountTable(label=f"f_{t}bar", counts=counts)


def _check_pair(s: int, t: int) -> None:
    if s <= 1 or t <= 1:
        raise ValueError("s and t must exceed 1")


@cache
def st_core_counts(s: int, t: int, limit: int) -> CountTable:
    """psi_{s,t}(0..limit) by pruned enumeration."""
    _check_pair(s, t)
    counts = tuple(_count(enumerate_cores(n, (s, t))) for n in range(limit + 1))
    return CountTable(label=f"psi_{s},{t}", counts=counts)


@cache
def selfconj_st_core_counts(s: int, t: int, limit: int) -> CountTable:
    """psi*_{s,t}(0..limit) by filtering self-conjugate partitions."""
    _check_pair(s, t)
    counts = tuple(
        sum(
            1
            for p in enumerate_self_conjugate(n)
            if is_t_core(p, s) and is_t_core(p, t)
        )
        for n in range(limit + 1)
    )
    return CountTable(label=f"psi*_{s},{t}", counts=counts)


@cache
def stbar_core_counts(s: int, t: int, limit: int) -> CountTable:
    """psi_{sbar,tbar}(0..limit) by pruned enumeration."""
    _check_pair(s, t)
    counts = tuple(_count(enumerate_barcores(n, (s, t))) for n in range(limit + 1))
    return CountTable(label=f"psi_{s}bar,{t}bar", counts=counts)


def st_core_count_at(s: int, t: int, n: int) -> int:
    """psi_{s,t}(n) for a single n, for spot checks on progressions."""
    return _count(enumerate_cores(n, (s, t)))


def not_g_core_count_at(n: int, t: int, g: int, variant: str = "straight") -> int:
    """t-cores of n that are not g-cores, for one n.

    variant: "straight" counts t-cores less (t, g)-cores, "selfconj" filters
    self-conjugate partitions, "bar" counts t-bar-cores less
    (t-bar, g-bar)-cores (odd t and g).
    """
    if variant == "straight":
        return _count(enumerate_cores(n, (t,))) - _count(enumerate_cores(n, (t, g)))
    if variant == "selfconj":
        return sum(
            1
            for p in enumerate_self_conjugate(n)
            if is_t_core(p, t) and not is_t_core(p, g)
        )
    if variant == "bar":
        return _count(enumerate_barcores(n, (t,))) - _count(enumerate_barcores(n, (t, g)))
    raise ValueError("variant must be straight, selfconj, or bar")


@cache
def q_tuple_count(s_p: int, t_p: int, g: int, w: int) -> int:
    """Number of g-tuples of (s_p, t_p)-cores with total size w.

    s_p == t_p means plain t_p-cores (the single-modulus tuple count).
    Computed as a coefficient of the g-th power of the per-size count vector.
    """
    if g < 1 or w < 0:
        raise ValueError("need g >= 1 and w >= 0")
    if s_p == t_p:
        base = core_counts(t_p, w).counts
    else:
        base = [0] * (w + 1)
        for n in range(w + 1):
            base[n] = st_core_count_at(s_p, t_p, n)
    vec = [1] + [0] * w
    for _ in range(g):
        nxt = [0] * (w + 1)
        for i, a in enumerate(vec):
            if a:
                for j in range(w + 1 - i):
                    if base[j]:
                        nxt[i + j] += a * base[j]
        vec = nxt
    return vec[w]


@cache
def q_bar_tuple_count(s_p: int, t_p: int, g: int, w: int) -> int:
    """Number of bar quotients of total size w for odd g.

    One (s_p-bar, t_p-bar)-core component plus (g-1)/2 straight
    (s_p, t_p)-core components; s_p == t_p means single-modulus cores.
    """
    if g < 3 or g % 2 == 0 or w < 0:
        raise ValueError("need odd g >= 3 and w >= 0")
    bar_base = [_count(enumerate_barcores(n, {s_p, t_p})) for n in range(w + 1)]
    total = 0
    for w0 in range(w + 1):
        if bar_base[w0]:
            total += bar_base[w0] * q_tuple_count(s_p, t_p, (g - 1) // 2, w - w0)
    return total


def extremal_stats(s: int, t: int, *, exhaustive: bool = False) -> tuple[int, int]:
    """Total count and largest size of (s,t)-cores for coprime s, t.

    Evaluates binomial(s+t, t)/(s+t) and (s*s - 1)(t*t - 1)/24. With
    ``exhaustive`` set, additionally enumerates every partition up to the
    formula's maximum size and checks both values, raising on mismatch.

    Raises:
        ValueError: for non-coprime input (or a failed exhaustive check).
    """
    _check_pair(s, t)
    if gcd(s, t) != 1:
        raise ValueError("s and t must be coprime")
    total = comb(s + t, t) // (s + t)
    max_size = (s * s - 1) * (t * t - 1) // 24
    if exhaustive:
        seen = 0
        seen_max = 0
        for n in range(max_size + 1):
            c = st_core_count_at(s, t, n)
            if c:
                seen += c
                seen_max = n
        if seen != total or seen_max != max_size:
            raise ValueError(
                f"enumeration found {seen} cores with max size {seen_max}, "
                f"formulas give {total} and {max_size}"
            )
    return total, max_size

