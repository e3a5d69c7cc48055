"""Brute-force enumeration oracle.

Everything here counts by generating objects and filtering with predicates
built from the definitions alone. No generating functions and no lattice
bijections are consulted, so these counts serve as an independent second
source for every formula in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb, gcd
from typing import Callable, Iterator

from .bar_partitions import BarPartition, enumerate_bar_partitions, is_tbar_core
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


def count_filtered(
    n: int, predicate: Callable[[tuple[int, ...]], bool], *, bar: bool = False
) -> int:
    """Number of partitions (or bar partitions) of n satisfying a predicate."""
    items = enumerate_bar_partitions(n) if bar else enumerate_partitions(n)
    return sum(1 for p in items if predicate(p))


@cache
def core_counts(t: int, limit: int) -> CountTable:
    """f_t(0..limit) by filtering every partition."""
    counts = tuple(
        count_filtered(n, lambda p: is_t_core(p, t)) for n in range(limit + 1)
    )
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
    """f_tbar(0..limit) by filtering bar partitions."""
    counts = tuple(
        count_filtered(n, lambda b: is_tbar_core(b, t), bar=True)
        for n in range(limit + 1)
    )
    return CountTable(label=f"f_{t}bar", counts=counts)


def _check_pair(s: int, t: int) -> None:
    if s <= 1 or t <= 1:
        raise ValueError("s and t must exceed 1")


@cache
def st_core_counts(s: int, t: int, limit: int) -> CountTable:
    """psi_{s,t}(0..limit) by filtering every partition."""
    _check_pair(s, t)
    counts = tuple(
        count_filtered(n, lambda p: is_t_core(p, s) and is_t_core(p, t))
        for n in range(limit + 1)
    )
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
    """psi_{sbar,tbar}(0..limit) by filtering bar partitions."""
    _check_pair(s, t)
    counts = tuple(
        count_filtered(n, lambda b: is_tbar_core(b, s) and is_tbar_core(b, t), bar=True)
        for n in range(limit + 1)
    )
    return CountTable(label=f"psi_{s}bar,{t}bar", counts=counts)


def st_core_count_at(s: int, t: int, n: int) -> int:
    """psi_{s,t}(n) for a single n, for spot checks on progressions."""
    return count_filtered(n, lambda p: is_t_core(p, s) and is_t_core(p, t))


def not_g_core_count_at(n: int, t: int, g: int, variant: str = "straight") -> int:
    """t-cores of n that are not g-cores, for one n.

    variant: "straight" filters all partitions, "selfconj" self-conjugate
    partitions, "bar" bar partitions (odd t and g).
    """
    if variant == "straight":
        return count_filtered(
            n, lambda p: is_t_core(p, t) and not is_t_core(p, g)
        )
    if variant == "selfconj":
        return sum(
            1
            for p in enumerate_self_conjugate(n)
            if is_t_core(p, t) and not is_t_core(p, g)
        )
    if variant == "bar":
        return count_filtered(
            n, lambda b: is_tbar_core(b, t) and not is_tbar_core(b, g), bar=True
        )
    raise ValueError("variant must be straight, selfconj, or bar")


@cache
def not_g_core_counts(t: int, g: int, limit: int, variant: str = "straight") -> CountTable:
    """Counts of t-cores that are not g-cores for 0 <= n <= limit."""
    counts = tuple(
        not_g_core_count_at(n, t, g, variant) for n in range(limit + 1)
    )
    return CountTable(label=f"psi_{t}\\{g} ({variant})", counts=counts)


@cache
def _single_modulus_core_sizes(t: int, limit: int) -> tuple[int, ...]:
    """Counts of t-cores per size up to limit, as a coefficient tuple."""
    return core_counts(t, limit).counts


@cache
def q_tuple_count(s_p: int, t_p: int, g: int, w: int) -> int:
    """Number of g-tuples of (s_p, t_p)-cores with total size w.

    s_p == t_p means plain t_p-cores (the single-modulus tuple count).
    Computed as a coefficient of the g-th power of the per-size count vector.
    """
    if g < 1 or w < 0:
        raise ValueError("need g >= 1 and w >= 0")
    if s_p == t_p:
        base = list(_single_modulus_core_sizes(t_p, w))
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
    if s_p == t_p:
        bar_base = [
            count_filtered(n, lambda b: is_tbar_core(b, t_p), bar=True)
            for n in range(w + 1)
        ]
    else:
        bar_base = [
            count_filtered(
                n, lambda b: is_tbar_core(b, s_p) and is_tbar_core(b, t_p), bar=True
            )
            for n in range(w + 1)
        ]
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

