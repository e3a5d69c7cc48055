"""g-core/g-quotient towers for straight and bar partitions.

Each tower is one pair of passes from ``encodings`` and a codec for its core.
A straight tower is split by the bead pass ``abacus``, which spreads a padded
beta-set over g runners and reads each runner as a smaller partition for the
quotient, and built back by its inverse ``from_abacus``; the g-core keeps
only each runner's bead count, so it goes through the runner-surplus codec
(``gks_decode``/``gks_encode``). A bar tower uses paired runners on a Maya
diagram, with the two residue classes {j, g-j} merged into one charged
fermionic strip per component: the strip pass ``bar_abacus`` reads each strip
as ``abacus`` reads a runner, ``from_bar_abacus`` builds the strips back, and
the strip charges are the signed run lengths of the core.

The core codecs are memoized here, at the tower layer: ``decompose`` and
``bar_decompose`` read their core, and ``reconstruct`` and ``bar_reconstruct``
its surpluses or charges, through private caches keyed on the core's tuple.
Every partition is a (g-core, g-quotient) pair and g-cores are few: the
37,184 straight towers of ``verify structure`` (every partition of size <= 25
at g = 2..5) have 383 distinct cores, and its 2,712 bar towers 126. An entry
is one core the process met, so the caches grow with the cores in use, not
with the towers; a refusal is never cached. The public codecs in
``encodings`` stay uncached, since their other callers pass distinct inputs.
"""

from __future__ import annotations

from functools import cache
from math import gcd

from .bar_partitions import BarPartition, is_tbar_core
from .encodings import (
    abacus, bar_abacus, from_abacus, from_bar_abacus, gks_decode, gks_encode, olsson_decode, olsson_encode
)
from .partitions import (
    Frozen,
    Partition,
    _beta_mask,
    check_divisor,
    check_modulus,
    check_pair,
    common_divisor,
    conjugate,
)


class StraightTower(Frozen):
    """A partition split into its g-core and g-quotient.

    Invariants: the core is a g-core (checked by ``reconstruct``, not here),
    weight is the total quotient size, and the reconstructed partition has
    size core.size + g * weight.
    """

    __slots__ = ("g", "core", "quotient")
    g: int
    core: Partition
    quotient: tuple[Partition, ...]

    def __init__(self, g: int, core: Partition, quotient: tuple[Partition, ...]) -> None:
        check_divisor(g)
        if len(quotient) != g:
            raise ValueError("quotient must have exactly g components")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "quotient", quotient)

    @property
    def weight(self) -> int:
        return sum(map(sum, self.quotient))


class BarTower(Frozen):
    """A bar partition split into its g-bar-core and g-bar-quotient.

    The quotient holds (g+1)/2 components: component 0 is a bar partition,
    the rest are straight partitions.
    """

    __slots__ = ("g", "core", "quotient")
    g: int
    core: BarPartition
    quotient: tuple[tuple[int, ...], ...]

    def __init__(self, g: int, core: BarPartition, quotient: tuple[tuple[int, ...], ...]) -> None:
        check_divisor(g, odd=True)
        if len(quotient) != (g + 1) // 2:
            raise ValueError("quotient must have exactly (g+1)/2 components")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "quotient", quotient)

    @property
    def weight(self) -> int:
        return sum(map(sum, self.quotient))


# The memoized core codecs (see the module docstring).
_g_core = cache(gks_decode)
_g_bar_core = cache(olsson_decode)


@cache
def _g_core_surplus(core: Partition, g: int) -> tuple[int, ...]:
    try:
        return gks_encode(core, g)
    except ValueError:
        raise ValueError("tower core is not a g-core") from None


_g_bar_core_charges = cache(olsson_encode)


def _memo(encode, core: Partition, g: int) -> tuple[int, ...]:
    """``encode(core, g)`` through its cache, keyed on ``tuple(core)``.

    Only plain ints share an entry: True == 1 and 2.0 == 2 hash alike, so
    any other type goes past the cache to be read (and refused) afresh.
    """
    core = tuple(core)
    if {type(g), *map(type, core)} <= {int}:
        return encode(core, g)
    return encode.__wrapped__(core, g)


def decompose(p: Partition, g: int) -> StraightTower:
    """Split ``p`` into its g-core and g-quotient.

    One :func:`~stcores.encodings.abacus` pass reads the quotient off the
    runners of the padded beta-set, and the g-core is the memoized
    :func:`~stcores.encodings.gks_decode` of their surpluses.

    Args:
        p: any partition.
        g: integer >= 2.

    Returns:
        StraightTower with is_t_core(core, g) true and
        sum(p) = sum(core) + g * weight.
    """
    check_divisor(g)
    surplus, quotient = abacus(p, g)
    return StraightTower(g=g, core=_g_core(surplus), quotient=quotient)


def reconstruct(tower: StraightTower) -> Partition:
    """Rebuild the unique partition with the given g-core and g-quotient.

    Inverse of :func:`decompose`: :func:`~stcores.encodings.from_abacus`
    places the beads, with the runner surpluses that the memoized
    :func:`~stcores.encodings.gks_encode` reads off the core.

    Raises:
        ValueError: if the tower's core is not a g-core, or a quotient
            component is not a partition.
    """
    return from_abacus(_memo(_g_core_surplus, tower.core, tower.g), tower.quotient)


def is_st_core(p: Partition, s: int, t: int) -> bool:
    """True if ``p`` is simultaneously an s-core and a t-core."""
    check_pair(s, t)
    return _joint_core(p, s, t)


def _joint_core(p: Partition, s: int, t: int) -> bool:
    """True if ``p`` is an s-core and a t-core; one beta-set mask answers both."""
    beta = _beta_mask(p)
    return not ((beta >> s) | (beta >> t)) & ~beta


def st_core_tower_check(tower: StraightTower, s: int, t: int) -> bool:
    """True iff every quotient component is an (s/g, t/g)-core, g = tower.g.

    With g = gcd(s,t) this holds exactly when the tower's partition is an
    (s,t)-core. The g-core is unconstrained, since any hook divisible by s
    or t is divisible by g and therefore lives in the quotient.

    Raises:
        ValueError: unless gcd(s, t) equals the tower's g.
    """
    g = tower.g
    if gcd(s, t) != g:
        raise ValueError("gcd(s, t) must equal the tower's g")
    sp, tp = s // g, t // g
    check_modulus(sp)
    check_modulus(tp)
    return all(_joint_core(q, sp, tp) for q in tower.quotient)


def selfconjugate_tower_check(tower: StraightTower) -> bool:
    """True iff the tower reconstructs to a self-conjugate partition.

    Tested on the tower itself: the core must be self-conjugate and the
    quotient must satisfy conjugate(q[i]) == q[g-1-i].
    """
    g = tower.g
    if tower.core != conjugate(tower.core):
        return False
    return all(
        conjugate(tower.quotient[i]) == tower.quotient[g - 1 - i] for i in range(g)
    )


def bar_decompose(b: BarPartition, g: int) -> BarTower:
    """Split a bar partition into its g-bar-core and g-bar-quotient.

    One :func:`~stcores.encodings.bar_abacus` pass reads the quotient off the
    strips, component 0 a bar partition and the rest straight ones, and the
    g-bar-core is the memoized :func:`~stcores.encodings.olsson_decode` of
    their charges.

    Raises:
        ValueError: unless g is odd and >= 3 and ``b`` is a bar partition.
    """
    check_divisor(g, odd=True)
    charges, quotient = bar_abacus(b, g)
    return BarTower(g=g, core=_g_bar_core(charges), quotient=quotient)


def bar_reconstruct(tower: BarTower) -> BarPartition:
    """Rebuild the bar partition with the given g-bar-core and quotient.

    Inverse of :func:`bar_decompose`: :func:`~stcores.encodings.from_bar_abacus`
    builds the strips, with the charges that the memoized ``olsson_encode``
    reads off the core.

    Raises:
        ValueError: if the core is not a g-bar-core, component 0 is not a
            bar partition, or another component is not a partition.
    """
    return from_bar_abacus(_memo(_g_bar_core_charges, tower.core, tower.g), tower.quotient)


def is_stbar_core(b: BarPartition, s: int, t: int) -> bool:
    """True if ``b`` is simultaneously an s-bar-core and a t-bar-core."""
    check_pair(s, t, odd=True)
    return is_tbar_core(b, s) and is_tbar_core(b, t)


def is_stbar_core_by_quotient(b: BarPartition, s: int, t: int) -> bool:
    """Quotient-side test for (s-bar, t-bar)-cores, odd s and t with gcd(s,t) > 1.

    Component 0 must be an (s'-bar, t'-bar)-core and every straight component
    an (s', t')-core. Cross-check for :func:`is_stbar_core`.
    """
    check_pair(s, t, odd=True)
    g = common_divisor(s, t)
    sp, tp = s // g, t // g
    _, quotient = bar_abacus(b, g)
    if not (is_tbar_core(quotient[0], sp) and is_tbar_core(quotient[0], tp)):
        return False
    return all(_joint_core(lam, sp, tp) for lam in quotient[1:])
