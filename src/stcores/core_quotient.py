"""g-core/g-quotient towers for straight and bar partitions.

Straight towers use the classical abacus: spread a padded beta-set over g
runners, push beads to the bottom for the core, and read each runner as a
smaller partition for the quotient. Bar towers use paired runners on a Maya
diagram, with the two residue classes {j, g-j} merged into one charged
fermionic strip per component.
"""

from __future__ import annotations

from math import gcd

from .bar_partitions import (
    BarPartition,
    is_bar_partition,
    is_tbar_core,
)
from .encodings import olsson_encode
from .partitions import (
    Frozen,
    Partition,
    check_divisor,
    check_pair,
    common_divisor,
    conjugate,
    from_first_column_hooks,
    is_partition,
    is_t_core,
)


class StraightTower(Frozen):
    """A partition split into its g-core and g-quotient.

    Invariants: the core is a g-core, weight is the total quotient size, and
    the reconstructed partition has size core.size + g * weight.
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
        return sum(sum(q) for q in self.quotient)


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
        return sum(sum(q) for q in self.quotient)


def decompose(p: Partition, g: int) -> StraightTower:
    """Split ``p`` into its g-core and g-quotient.

    The beta-set is padded to the smallest multiple of g covering all parts;
    component i collects the beta values congruent to i mod g. Adding g more
    phantom beads shifts every runner uniformly, so the result does not depend
    on the padding choice.

    The fewer than g phantom beads 0, 1, ..., n_beads - k - 1 put one bead at
    position 0 on each runner below n_beads - k. Only the real beads are then
    placed, in ascending order, so the beads already on a runner are exactly
    those below the new one and the part it reads is its position minus their
    count.

    Args:
        p: any partition.
        g: integer >= 2.

    Returns:
        StraightTower with is_t_core(core, g) true and
        sum(p) = sum(core) + g * weight.
    """
    check_divisor(g)
    k = len(p)
    n_beads = g * ((k + g - 1) // g)
    phantoms = n_beads - k
    beads = [1] * phantoms + [0] * (g - phantoms)
    runners: list[list[int]] = [[] for _ in range(g)]
    for b in map(int.__add__, reversed(p), range(phantoms, n_beads)):
        position, residue = divmod(b, g)
        part = position - beads[residue]
        beads[residue] += 1
        if part:
            runners[residue].append(part)
    quotient = tuple([tuple(r[::-1]) for r in runners])
    # The g-core keeps each runner's bead count, packed at the bottom. Every
    # position below level min(beads) holds a bead; above it, a bead's part
    # is the number of empty positions below it.
    core: list[int] = []
    gaps = 0
    for x in range(g * min(beads), g * max(beads)):
        if x // g < beads[x % g]:
            if gaps:
                core.append(gaps)
        else:
            gaps += 1
    return StraightTower(g=g, core=tuple(core[::-1]), quotient=quotient)


def reconstruct(tower: StraightTower) -> Partition:
    """Rebuild the unique partition with the given g-core and g-quotient.

    Inverse of :func:`decompose`. The core's beads are counted per runner as
    in :func:`decompose`: its real beads by residue, plus the phantom beads
    0, 1, ..., n_beads - k - 1, of which ceil((n_beads - k - r) / g) lie on
    runner r.

    Raises:
        ValueError: if the tower's core is not a g-core, or a quotient
            component is not a partition.
    """
    g = tower.g
    if not is_t_core(tower.core, g):
        raise ValueError("tower core is not a g-core")
    k = len(tower.core)
    depth = max(map(len, tower.quotient))
    n_beads = g * (((k + g - 1) // g) + depth)
    phantoms = n_beads - k
    beads = [(phantoms - residue + g - 1) // g for residue in range(g)]
    for b in map(int.__add__, tower.core, range(n_beads - 1, -1, -1)):
        beads[b % g] += 1
    beta: list[int] = []
    for residue, (m, q) in enumerate(zip(beads, tower.quotient)):
        # most components are empty, and () is a partition
        if q and not is_partition(q):
            raise ValueError(f"component {residue} is not a partition")
        # a g-core occupies each runner from the bottom up; q's parts lift
        # its top len(q) beads, the rest stay at positions m - len(q) - 1, ..., 0
        top = residue + g * (m - 1)
        beta += [top + g * (x - i) for i, x in enumerate(q)]
        beta += range(top - g * len(q), residue - 1, -g)
    return from_first_column_hooks(beta)


def is_st_core(p: Partition, s: int, t: int) -> bool:
    """True if ``p`` is simultaneously an s-core and a t-core."""
    check_pair(s, t)
    return is_t_core(p, s) and is_t_core(p, t)


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
    return all(is_t_core(q, sp) and is_t_core(q, tp) for q in tower.quotient)


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


def _pair_class_beads(parts: tuple[int, ...], j: int, g: int) -> tuple[list[int], set[int], int]:
    """Bead data for the merged residue classes {j, g-j} of a bar partition.

    Parts j + alpha*g put beads at nonnegative positions alpha; parts
    (g-j) + m*g remove the bead at position -1-m. Returns the nonnegative bead
    positions (descending), the removed-position indices m, and the charge.
    """
    alphas = sorted((x - j) // g for x in parts if x % g == j)
    holes = {(x - (g - j)) // g for x in parts if x % g == g - j}
    charge = len(alphas) - len(holes)
    return sorted(alphas, reverse=True), holes, charge


def _component_from_beads(alphas: list[int], holes: set[int], charge: int) -> Partition:
    """Decode a charged Maya strip into a straight partition.

    Bead positions descend as q_i = part_i + charge - i (1-indexed); beads sit
    at every alpha and at -1-m for m not in holes.
    """
    depth = len(alphas) + len(holes) + abs(charge) + 2
    if holes:
        # the window must reach past the deepest removed position
        depth += max(holes) + 1
    beads = list(alphas)
    m = 0
    while len(beads) < depth + len(holes):
        if m not in holes:
            beads.append(-1 - m)
        m += 1
    parts = []
    for i, q in enumerate(beads, start=1):
        part = q - charge + i
        if part <= 0:
            break
        parts.append(part)
    return tuple(parts)


def bar_decompose(b: BarPartition, g: int) -> BarTower:
    """Split a bar partition into its g-bar-core and g-bar-quotient.

    Component 0 collects the parts divisible by g, each divided by g (a bar
    partition). Component j (1 <= j <= (g-1)/2) reads the merged residue
    classes {j, g-j} as one charged Maya strip and decodes it as a straight
    partition; the strip's charge survives into the core.

    Args:
        b: a bar partition.
        g: odd integer >= 3.
    """
    check_divisor(g, odd=True)
    lam0 = tuple(sorted((x // g for x in b if x % g == 0), reverse=True))
    components: list[tuple[int, ...]] = [lam0]
    core_parts: list[int] = []
    for j in range(1, (g + 1) // 2):
        alphas, holes, charge = _pair_class_beads(b, j, g)
        components.append(_component_from_beads(alphas, holes, charge))
        if charge > 0:
            core_parts.extend(j + ell * g for ell in range(charge))
        elif charge < 0:
            core_parts.extend((g - j) + ell * g for ell in range(-charge))
    core = tuple(sorted(core_parts, reverse=True))
    return BarTower(g=g, core=core, quotient=tuple(components))


def bar_reconstruct(tower: BarTower) -> BarPartition:
    """Rebuild the bar partition with the given g-bar-core and quotient.

    Inverse of :func:`bar_decompose`.

    Raises:
        ValueError: if the core is not a g-bar-core or component 0 is not a
            bar partition.
    """
    g = tower.g
    if not is_bar_partition(tower.quotient[0]):
        raise ValueError("component 0 must have distinct parts")
    charges = olsson_encode(tower.core, g)
    parts = [g * x for x in tower.quotient[0]]
    for j in range(1, (g + 1) // 2):
        lam = tower.quotient[j]
        if not is_partition(lam):
            raise ValueError(f"component {j} is not a partition")
        charge = charges[j - 1]
        depth = len(lam) + abs(charge) + 2
        beads = {lam[i - 1] + charge - i if i <= len(lam) else charge - i for i in range(1, depth + 1)}
        floor = charge - depth
        for q in beads:
            if q >= 0:
                parts.append(j + q * g)
        m = 0
        while -1 - m > floor:
            if -1 - m not in beads:
                parts.append((g - j) + m * g)
            m += 1
    result = tuple(sorted(parts, reverse=True))
    if not is_bar_partition(result):
        raise ValueError("tower does not assemble into a bar partition")
    return result


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
    tower = bar_decompose(b, g)
    if not (is_tbar_core(tower.quotient[0], sp) and is_tbar_core(tower.quotient[0], tp)):
        return False
    return all(
        is_t_core(lam, sp) and is_t_core(lam, tp) for lam in tower.quotient[1:]
    )