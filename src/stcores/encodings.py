"""Integer-tuple encodings of t-cores and t-bar-cores, and the zeta bijection.

Two pairs of passes split a partition into its g-core part and g-quotient
and build it back. The bead pass :func:`abacus` reads a partition's runner
surpluses (a_0, ..., a_{g-1}), whose entries sum to zero, and its g-quotient,
and :func:`from_abacus` places the beads back; the strip pass
:func:`bar_abacus` reads a bar partition's strip charges and g-bar-quotient,
and :func:`from_bar_abacus` builds the strips back. A t-core has an empty
t-quotient and is encoded by its surpluses; a t-bar-core (t odd) has an empty
t-bar-quotient and is encoded by its charges, the signed run lengths
(b'_1, ..., b'_{(t-1)/2}) of its residue classes. Zeta shifts one encoding
into the other.

Nothing here is memoized. The towers in ``core_quotient`` meet the same
g-cores again and again (383 distinct cores in the 37,184 straight towers of
``verify structure``), so they cache the core codecs for themselves; every
other caller passes distinct inputs, and a cache here would only grow.
"""

from __future__ import annotations

from math import inf

from .bar_partitions import BarPartition, is_bar_partition
from .partitions import (
    Partition,
    _not_int,
    check_modulus,
    is_partition,
    is_self_conjugate,
)

CoreTuple = tuple[int, ...]
BarTuple = tuple[int, ...]


def abacus(p: Partition, g: int) -> tuple[CoreTuple, tuple[Partition, ...]]:
    """Runner surpluses and g-quotient of ``p``, from one pass over its beads.

    The beta-set is padded to n_beads, the smallest multiple of g covering
    all parts; runner i holds the beta values congruent to i mod g and reads
    as component i. Adding g more phantom beads shifts every runner
    uniformly, so the result does not depend on the padding choice. The
    caller checks g >= 1; a ``p`` that is not a partition raises ValueError
    at its first part out of place, by the test of ``is_partition``.

    The fewer than g phantom beads 0, 1, ..., n_beads - k - 1 put one bead at
    position 0 on each runner below n_beads - k. Only the real beads are then
    placed, in ascending order, so the beads already on a runner are exactly
    those below the new one and the part it reads is its position minus their
    count. A runner's surplus is its bead count less n_beads / g.
    """
    k = len(p)
    level = (k + g - 1) // g
    phantoms = g * level - k
    beads = [1] * phantoms + [0] * (g - phantoms)
    # only the runners that read a part get a list, since a core reads none
    runners: dict[int, list[int]] = {}
    low = 1
    for b, x in enumerate(reversed(p), phantoms):
        if type(x) is not int and _not_int(x) or x < low:
            raise ValueError("input is not a partition")
        low = x
        position, residue = divmod(b + x, g)
        part = position - beads[residue]
        beads[residue] += 1
        if part:
            runners.setdefault(residue, []).append(part)
    quotient: list[Partition] = [()] * g
    for residue, r in runners.items():
        quotient[residue] = tuple(r[::-1])
    return tuple([m - level for m in beads]), tuple(quotient)


def from_abacus(surplus: CoreTuple, quotient: tuple[Partition, ...]) -> Partition:
    """Inverse of :func:`abacus`: the partition with these runner surpluses and quotient.

    Here g = len(surplus). Every runner is raised by one level, so that the
    emptiest holds as many beads as the longest component. A component that
    is not a partition raises ValueError.

    The beads are distinct and nonnegative by construction, so the beta-set
    is decoded here, without the checks of ``from_first_column_hooks``.
    """
    g = len(surplus)
    level = max(map(len, quotient)) - min(surplus)
    beta: list[int] = []
    for residue, (a, q) in enumerate(zip(surplus, quotient)):
        # the runner holds level + a beads from the bottom up, the highest at
        # top; q's parts lift its top len(q) beads, the rest stay where they are
        top = residue + g * (level + a - 1)
        # most components are empty, and () is a partition
        if q:
            if not is_partition(q):
                raise ValueError(f"component {residue} is not a partition")
            beta += [top + g * (x - i) for i, x in enumerate(q)]
            top -= g * len(q)
        beta += range(top, residue - 1, -g)
    beta.sort(reverse=True)
    # the i-th largest bead decodes to a part v - (n - 1 - i), phantoms to 0
    return tuple([part for i, v in enumerate(beta, 1 - len(beta)) if (part := v + i) > 0])


def gks_encode(p: Partition, t: int) -> CoreTuple:
    """Runner-surplus tuple (a_0, ..., a_{t-1}) of a t-core, read by :func:`abacus`.

    The entries sum to zero, and conjugation maps (a_0,...,a_{t-1}) to
    (-a_{t-1},...,-a_0).

    Raises:
        ValueError: if t < 1 or ``p`` is not a t-core (a runner reads a part).
    """
    check_modulus(t)
    surplus, quotient = abacus(p, t)
    if any(quotient):
        raise ValueError("input is not a t-core")
    return surplus


def gks_decode(entries: CoreTuple) -> Partition:
    """The unique t-core, t = len(entries), whose runner-surplus tuple is ``entries``.

    Raises:
        ValueError: if the tuple is empty or its entries do not sum to zero.
    """
    t = len(entries)
    if t < 1:
        raise ValueError("tuple must be nonempty")
    if sum(entries) != 0:
        raise ValueError("entries must sum to zero")
    return from_abacus(entries, ((),) * t)


def is_selfconjugate_tuple(entries: CoreTuple) -> bool:
    """True iff the tuple is antisymmetric under reversal with negation.

    Equivalent to self-conjugacy of the decoded t-core. Only defined for odd
    tuple length; the middle entry of a self-conjugate tuple is forced to 0.

    Raises:
        ValueError: for even length.
    """
    if len(entries) % 2 == 0:
        raise ValueError("tuple length must be odd")
    return tuple(entries) == conjugate_tuple(entries)


def diagonal_hooks_from_tuple(entries: CoreTuple) -> tuple[int, ...]:
    """Diagonal hook lengths of the self-conjugate t-core behind ``entries``.

    Reads {2(i + ell*t) + 1 : a_i > 0, 0 <= ell < a_i} straight off the tuple,
    sorted decreasing.

    Raises:
        ValueError: if the tuple is not self-conjugate (or has even length).
    """
    if not is_selfconjugate_tuple(entries):
        raise ValueError("tuple does not encode a self-conjugate core")
    t = len(entries)
    diag = [2 * (i + ell * t) + 1 for i, a in enumerate(entries) for ell in range(a)]
    return tuple(sorted(diag, reverse=True))


def bar_abacus(b: BarPartition, g: int) -> tuple[BarTuple, tuple[tuple[int, ...], ...]]:
    """Strip charges and g-bar-quotient of ``b``, from one pass over its parts.

    Component 0 holds the parts divisible by g, each divided by g. For
    1 <= j <= (g-1)/2 the residue classes {j, g-j} form one Maya strip: a
    part j + q*g puts a bead at position q >= 0, a part (g-j) + m*g leaves a
    hole at position -1-m, and every other negative position holds a bead.
    As :func:`abacus` reads a runner, each bead reads as a part of component
    j, the number of holes below it. Its charge is its beads at nonnegative
    positions less its holes. The caller checks that g is odd; a ``b`` that
    is not a bar partition raises ValueError at its first part out of place.
    """
    classes: dict[int, list[int]] = {}
    previous = inf
    for x in b:
        if type(x) is not int and _not_int(x) or not 0 < x < previous:
            raise ValueError("input is not a bar partition")
        previous = x
        q, r = divmod(x, g)
        classes.setdefault(r, []).append(q)
    charges = [0] * (g // 2)
    quotient = [tuple(classes.get(0, ()))] + [()] * (g // 2)
    # only the strips that hold a part are read; at a large g most are empty
    for j in {min(r, g - r) for r in classes if r}:
        beads, holes = classes.get(j, []), classes.get(g - j, [])
        # a bead at q >= 0 with i beads under it reads every hole and q - i
        lam = [x for i, q in enumerate(beads, len(holes) + 1 - len(beads)) if (x := q + i)]
        # holes come deepest first; beads between the n-th hole up and the next read n
        depth = 0
        for n, m in zip(range(len(holes), 0, -1), reversed(holes)):
            lam += [n] * (m - depth)
            depth = m + 1
        quotient[j] = tuple(lam)
        charges[j - 1] = len(beads) - len(holes)
    return tuple(charges), tuple(quotient)


def from_bar_abacus(charges: BarTuple, quotient: tuple[tuple[int, ...], ...]) -> BarPartition:
    """Inverse of :func:`bar_abacus`: the bar partition with these strip charges and quotient.

    Here g = 2 len(charges) + 1. A component 0 that is not a bar partition,
    or another component that is not a partition, raises ValueError.
    """
    if quotient[0] and not is_bar_partition(quotient[0]):
        raise ValueError("component 0 must have distinct parts")
    g = 2 * len(charges) + 1
    parts = [g * x for x in quotient[0]]
    for j, (charge, lam) in enumerate(zip(charges, quotient[1:]), start=1):
        if lam and not is_partition(lam):
            raise ValueError(f"component {j} is not a partition")
        if not (charge or lam):
            continue  # an empty strip, as most are at a large g
        # strip j holds lam's beta-set shifted up by charge - len(lam), and all below
        shift = charge - len(lam)
        beads = {charge - 1 - i + x for i, x in enumerate(lam)}.union(range(shift))
        parts += [j + q * g for q in beads if q >= 0]
        # a hole at position q = -1-m stands for the part (g-j) + m*g
        parts += [-(j + q * g) for q in range(shift, 0) if q not in beads]
    # Component 0 gives multiples of g and strip j parts = +-j mod g, g odd:
    # the parts are positive and distinct, a bar partition.
    return tuple(sorted(parts, reverse=True))


def olsson_encode(b: BarPartition, t: int) -> BarTuple:
    """Signed run-length tuple (b'_1, ..., b'_{(t-1)/2}) of a t-bar-core: its strip charges.

    Raises:
        ValueError: unless t is odd and >= 1, ``b`` is a bar partition, and
            its t-bar-quotient is empty.
    """
    check_modulus(t, odd=True)
    charges, quotient = bar_abacus(b, t)
    if any(quotient):
        raise ValueError("input is not a t-bar-core")
    return charges


def olsson_decode(entries: BarTuple) -> BarPartition:
    """The unique t-bar-core, t = 2 len(entries) + 1, with signed run lengths ``entries``.

    Its strips hold empty components: entry b'_i > 0 gives parts i, i+t, ...,
    i+(b'_i - 1)t, and a negative entry gives (t-i), (t-i)+t, ... instead.
    """
    return from_bar_abacus(entries, ((),) * (len(entries) + 1))


def zeta(p: Partition, t: int) -> BarPartition:
    """Send a self-conjugate t-core to its partner t-bar-core (odd t).

    Copies a_i into b'_{i+1} for 0 <= i <= (t-3)/2 and decodes. Bijective onto
    t-bar-cores; does not preserve size.

    Raises:
        ValueError: unless t is odd and >= 1, or for non-t-core or
            non-self-conjugate input.
    """
    check_modulus(t, odd=True)
    if not is_self_conjugate(p):
        raise ValueError("input is not self-conjugate")
    return olsson_decode(gks_encode(p, t)[: (t - 1) // 2])


def zeta_inverse(b: BarPartition, t: int) -> Partition:
    """Send a t-bar-core back to its self-conjugate t-core (odd t).

    Raises:
        ValueError: unless t is odd and >= 1, or for input that is not a bar
            partition or not a t-bar-core.
    """
    half = olsson_encode(b, t)
    return gks_decode(half + (0,) + conjugate_tuple(half))


def conjugate_tuple(entries: CoreTuple) -> CoreTuple:
    """Tuple of the conjugate core: reverse and negate.

    Satisfies gks_encode(conjugate(p), t) == conjugate_tuple(gks_encode(p, t)).
    """
    return tuple(-a for a in reversed(entries))

