"""Integer-tuple encodings of t-cores and t-bar-cores, and the zeta bijection.

A t-core is encoded by the t-tuple (a_0, ..., a_{t-1}) of runner surpluses of
its beta-set; the entries always sum to zero. A t-bar-core (t odd) is encoded
by the signed run lengths (b'_1, ..., b'_{(t-1)/2}) of its residue classes.
Zeta shifts one encoding into the other.
"""

from __future__ import annotations

from .bar_partitions import BarPartition
from .partitions import (
    Partition,
    check_modulus,
    is_self_conjugate,
    is_t_core,
)

CoreTuple = tuple[int, ...]
BarTuple = tuple[int, ...]


def gks_encode(p: Partition, t: int) -> CoreTuple:
    """Runner-surplus tuple (a_0, ..., a_{t-1}) of a t-core.

    With the beta-set padded to N beads (N the smallest multiple of t covering
    all parts), a_i is the number of beta values congruent to i mod t, minus
    N/t. Padding by further multiples of t leaves the tuple unchanged, the
    entries sum to zero, and conjugation maps (a_0,...,a_{t-1}) to
    (-a_{t-1},...,-a_0).

    Raises:
        ValueError: if t < 1 or ``p`` is not a t-core.
    """
    check_modulus(t)
    if not is_t_core(p, t):
        raise ValueError("input is not a t-core")
    k = len(p)
    level = (k + t - 1) // t
    phantoms = t * level - k
    # the fewer than t phantom beads 0, 1, ..., phantoms - 1 lie on distinct
    # runners; row i of the padded beta-set holds p[i] + N - 1 - i
    counts = [1] * phantoms + [0] * (t - phantoms)
    offset = t * level
    for part in p:
        offset -= 1
        counts[(part + offset) % t] += 1
    return tuple([c - level for c in counts])


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
    # Runner i holds a bead at each level below a_i. Only the levels from the
    # emptiest runner's up are read, since the full block below decodes to
    # parts 0. A bead's part is the number of empty positions below it.
    core: list[int] = []
    gaps = 0
    for level in range(min(entries), max(entries)):
        for a in entries:
            if level < a:
                if gaps:
                    core.append(gaps)
            else:
                gaps += 1
    return tuple(core[::-1])


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
    diag = []
    for i, a in enumerate(entries):
        if a > 0:
            diag.extend(2 * (i + ell * t) + 1 for ell in range(a))
    return tuple(sorted(diag, reverse=True))


def olsson_encode(b: BarPartition, t: int) -> BarTuple:
    """Signed run-length tuple (b'_1, ..., b'_{(t-1)/2}) of a t-bar-core.

    For 1 <= i <= (t-1)/2: parts congruent to i mod t must form the initial
    run i, i+t, ..., giving a positive entry; parts congruent to t-i give a
    negative entry; a t-bar-core never populates both classes of a pair and
    has no part divisible by t.

    Raises:
        ValueError: unless t is odd and >= 1, or for input that is not a
            t-bar-core.
    """
    check_modulus(t, odd=True)
    by_residue: dict[int, set[int]] = {}
    for x in b:
        r = x % t
        if r == 0:
            raise ValueError("a part is divisible by t; not a t-bar-core")
        by_residue.setdefault(r, set()).add((x - r) // t)
    entries = []
    for i in range(1, (t + 1) // 2):
        pos = by_residue.get(i, set())
        neg = by_residue.get(t - i, set())
        if pos and neg:
            raise ValueError(f"residue classes {i} and {t - i} both populated; not a t-bar-core")
        run = pos or neg
        if run != set(range(len(run))):
            raise ValueError(f"residue class {i if pos else t - i} has gaps; not a t-bar-core")
        entries.append(len(pos) - len(neg))
    return tuple(entries)


def olsson_decode(entries: BarTuple) -> BarPartition:
    """The unique t-bar-core, t = 2 len(entries) + 1, with signed run lengths ``entries``.

    Entry b'_i > 0 contributes parts i, i+t, ..., i+(b'_i - 1)t; a negative
    entry contributes (t-i), (t-i)+t, ... instead.
    """
    t = 2 * len(entries) + 1
    parts = []
    for i, bp in enumerate(entries, start=1):
        first = i if bp > 0 else t - i
        parts.extend(first + ell * t for ell in range(abs(bp)))
    return tuple(sorted(parts, reverse=True))


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
        ValueError: unless t is odd and >= 1, or for input that is not a
            t-bar-core.
    """
    check_modulus(t, odd=True)
    half = olsson_encode(b, t)
    return gks_decode(half + (0,) + conjugate_tuple(half))


def conjugate_tuple(entries: CoreTuple) -> CoreTuple:
    """Tuple of the conjugate core: reverse and negate.

    Satisfies gks_encode(conjugate(p), t) == conjugate_tuple(gks_encode(p, t)).
    """
    return tuple(-a for a in reversed(entries))

