"""Integer partitions and their Young-diagram hook machinery.

A partition is represented as a tuple of weakly decreasing positive integers;
the empty tuple is the empty partition of 0. All functions are pure and all
values immutable, so everything here is safe to share between threads.

This leaf module also holds the parameter policy: :func:`check_modulus`,
:func:`check_pair` and :func:`common_divisor` are the only places that refuse
a modulus or a pair, so each condition has one message in every verb. And
:class:`Frozen` is the base of the package's immutable value classes.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable

Partition = tuple[int, ...]


def check_modulus(t: int, *, odd: bool = False) -> None:
    """Refuse t < 1 for t-cores; with ``odd``, also even t (t-bar-cores, zeta)."""
    if t < 1 or odd and t % 2 == 0:
        raise ValueError("t must be odd and >= 1" if odd else "t must be >= 1")


def check_pair(s: int, t: int, *, odd: bool = False, coprime: bool = False) -> None:
    """Refuse s or t <= 1 for joint cores.

    With ``odd``, also even s or t (bar cores); with ``coprime``, then
    gcd(s, t) > 1 (the finite censuses and their grids).
    """
    if s <= 1 or t <= 1 or odd and (s % 2 == 0 or t % 2 == 0):
        raise ValueError("s and t must be odd and exceed 1" if odd else "s and t must exceed 1")
    if coprime and gcd(s, t) != 1:
        raise ValueError("s and t must be coprime")


def check_divisor(g: int, *, odd: bool = False) -> None:
    """Refuse g < 2 for g-towers; with ``odd``, g even or g < 3 (bar towers)."""
    if g < 2 or odd and (g < 3 or g % 2 == 0):
        raise ValueError("g must be odd and >= 3" if odd else "g must be >= 2")


def common_divisor(s: int, t: int) -> int:
    """g = gcd(s, t), refused unless g > 1 (the g-core/g-quotient constructions)."""
    g = gcd(s, t)
    if g <= 1:
        raise ValueError("gcd(s, t) must exceed 1")
    return g


class Frozen:
    """Base of the immutable value classes (towers and count tables).

    A subclass names its fields in ``__slots__`` and sets them once, in
    ``__init__``, with ``object.__setattr__``. As with a frozen dataclass,
    assignment raises ``AttributeError``, an instance equals only an
    instance of its own class with equal fields (never a plain tuple), hashes
    as the tuple of its fields, and prints as ``Name(field=value, ...)``.
    Importing ``dataclasses`` (with ``inspect``) would add about 14 ms to
    every cold CLI call.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, which repeats its checks
        return self.__class__, self._fields()


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize a part list into a partition.

    Parts are sorted into weakly decreasing order and zeros are dropped, so no
    unsorted intermediate value can escape into the rest of the library.

    Args:
        parts: any iterable of nonnegative integers.

    Returns:
        The canonical partition tuple.

    Raises:
        ValueError: if any part is negative or not an integer.
    """
    cleaned = []
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"partition parts must be integers, got {p!r}")
        if p < 0:
            raise ValueError(f"partition parts must be nonnegative, got {p}")
        if p > 0:
            cleaned.append(p)
    return tuple(sorted(cleaned, reverse=True))


def is_partition(parts: tuple[int, ...]) -> bool:
    """True if ``parts`` is already a canonical partition tuple."""
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def size(p: Partition) -> int:
    """Sum of the parts."""
    return sum(p)


def conjugate(p: Partition) -> Partition:
    """Reflect the Young diagram, exchanging rows and columns.

    An involution that preserves the size and the hook-length multiset.
    """
    if not p:
        return ()
    cols = []
    k = len(p)
    for c in range(p[0]):
        while p[k - 1] <= c:
            k -= 1
        cols.append(k)
    return tuple(cols)


def is_self_conjugate(p: Partition) -> bool:
    """True if the partition equals its conjugate."""
    return p == conjugate(p)


def first_column_hooks(p: Partition) -> frozenset[int]:
    """Beta-set of first-column hook lengths.

    Row i of a k-row partition contributes p[i] + k - 1 - i (0-indexed), giving
    a strictly decreasing set of k distinct positive integers. The beta-set
    determines the partition completely.
    """
    k = len(p)
    return frozenset(p[i] + k - 1 - i for i in range(k))


def from_first_column_hooks(beta: Iterable[int]) -> Partition:
    """Decode a beta-set back into a partition.

    Accepts padded beta-sets: a maximal initial block {0, 1, ..., m-1} of
    phantom values is stripped automatically, since row i of an N-row padding
    satisfies part = value - (N - 1 - i) and phantom rows decode to part 0.

    Args:
        beta: distinct nonnegative integers.

    Returns:
        The unique partition whose (possibly padded) first-column hooks are
        ``beta``.

    Raises:
        ValueError: on repeated or negative values.
    """
    values = sorted(beta, reverse=True)
    if len(values) != len(set(values)):
        raise ValueError("beta-set values must be distinct")
    if values and values[-1] < 0:
        raise ValueError("beta-set values must be nonnegative")
    # The i-th largest of n distinct nonnegative values is at least n - 1 - i,
    # so no part decodes negative; phantom values decode to part 0.
    return tuple([part for i, v in enumerate(values, 1 - len(values)) if (part := v + i) > 0])


def hook_length_multiset(p: Partition) -> tuple[int, ...]:
    """All hook lengths of the Young diagram, sorted decreasing.

    The hook length of cell (i, j) is p[i] - j + conj[j] - i - 1 in 0-indexed
    coordinates (arm plus leg plus one). Computed from the closed formula with
    the conjugate, O(parts^2) rather than O(size).

    Returns:
        A tuple of length size(p), one entry per cell.
    """
    conj = conjugate(p)
    hooks = [row - j + conj[j] - i - 1 for i, row in enumerate(p) for j in range(row)]
    hooks.sort(reverse=True)
    return tuple(hooks)


def diagonal_hooks(p: Partition) -> tuple[int, ...]:
    """Hook lengths down the main diagonal, strictly decreasing.

    For cell (i, i) the hook length is p[i] + conj[i] - 2i - 1. For a
    self-conjugate partition these are distinct odd numbers 2(p[i] - i) - 1
    summing to the size.
    """
    conj = conjugate(p)
    out = []
    for i, row in enumerate(p):
        if row <= i:
            break
        out.append(row + conj[i] - 2 * i - 1)
    return tuple(out)


def from_diagonal_hooks(diag: Iterable[int]) -> Partition:
    """The unique self-conjugate partition with the given diagonal hooks.

    Args:
        diag: distinct odd positive integers in any order.

    Returns:
        Self-conjugate partition p with diagonal_hooks(p) equal to ``diag``
        sorted decreasing.

    Raises:
        ValueError: on even, repeated, or nonpositive entries.
    """
    values = sorted(diag, reverse=True)
    if len(values) != len(set(values)):
        raise ValueError("diagonal hooks must be distinct")
    if any(v <= 0 or v % 2 == 0 for v in values):
        raise ValueError("diagonal hooks must be odd and positive")
    # Diagonal cell i with hook d has an arm of (d-1)/2 cells, so row i runs
    # to i + (d+1)/2; below the Durfee square the shape is the mirror image.
    rows = tuple([i + (d + 1) // 2 for i, d in enumerate(values)])
    return rows + conjugate(rows)[len(rows) :]


def is_t_core(p: Partition, t: int) -> bool:
    """True if no hook of length t exists.

    Uses the beta-set test: t is a hook length iff some beta value b >= t has
    b - t outside the beta-set. Equivalent, for this predicate, to having no
    hook length divisible by t. The beta-set is an int bitmask B, so the test
    is that B >> t has no bit outside B.

    Args:
        p: a partition.
        t: integer >= 1.
    """
    check_modulus(t)
    k = len(p)
    beta = 0
    for part in p:
        k -= 1
        beta |= 1 << (part + k)
    return not (beta >> t) & ~beta
