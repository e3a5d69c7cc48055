import ast
from hashlib import sha256
from pathlib import Path
import pickle

from hypothesis import given, strategies as st
import pytest

from stcores import partitions as partitions_module
from stcores.core_quotient import BarTower, StraightTower
from stcores.oracle import CountTable
from stcores.partitions import (
    as_partition,
    check_pair,
    common_divisor,
    conjugate,
    diagonal_hooks,
    first_column_hooks,
    from_diagonal_hooks,
    from_first_column_hooks,
    hook_length_multiset,
    is_partition,
    is_self_conjugate,
    is_t_core,
    size,
)


partitions = st.lists(st.integers(min_value=1, max_value=12), max_size=8).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def test_as_partition_sorts_and_drops_zeros():
    assert as_partition([1, 3, 2]) == (3, 2, 1)
    assert as_partition([3, 0, 0]) == (3,)
    assert as_partition([]) == ()


def test_as_partition_rejects_negative_parts():
    with pytest.raises(ValueError, match="nonnegative"):
        as_partition([3, -1])


@pytest.mark.parametrize(
    "parts, ok",
    (
        ((), True),
        ((5, 5, 2), True),
        ((1, 2), False),
        ((2, -1), False),
        # parts are read as as_partition reads them: a bool is not a part
        ((True,), False),
        ((2, True), False),
        ((1.0,), False),
        (("a",), False),
        ((0,), False),
        # any sequence is read, not only the canonical tuple
        ([3, 1], True),
        ([1, 3], False),
    ),
)
def test_is_partition(parts, ok):
    assert is_partition(parts) is ok


@given(partitions)
def test_conjugate_is_an_involution(p):
    assert conjugate(conjugate(p)) == p


@given(partitions)
def test_conjugate_preserves_size_and_hooks(p):
    q = conjugate(p)
    assert size(q) == size(p)
    assert sorted(hook_length_multiset(q)) == sorted(hook_length_multiset(p))


def test_hook_lengths_of_small_shapes():
    assert hook_length_multiset(()) == ()
    assert hook_length_multiset((1,)) == (1,)
    assert hook_length_multiset((2, 1)) == (3, 1, 1)
    assert hook_length_multiset((2, 2)) == (3, 2, 2, 1)


@given(partitions)
def test_first_column_hooks_round_trip(p):
    assert from_first_column_hooks(first_column_hooks(p)) == p


@given(partitions, st.integers(min_value=1, max_value=4))
def test_first_column_hooks_padding_is_harmless(p, pad):
    # a beta set shifted by pad with the new low beads filled in encodes
    # the same partition
    beta = first_column_hooks(p)
    padded = frozenset(range(pad)) | frozenset(b + pad for b in beta)
    assert from_first_column_hooks(padded) == p


def test_diagonal_hooks_of_known_self_conjugate_core():
    assert diagonal_hooks((4, 2, 1, 1)) == (7, 1)
    assert from_diagonal_hooks((7, 1)) == (4, 2, 1, 1)


@pytest.mark.parametrize(
    "diag, message",
    (
        ((3, 3), "^diagonal hooks must be distinct$"),
        ((5, 2), "^diagonal hooks must be odd and positive$"),
        ((1, -1), "^diagonal hooks must be odd and positive$"),
    ),
)
def test_from_diagonal_hooks_refuses_hooks_no_partition_has(diag, message):
    with pytest.raises(ValueError, match=message):
        from_diagonal_hooks(diag)


@given(partitions)
def test_diagonal_hooks_round_trip_on_self_conjugates(p):
    if not is_self_conjugate(p):
        return
    assert from_diagonal_hooks(diagonal_hooks(p)) == p
    assert sum(diagonal_hooks(p)) == size(p)
    assert all(h % 2 == 1 for h in diagonal_hooks(p))


@pytest.mark.parametrize("n", range(9))
def test_staircases_are_2_cores(n):
    p = tuple(range(n, 0, -1))
    assert is_t_core(p, 2)


@given(partitions, st.integers(min_value=2, max_value=7))
def test_t_core_means_no_hook_divisible_by_t(p, t):
    assert is_t_core(p, t) == all(h % t for h in hook_length_multiset(p))


@given(partitions)
def test_large_t_is_never_an_obstruction(p):
    assert is_t_core(p, size(p) + 1)


def test_self_conjugate_detection():
    assert is_self_conjugate(())
    assert is_self_conjugate((3, 1, 1))
    assert not is_self_conjugate((3, 1))


PARAMETER_MESSAGES = (
    "t must be >= 1",
    "t must be odd and >= 1",
    "s and t must exceed 1",
    "s and t must be odd and exceed 1",
    "s and t must be coprime",
    "gcd(s, t) must exceed 1",
    "g must be >= 2",
    "g must be odd and >= 3",
)


def test_pairs_are_checked_for_range_and_parity_before_their_gcd():
    with pytest.raises(ValueError, match="^s and t must be odd and exceed 1$"):
        check_pair(6, 9, odd=True, coprime=True)
    with pytest.raises(ValueError, match="^s and t must be coprime$"):
        check_pair(9, 3, odd=True, coprime=True)
    check_pair(4, 6)
    assert common_divisor(6, 9) == 3


def test_parameter_messages_appear_only_in_the_validators():
    # one message per condition in every verb: no other module restates a check
    found = {}
    for path in sorted(Path(partitions_module.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in PARAMETER_MESSAGES:
                found.setdefault(node.value, set()).add(path.name)
    assert found == {message: {"partitions.py"} for message in PARAMETER_MESSAGES}


# Per value class: fields, fields that differ in one place, and the repr the
# frozen dataclass it replaces printed.
VALUE_CLASSES = (
    (StraightTower, (2, (1,), ((), ())), (2, (), ((), ())), "StraightTower(g=2, core=(1,), quotient=((), ()))"),
    (BarTower, (3, (1,), ((), ())), (3, (1,), ((1,), ())), "BarTower(g=3, core=(1,), quotient=((), ()))"),
    (CountTable, ("f_5", (1, 1, 2, 3)), ("f_7", (1, 1, 2, 3)), "CountTable(label='f_5', counts=(1, 1, 2, 3))"),
)


@pytest.mark.parametrize("cls, fields, other, text", VALUE_CLASSES, ids=[row[0].__name__ for row in VALUE_CLASSES])
def test_value_classes_keep_the_frozen_dataclass_behaviour(cls, fields, other, text):
    value = cls(*fields)
    assert repr(value) == text
    assert value == cls(*fields) and hash(value) == hash(cls(*fields)) == hash(fields)
    assert value != cls(*other)
    # equal only within one class: never to the plain tuple, nor to a subclass
    assert value != fields and fields != value
    assert value != type("Twin", (cls,), {})(*fields)
    with pytest.raises(AttributeError):
        setattr(value, cls.__slots__[0], fields[0])
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, cls.__slots__[0])
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize(
    "cls, g, quotient, message",
    (
        (StraightTower, 2, ((),), "^quotient must have exactly g components$"),
        (StraightTower, 3, ((), (), (), ()), "^quotient must have exactly g components$"),
        (BarTower, 5, ((), ()), r"^quotient must have exactly \(g\+1\)/2 components$"),
        (BarTower, 3, ((),), r"^quotient must have exactly \(g\+1\)/2 components$"),
    ),
)
def test_tower_constructors_check_their_quotient_length(cls, g, quotient, message):
    # the divisor checks are in tests/test_core_quotient.py
    with pytest.raises(ValueError, match=message):
        cls(g=g, core=(), quotient=quotient)


def _odd_hook_sets(room: int, below: int | None = None):
    # Every set of distinct odd hooks with sum <= room, largest first.
    yield ()
    for d in range(1, room + 1 if below is None else min(room + 1, below), 2):
        for rest in _odd_hook_sets(room - d, d):
            yield (d, *rest)


# sha256 of repr([(hooks, from_diagonal_hooks(hooks)), ...]) over
# _odd_hook_sets(45), computed with the former nested fill loop.
DIAGONAL_HOOKS_DIGEST = "b254235bf9295c10214879366f0fffd0dac055fb314389dc9785163047c64293"


def test_from_diagonal_hooks_matches_its_pinned_digest():
    pairs = [(hooks, from_diagonal_hooks(hooks)) for hooks in _odd_hook_sets(45)]
    assert all(is_self_conjugate(p) and diagonal_hooks(p) == hooks for hooks, p in pairs)
    assert sha256(repr(pairs).encode()).hexdigest() == DIAGONAL_HOOKS_DIGEST
