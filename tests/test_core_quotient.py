import hashlib
import itertools
from math import gcd

from hypothesis import given, strategies as st
import pytest

from stcores import core_quotient
from stcores.bar_partitions import bar_length_multiset, enumerate_bar_partitions, is_tbar_core
from stcores.core_quotient import (
    BarTower,
    StraightTower,
    bar_decompose,
    bar_reconstruct,
    decompose,
    is_st_core,
    is_stbar_core,
    is_stbar_core_by_quotient,
    reconstruct,
    selfconjugate_tower_check,
    st_core_tower_check,
)
from stcores.oracle import barcore_counts, core_counts, enumerate_partitions
from stcores.partitions import hook_length_multiset, is_self_conjugate, is_t_core, size


partitions = st.lists(st.integers(min_value=1, max_value=10), max_size=7).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
bar_parts = st.sets(st.integers(min_value=1, max_value=21), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


def hook_bijection_check(p, g, k):
    """Hooks of length k*g in ``p`` and hooks of length k in its g-quotient."""
    in_p = sum(1 for h in hook_length_multiset(p) if h == k * g)
    in_quot = sum(1 for q in decompose(p, g).quotient for h in hook_length_multiset(q) if h == k)
    return in_p, in_quot


def bar_bijection_check(b, g, k):
    """Bars of length k*g in ``b`` against length-k bars and hooks in its quotient.

    The quotient side counts bars of length k in component 0 plus hooks of
    length k in the straight components.
    """
    in_b = sum(1 for v in bar_length_multiset(b) if v == k * g)
    tower = bar_decompose(b, g)
    in_quot = sum(1 for v in bar_length_multiset(tower.quotient[0]) if v == k)
    for lam in tower.quotient[1:]:
        in_quot += sum(1 for h in hook_length_multiset(lam) if h == k)
    return in_b, in_quot


@given(partitions, st.integers(min_value=2, max_value=6))
def test_decompose_reconstruct_round_trip(p, g):
    tower = decompose(p, g)
    assert reconstruct(tower) == p
    assert len(tower.quotient) == g
    assert is_t_core(tower.core, g)
    assert size(p) == size(tower.core) + g * tower.weight


def test_g_core_decomposes_trivially():
    tower = decompose((2, 1), 2)
    assert tower == StraightTower(g=2, core=(2, 1), quotient=((), ()))
    assert tower.weight == 0


def test_decompose_rejects_trivial_modulus():
    for g in (-1, 0, 1):
        with pytest.raises(ValueError, match="^g must be >= 2$"):
            decompose((2, 1), g)
        with pytest.raises(ValueError, match="^g must be >= 2$"):
            StraightTower(g=g, core=(), quotient=((),) * max(g, 0))


@pytest.mark.parametrize("g", (0, 1, 2, 4))
def test_bar_towers_reject_an_even_or_small_modulus(g):
    with pytest.raises(ValueError, match="^g must be odd and >= 3$"):
        bar_decompose((3, 1), g)
    with pytest.raises(ValueError, match="^g must be odd and >= 3$"):
        BarTower(g=g, core=(), quotient=((),) * ((g + 1) // 2))


@pytest.mark.parametrize(
    "quotient, j",
    (
        (((1, 2), ()), 0),
        (((-5,), ()), 0),
        (((0, 0, 3), (1,)), 0),
        (((1, 3), ()), 0),
        (((2,), (1, 0)), 1),
        (((2, True), ()), 0),
    ),
)
def test_reconstruct_refuses_a_component_that_is_not_a_partition(quotient, j):
    # ((1, 3), ()) used to give (3, 2, 2, 1), whose 2-quotient is ((2, 2), ());
    # ((2, True), ()) gave (3, 1, 1, 1), reading True as the part 1
    tower = StraightTower(g=2, core=(), quotient=quotient)
    with pytest.raises(ValueError, match=f"^component {j} is not a partition$"):
        reconstruct(tower)


@pytest.mark.parametrize(
    "g, quotient, message",
    (
        (3, ((1, 1), ()), "^component 0 must have distinct parts$"),
        (3, ((2,), (1, 2)), "^component 1 is not a partition$"),
        (5, ((), (1,), (0, 1)), "^component 2 is not a partition$"),
    ),
)
def test_bar_reconstruct_refuses_a_component_of_the_wrong_kind(g, quotient, message):
    with pytest.raises(ValueError, match=message):
        bar_reconstruct(BarTower(g=g, core=(), quotient=quotient))


@given(partitions, st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=5))
def test_hooks_divisible_by_kg_match_quotient_hooks_of_k(p, g, k):
    assert hook_bijection_check(p, g, k)[0] == hook_bijection_check(p, g, k)[1]


@given(bar_parts, st.sampled_from((3, 5, 7)))
def test_bar_decompose_reconstruct_round_trip(b, g):
    tower = bar_decompose(b, g)
    assert bar_reconstruct(tower) == b
    assert len(tower.quotient) == (g + 1) // 2
    assert is_tbar_core(tower.core, g)
    assert sum(b) == sum(tower.core) + g * tower.weight


# sha256 of repr(bar_decompose(b, g)), one line per tower, over every bar
# partition of size <= 30 in enumeration order and g in (3, 5, 7, 9, 11). A
# round trip alone would pass a different but self-consistent tower.
BAR_TOWERS_SHA256 = "d718609705a6434bee5e63d8a80900b2aaded27f5f256db3cb1f64629459be6c"


def test_bar_towers_match_their_pinned_digest():
    digest = hashlib.sha256()
    towers = 0
    for n in range(31):
        for b in enumerate_bar_partitions(n):
            for g in (3, 5, 7, 9, 11):
                digest.update(repr(bar_decompose(b, g)).encode() + b"\n")
                towers += 1
    assert towers == 10175
    assert digest.hexdigest() == BAR_TOWERS_SHA256


STRAIGHT_TOWERS_SHA256 = "d12c690eac46ea0984c7f6a71e80c0c22bd84484f4dee4e59eac881fef0eed5b"


def test_straight_towers_match_their_pinned_digest():
    digest = hashlib.sha256()
    towers = 0
    for n in range(21):
        for p in enumerate_partitions(n):
            for g in range(2, 8):
                digest.update(repr(decompose(p, g)).encode() + b"\n")
                towers += 1
    assert towers == 16284
    assert digest.hexdigest() == STRAIGHT_TOWERS_SHA256


# single parts far down one runner once forced the bead window too shallow
@pytest.mark.parametrize("b", ((17, 1), (20,), (20, 1), (17, 4), (23,), (26, 2)))
def test_bar_decompose_handles_deep_runners(b):
    tower = bar_decompose(b, 3)
    assert sum(b) == sum(tower.core) + 3 * tower.weight
    assert bar_reconstruct(tower) == b


# a part divisible by g, a run with a gap, and both classes of a pair
@pytest.mark.parametrize("core", ((3,), (4,), (2, 1)))
def test_bar_reconstruct_refuses_a_core_that_is_not_a_bar_core(core):
    tower = BarTower(g=3, core=core, quotient=((), ()))
    with pytest.raises(ValueError, match="^input is not a t-bar-core$"):
        bar_reconstruct(tower)


def test_bar_decompose_rejects_even_or_small_modulus():
    with pytest.raises(ValueError, match="odd"):
        bar_decompose((2, 1), 4)
    with pytest.raises(ValueError, match="odd"):
        bar_decompose((2, 1), 1)


@pytest.mark.parametrize("b, g", (((3, 3), 3), ((4, 0), 3), ((2, 2), 5), ((True,), 3)))
def test_bar_decompose_refuses_input_that_is_not_a_bar_partition(b, g):
    with pytest.raises(ValueError, match="^input is not a bar partition$"):
        bar_decompose(b, g)


@given(bar_parts, st.sampled_from((3, 5)), st.integers(min_value=1, max_value=4))
def test_bars_divisible_by_kg_match_quotient_count(b, g, k):
    got, want = bar_bijection_check(b, g, k)
    assert got == want


@pytest.mark.parametrize("s, t", ((4, 6), (6, 9), (6, 10)))
def test_joint_core_test_agrees_with_quotient_criterion(s, t):
    for n in range(15):
        for p in enumerate_partitions(n):
            assert is_st_core(p, s, t) == st_core_tower_check(decompose(p, gcd(s, t)), s, t)


def test_tower_check_needs_the_tower_modulus():
    tower = decompose((3, 1), 3)
    assert st_core_tower_check(tower, 6, 9) == is_st_core((3, 1), 6, 9)
    with pytest.raises(ValueError, match="tower's g"):
        st_core_tower_check(tower, 4, 6)


@pytest.mark.parametrize("s, t", ((9, 15), (15, 21)))
def test_joint_bar_core_test_agrees_with_quotient_criterion(s, t):
    for n in range(15):
        for b in enumerate_bar_partitions(n):
            assert is_stbar_core(b, s, t) == is_stbar_core_by_quotient(b, s, t)


def test_joint_bar_core_quotient_criterion_on_deep_runners():
    # regression pin: these disagreed while the bead window was too shallow
    assert is_stbar_core((20, 1), 21, 33) == is_stbar_core_by_quotient((20, 1), 21, 33)
    assert is_stbar_core((17, 4), 15, 21) == is_stbar_core_by_quotient((17, 4), 15, 21)


@given(partitions, st.integers(min_value=2, max_value=5))
def test_self_conjugate_towers_mirror_their_quotient(p, g):
    assert selfconjugate_tower_check(decompose(p, g)) == is_self_conjugate(p)


def test_towers_are_frozen():
    tower = decompose((3, 1), 2)
    with pytest.raises(AttributeError):
        tower.g = 3
    btower = bar_decompose((5, 3, 1), 3)
    assert isinstance(btower, BarTower)
    with pytest.raises(AttributeError):
        btower.core = ()


def test_quotient_components_cover_all_sizes():
    # weight counts every removed g-strip, summed over components
    for b in itertools.islice(enumerate_bar_partitions(12), 20):
        tower = bar_decompose(b, 3)
        assert tower.weight == sum(sum(c) for c in tower.quotient)


CODEC_MEMOS = ("_g_core", "_g_core_surplus", "_g_bar_core", "_g_bar_core_charges")


def memo_sizes():
    return [getattr(core_quotient, name).cache_info().currsize for name in CODEC_MEMOS]


def test_the_codec_memos_hold_exactly_the_cores_the_towers_meet():
    for name in CODEC_MEMOS:
        getattr(core_quotient, name).cache_clear()
    partitions = [p for n in range(21) for p in enumerate_partitions(n)]
    towers = [decompose(p, 3) for p in partitions]
    cores = sum(core_counts(3, 20).counts)
    assert cores == 25
    assert memo_sizes() == [cores, 0, 0, 0]
    bars = [b for n in range(21) for b in enumerate_bar_partitions(n)]
    bar_towers = [bar_decompose(b, 5) for b in bars]
    bar_cores = sum(barcore_counts(5, 20).counts)
    assert bar_cores == 25
    assert memo_sizes() == [cores, 0, bar_cores, 0]
    assert [reconstruct(tower) for tower in towers] == partitions
    assert [bar_reconstruct(tower) for tower in bar_towers] == bars
    assert memo_sizes() == [cores, cores, bar_cores, bar_cores]


# (1,) is a 2-core and a 3-bar-core and (2,) a 3-core, so True and 2.0, which
# equal and hash like 1 and 2, would find their entries in a memo keyed on
# the values alone
@pytest.mark.parametrize(
    "valid, tower, message",
    (
        ((1,), StraightTower(g=2, core=(True,), quotient=((), ())), "^tower core is not a g-core$"),
        ((2,), StraightTower(g=3, core=(2.0,), quotient=((), (), ())), "^tower core is not a g-core$"),
        ((2,), StraightTower(g=3, core=(3,), quotient=((), (), ())), "^tower core is not a g-core$"),
        ((2,), StraightTower(g=3, core=(2,), quotient=((), (1, 2), ())), "^component 1 is not a partition$"),
        ((1,), BarTower(g=3, core=(True,), quotient=((), ())), "^input is not a bar partition$"),
        ((1,), BarTower(g=3, core=(3,), quotient=((), ())), "^input is not a t-bar-core$"),
        ((1,), BarTower(g=3, core=(1,), quotient=((1, 1), ())), "^component 0 must have distinct parts$"),
    ),
)
def test_a_refusal_is_repeated_through_the_memo(valid, tower, message):
    rebuild = reconstruct if isinstance(tower, StraightTower) else bar_reconstruct
    empty = tower.__class__(g=tower.g, core=valid, quotient=((),) * len(tower.quotient))
    rebuild(empty)
    sizes = memo_sizes()
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            rebuild(tower)
    assert memo_sizes() == sizes


def test_a_tower_with_a_list_core_still_reconstructs():
    assert reconstruct(StraightTower(g=3, core=[2], quotient=((1,), (), ()))) == reconstruct(
        StraightTower(g=3, core=(2,), quotient=((1,), (), ()))
    )
    assert bar_reconstruct(BarTower(g=3, core=[4, 1], quotient=((1,), ()))) == bar_reconstruct(
        BarTower(g=3, core=(4, 1), quotient=((1,), ()))
    )
