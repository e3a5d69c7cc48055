import itertools

from hypothesis import given, strategies as st
import pytest

from stcores.bar_partitions import bar_length_multiset, enumerate_bar_partitions, is_tbar_core
from stcores.core_quotient import (
    BarTower,
    StraightTower,
    bar_decompose,
    bar_reconstruct,
    decompose,
    is_st_core,
    is_st_core_by_quotient,
    is_stbar_core,
    is_stbar_core_by_quotient,
    reconstruct,
    selfconjugate_tower_check,
    st_core_tower_check,
)
from stcores.oracle import enumerate_partitions
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
    with pytest.raises(ValueError, match="g must be"):
        decompose((2, 1), 1)


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


# single parts far down one runner once forced the bead window too shallow
@pytest.mark.parametrize("b", ((17, 1), (20,), (20, 1), (17, 4), (23,), (26, 2)))
def test_bar_decompose_handles_deep_runners(b):
    tower = bar_decompose(b, 3)
    assert sum(b) == sum(tower.core) + 3 * tower.weight
    assert bar_reconstruct(tower) == b


@pytest.mark.parametrize(
    "core, match",
    (((3,), "divisible by t"), ((4,), "gaps"), ((2, 1), "both populated")),
)
def test_bar_reconstruct_refuses_a_core_that_is_not_a_bar_core(core, match):
    tower = BarTower(g=3, core=core, quotient=((), ()))
    with pytest.raises(ValueError, match=match):
        bar_reconstruct(tower)


def test_bar_decompose_rejects_even_or_small_modulus():
    with pytest.raises(ValueError, match="odd"):
        bar_decompose((2, 1), 4)
    with pytest.raises(ValueError, match="odd"):
        bar_decompose((2, 1), 1)


@given(bar_parts, st.sampled_from((3, 5)), st.integers(min_value=1, max_value=4))
def test_bars_divisible_by_kg_match_quotient_count(b, g, k):
    got, want = bar_bijection_check(b, g, k)
    assert got == want


@pytest.mark.parametrize("s, t", ((4, 6), (6, 9), (6, 10)))
def test_joint_core_test_agrees_with_quotient_criterion(s, t):
    for n in range(15):
        for p in enumerate_partitions(n):
            assert is_st_core(p, s, t) == is_st_core_by_quotient(p, s, t)


def test_tower_check_needs_the_tower_modulus():
    tower = decompose((3, 1), 3)
    assert st_core_tower_check(tower, 6, 9) == is_st_core_by_quotient((3, 1), 6, 9)
    with pytest.raises(ValueError, match="tower's g"):
        st_core_tower_check(tower, 4, 6)
    with pytest.raises(ValueError, match="exceed 1"):
        is_st_core_by_quotient((3, 1), 4, 7)


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
