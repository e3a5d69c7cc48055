from itertools import product

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
    is_stbar_core,
    is_stbar_core_by_quotient,
    st_core_tower_check,
)
from stcores.encodings import (
    abacus,
    bar_abacus,
    conjugate_tuple,
    diagonal_hooks_from_tuple,
    from_abacus,
    from_bar_abacus,
    gks_decode,
    gks_encode,
    is_selfconjugate_tuple,
    olsson_decode,
    olsson_encode,
    zeta,
    zeta_inverse,
)
from stcores.lattice import big_gamma_inverse, core_to_path, gamma_inverse
from stcores.oracle import enumerate_partitions, enumerate_self_conjugate
from stcores.partitions import (
    conjugate,
    diagonal_hooks,
    from_first_column_hooks,
    is_partition,
    is_self_conjugate,
    is_t_core,
)


def zero_sum_tuples(t: int):
    return st.tuples(*[st.integers(min_value=-2, max_value=2)] * (t - 1)).map(
        lambda head: head + (-sum(head),)
    )


def test_worked_gks_pair():
    assert gks_encode((4, 2, 1, 1), 3) == (2, 0, -2)
    assert gks_decode((2, 0, -2)) == (4, 2, 1, 1)


def test_gks_encode_requires_a_core():
    with pytest.raises(ValueError, match="not a t-core"):
        gks_encode((2, 1, 1), 2)


@pytest.mark.parametrize("t", (2, 3, 5, 7))
def test_gks_round_trip_over_small_cores(t):
    for n in range(16):
        for p in enumerate_partitions(n):
            if not is_t_core(p, t):
                continue
            entries = gks_encode(p, t)
            assert len(entries) == t
            assert sum(entries) == 0
            assert gks_decode(entries) == p


def counting_gks_encode(p, t):
    """Reference encoder: count the padded beta values on each runner of a t-core."""
    k = len(p)
    level = (k + t - 1) // t
    phantoms = t * level - k
    counts = [1] * phantoms + [0] * (t - phantoms)
    offset = t * level
    for part in p:
        offset -= 1
        counts[(part + offset) % t] += 1
    return tuple([c - level for c in counts])


@pytest.mark.parametrize("t", range(1, 10))
def test_gks_encode_matches_the_counting_loop(t):
    for n in range(21):
        for p in enumerate_partitions(n):
            if is_t_core(p, t):
                assert gks_encode(p, t) == counting_gks_encode(p, t), p
            elif n <= 12:
                with pytest.raises(ValueError, match="^input is not a t-core$"):
                    gks_encode(p, t)


def beta_set_gks_decode(entries):
    """Reference decoder: place every bead of every runner, read them as a beta-set."""
    t = len(entries)
    level = max(0, -min(entries))
    beta = [i + t * j for i, a in enumerate(entries) for j in range(level + a)]
    return from_first_column_hooks(beta)


@pytest.mark.parametrize("t", (1, 2, 3, 4, 5))
def test_gks_decode_agrees_with_the_beta_set_decoder(t):
    tuples = [e for e in product(range(-3, 4), repeat=t) if sum(e) == 0]
    assert len(tuples) == {1: 1, 2: 7, 3: 37, 4: 231, 5: 1451}[t]
    for entries in tuples:
        assert gks_decode(entries) == beta_set_gks_decode(entries)


def _level_walk_gks_decode(entries):
    # The decoder that gks_decode replaced by from_abacus on an empty
    # quotient: walk the levels from the emptiest runner's up, and read each
    # bead as the number of empty positions below it.
    t = len(entries)
    if t < 1:
        raise ValueError("tuple must be nonempty")
    if sum(entries) != 0:
        raise ValueError("entries must sum to zero")
    core = []
    gaps = 0
    for level in range(min(entries), max(entries)):
        for a in entries:
            if level < a:
                if gaps:
                    core.append(gaps)
            else:
                gaps += 1
    return tuple(core[::-1])


def test_gks_decode_matches_the_level_walk():
    # every tuple of t <= 6 entries in -3..3, refusals included
    cases = 0
    for t in range(7):
        for entries in product(range(-3, 4), repeat=t):
            try:
                want = _level_walk_gks_decode(entries)
            except ValueError as refusal:
                with pytest.raises(ValueError, match=f"^{refusal}$"):
                    gks_decode(entries)
            else:
                assert gks_decode(entries) == want
            cases += 1
    assert cases == sum(7**t for t in range(7))


@pytest.mark.parametrize("t", (2, 3, 4, 5))
@given(data=st.data())
def test_gks_decode_then_encode_is_the_identity(t, data):
    entries = data.draw(zero_sum_tuples(t))
    p = gks_decode(entries)
    assert is_t_core(p, t)
    assert gks_encode(p, t) == entries


@pytest.mark.parametrize("t", (3, 5))
@given(data=st.data())
def test_conjugation_reverses_and_negates_the_tuple(t, data):
    entries = data.draw(zero_sum_tuples(t))
    p = gks_decode(entries)
    assert gks_encode(conjugate(p), t) == conjugate_tuple(entries)
    assert is_selfconjugate_tuple(entries) == is_self_conjugate(p)


def test_worked_olsson_pair():
    assert olsson_decode((2,)) == (4, 1)
    assert olsson_encode((4, 1), 3) == (2,)


@pytest.mark.parametrize("t", (3, 5, 7))
@given(data=st.data())
def test_olsson_round_trip(t, data):
    entries = data.draw(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * ((t - 1) // 2))
    )
    b = olsson_decode(entries)
    assert is_tbar_core(b, t)
    assert olsson_encode(b, t) == entries


def _run_length_encode(b, t):
    # The signed run-length reader that the strip pass replaced: the parts
    # congruent to i or to t-i mod t must form one initial run, never both.
    by_residue = {}
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


def _run_length_decode(entries):
    t = 2 * len(entries) + 1
    parts = []
    for i, bp in enumerate(entries, start=1):
        first = i if bp > 0 else t - i
        parts.extend(first + ell * t for ell in range(abs(bp)))
    return tuple(sorted(parts, reverse=True))


def test_the_strip_codec_matches_the_run_length_codec():
    # Every bar partition of size <= 30 at every odd t <= 13: both readers
    # accept exactly the t-bar-cores and read the same tuple, and both
    # builders give the partition back.
    cases = 0
    for n in range(31):
        for b in enumerate_bar_partitions(n):
            for t in range(1, 14, 2):
                try:
                    want = _run_length_encode(b, t)
                except ValueError:
                    want = None
                try:
                    got = olsson_encode(b, t)
                except ValueError as refusal:
                    assert str(refusal) == "input is not a t-bar-core"
                    got = None
                assert got == want
                assert (got is not None) == is_tbar_core(b, t)
                if got is not None:
                    assert olsson_decode(got) == _run_length_decode(got) == b
                cases += 1
    assert cases == 14245
    for t in (1, 3, 5, 7, 9):
        for entries in product(range(-3, 4), repeat=(t - 1) // 2):
            assert olsson_decode(entries) == _run_length_decode(entries)


def _beta_set_bar_abacus(b, g):
    # The strip reader that bar_abacus replaced: shift each strip up by one
    # more than its deepest hole, fill the negative positions that hold no
    # hole with beads, and decode the beta-set.
    classes = {}
    for x in b:
        q, r = divmod(x, g)
        classes.setdefault(r, []).append(q)
    charges = [0] * (g // 2)
    quotient = [tuple(classes.get(0, ()))] + [()] * (g // 2)
    for j in {min(r, g - r) for r in classes if r}:
        beads, holes = classes.get(j, []), classes.get(g - j, [])
        shift = holes[0] + 1 if holes else 0
        beta = [q + shift for q in beads]
        beta += [shift - 1 - m for m in set(range(shift)).difference(holes)]
        quotient[j] = from_first_column_hooks(beta)
        charges[j - 1] = len(beads) - len(holes)
    return tuple(charges), tuple(quotient)


def test_bar_abacus_reads_each_strip_as_the_beta_set_decoder_does():
    # every bar partition of size <= 30 at every odd g in 3..11
    cases = 0
    for n in range(31):
        for b in enumerate_bar_partitions(n):
            for g in range(3, 12, 2):
                assert bar_abacus(b, g) == _beta_set_bar_abacus(b, g)
                cases += 1
    assert cases == 5 * 2035
    assert from_bar_abacus(*bar_abacus((23, 13, 12, 7, 3), 5)) == (23, 13, 12, 7, 3)


@pytest.mark.parametrize(
    "b, read",
    (
        # 7 = 2 + 5: beads at 0 and 1 of strip 2 at g = 5, and no hole
        ((7, 2), ((0, 2), ((), (), ()))),
        ((7,), ((0, 1), ((), (), (1,)))),
        # 8 = 3 + 5 and 3: holes at -2 and -1, and no bead at q >= 0
        ((8, 3), ((0, -2), ((), (), ()))),
        ((8,), ((0, -1), ((), (), (1,)))),
        # 13 = 3 + 2*5 and 3: holes at -3 and -1; 7 = 2 + 5: a bead at 1
        ((13, 7, 3), ((0, -1), ((), (), (3, 1)))),
        # 8 = 3 + 5 and 2: a hole at -2 and a bead at 0
        ((8, 2), ((0, 0), ((), (), (1, 1)))),
    ),
)
def test_bar_abacus_reads_a_strip_of_beads_of_holes_and_of_both(b, read):
    assert bar_abacus(b, 5) == read
    assert from_bar_abacus(*read) == b


# Every reader of a bar partition, one refusal table. (1, 1), (4, 4, 1) and
# (9, 9) repeat a part; (1, 4) increases; (True,), (2.0,), ("a",) and (None,)
# hold no int part, and (3, -1) and (2, 0) end below 1. (9, 9) is no
# (9-bar, 15-bar)-core either, and the bar partition check comes first.
BAR_READERS = {
    "is_tbar_core": lambda b: is_tbar_core(b, 3),
    "is_stbar_core": lambda b: is_stbar_core(b, 3, 5),
    "is_stbar_core_by_quotient": lambda b: is_stbar_core_by_quotient(b, 9, 15),
    "bar_abacus": lambda b: bar_abacus(b, 3),
    "olsson_encode": lambda b: olsson_encode(b, 3),
    "bar_decompose": lambda b: bar_decompose(b, 3),
    "zeta_inverse": lambda b: zeta_inverse(b, 3),
    "bar_length_multiset": bar_length_multiset,
    "bar_reconstruct": lambda b: bar_reconstruct(BarTower(g=3, core=b, quotient=((), ()))),
    "core_to_path": lambda b: core_to_path("bar", b, 3, 5),
    "gamma_inverse": lambda b: gamma_inverse(b, 3, 5),
    "big_gamma_inverse": lambda b: big_gamma_inverse(b, 9, 15),
}


@pytest.mark.parametrize("reader", BAR_READERS)
@pytest.mark.parametrize(
    "b", ((1, 1), (4, 4, 1), (1, 4), (9, 9), (True,), (3, -1), (2, 0), (2.0,), ("a",), (None,))
)
def test_bar_core_readers_refuse_input_that_is_not_a_bar_partition(reader, b):
    with pytest.raises(ValueError, match="^input is not a bar partition$"):
        BAR_READERS[reader](b)


# The straight bead pass reads each part as it goes and refuses the first
# one out of place.
SHAPE_READERS = {
    "abacus": lambda p: abacus(p, 3),
    "decompose": lambda p: decompose(p, 2),
    "gks_encode": lambda p: gks_encode(p, 3),
}


@pytest.mark.parametrize("parts", ((1, 2), (2, 0), (3, -1), (True,)))
@pytest.mark.parametrize("reader", SHAPE_READERS)
def test_the_bead_pass_refuses_a_part_out_of_place(reader, parts):
    with pytest.raises(ValueError, match="^input is not a partition$"):
        SHAPE_READERS[reader](parts)


class Part(int):
    """An int subclass, which every straight reader takes for the int it is."""


# Every straight reader refuses what is_partition refuses: a part out of
# order, a part below 1, and a part that is not an int (a bool, a float).
STRAIGHT_READERS = {
    "abacus": (lambda p: abacus(p, 3), "input"),
    "from_abacus": (lambda p: from_abacus((1, 0, -1), ((), p, ())), "component 1"),
    "is_t_core": (lambda p: is_t_core(p, 3), "input"),
    "is_st_core": (lambda p: is_st_core(p, 3, 5), "input"),
    "st_core_tower_check": (
        lambda p: st_core_tower_check(StraightTower(g=3, core=(), quotient=((), p, ())), 6, 9),
        "input",
    ),
}


@pytest.mark.parametrize("parts", ((1, 2), (2, 0), (3, -1), (True,), (2.0,)))
@pytest.mark.parametrize("reader", STRAIGHT_READERS)
def test_the_straight_readers_refuse_what_is_partition_refuses(reader, parts):
    read, subject = STRAIGHT_READERS[reader]
    assert is_partition(parts) is False
    with pytest.raises(ValueError, match=f"^{subject} is not a partition$"):
        read(parts)


@pytest.mark.parametrize("reader", STRAIGHT_READERS)
def test_the_straight_readers_take_an_int_subclass_for_its_int(reader):
    read, _ = STRAIGHT_READERS[reader]
    assert is_partition((Part(4), 2, Part(2))) is True
    assert read((Part(4), 2, Part(2))) == read((4, 2, 2))


def test_the_core_and_the_pair_are_checked_before_the_shape():
    # bar_reconstruct reads the core's charges before it builds component 0,
    # and the bar path inverse leaves the bar shape to its (s,t) predicate
    tower = BarTower(g=3, core=(3,), quotient=((1, 1), ()))
    with pytest.raises(ValueError, match="^input is not a t-bar-core$"):
        bar_reconstruct(tower)
    with pytest.raises(ValueError, match="^s and t must be odd and exceed 1$"):
        core_to_path("bar", (1, 1), 4, 5)


def test_from_abacus_inverts_the_bead_pass():
    cases = 0
    for n in range(26):
        for p in enumerate_partitions(n):
            for g in range(2, 6):
                assert from_abacus(*abacus(p, g)) == p
                cases += 1
    assert cases == 37184


def test_worked_zeta_pair():
    assert zeta((4, 2, 1, 1), 3) == (4, 1)
    assert zeta_inverse((4, 1), 3) == (4, 2, 1, 1)


def test_zeta_round_trips_at_t_1():
    assert zeta((), 1) == ()
    assert zeta_inverse((), 1) == ()
    assert olsson_encode((), 1) == ()


@pytest.mark.parametrize("t", (-3, 0, 2))
def test_zeta_and_its_inverse_refuse_the_same_moduli(t):
    for convert in (zeta, zeta_inverse, olsson_encode):
        with pytest.raises(ValueError, match="^t must be odd and >= 1$"):
            convert((), t)


def test_zeta_rejects_bad_inputs():
    with pytest.raises(ValueError, match="odd"):
        zeta((1,), 2)
    with pytest.raises(ValueError, match="self-conjugate"):
        zeta((2,), 3)


def test_runner_tuple_readers_refuse_a_tuple_they_cannot_read():
    with pytest.raises(ValueError, match="^tuple must be nonempty$"):
        gks_decode(())
    with pytest.raises(ValueError, match="^entries must sum to zero$"):
        gks_decode((1, 0, 0))
    with pytest.raises(ValueError, match="^tuple length must be odd$"):
        is_selfconjugate_tuple((1, -1))
    # (1, 0, -1) decodes to (1,), which is self-conjugate; (1, -1, 0) to (2,)
    assert diagonal_hooks_from_tuple((1, 0, -1)) == (1,)
    with pytest.raises(ValueError, match="^tuple does not encode a self-conjugate core$"):
        diagonal_hooks_from_tuple((1, -1, 0))


@pytest.mark.parametrize("t", (3, 5, 7))
def test_zeta_bijects_self_conjugate_cores_onto_bar_cores(t):
    images = set()
    for n in range(18):
        for p in enumerate_self_conjugate(n):
            if not is_t_core(p, t):
                continue
            b = zeta(p, t)
            assert is_tbar_core(b, t)
            assert zeta_inverse(b, t) == p
            images.add(b)
    assert len(images) == sum(
        1
        for n in range(18)
        for p in enumerate_self_conjugate(n)
        if is_t_core(p, t)
    )


@pytest.mark.parametrize("t", (3, 5, 7))
@given(data=st.data())
def test_diagonal_hooks_read_off_the_tuple(t, data):
    half = data.draw(
        st.tuples(*[st.integers(min_value=-2, max_value=2)] * ((t - 1) // 2))
    )
    entries = half + (0,) + tuple(-a for a in reversed(half))
    p = gks_decode(entries)
    assert diagonal_hooks_from_tuple(entries) == diagonal_hooks(p)
