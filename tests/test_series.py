from functools import cache
from hashlib import sha256
from math import comb
import re

from hypothesis import given, strategies as st
import pytest

from stcores import lattice, series
from stcores.oracle import (
    barcore_counts,
    core_counts,
    selfconj_core_counts,
    selfconj_st_core_counts,
    st_core_counts,
    stbar_core_counts,
)
from stcores.series import (
    TruncatedSeries,
    barcore_gf,
    congruence_scan,
    convolution_psi,
    convolution_psi_bar,
    convolution_psi_star,
    core_gf,
    eta_quotient,
    partition_gf,
    progression_extract,
    psi_bar_st_gf,
    psi_st_gf,
    psi_star_st_gf,
    selfconj_core_gf,
)


small_series = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=1, max_size=6
).map(lambda cs: TruncatedSeries(cs, 8))


def test_series_basics():
    s = TruncatedSeries([1, 2, 3], 5)
    assert s.coeffs == (1, 2, 3, 0, 0, 0)
    assert s[2] == 3 and s[5] == 0
    assert (s * s).coeffs == (1, 4, 10, 12, 9, 0)
    assert (s ** 3)[3] == 44


@pytest.mark.parametrize("e, products", ((0, 0), (1, 0), (2, 1), (3, 2), (5, 3), (8, 3)))
def test_power_uses_the_fewest_square_and_multiply_products(e, products, monkeypatch):
    base = TruncatedSeries([1, -2, 0, 3], 12)
    expected = TruncatedSeries.one(12)
    for _ in range(e):
        expected = expected * base
    calls = []
    mul = TruncatedSeries.__mul__

    def counting_mul(left, right):
        calls.append(1)
        return mul(left, right)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counting_mul)
    assert base ** e == expected
    assert len(calls) == products


def test_indexing_past_the_truncation_fails():
    s = TruncatedSeries([1], 4)
    with pytest.raises(IndexError, match="truncation"):
        s[5]


def test_products_truncate_to_the_shorter_operand():
    a = TruncatedSeries([1, 1], 9)
    b = TruncatedSeries([1], 3)
    assert (a * b).truncation == 3


def test_equality_requires_matching_truncation():
    assert TruncatedSeries([1, 2], 4) == TruncatedSeries([1, 2, 0], 4)
    assert TruncatedSeries([1, 2], 4) != TruncatedSeries([1, 2], 5)


def test_repr_shows_at_most_eight_coefficients():
    assert repr(TruncatedSeries([1, -2, 3], 7)) == "TruncatedSeries([1, -2, 3, 0, 0, 0, 0, 0], truncation=7)"
    assert repr(TruncatedSeries(range(1, 10), 8)) == "TruncatedSeries([1, 2, 3, 4, 5, 6, 7, 8, ...], truncation=8)"
    assert repr(TruncatedSeries.one(0)) == "TruncatedSeries([1], truncation=0)"


def test_equal_series_hash_equal_and_serve_as_keys():
    a, b = TruncatedSeries([1, 2], 4), TruncatedSeries([1, 2, 0], 4)
    assert hash(a) == hash(b)
    table = {a: "first"}
    table[b] = "second"
    assert table == {TruncatedSeries([1, 2, 0, 0, 0]): "second"}
    assert TruncatedSeries([1, 2], 5) not in table


def test_series_refuse_what_they_cannot_represent():
    with pytest.raises(ValueError, match="^truncation must be nonnegative$"):
        TruncatedSeries([1], -1)
    with pytest.raises(ValueError, match="^series needs either coefficients or a truncation$"):
        TruncatedSeries([])
    assert TruncatedSeries([], 2).coeffs == (0, 0, 0)
    with pytest.raises(ValueError, match="^negative powers are not defined here$"):
        TruncatedSeries([1, 1], 3) ** -1
    with pytest.raises(ValueError, match="^g must be >= 1$"):
        TruncatedSeries([1, 1], 3).substitute_power(0)


def _plus(a, b):
    """Coefficient-wise sum of two series of one truncation."""
    return TruncatedSeries(map(int.__add__, a.coeffs, b.coeffs))


@given(small_series, small_series, small_series)
def test_ring_laws(a, b, c):
    assert _plus(a, b) * c == _plus(a * c, b * c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


def test_substitute_power_spreads_coefficients():
    # the window stays put, so spread terms past it fall away
    s = TruncatedSeries([1, 2, 3], 5)
    assert s.substitute_power(2).coeffs == (1, 0, 2, 0, 3, 0)
    assert s.substitute_power(2).truncation == 5
    assert s.substitute_power(1) == s


def test_eta_quotient_single_factor_both_signs():
    # P(x) = prod (1 - x**n) = 1 - x - x**2 + x**5 + x**7 - ... (Euler)
    assert eta_quotient({1: -1}, 6).coeffs == (1, 1, 2, 3, 5, 7, 11)
    assert eta_quotient({1: 1}, 8).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0)
    # 1/P(x**2)**3 counts 3-coloured partitions at even exponents: 1, 3, 9, 22
    assert eta_quotient({2: -3}, 6).coeffs == (1, 0, 3, 0, 9, 0, 22)
    # P(y)**2 = 1 - 2y - y**2 + 2y**3 + ..., at y = x**3
    assert eta_quotient({3: 2}, 9).coeffs == (1, 0, 0, -2, 0, 0, -1, 0, 0, 2)
    # Gauss: P(x)**2 / P(x**2) = 1 + 2 * sum of (-1)**n x**(n*n)
    assert eta_quotient({1: 2, 2: -1}, 9).coeffs == (1, -2, 0, 0, 2, 0, 0, 0, 0, -2)
    assert eta_quotient({7: 5, 1: 0}, 6) == TruncatedSeries.one(6)
    with pytest.raises(ValueError, match="^d must be >= 1$"):
        eta_quotient({0: 1}, 6)
    with pytest.raises(ValueError, match="^truncation must be nonnegative$"):
        eta_quotient({1: 1}, -1)


def _eta_product(factors, truncation):
    """The product of (1 - x**a)**b over (a, b), one in-place pass per unit of |b|.

    The per-factor evaluation the builders used before they became eta
    quotients, kept here as their reference.
    """
    c = [1] + [0] * truncation
    for a, b in factors:
        if a > truncation:
            continue
        for _ in range(abs(b)):
            if b > 0:
                for i in range(truncation, a - 1, -1):
                    c[i] -= c[i - a]
            else:
                for i in range(a, truncation + 1):
                    c[i] += c[i - a]
    return TruncatedSeries(c)


def _factor_lists(t, n):
    """The builders' former factor lists (a, b) at modulus t and truncation n."""
    ks = range(1, n + 1)
    partition = [(k, -1) for k in ks]
    core = partition + [(t * k, t) for k in range(1, n // t + 1)]
    selfconj = [(2 * t * k, t // 2) for k in range(1, n // (2 * t) + 1)]
    for m in range(1, n + 1, 2):
        selfconj += [(2 * m, 1), (m, -1)]
    if t % 2:
        for m in range(t, n + 1, 2 * t):
            selfconj += [(2 * m, -1), (m, 1)]
    bar = partition + [(2 * k, 1) for k in range(1, n // 2 + 1)]
    bar += [(t * k, (t + 1) // 2) for k in range(1, n // t + 1)]
    bar += [(2 * t * k, -1) for k in range(1, n // (2 * t) + 1)]
    return partition, core, selfconj, bar


@pytest.mark.parametrize("n", (0, 1, 2, 3, 7, 30, 120, 500))
def test_eta_quotients_match_the_per_factor_products(n):
    # t = 1, 2 and 4 merge equal d (2t or 4t meets 1, 2 or 4) and cancel
    for t in range(1, 25):
        partition, core, selfconj, bar = _factor_lists(t, n)
        if t == 1:
            assert partition_gf(n) == _eta_product(partition, n)
        assert core_gf(t, n) == _eta_product(core, n)
        assert selfconj_core_gf(t, n) == _eta_product(selfconj, n)
        if t % 2:
            assert barcore_gf(t, n) == _eta_product(bar, n)


def _product_by_definition(a, b):
    """c(k) = sum over i + j = k of a(i) b(j), to the shorter truncation."""
    n = min(a.truncation, b.truncation)
    return TruncatedSeries([sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)])


def test_products_match_the_definition_on_dense_sparse_and_substituted_operands():
    operands = [
        core_gf(3, 40),  # dense
        partition_gf(33),  # dense, no zeros
        TruncatedSeries([2, 0, 0, -5, 0, 0, 0, 0, 0, 1], 37),  # sparse
        TruncatedSeries([0, 0, 0, 0, 7], 25),  # a single term
        TruncatedSeries.one(29),
        TruncatedSeries([0], 31),
        partition_gf(40).substitute_power(3),  # substituted
        psi_st_gf(2, 3, 44).substitute_power(5) ** 2,
        selfconj_core_gf(4, 36).substitute_power(2),
    ]
    for a in operands:
        for b in operands:
            assert a * b == _product_by_definition(a, b)


def _binomial(a, b, truncation, sign=-1):
    """(1 + sign * x**a)**b by the binomial series, coefficient by coefficient."""
    out = [0] * (truncation + 1)
    for k in range(truncation // a + 1):
        if b >= 0:
            out[a * k] = comb(b, k) * sign**k
        else:
            out[a * k] = comb(k - b - 1, -b - 1) * (-sign) ** k
    return TruncatedSeries(out)


def _schoolbook(factors, truncation):
    """Product of (1 + sign * x**a)**b over (a, b, sign), one dense product each."""
    result = TruncatedSeries.one(truncation)
    for a, b, sign in factors:
        if a <= truncation:
            result = _binomial(a, b, truncation, sign) * result
    return result


def _reference(family, t, n):
    """The builders' product formulas, written out with 1 + x**m kept as is."""
    ks = range(1, n + 1)
    odd = range(1, n + 1, 2)
    if family == "core":
        factors = [(k, -1, -1) for k in ks] + [(t * k, t, -1) for k in ks]
    elif family == "selfconj":
        factors = [(2 * t * k, t // 2, -1) for k in ks] + [(m, 1, 1) for m in odd]
        if t % 2:
            factors += [(t * m, -1, 1) for m in odd]
    else:
        factors = [(k, -1, -1) for k in ks] + [(2 * k, 1, -1) for k in ks]
        factors += [(t * k, (t + 1) // 2, -1) for k in ks]
        factors += [(2 * t * k, -1, -1) for k in ks]
    return _schoolbook(factors, n)


@pytest.mark.parametrize("n", (0, 1, 7, 60, 120))
def test_eta_builders_match_the_schoolbook_products(n):
    assert partition_gf(n) == _schoolbook([(k, -1, -1) for k in range(1, n + 1)], n)
    for t in range(1, 8):
        assert core_gf(t, n) == _reference("core", t, n)
        assert selfconj_core_gf(t, n) == _reference("selfconj", t, n)
        if t % 2:
            assert barcore_gf(t, n) == _reference("bar", t, n)


def test_partition_gf_matches_known_values():
    assert partition_gf(10).coeffs == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_helper_constructors():
    assert TruncatedSeries([1, 0, 2], truncation=4).coeffs == (1, 0, 2, 0, 0)


@pytest.mark.parametrize("t", (1, 2, 3, 4, 5))
def test_core_gf_matches_enumeration(t):
    series = core_gf(t, 16)
    table = core_counts(t, 16)
    assert series.coeffs == table.counts


@pytest.mark.parametrize("t", (2, 3, 6, 7))
def test_selfconj_core_gf_matches_enumeration(t):
    assert selfconj_core_gf(t, 150).coeffs == selfconj_core_counts(t, 150).counts


@pytest.mark.parametrize("t", (3, 5, 7))
def test_barcore_gf_matches_enumeration(t):
    assert barcore_gf(t, 100).coeffs == barcore_counts(t, 100).counts


def test_tuple_counts_are_coefficients_of_series_powers():
    # the quotient-tuple floors of verify's bounds suite, at weights 0 and 1
    tuples = core_gf(2, 1) ** 4
    assert (tuples[0], tuples[1]) == (1, 4)  # one component holds the box
    pairs = psi_st_gf(2, 3, 1) ** 2
    assert (pairs[0], pairs[1]) == (1, 2)
    bar_quotients = barcore_gf(3, 1) * core_gf(3, 1) ** 3
    assert (bar_quotients[0], bar_quotients[1]) == (1, 4)


def test_psi_at_the_smallest_coprime_pair():
    assert psi_st_gf(2, 3, 5).coeffs == (1, 1, 0, 0, 0, 0)


def test_psi_over_a_reduced_pair_past_enumeration():
    # The reduced pair (13,17) needs the path DP; below 26 no hook length
    # can be divisible by 26 or 34, so every partition is a (26,34)-core.
    assert psi_st_gf(26, 34, 25) == partition_gf(25)


@pytest.mark.parametrize("s, t", ((2, 301), (2, 1601), (3, 1601), (5, 151)))
def test_psi_at_a_lopsided_pair_passes_the_census_work_cap(s, t):
    # A core of size at most 60 < t has no hook length t, so the (s,t)-cores
    # up to 60 are the s-cores; the few sets a small s admits keep it cheap.
    assert psi_st_gf(s, t, 60) == core_gf(s, 60)


HUGE = 10**30 + 1


@pytest.mark.parametrize(
    "build, s, t, truncation, census",
    (
        (psi_st_gf, 31, 37, 200, "straight census of (31, 37) to size 200"),
        (psi_st_gf, 1600, 1601, 60, "straight census of (1600, 1601) to size 60"),
        (psi_star_st_gf, 62, 74, 400, "straight census of (31, 37) to size 100"),
        (psi_bar_st_gf, 93, 111, 600, "straight census of (31, 37) to size 200"),
        (convolution_psi_bar, 93, 111, 600, "straight census of (31, 37) to size 200"),
        # past the column term: no reduced pair is too large to refuse
        (psi_st_gf, 3, HUGE, 60, f"straight census of (3, {HUGE}) to size 60"),
        (psi_star_st_gf, 3, HUGE, 60, f"selfconj census of (3, {HUGE}) to size 60"),
        (psi_bar_st_gf, 3, HUGE, 60, f"bar census of (3, {HUGE}) to size 60"),
        (psi_star_st_gf, 3999, 4001, 4000, "selfconj census of (3999, 4001) to size 4000"),
        (psi_bar_st_gf, 3999, 4001, 4000, "bar census of (3999, 4001) to size 4000"),
        # g = 3: the straight census of (2, 9999) to size 1500 is within the
        # cap, and is not run, since the self-conjugate one is refused
        (psi_star_st_gf, 6, 3 * 9999, 9000, "selfconj census of (2, 9999) to size 3000"),
        (convolution_psi_star, 6, 3 * 9999, 9000, "selfconj census of (2, 9999) to size 3000"),
    ),
)
def test_a_census_past_the_work_cap_is_refused_before_any_dp_or_grid(monkeypatch, build, s, t, truncation, census):
    def never(*args):
        raise AssertionError("census started")

    monkeypatch.setattr(series, "census_by_size", never)
    for family, row in lattice.FAMILIES.items():
        monkeypatch.setitem(lattice.FAMILIES, family, (never, *row[1:]))
    with pytest.raises(ValueError, match=rf"^the {re.escape(census)} exceeds the work cap 300000000$"):
        build(s, t, truncation)


@pytest.mark.parametrize(
    "build, s, t, truncation, census",
    (
        # the largest accepted before: at the pair cap of 1601 and -N 4000,
        # and psi at the largest -N its work cap took at (1600,1601)
        (psi_star_st_gf, 1599, 1601, 4000, ("selfconj", 1599, 1601, 4000)),
        (psi_bar_st_gf, 1599, 1601, 4000, ("bar", 1599, 1601, 4000)),
        (psi_st_gf, 1600, 1601, 29, ("straight", 1600, 1601, 29)),
        # past the old pair cap
        (psi_st_gf, 4000, 4001, 10, ("straight", 4000, 4001, 10)),
    ),
)
def test_the_censuses_accepted_at_the_old_caps_stay_accepted(monkeypatch, build, s, t, truncation, census):
    seen = []
    monkeypatch.setattr(series, "_census", lambda *key: seen.append(key) or (1,))
    assert build(s, t, truncation) == TruncatedSeries.one(truncation)
    assert seen == [census]


@pytest.mark.parametrize(
    "build, s, t, counts, censuses",
    (
        # g = 2: the self-conjugate row has power 0, so only the straight
        # census of (2, 3) at x**4 runs
        (psi_star_st_gf, 4, 6, selfconj_st_core_counts, [("straight", 2, 3, 5)]),
        (convolution_psi_star, 4, 6, selfconj_st_core_counts, [("straight", 2, 3, 5)]),
        # g = 1: F_1 = 1 and the straight row of psistar and psibar has power 0
        (psi_st_gf, 5, 7, st_core_counts, [("straight", 5, 7, 20)]),
        (psi_star_st_gf, 5, 7, selfconj_st_core_counts, [("selfconj", 5, 7, 20)]),
        (psi_bar_st_gf, 5, 7, stbar_core_counts, [("bar", 5, 7, 20)]),
    ),
)
def test_a_census_row_of_power_zero_neither_runs_nor_is_judged(monkeypatch, build, s, t, counts, censuses):
    ran, judged = [], []
    monkeypatch.setattr(series, "_census", cache(series._census.__wrapped__))
    monkeypatch.setattr(series, "census_by_size", lambda *key: ran.append(key) or lattice.census_by_size(*key))
    monkeypatch.setattr(series, "check_census", lambda *key: judged.append(key) or lattice.check_census(*key))
    assert build(s, t, 20).coeffs == counts(s, t, 20).counts
    assert ran == judged == censuses


def test_psi_with_common_divisor_matches_enumeration():
    assert psi_st_gf(4, 6, 14).coeffs == st_core_counts(4, 6, 14).counts
    assert convolution_psi(4, 6, 14) == psi_st_gf(4, 6, 14)


@pytest.mark.parametrize("s, t", ((4, 5), (5, 7), (7, 11)))
def test_psi_star_at_a_coprime_pair_is_the_finite_census(s, t):
    largest = (s * s - 1) * (t * t - 1) // 24
    assert psi_star_st_gf(s, t, largest).coeffs == selfconj_st_core_counts(s, t, largest).counts


@pytest.mark.parametrize("s, t", ((3, 5), (5, 7), (7, 9)))
def test_psi_bar_at_a_coprime_pair_is_the_finite_census(s, t):
    largest = (s * s - 1) * (t * t - 1) // 24
    assert psi_bar_st_gf(s, t, largest).coeffs == stbar_core_counts(s, t, largest).counts


@pytest.mark.parametrize("s, t", ((0, 6), (6, 0)))
def test_convolutions_refuse_a_modulus_below_two(s, t):
    for convolution in (convolution_psi, convolution_psi_star):
        with pytest.raises(ValueError, match="^s and t must exceed 1$"):
            convolution(s, t, 8)
    with pytest.raises(ValueError, match="^s and t must be odd and exceed 1$"):
        convolution_psi_bar(s, t, 8)


def test_psi_star_and_bar_small_smoke():
    assert psi_star_st_gf(6, 9, 12)[0] == 1
    assert psi_bar_st_gf(9, 15, 12)[0] == 1
    assert all(c >= 0 for c in psi_bar_st_gf(9, 15, 20).coeffs)


def test_progression_extract_matches_the_substituted_product():
    a = core_gf(2, 12)
    b = core_gf(3, 12)
    lhs, rhs = progression_extract(a, b, 3, 1)
    c = a.substitute_power(3) * b
    assert lhs == rhs
    assert lhs == [c[3 * k + 1] for k in range(len(lhs))]
    with pytest.raises(ValueError, match="r"):
        progression_extract(a, b, 3, 0)
    with pytest.raises(ValueError, match="^g must be >= 2$"):
        progression_extract(a, b, 1, 1)


def test_congruence_scan_refuses_a_small_divisor_then_a_small_modulus():
    with pytest.raises(ValueError, match="^g must be >= 2$"):
        congruence_scan(core_gf(5, 10), 1, 1)
    with pytest.raises(ValueError, match="^modulus must be >= 2$"):
        congruence_scan(core_gf(5, 10), 2, 1)


def test_congruence_scan_reports_no_residue_beyond_the_truncation():
    # p(1) = 1, so no progression 5k + r is divisible by 5 on what is checked.
    assert congruence_scan(partition_gf(3), 5, 5) == ()
    assert congruence_scan(partition_gf(4), 5, 5) == (4,)


def test_congruence_scan_finds_known_residues():
    assert congruence_scan(barcore_gf(5, 60), 5, 2) == (3, 4)
    assert 4 in congruence_scan(core_gf(5, 60), 5, 5)
    assert 5 in congruence_scan(core_gf(7, 60), 7, 7)
    assert 6 in congruence_scan(core_gf(11, 60), 11, 11)


# sha256 of repr() of the coefficient tuples of convolution_psi,
# convolution_psi_star and (odd pairs only) convolution_psi_bar at N = 90,
# computed with the former hand-written sums.
CONVOLUTION_DIGESTS = {
    (4, 6): "292c4d0da02b03c0ae6fd2ca4d10e44700adb401ec813d2e21ae2168578f2505",
    (6, 9): "fd77af152cb4b261922adb7275abc8acf0b4da266faa1c44453f2abe04e1b7e3",
    (6, 10): "a3bbaf776c4a18dbd8363715d8f7f328bcb625bd4a026e05188acada1cc25ae9",
    (10, 15): "d799f3079ede213aedb521409d1f4609bafef9386cace78e4aba15fca6e29ee9",
    (9, 15): "fb90ccef0ae1fc0127b96a1e65377013cef4906ee2f96f54d85bb40b7f8548e5",
    (15, 21): "285e70803aee73dd16c82ae8c279194ed0cf80c6f6b394e734d8a37c0dee9f3f",
    (15, 25): "6fec6a8e010ff897dd7bbdc49681b1cf4f0daff0e740a5fb05995f3af421f350",
    (21, 33): "a48f2a3c08bc741f823d078bd0759ad28ff506de2deab89b98ab01edbc1c93a5",
    (14, 21): "880d1c3569bfe84596540128c897c976a43b0a1efcdced0a0b7eae8fb3e91a3b",
    (12, 18): "f1fd4bf03ed34e5c2087f1f1565d7de9d7346581361b7923184a4cb21873e31f",
}


@pytest.mark.parametrize("s, t", CONVOLUTION_DIGESTS)
def test_convolution_forms_match_their_pinned_digests(s, t):
    pairs = [(convolution_psi, psi_st_gf), (convolution_psi_star, psi_star_st_gf)]
    if s % 2 and t % 2:
        pairs.append((convolution_psi_bar, psi_bar_st_gf))
    forms = [convolve(s, t, 90) for convolve, _ in pairs]
    assert forms == [product(s, t, 90) for _, product in pairs]
    digest = sha256(repr([form.coeffs for form in forms]).encode()).hexdigest()
    assert digest == CONVOLUTION_DIGESTS[s, t]
