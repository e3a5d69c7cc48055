from types import SimpleNamespace

import pytest

from stcores import bar_partitions, core_quotient, encodings, lattice, oracle, partitions, series, verify
from stcores.core_quotient import is_st_core
from stcores.oracle import CountTable, enumerate_partitions
from stcores.series import TruncatedSeries
from stcores.verify import (
    suite_bijections,
    suite_bounds,
    suite_congruence,
    suite_counting,
    suite_genfun,
    suite_structure,
)

LABEL = "(5,7)-core census equals the enumerated set"


def _non_core_like(p):
    """A partition of the same size as p that is not a (5,7)-core."""
    return next(q for q in enumerate_partitions(sum(p)) if not is_st_core(q, 5, 7))


def _first_of_size(census, n):
    """Position of the first partition of size n in the census."""
    return next(i for i, p in enumerate(census) if sum(p) == n)


# each mutation touches census[i], the first (5,7)-core of size 36, wherever
# the enumeration order puts it
MUTATIONS = {
    "drop a core": lambda census, i: census[:i] + census[i + 1 :],
    "swap a core for a non-core": lambda census, i: census[:i] + [_non_core_like(census[i])] + census[i + 1 :],
    "add a non-core": lambda census, i: census + [_non_core_like(census[i])],
    "repeat a core": lambda census, i: census + census[i : i + 1],
}


def test_the_unchanged_census_passes():
    checks = {label: ok for label, ok, _ in suite_counting(10)}
    assert checks[LABEL]


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_the_counting_suite_catches_a_bad_path_census(mutation, monkeypatch):
    real = lattice.enumerate_cores_by_paths

    def census(family, s, t):
        cores = list(real(family, s, t))
        if (family, s, t) != ("straight", 5, 7):
            return cores
        return MUTATIONS[mutation](cores, _first_of_size(cores, 36))

    monkeypatch.setattr(lattice, "enumerate_cores_by_paths", census)
    checks = {label: (ok, detail) for label, ok, detail in suite_counting(10)}
    ok, detail = checks[LABEL]
    assert not ok, detail


def _check(checks, label):
    """The (passed, detail) of the one check with this label."""
    (found,) = [(ok, detail) for name, ok, detail in checks if name == label]
    return found


def _patch_count(monkeypatch, moduli, g, variant, n, value):
    """Make the oracle report ``value`` (t-cores not g-cores) at size n."""
    real = oracle.not_g_core_counts

    def table(m, h, limit, var="straight"):
        got = real(m, h, limit, var)
        if (m, h, var) != (moduli, g, variant):
            return got
        return CountTable(got.label, got.counts[:n] + (value,) + got.counts[n + 1 :])

    monkeypatch.setattr(oracle, "not_g_core_counts", table)


SIXTEEN = "16-cores that are not 4-cores meet the lower bounds"
SC22 = "self-conjugate 22-cores that are not 11-cores meet the lower bounds"
SC44 = "self-conjugate 44-cores that are not 11-cores meet the lower bounds"

# (t, g, variant, size, count, label, failure); the 16-core floor at 8 is
# 4 * 4 + (4 * 2 + 6) = 30 tuples of 4-cores, 18 of them of positive weight
BOUND_FAILURES = {
    "a count below its floor": (16, 4, "straight", 8, 17, SIXTEEN, "1/37 cases failed: n=8: 17 < tuple sum 18"),
    "a nonzero count where no weight is live": (
        22, 11, "selfconj", 13, 1, SC22, "1/41 cases failed: n=13: 1 nonzero yet no weight is live"
    ),
    "a nonzero count below the first weight": (
        44, 11, "selfconj", 5, 1, SC44, "1/41 cases failed: n=5: 1 nonzero yet no weight is live"
    ),
}


@pytest.mark.parametrize("failure", BOUND_FAILURES)
def test_the_bounds_suite_catches_a_count_that_breaks_its_theorem(failure, monkeypatch):
    t, g, variant, n, value, label, detail = BOUND_FAILURES[failure]
    _patch_count(monkeypatch, (t,), g, variant, n, value)
    assert _check(suite_bounds(40), label) == (False, detail)


def test_the_bounds_suite_catches_a_count_below_its_bound(monkeypatch):
    # with every t-core tuple series cut to 1 the floors vanish, but for the
    # self-conjugate 2-core of size 1 that the 11-rows keep
    monkeypatch.setattr(series, "core_gf", lambda t, truncation: TruncatedSeries.one(truncation))
    _patch_count(monkeypatch, (16,), 4, "straight", 8, 7)
    assert _check(suite_bounds(40), SIXTEEN) == (False, "1/37 cases failed: n=8: 7 < bound 8")
    _patch_count(monkeypatch, (22,), 11, "selfconj", 22, 5)
    assert _check(suite_bounds(40), SC22) == (False, "1/41 cases failed: n=22: 5 < bound 6")


def test_the_eleven_rows_ask_for_one_at_24(monkeypatch):
    # weight 2 would leave a self-conjugate 11-core of size 2, so only one
    # weight is live at 24
    _patch_count(monkeypatch, (22,), 11, "selfconj", 24, 1)
    assert _check(suite_bounds(40), SC22) == (True, "all 41 cases")


def _patch_table(monkeypatch, name, t, n, value):
    """Make ``oracle.name(t, limit)`` report ``value`` at size n."""
    real = getattr(oracle, name)

    def table(u, limit):
        got = real(u, limit)
        if u != t:
            return got
        return CountTable(got.label, got.counts[:n] + (value,) + got.counts[n + 1 :])

    monkeypatch.setattr(oracle, name, table)


def test_the_genfun_suite_names_the_first_mismatch(monkeypatch):
    # one 3-core of size 5, (3, 1, 1)
    _patch_table(monkeypatch, "core_counts", 3, 5, 2)
    detail = "first mismatch at n=5: series 1, enumeration 2"
    assert _check(suite_genfun(40), "3-core series vs enumeration") == (False, detail)


def test_the_congruence_suite_catches_a_count_off_its_progression(monkeypatch):
    _patch_count(monkeypatch, (10,), 5, "straight", 4, 1)
    label = "10-cores that are not 5-cores, counts on 5k+4 divisible by 5"
    assert _check(suite_congruence(40), label) == (False, "1/8 cases failed: n=4: 1")


def test_the_bounds_suite_refuses_a_self_conjugate_core_of_size_2(monkeypatch):
    _patch_table(monkeypatch, "selfconj_core_counts", 8, 2, 1)
    detail = "1/72 cases failed: n=2 admits no self-conjugate partition at all, yet a count is nonzero"
    assert _check(suite_bounds(40), "every size but 2 admits a self-conjugate 8-core") == (False, detail)


def _patch_map(monkeypatch, module, name, source, image):
    """Make ``module.name`` send ``source`` to ``image``, every other input as before."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda x, *args, **kw: image if x == source else real(x, *args, **kw))


def _patch_census(monkeypatch, family, s, t, edit):
    """Pass the (family, s, t) path census through ``edit``."""
    real = lattice.enumerate_cores_by_paths

    def census(fam, a, b):
        cores = list(real(fam, a, b))
        return edit(cores) if (fam, a, b) == (family, s, t) else cores

    monkeypatch.setattr(lattice, "enumerate_cores_by_paths", census)


GAMMA = "gamma bijects self-conjugate ({},{})-cores onto bar-cores"

# Per failure: the patch, the label of the check it breaks, and its detail.
BIJECTION_FAILURES = {
    "an invalid image": (
        lambda mp: _patch_map(mp, lattice, "big_gamma", (2, 1), (9,)),
        "big-gamma injects self-conjugate (9,15)-cores into bar-cores",
        "1/56 cases failed: image of (2, 1) is invalid: (9,)",
    ),
    "a zeta image with a part divisible by t": (
        lambda mp: _patch_map(mp, encodings, "zeta", (2, 1), (5,)),
        "zeta round trips on self-conjugate 5-cores",
        "1/17 cases failed: image of (2, 1) is invalid: (5,)",
    ),
    "a failed round trip": (
        lambda mp: _patch_map(mp, lattice, "gamma_inverse", (6,), ()),
        GAMMA.format(7, 11),
        "1/56 cases failed: round trip fails at (3, 3, 3)",
    ),
    # the source of a signed tuple is the tuple and the t-core it decodes to
    "a signed tuple that does not invert": (
        lambda mp: _patch_map(mp, encodings, "olsson_encode", (1,), (0,)),
        "zeta is invertible over signed tuples at t=3",
        "1/7 cases failed: round trip fails at ((1,), (1,))",
    ),
    # a repeated source reaches one image twice, with every round trip intact
    "a collision": (
        lambda mp: _patch_census(mp, "selfconj", 5, 7, lambda cores: cores + cores[:1]),
        GAMMA.format(5, 7),
        "1/11 cases failed: two sources map to (8, 3, 1)",
    ),
    "gamma images that miss part of the bar census": (
        lambda mp: _patch_census(mp, "selfconj", 5, 7, lambda cores: cores[1:]),
        GAMMA.format(5, 7),
        "1/9 cases failed: image misses 1 of the 10 in the census",
    ),
}


@pytest.mark.parametrize("failure", BIJECTION_FAILURES)
def test_the_bijections_suite_catches_a_broken_map(failure, monkeypatch):
    patch, label, detail = BIJECTION_FAILURES[failure]
    patch(monkeypatch)
    assert _check(suite_bijections(30), label) == (False, detail)


def _patch_call(monkeypatch, module, name, args, result):
    """Make ``module.name(*args)`` return ``result``, every other call as before."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: result if a == args else real(*a))


TBAR = "t-bar-core test equals bar divisibility"


def test_the_t_bar_core_check_runs_on_every_bar_partition_it_counts(monkeypatch):
    # the check counts the 904 bar partitions up to 25, so a wrong answer at
    # size 21 must show
    _patch_call(monkeypatch, bar_partitions, "is_tbar_core", ((21,), 3), True)
    assert _check(suite_structure(25), TBAR) == (False, "1/904 cases failed: (21,) at t=3")


# Towers of partitions above the suite's limit of 8, so that no partition in
# the suite has them as its own.
BIG = core_quotient.decompose((3, 3, 3, 2), 5)
BIG_BAR = core_quotient.bar_decompose((12,), 7)

# Per failure: the patches (module, function, arguments, wrong result), the
# label of the one check they break, and its detail at limit 8. The hook and
# bar-length patches keep every length's divisibility, so only the count that
# the transfer checks read changes.
STRUCTURE_FAILURES = {
    "hooks of a conjugate out of order": (
        [(partitions, "hook_length_multiset", ((1, 1),), (1, 2))],
        "conjugation is an involution preserving hooks",
        "2/67 cases failed: (1, 1); (2,)",
    ),
    "a padded beta-set that decodes wrong": (
        [(partitions, "from_first_column_hooks", (frozenset({0, 1, 2, 5}),), ())],
        "first-column hook codec round trips, padding ignored",
        "1/67 cases failed: (2,)",
    ),
    "diagonal hooks off the arm-plus-leg formula": (
        [(partitions, "diagonal_hooks", ((2,),), (3,))],
        "diagonal hooks recompose self-conjugate partitions",
        "1/67 cases failed: (2,)",
    ),
    "a self-conjugate partition that does not recompose": (
        [(partitions, "from_diagonal_hooks", ((3,),), (3,))],
        "diagonal hooks recompose self-conjugate partitions",
        "1/67 cases failed: (2, 1)",
    ),
    "a t-core test that misses a hook": (
        [(partitions, "is_t_core", ((8,), 8), True)],
        "t-core test equals hook divisibility",
        "1/67 cases failed: (8,) at t=8",
    ),
    "bar lengths off the diagram": (
        [(bar_partitions, "bar_length_multiset_by_diagram", ((3,),), (3, 2))],
        "bar lengths by row formula match the diagram",
        "1/25 cases failed: (3,)",
    ),
    "too few bar lengths, on both sides": (
        [
            (bar_partitions, "bar_length_multiset", ((4,),), (4, 3, 2)),
            (bar_partitions, "bar_length_multiset_by_diagram", ((4,),), (4, 3, 2)),
        ],
        "bar lengths by row formula match the diagram",
        "1/25 cases failed: (4,)",
    ),
    "a t-bar-core test that misses a bar": (
        [(bar_partitions, "is_tbar_core", ((5,), 3), True)],
        TBAR,
        "1/25 cases failed: (5,) at t=3",
    ),
    "a tower that does not reconstruct": (
        [(core_quotient, "reconstruct", (core_quotient.decompose((3,), 2),), (2, 1))],
        "core size plus scaled quotient weight recovers each partition",
        "1/268 cases failed: (3,) at g=2",
    ),
    "a tower of the wrong size": (
        [(core_quotient, "decompose", ((3,), 5), BIG), (core_quotient, "reconstruct", (BIG,), (3,))],
        "core size plus scaled quotient weight recovers each partition",
        "1/268 cases failed: (3,) at g=5",
    ),
    "hooks that do not transfer to the quotient": (
        [(partitions, "hook_length_multiset", ((3, 1, 1),), (5, 2, 1, 1, 1))],
        "hooks divisible by g transfer to quotient hooks",
        "1/268 cases failed: (3, 1, 1) at g=2, k=1",
    ),
    "a bar tower that does not reconstruct": (
        [(core_quotient, "bar_reconstruct", (core_quotient.bar_decompose((4,), 3),), (3, 1))],
        "bar-core size plus scaled quotient weight recovers each bar partition",
        "1/75 cases failed: (4,) at g=3",
    ),
    "a bar tower of the wrong size": (
        [
            (core_quotient, "bar_decompose", ((4,), 7), BIG_BAR),
            (core_quotient, "bar_reconstruct", (BIG_BAR,), (4,)),
        ],
        "bar-core size plus scaled quotient weight recovers each bar partition",
        "1/75 cases failed: (4,) at g=7",
    ),
    "bar lengths that do not transfer to the quotient": (
        [
            (bar_partitions, "bar_length_multiset", ((4,),), (4, 3, 3, 1)),
            (bar_partitions, "bar_length_multiset_by_diagram", ((4,),), (4, 3, 3, 1)),
        ],
        "bar lengths divisible by g transfer to the quotient",
        "1/75 cases failed: (4,) at g=3, k=1",
    ),
    "a joint core test off the quotient criterion": (
        [(core_quotient, "is_st_core", ((3,), 6, 9), False)],
        "joint core test equals the quotient criterion",
        "1/67 cases failed: (3,) at (6,9)",
    ),
    "a tower that hides self-conjugacy": (
        [(core_quotient, "selfconjugate_tower_check", (core_quotient.decompose((2, 1), 3),), False)],
        "self-conjugacy is visible in the tower",
        "1/67 cases failed: (2, 1) at g=3",
    ),
    "a joint bar-core test off the quotient criterion": (
        [(core_quotient, "is_stbar_core_by_quotient", ((4,), 9, 15), False)],
        "joint bar-core test equals the quotient criterion",
        "1/25 cases failed: (4,) at (9,15)",
    ),
    "a runner tuple that does not decode": (
        [(encodings, "gks_decode", (encodings.gks_encode((2,), 7),), (1, 1))],
        "runner-surplus encoding round trips and respects conjugation",
        "1/99 cases failed: (2,) at t=7",
    ),
    # (1, 1) reads the tuple of its conjugate (2,) in the conjugation law
    "a runner tuple that does not sum to zero": (
        [(encodings, "gks_encode", ((2,), 7), (1, 0, 0, 0, 0, 0, 0))],
        "runner-surplus encoding round trips and respects conjugation",
        "2/99 cases failed: (1, 1) at t=7; (2,) at t=7",
    ),
    "a runner tuple that breaks the conjugation law": (
        [(encodings, "conjugate_tuple", (encodings.gks_encode((2,), 7),), encodings.gks_encode((2,), 7))],
        "runner-surplus encoding round trips and respects conjugation",
        "1/99 cases failed: (2,) at t=7",
    ),
    "a zero-sum tuple that does not decode": (
        [(encodings, "gks_decode", ((1, -1, 0, 0),), ())],
        "runner-surplus decoding inverts encoding on zero-sum tuples",
        "1/491 cases failed: (1, -1, 0, 0)",
    ),
    "a runner tuple that is not antisymmetric": (
        [(encodings, "is_selfconjugate_tuple", (encodings.gks_encode((1,), 3),), False)],
        "diagonal hooks read directly off the runner tuple",
        "1/17 cases failed: (1,) at t=3",
    ),
    "diagonal hooks off the runner tuple": (
        [(encodings, "diagonal_hooks_from_tuple", (encodings.gks_encode((1,), 3),), (3,))],
        "diagonal hooks read directly off the runner tuple",
        "1/17 cases failed: (1,) at t=3",
    ),
    # (3, 3, 3), of size 9, is a (7,11)-core beyond the partition pass
    "a trapped core with a forbidden pair": (
        [(partitions, "diagonal_hooks", ((3, 3, 3),), (9, 5))],
        "no two diagonal hooks of a trapped core sum to a forbidden multiple",
        "1/112 cases failed: (3, 3, 3) at t=7",
    ),
}


@pytest.mark.parametrize("failure", STRUCTURE_FAILURES)
def test_the_structure_suite_catches_a_broken_construction(failure, monkeypatch):
    patches, label, detail = STRUCTURE_FAILURES[failure]
    for module, name, args, result in patches:
        _patch_call(monkeypatch, module, name, args, result)
    checks = suite_structure(8)
    assert _check(checks, label) == (False, detail)
    assert [name for name, ok, _ in checks if not ok] == [label]


def test_the_conjugation_check_reads_the_conjugate_of_the_conjugate(monkeypatch):
    # Only verify's view of conjugate is wrong, so the hook multisets that
    # partitions computes through its own conjugate stay right: (3,) keeps the
    # hooks of its true conjugate (1, 1, 1) and fails only as an involution.
    real = partitions.conjugate
    wrong = SimpleNamespace(**vars(partitions))
    wrong.conjugate = lambda p: (2, 1) if p == (1, 1, 1) else real(p)
    monkeypatch.setattr(verify, "pt", wrong)
    checks = suite_structure(8)
    assert _check(checks, "conjugation is an involution preserving hooks") == (
        False,
        "2/67 cases failed: (1, 1, 1); (3,)",
    )


def test_every_structure_check_has_a_failure_test():
    labels = [label for label, _, _ in suite_structure(0)]
    assert sorted({label for _, label, _ in STRUCTURE_FAILURES.values()}) == sorted(labels)
