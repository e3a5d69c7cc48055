import pytest

from stcores import encodings, lattice, oracle, series
from stcores.core_quotient import is_st_core
from stcores.oracle import CountTable, enumerate_partitions
from stcores.series import TruncatedSeries
from stcores.verify import suite_bijections, suite_bounds, suite_counting

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
