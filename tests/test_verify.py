import pytest

from stcores import lattice
from stcores.core_quotient import is_st_core
from stcores.oracle import enumerate_partitions
from stcores.verify import suite_counting

LABEL = "(5,7)-core census equals the enumerated set"


def _non_core_like(p):
    """A partition of the same size as p that is not a (5,7)-core."""
    return next(q for q in enumerate_partitions(sum(p)) if not is_st_core(q, 5, 7))


# each mutation touches census[1], a (5,7)-core of size 36
MUTATIONS = {
    "drop a core": lambda census: census[:1] + census[2:],
    "swap a core for a non-core": lambda census: census[:1] + [_non_core_like(census[1])] + census[2:],
    "add a non-core": lambda census: census + [_non_core_like(census[1])],
    "repeat a core": lambda census: census + census[1:2],
}


def test_the_unchanged_census_passes():
    checks = {label: ok for label, ok, _ in suite_counting(10)}
    assert checks[LABEL]


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_the_counting_suite_catches_a_bad_path_census(mutation, monkeypatch):
    real = lattice.enumerate_st_cores_by_paths

    def census(s, t):
        cores = list(real(s, t))
        return MUTATIONS[mutation](cores) if (s, t) == (5, 7) else cores

    monkeypatch.setattr(lattice, "enumerate_st_cores_by_paths", census)
    checks = {label: (ok, detail) for label, ok, detail in suite_counting(10)}
    ok, detail = checks[LABEL]
    assert not ok, detail
