import pytest

from stcores import lattice
from stcores.core_quotient import is_st_core
from stcores.oracle import enumerate_partitions
from stcores.verify import suite_counting

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
