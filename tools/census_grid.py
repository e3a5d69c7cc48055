"""Time the straight census of reduced pairs against the series work estimate.

    PYTHONPATH=src python3 tools/census_grid.py > tools/census_grid.csv

For each reduced pair (s', t') and limit L of a fixed grid, runs
`lattice.census_by_size("straight", s', t', L)` once in process and prints a
CSV row: s', t', L, the estimate t' * min(traps**3.6, sets**1.3) that the
series builders bound (`series._census_work`), whether it is within their
cap, and the seconds it took. The pairs run from near-square ones, where the
trapped values bind, to lopsided ones with a small s', where the sets do. A
cell whose estimate passes SKIP_ABOVE is not run, and its seconds are left
empty.
"""

from __future__ import annotations

import csv
import sys
import time

from stcores.lattice import census_by_size
from stcores.series import _CENSUS_WORK_CAP, _census_work

PAIRS = (
    (5, 7),
    (7, 11),
    (13, 17),
    (31, 37),
    (101, 103),
    (301, 303),
    (1600, 1601),
    (2, 301),
    (2, 1601),
    (3, 1601),
    (4, 1601),
    (5, 151),
    (5, 1601),
    (7, 201),
    (11, 101),
)
LIMITS = (10, 20, 30, 40, 60, 90, 120, 150, 200)
# Cells above this estimate would take a minute or more each; they are not run.
SKIP_ABOVE = 1e10


def main() -> None:
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(("s", "t", "limit", "estimate", "accepted", "seconds"))
    for s, t in PAIRS:
        for limit in LIMITS:
            estimate = _census_work(s, t, limit)
            seconds = ""
            if estimate <= SKIP_ABOVE:
                start = time.perf_counter()
                census_by_size("straight", s, t, limit)
                seconds = f"{time.perf_counter() - start:.3f}"
            out.writerow((s, t, limit, f"{estimate:.3g}", int(estimate <= _CENSUS_WORK_CAP), seconds))
            sys.stdout.flush()


if __name__ == "__main__":
    main()
