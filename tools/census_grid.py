"""Time the census of each family over reduced pairs against the series work cap.

    PYTHONPATH=src python3 tools/census_grid.py > tools/census_grid.csv

For each cell (family, s', t', L) of a fixed grid, runs
`lattice.census_by_size(family, s', t', L)` once in process and prints a CSV
row: the family, s', t', L, whether the series builders take the census on
(`series._census_refused` within `series._CENSUS_WORK_CAP`), and the seconds
it took. The straight pairs run from near-square ones, where the trapped
values bind, to lopsided ones with a small s', where the sets do. The
self-conjugate and bar pairs run to L = 4000, the largest -N. Every family
also has rows at L = 0 with t' near 10**4 and 10**5, where only its columns
cost, and the straight family a row with a small s' past t' = 10**4. A cell
whose work passes SKIP_ABOVE is not run, and its seconds are left empty.
"""

from __future__ import annotations

import csv
import sys
import time

from stcores.lattice import census_by_size
from stcores.series import _census_refused

STRAIGHT_PAIRS = (
    (5, 7),
    (7, 11),
    (13, 17),
    (31, 37),
    (101, 103),
    (301, 303),
    (1600, 1601),
    (4000, 4001),
    (2, 301),
    (2, 1601),
    (3, 1601),
    (3, 4001),
    (4, 1601),
    (5, 151),
    (5, 1601),
    (7, 201),
    (11, 101),
)
STRAIGHT_LIMITS = (10, 20, 30, 40, 60, 90, 120, 150, 200)
# Odd pairs, so that both the self-conjugate and the bar census read them.
PAIRS = ((101, 103), (5, 1601), (1599, 1601), (3999, 4001), (9997, 9999))
LIMITS = (0, 10, 100, 1000, 2000, 3000, 4000)
CELLS = (
    [("straight", s, t, limit) for s, t in STRAIGHT_PAIRS for limit in STRAIGHT_LIMITS]
    + [(family, s, t, limit) for family in ("selfconj", "bar") for s, t in PAIRS for limit in LIMITS]
    # t' near 10**4 and 10**5 at L = 0, where only the columns cost (the
    # other families have t' = 9999 among PAIRS), and a small s' past
    # t' = 10**4, whose work the sets term undercounts
    + [("straight", 9997, 9999, 0), ("straight", 3, 100001, 60)]
    + [(family, 99999, 100001, 0) for family in ("straight", "selfconj", "bar")]
)
# Cells whose work passes this would take a minute or more; they are not run.
SKIP_ABOVE = 10**10


def main() -> None:
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(("family", "s", "t", "limit", "accepted", "seconds"))
    for family, s, t, limit in CELLS:
        seconds = ""
        if not _census_refused(family, s, t, limit, SKIP_ABOVE):
            start = time.perf_counter()
            census_by_size(family, s, t, limit)
            seconds = f"{time.perf_counter() - start:.3f}"
        out.writerow((family, s, t, limit, int(not _census_refused(family, s, t, limit)), seconds))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
