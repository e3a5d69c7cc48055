"""Named verification suites: censuses, series cross-checks, bounds, bijections.

Each suite returns a list of checks ``(label, passed, detail)``. Labels are
stable strings, detail is empty on success and describes the first few
failures otherwise. ``run_suite`` backs the command-line ``verify`` verb
(which runs every suite in sorted-name order for "all") and the acceptance
tests; everything is deterministic, so identical arguments always produce
identical output.

The ``limit`` argument is the series truncation. Exhaustive enumerations are
capped at the scale each invariant is stated for, so raising ``limit`` beyond
those scales adds work only where a series is involved.

Each family of checks that differ only in their parameters is one loop over
a table of rows, built inside its suite when the suite runs: a row names the
family, the series builder, the brute-force table or second form, the
parameters and the cap. ``suite_structure`` makes one pass per size over the
partitions (self-conjugate ones included) and one over the bar partitions;
each partition's conjugate, hook multiset and g-towers for g = 2..5 are
computed once and feed every check on it (the joint-core quotient criterion
included), the hook counts of each distinct quotient component are computed
once per pass, and each check counts only the sizes up to its own cap.
``suite_bijections`` likewise makes one pass per size over the self-conjugate
partitions.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import accumulate, product
from math import comb, gcd
from typing import Callable

from . import bar_partitions as bp
from . import core_quotient as cq
from . import encodings as enc
from . import lattice as lat
from . import oracle as orc
from . import partitions as pt
from . import series as sr

Check = tuple[str, bool, str]


def _eq(label: str, got: object, want: object) -> Check:
    if got == want:
        return (label, True, "")
    return (label, False, f"got {got!r}, expected {want!r}")


def _all(label: str, failures: list[str], total: int) -> Check:
    if not failures:
        return (label, True, f"all {total} cases")
    shown = "; ".join(failures[:3])
    more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
    return (label, False, f"{len(failures)}/{total} cases failed: {shown}{more}")


def _series_vs_table(
    label: str, series: sr.TruncatedSeries, table: orc.CountTable, limit: int
) -> Check:
    for n in range(limit + 1):
        if series[n] != table[n]:
            return (
                label,
                False,
                f"first mismatch at n={n}: series {series[n]}, enumeration {table[n]}",
            )
    return (label, True, f"coefficients 0..{limit}")


def suite_examples(limit: int) -> list[Check]:
    """Worked small cases pinned to exact values."""
    core = lat.anderson_path_to_core((1, 3, 3, 4, 5, 6, 6, 7, 7, 7, 7), 7, 11)
    sc = lat.dh_path_to_selfconj((0, 1, 1, 1, 3), 7, 11)
    lam = (21, 20, 12, 12, 12, 12, 11, 11, 10, 9, 8, 6, 2, 2, 2, 2, 2, 2, 2, 2, 1)
    tower = cq.decompose(lam, 3)
    bar = lat.big_gamma(lam, 21, 33)
    btower = cq.bar_decompose(bar, 3)
    rows = (
        ("bar lengths of (5,3,1)", bp.bar_length_multiset((5, 3, 1)), (8, 6, 5, 4, 3, 3, 1, 1, 1)),
        ("(7,11) grid path decodes to its core", core, (5, 3, 3, 3, 2, 2, 1, 1, 1)),
        (
            "first-column hooks of the decoded (7,11)-core",
            pt.first_column_hooks(core),
            frozenset({13, 10, 9, 8, 6, 5, 3, 2, 1}),
        ),
        ("diagonal hooks of (4,2,1,1)", pt.diagonal_hooks((4, 2, 1, 1)), (7, 1)),
        ("runner-surplus tuple of (4,2,1,1) at t=3", enc.gks_encode((4, 2, 1, 1), 3), (2, 0, -2)),
        ("signed-run decode of (2,) at t=3", enc.olsson_decode((2,)), (4, 1)),
        ("zeta((4,2,1,1)) at t=3", enc.zeta((4, 2, 1, 1), 3), (4, 1)),
        ("(7,11) diagonal-hooks path decodes to (3,3,3)", sc, (3, 3, 3)),
        ("diagonal hooks of the decoded (3,3,3)", pt.diagonal_hooks(sc), (5, 3, 1)),
        ("(7,11) yin-yang path decodes to (6,)", lat.yy_path_to_barcore((0, 1, 1, 1, 3), 7, 11), (6,)),
        ("gamma((3,3,3)) at (7,11)", lat.gamma((3, 3, 3), 7, 11), (6,)),
        ("calibration partition size", pt.size(lam), 161),
        ("calibration partition is self-conjugate", pt.is_self_conjugate(lam), True),
        ("3-core of the calibration partition", tower.core, (4, 2, 1, 1)),
        (
            "3-quotient of the calibration partition",
            tower.quotient,
            ((5, 3, 3, 3, 2, 2, 1, 1, 1), (3, 3, 3), (9, 6, 4, 1, 1)),
        ),
        ("big-gamma image of the calibration partition", bar, (20, 19, 18, 10, 8, 7, 4)),
        ("big-gamma image size", sum(bar), 86),
        ("3-bar-core of the image", btower.core, (4, 1)),
        ("3-bar-quotient of the image", btower.quotient, ((6,), (5, 3, 3, 3, 2, 2, 1, 1, 1))),
        ("big-gamma round trip on the calibration partition", lat.big_gamma_inverse(bar, 21, 33), lam),
    )
    return [_eq(label, got, want) for label, got, want in rows]


def suite_counting(limit: int) -> list[Check]:
    """Path censuses against closed-form counts and brute-force enumeration."""
    checks: list[Check] = []
    expected = {(2, 3): (2, 1), (5, 7): (66, 48), (7, 11): (1768, 240)}
    for (s, t), (count, max_size) in expected.items():
        census = list(lat.enumerate_st_cores_by_paths(s, t))
        checks.append(_eq(f"({s},{t})-core census size", len(census), count))
        checks.append(_eq(f"({s},{t})-core census is duplicate-free", len(set(census)), count))
        sizes = [pt.size(p) for p in census]
        checks.append(_eq(f"largest ({s},{t})-core size", max(sizes), max_size))
        checks.append(
            _eq(f"({s},{t}) closed-form count and extreme", orc.extremal_stats(s, t), (count, max_size))
        )
        # The census equals the enumerated set exactly when it lists no
        # non-core and holds as many partitions of each size as the count
        # table: a missing or repeated core changes a count.
        non_cores = sorted({p for p in census if not cq.is_st_core(p, s, t)})
        per_size = Counter(sizes)
        if (s, t) == (7, 11):
            table = orc.st_core_counts(s, t, 48)
            for n in (24, 36, 48):
                checks.append(
                    _eq(
                        f"(7,11)-cores of size {n}, census vs enumeration",
                        ([p for p in non_cores if pt.size(p) == n], per_size[n]),
                        ([], table[n]),
                    )
                )
        else:
            table = orc.st_core_counts(s, t, max_size)
            checks.append(
                _eq(
                    f"({s},{t})-core census equals the enumerated set",
                    (non_cores, tuple(per_size[n] for n in range(max(per_size) + 1))),
                    ([], table.counts),
                )
            )

    for s, t in ((5, 7), (7, 11)):
        want = comb(s // 2 + t // 2, s // 2)
        rows = (
            (
                f"self-conjugate ({s},{t})-core",
                list(lat.enumerate_selfconj_by_dh(s, t)),
                orc.enumerate_self_conjugate,
                lambda p: pt.is_t_core(p, s) and pt.is_t_core(p, t),
            ),
            (
                f"({s}-bar,{t}-bar)-core",
                list(lat.enumerate_barcores_by_yy(s, t)),
                bp.enumerate_bar_partitions,
                lambda b: cq.is_stbar_core(b, s, t),
            ),
        )
        for name, census, _, _ in rows:
            checks.append(_eq(f"{name} census size", len(census), want))
            checks.append(_eq(f"{name} census is duplicate-free", len(set(census)), want))
        for name, census, enumerate_size, is_core in rows:
            cap = max(sum(p) for p in census) if s == 5 else min(limit, 40)
            direct = {p for n in range(cap + 1) for p in enumerate_size(n) if is_core(p)}
            checks.append(
                _eq(
                    f"{name} census vs enumeration to {cap}",
                    {p for p in census if sum(p) <= cap},
                    direct,
                )
            )
    return checks


def suite_genfun(limit: int) -> list[Check]:
    """Every generating function against brute-force count tables."""
    cap30 = min(limit, 30)
    cap40 = min(limit, 40)
    singles = [(t,) for t in range(1, 8)]
    rows = (
        ("{}-core", sr.core_gf, orc.core_counts, singles, cap30),
        ("self-conjugate {}-core", sr.selfconj_core_gf, orc.selfconj_core_counts, singles, cap30),
        ("{}-bar-core", sr.barcore_gf, orc.barcore_counts, [(t,) for t in (1, 3, 5, 7, 9)], cap30),
        ("({},{})-core", sr.psi_st_gf, orc.st_core_counts, ((4, 6), (6, 9), (6, 10), (10, 15)), cap40),
        (
            "self-conjugate ({},{})-core",
            sr.psi_star_st_gf,
            orc.selfconj_st_core_counts,
            ((4, 6), (6, 9), (6, 10)),
            cap40,
        ),
        ("({}-bar,{}-bar)-core", sr.psi_bar_st_gf, orc.stbar_core_counts, ((9, 15), (15, 21)), cap40),
    )
    checks = [
        _series_vs_table(
            f"{name.format(*args)} series vs enumeration", build(*args, cap), table(*args, cap), cap
        )
        for name, build, table, arg_rows, cap in rows
        for args in arg_rows
    ]
    calibrations = (
        ("(21,33) self-conjugate series sees the calibration partition", sr.psi_star_st_gf, 161),
        ("(21-bar,33-bar) series sees the calibration image", sr.psi_bar_st_gf, 86),
    )
    for label, build, n in calibrations:
        val = build(21, 33, n)[n]
        checks.append((label, val >= 1, f"coefficient at {n} is {val}"))
    return checks


def suite_convolution(limit: int) -> list[Check]:
    """Core-times-quotient convolution forms against the closed products."""
    cap = min(limit, 40)
    rows = (
        ("({},{})-core", sr.convolution_psi, sr.psi_st_gf, ((4, 6), (6, 9), (6, 10), (10, 15))),
        (
            "self-conjugate ({},{})-core",
            sr.convolution_psi_star,
            sr.psi_star_st_gf,
            ((4, 6), (6, 10), (6, 9)),
        ),
        ("({}-bar,{}-bar)-core", sr.convolution_psi_bar, sr.psi_bar_st_gf, ((9, 15), (15, 21))),
    )
    checks = [
        _eq(
            f"{name.format(s, t)} convolution equals the product form",
            convolution(s, t, cap),
            closed(s, t, cap),
        )
        for name, convolution, closed, pairs in rows
        for s, t in pairs
    ]
    two = sr.core_gf(2, cap)
    three = sr.core_gf(3, cap)
    for r in (1, 2):
        lhs, rhs = sr.progression_extract(two, three, 3, r)
        checks.append(_eq(f"progression extraction at residue {r}", lhs, rhs))
    return checks


def suite_congruence(limit: int) -> list[Check]:
    """Arithmetic-progression divisibility scans plus brute-force confirmation."""
    checks: list[Check] = []
    member_scans = [
        ("5-core counts on 5k+4 divisible by 5", sr.core_gf(5, limit), 5, 5, 4),
        ("7-core counts on 7k+5 divisible by 7", sr.core_gf(7, limit), 7, 7, 5),
        ("11-core counts on 11k+6 divisible by 11", sr.core_gf(11, limit), 11, 11, 6),
        ("(10,15)-core counts on 5k+4 divisible by 5", sr.psi_st_gf(10, 15, limit), 5, 5, 4),
        ("(14,21)-core counts on 7k+5 divisible by 7", sr.psi_st_gf(14, 21, limit), 7, 7, 5),
        ("(22,33)-core counts on 11k+6 divisible by 11", sr.psi_st_gf(22, 33, limit), 11, 11, 6),
    ]
    # The scan reports no residue above the truncation, where no coefficient
    # lies, so each expected residue is checked only where it can be; a check
    # whose residue lies above the truncation passes and says it saw nothing.
    for label, series, g, modulus, residue in member_scans:
        if residue > limit:
            checks.append((label, True, f"no coefficient on {g}k+{residue} up to {limit}"))
            continue
        found = sr.congruence_scan(series, g, modulus)
        checks.append((label, residue in found, f"scan to {limit} reports residues {found}"))

    qnr = tuple(r for r in range(1, 5) if pow(24 * r + 1, 2, 5) == 4)
    found = sr.congruence_scan(sr.barcore_gf(5, limit), 5, 2)
    checks.append(
        _eq(
            "5-bar-core counts even exactly on the nonresidue progressions",
            found,
            tuple(r for r in qnr if r <= limit),
        )
    )
    bar_found = sr.congruence_scan(sr.psi_bar_st_gf(15, 25, limit), 5, 2)
    checks.append(
        (
            "(15-bar,25-bar)-core counts even on the nonresidue progressions",
            all(r in bar_found for r in qnr if r <= limit),
            f"scan to {limit} reports residues {bar_found}",
        )
    )

    cap50 = min(limit, 50)
    progressions = (
        ("10-cores that are not 5-cores, counts on 5k+4 divisible by 5", 10, 5, "straight", 5, (4,)),
        ("14-cores that are not 7-cores, counts on 7k+5 divisible by 7", 14, 7, "straight", 7, (5,)),
        ("22-cores that are not 11-cores, counts on 11k+6 divisible by 11", 22, 11, "straight", 11, (6,)),
        (
            "15-bar-cores that are not 5-bar-cores, counts even on the nonresidue progressions",
            15,
            5,
            "bar",
            2,
            qnr,
        ),
    )
    for label, t, g, variant, modulus, residues in progressions:
        points = sorted(n for r in residues for n in range(r, cap50 + 1, g))
        table = orc.not_g_core_counts((t,), g, cap50, variant)
        fails = []
        for n in points:
            val = table[n]
            if val % modulus:
                fails.append(f"n={n}: {val}")
        checks.append(_all(label, fails, len(points)))
    return checks


def suite_bounds(limit: int) -> list[Check]:
    """Lower bounds, positivity, and cumulative-growth checks, brute-forced."""
    checks: list[Check] = []
    cap40 = min(limit, 40)
    cap35 = min(limit, 35)
    cap30 = min(limit, 30)

    # Each floor sums the coefficients of a quotient-tuple series, read off
    # the series kernel; the counts it bounds come from the oracle walks.
    table = orc.not_g_core_counts((16,), 4, cap40)
    tuples = sr.core_gf(4, cap40) ** 4
    fails = []
    for n in range(4, cap40 + 1):
        val = table[n]
        floor_sum = sum(tuples[w] for w in range(1, n // 4 + 1))
        if val < floor_sum:
            fails.append(f"n={n}: {val} < tuple sum {floor_sum}")
        elif val < 4 * (n // 4):
            fails.append(f"n={n}: {val} < 4*floor(n/4)")
        elif val < 4:
            fails.append(f"n={n}: {val} < 4")
    checks.append(_all("16-cores that are not 4-cores meet the lower bounds", fails, max(0, cap40 - 3)))

    # In both self-conjugate blocks a tuple term only counts when the
    # leftover self-conjugate core can exist; size 2 admits none.
    for t in (16, 32):
        tp = t // 8
        table = orc.not_g_core_counts((t,), 8, cap40, variant="selfconj")
        tuples = sr.core_gf(tp, cap40) ** 4
        fails = []
        for n in range(cap40 + 1):
            val = table[n]
            live = [w for w in range(1, n // 16 + 1) if n - 16 * w != 2]
            floor_sum = sum(tuples[w] for w in live)
            if val < floor_sum:
                fails.append(f"n={n}: {val} < tuple sum {floor_sum}")
            elif not live and val != 0:
                fails.append(f"n={n}: {val} nonzero yet no witness can exist")
            elif live and 2 * val < 8:
                fails.append(f"n={n}: {val} below half the divisor")
            elif tp >= 4 and val < 4 * len(live):
                fails.append(f"n={n}: {val} < 4 per live weight")
        checks.append(
            _all(
                f"self-conjugate {t}-cores that are not 8-cores meet the lower bounds",
                fails,
                cap40 + 1,
            )
        )

    for t in (22, 44):
        tp = t // 11
        table = orc.not_g_core_counts((t,), 11, cap40, variant="selfconj")
        # weight v = 2 * w1 + w2: five paired tp-cores of total w1 and a
        # self-conjugate tp-core of size w2
        tuples = (sr.core_gf(tp, cap40) ** 5).substitute_power(2) * sr.selfconj_core_gf(tp, cap40)
        fails = []
        for n in range(cap40 + 1):
            val = table[n]
            floor_sum = sum(tuples[v] for v in range(1, n // 11 + 1) if n - 11 * v != 2)
            if val < floor_sum:
                fails.append(f"n={n}: {val} < tuple sum {floor_sum}")
            elif n == 11 + 2 or n < 11:
                if n == 11 + 2 and val != 0:
                    fails.append(f"n={n}: {val} nonzero yet no witness can exist")
            elif val < 1:
                fails.append(f"n={n}: no witness partition")
            elif n >= 22 and n != 2 * 11 + 2 and 2 * val < 11:
                fails.append(f"n={n}: {val} below half the divisor")
        checks.append(
            _all(
                f"self-conjugate {t}-cores that are not 11-cores meet the lower bounds",
                fails,
                cap40 + 1,
            )
        )

    table = orc.not_g_core_counts((21,), 7, cap35, variant="bar")
    tuples = sr.barcore_gf(3, cap35) * sr.core_gf(3, cap35) ** 3
    fails = []
    for n in range(7, cap35 + 1):
        val = table[n]
        floor_sum = sum(tuples[w] for w in range(1, n // 7 + 1))
        if val < floor_sum:
            fails.append(f"n={n}: {val} < tuple sum {floor_sum}")
        elif val < 4:
            fails.append(f"n={n}: {val} < 4")
    checks.append(
        _all("21-bar-cores that are not 7-bar-cores meet the lower bounds", fails, max(0, cap35 - 6))
    )

    # Size 2 admits no self-conjugate partition at all: that row skips it and
    # instead requires both counts at 2 to vanish.
    admits = (
        ("every size admits a {}-core", sr.core_gf, orc.core_counts, (4, 5, 6, 7), None),
        (
            "every size but 2 admits a self-conjugate {}-core",
            sr.selfconj_core_gf,
            orc.selfconj_core_counts,
            (8, 10, 11),
            2,
        ),
        ("every size admits a {}-bar-core", sr.barcore_gf, orc.barcore_counts, (7, 9, 11), None),
    )
    for label, build, table, moduli, empty in admits:
        for t in moduli:
            series = build(t, limit)
            counts = table(t, cap30)
            fails = [f"n={n}" for n in range(limit + 1) if n != empty and series[n] < 1]
            fails += [f"enumerated n={n}" for n in range(cap30 + 1) if n != empty and counts[n] < 1]
            if empty is not None and empty <= limit and (series[empty] or counts[empty]):
                fails.append(f"n={empty} admits no self-conjugate partition at all, yet a count is nonzero")
            checks.append(_all(label.format(t), fails, limit + cap30 + 2))

    marks = [m for m in (8, 16, 24, 32, 40) if m <= cap40]
    appearing = (
        ("(4,6)-cores that are not 2-cores keep appearing", (4, 6), 2, "straight"),
        ("self-conjugate (4,6)-cores that are not 2-cores keep appearing", (4, 6), 2, "selfconj"),
        ("(9-bar,15-bar)-cores that are not 3-bar-cores keep appearing", (9, 15), 3, "bar"),
    )
    for label, moduli, g, variant in appearing:
        running = list(accumulate(orc.not_g_core_counts(moduli, g, cap40, variant).counts))
        cumulative = [running[m] for m in marks]
        checks.append(
            (
                label,
                all(a < b for a, b in zip(cumulative, cumulative[1:])),
                f"cumulative counts at {marks}: {cumulative}",
            )
        )
    return checks


def suite_bijections(limit: int) -> list[Check]:
    """Round trips and image coverage for zeta, gamma, and big-gamma."""
    checks: list[Check] = []
    cap25 = min(limit, 25)
    cap30 = min(limit, 30)

    # One pass per size over the self-conjugate partitions feeds the zeta
    # round trips (to size 25) and big-gamma (to size 30).
    zeta_fails: dict[int, list[str]] = {t: [] for t in (3, 5, 7)}
    zeta_total = dict.fromkeys((3, 5, 7), 0)
    big_fails: list[str] = []
    seen: set[bp.BarPartition] = set()
    big_total = 0
    for n in range(cap30 + 1):
        for p in orc.enumerate_self_conjugate(n):
            for t in zeta_fails if n <= cap25 else ():
                if not pt.is_t_core(p, t):
                    continue
                zeta_total[t] += 1
                b = enc.zeta(p, t)
                if not bp.is_bar_partition(b) or not bp.is_tbar_core(b, t):
                    zeta_fails[t].append(f"zeta({p}) = {b} is not a {t}-bar-core")
                elif enc.zeta_inverse(b, t) != p:
                    zeta_fails[t].append(f"round trip fails at {p}")
            if not (pt.is_t_core(p, 9) and pt.is_t_core(p, 15)):
                continue
            big_total += 1
            b = lat.big_gamma(p, 9, 15)
            if not cq.is_stbar_core(b, 9, 15):
                big_fails.append(f"image of {p} invalid")
            elif lat.big_gamma_inverse(b, 9, 15) != p:
                big_fails.append(f"round trip fails at {p}")
            elif b in seen:
                big_fails.append(f"two sources map to {b}")
            seen.add(b)
    for t, fails in zeta_fails.items():
        checks.append(
            _all(f"zeta round trips on self-conjugate {t}-cores", fails, zeta_total[t])
        )

    for t in (3, 5, 7):
        h = (t - 1) // 2
        fails = []
        images = set()
        total = 0
        for half in product(range(-3, 4), repeat=h):
            total += 1
            full = half + (0,) + enc.conjugate_tuple(half)
            p = enc.gks_decode(full)
            b = enc.zeta(p, t)
            if enc.olsson_encode(b, t) != half:
                fails.append(f"tuple {half} does not invert")
            elif enc.zeta_inverse(b, t) != p:
                fails.append(f"partition round trip fails for {half}")
            images.add(b)
        if len(images) != total:
            fails.append(f"only {len(images)} distinct images for {total} tuples")
        checks.append(
            _all(f"zeta is invertible over signed tuples at t={t}", fails, total)
        )

    for s, t in ((5, 7), (7, 11)):
        sc = list(lat.enumerate_selfconj_by_dh(s, t))
        bars = set(lat.enumerate_barcores_by_yy(s, t))
        fails = []
        images = set()
        for p in sc:
            b = lat.gamma(p, s, t)
            if b not in bars:
                fails.append(f"gamma({p}) is not an ({s}-bar,{t}-bar)-core")
            elif lat.gamma_inverse(b, s, t) != p:
                fails.append(f"round trip fails at {p}")
            images.add(b)
        if images != bars:
            fails.append(f"image misses {len(bars - images)} bar-cores")
        checks.append(
            _all(
                f"gamma bijects self-conjugate ({s},{t})-cores onto bar-cores",
                fails,
                len(sc),
            )
        )

    checks.append(
        _all(
            "big-gamma injects self-conjugate (9,15)-cores into bar-cores",
            big_fails,
            big_total,
        )
    )
    return checks


def suite_structure(limit: int) -> list[Check]:
    """Exhaustive structural invariants at their stated scales."""
    c25 = min(limit, 25)
    c22 = min(limit, 22)
    c20 = min(limit, 20)

    per_n = [0] * (c25 + 1)
    conj_fails: list[str] = []
    beta_fails: list[str] = []
    diag_fails: list[str] = []
    core_fails: list[str] = []
    tower_fails: list[str] = []
    transfer_fails: list[str] = []
    eq_fails: list[str] = []
    sc_fails: list[str] = []
    gks_fails: list[str] = []
    dht_fails: list[str] = []
    gks_total = dht_total = 0

    def short_lengths(lengths: tuple[int, ...]) -> tuple[int, ...]:
        counts = Counter(lengths)
        return tuple(counts[k] for k in range(1, 7))

    # Quotient components repeat across partitions and moduli: count the
    # hook lengths 1..6 of each distinct one once per pass.
    @cache
    def component_hooks(comp: pt.Partition) -> tuple[int, ...]:
        return short_lengths(pt.hook_length_multiset(comp))

    def quotient_hooks(components: tuple[pt.Partition, ...]) -> list[int]:
        return [sum(c) for c in zip(*map(component_hooks, components))]

    for n in range(c25 + 1):
        for p in orc.enumerate_partitions(n):
            per_n[n] += 1
            q = pt.conjugate(p)
            self_conjugate = q == p
            hooks = pt.hook_length_multiset(p)
            if pt.conjugate(q) != p or pt.hook_length_multiset(q) != hooks:
                conj_fails.append(f"{p}")
            beta = pt.first_column_hooks(p)
            padded = frozenset(range(3)) | {b + 3 for b in beta}
            if pt.from_first_column_hooks(beta) != p or pt.from_first_column_hooks(padded) != p:
                beta_fails.append(f"{p}")
            diag = pt.diagonal_hooks(p)
            want = tuple(p[i] + q[i] - 2 * i - 1 for i in range(len(p)) if p[i] > i)
            if diag != want:
                diag_fails.append(f"{p}")
            elif self_conjugate:
                odd_form = tuple(2 * (p[i] - i) - 1 for i in range(len(p)) if p[i] > i)
                if diag != odd_form or sum(diag) != n or pt.from_diagonal_hooks(diag) != p:
                    diag_fails.append(f"{p}")
            hook_counts = Counter(hooks)
            if n <= c20:
                for t in range(2, 9):
                    if pt.is_t_core(p, t) != all(h % t for h in hook_counts):
                        core_fails.append(f"{p} at t={t}")

            towers = {g: cq.decompose(p, g) for g in (2, 3, 4, 5)}
            for g, tower in towers.items():
                if pt.size(tower.core) + g * tower.weight != n:
                    tower_fails.append(f"size identity fails for {p} at g={g}")
                    continue
                if cq.reconstruct(tower) != p:
                    tower_fails.append(f"round trip fails for {p} at g={g}")
                    continue
                qhooks = quotient_hooks(tower.quotient)
                for k in range(1, 7):
                    if hook_counts[g * k] != qhooks[k - 1]:
                        transfer_fails.append(f"{p} at g={g}, k={k}")
            if n <= c22:
                for s, t in ((4, 6), (6, 9), (6, 10), (10, 15)):
                    tower = towers[gcd(s, t)]
                    if cq.is_st_core(p, s, t) != cq.st_core_tower_check(tower, s, t):
                        eq_fails.append(f"{p} at ({s},{t})")
                for g, tower in towers.items():
                    if cq.selfconjugate_tower_check(tower) != self_conjugate:
                        sc_fails.append(f"{p} at g={g}")

            for t in (2, 3, 5, 7):
                if not pt.is_t_core(p, t):
                    continue
                gks_total += 1
                entries = enc.gks_encode(p, t)
                if sum(entries) != 0 or enc.gks_decode(entries) != p:
                    gks_fails.append(f"{p} at t={t}")
                elif enc.gks_encode(q, t) != enc.conjugate_tuple(entries):
                    gks_fails.append(f"conjugation law fails for {p} at t={t}")
                if t == 2 or not self_conjugate:
                    continue
                dht_total += 1
                if not enc.is_selfconjugate_tuple(entries):
                    dht_fails.append(f"tuple of {p} is not antisymmetric at t={t}")
                elif enc.diagonal_hooks_from_tuple(entries) != diag:
                    dht_fails.append(f"{p} at t={t}")

    bar_per_n = [0] * (c25 + 1)
    bar_fails: list[str] = []
    barcore_fails: list[str] = []
    bt_fails: list[str] = []
    btransfer_fails: list[str] = []
    beq_fails: list[str] = []
    for n in range(c25 + 1):
        for b in bp.enumerate_bar_partitions(n):
            bar_per_n[n] += 1
            bars = bp.bar_length_multiset(b)
            if len(bars) != n or bars != bp.bar_length_multiset_by_diagram(b):
                bar_fails.append(f"{b}")
            if n <= c20:
                for t in (3, 5, 7, 9):
                    if bp.is_tbar_core(b, t) != all(v % t for v in bars):
                        barcore_fails.append(f"{b} at t={t}")

            bar_counts = Counter(bars)
            for g in (3, 5, 7):
                tower = cq.bar_decompose(b, g)
                if sum(tower.core) + g * tower.weight != n:
                    bt_fails.append(f"size identity fails for {b} at g={g}")
                    continue
                if cq.bar_reconstruct(tower) != b:
                    bt_fails.append(f"round trip fails for {b} at g={g}")
                    continue
                lam0 = short_lengths(bp.bar_length_multiset(tower.quotient[0]))
                qbars = [x + y for x, y in zip(lam0, quotient_hooks(tower.quotient[1:]))]
                for k in range(1, 7):
                    if bar_counts[g * k] != qbars[k - 1]:
                        btransfer_fails.append(f"{b} at g={g}, k={k}")
            if n <= c22:
                for s, t in ((9, 15), (15, 21), (21, 33)):
                    if cq.is_stbar_core(b, s, t) != cq.is_stbar_core_by_quotient(b, s, t):
                        beq_fails.append(f"{b} at ({s},{t})")

    dec_fails: list[str] = []
    dec_total = 0
    for t in (1, 2, 3, 4, 5):
        for entries in product(range(-2, 3), repeat=t):
            if sum(entries) != 0:
                continue
            dec_total += 1
            p = enc.gks_decode(entries)
            if enc.gks_encode(p, t) != entries:
                dec_fails.append(f"{entries}")

    pair_fails: list[str] = []
    cores = list(lat.enumerate_selfconj_by_dh(7, 11))
    for core in cores:
        diag = pt.diagonal_hooks(core)
        for t in (7, 11):
            if any((a + b) % (2 * t) == 0 for a in diag for b in diag):
                pair_fails.append(f"{core} at t={t}")

    total, total20, total22 = sum(per_n), sum(per_n[: c20 + 1]), sum(per_n[: c22 + 1])
    btotal, btotal22 = sum(bar_per_n), sum(bar_per_n[: c22 + 1])
    return [
        _all("conjugation is an involution preserving hooks", conj_fails, total),
        _all("first-column hook codec round trips, padding ignored", beta_fails, total),
        _all("diagonal hooks recompose self-conjugate partitions", diag_fails, total),
        _all("t-core test equals hook divisibility", core_fails, total20),
        _all("bar lengths by row formula match the diagram", bar_fails, btotal),
        _all("t-bar-core test equals bar divisibility", barcore_fails, btotal),
        _all("core size plus scaled quotient weight recovers each partition", tower_fails, 4 * total),
        _all("hooks divisible by g transfer to quotient hooks", transfer_fails, 4 * total),
        _all(
            "bar-core size plus scaled quotient weight recovers each bar partition", bt_fails, 3 * btotal
        ),
        _all("bar lengths divisible by g transfer to the quotient", btransfer_fails, 3 * btotal),
        _all("joint core test equals the quotient criterion", eq_fails, total22),
        _all("self-conjugacy is visible in the tower", sc_fails, total22),
        _all("joint bar-core test equals the quotient criterion", beq_fails, btotal22),
        _all("runner-surplus encoding round trips and respects conjugation", gks_fails, gks_total),
        _all("runner-surplus decoding inverts encoding on zero-sum tuples", dec_fails, dec_total),
        _all("diagonal hooks read directly off the runner tuple", dht_fails, dht_total),
        _all(
            "no two diagonal hooks of a trapped core sum to a forbidden multiple",
            pair_fails,
            len(cores) * 2,
        ),
    ]


SUITES: dict[str, Callable[[int], list[Check]]] = {
    "examples": suite_examples,
    "counting": suite_counting,
    "genfun": suite_genfun,
    "convolution": suite_convolution,
    "congruence": suite_congruence,
    "bounds": suite_bounds,
    "bijections": suite_bijections,
    "structure": suite_structure,
}


def run_suite(name: str, limit: int) -> list[Check]:
    """Run one named suite at the given series truncation.

    Raises:
        ValueError: for an unknown suite name.
    """
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; choose from: {known}")
    return SUITES[name](limit)
