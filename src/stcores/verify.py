"""Named verification suites: censuses, series cross-checks, bounds, bijections.

Each suite returns a list of checks ``(label, passed, detail)``. Labels are
stable strings, detail is empty on success and describes the first few
failures otherwise. ``run_suite`` and ``run_all`` back the command-line
``verify`` verb and the acceptance tests; everything is deterministic, so
identical arguments always produce identical output.

The ``limit`` argument is the series truncation. Exhaustive enumerations are
capped at the scale each invariant is stated for, so raising ``limit`` beyond
those scales adds work only where a series is involved.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, product
from math import comb
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


def suite_examples(limit: int = 60) -> list[Check]:
    """Worked small cases pinned to exact values."""
    checks: list[Check] = []
    checks.append(
        _eq(
            "bar lengths of (5,3,1)",
            bp.bar_length_multiset((5, 3, 1)),
            (8, 6, 5, 4, 3, 3, 1, 1, 1),
        )
    )

    core = lat.anderson_path_to_core("URUURRURURURRURRRR", 7, 11)
    checks.append(_eq("(7,11) grid path decodes to its core", core, (5, 3, 3, 3, 2, 2, 1, 1, 1)))
    checks.append(
        _eq(
            "first-column hooks of the decoded (7,11)-core",
            pt.first_column_hooks(core),
            frozenset({13, 10, 9, 8, 6, 5, 3, 2, 1}),
        )
    )

    checks.append(_eq("diagonal hooks of (4,2,1,1)", pt.diagonal_hooks((4, 2, 1, 1)), (7, 1)))
    checks.append(
        _eq("runner-surplus tuple of (4,2,1,1) at t=3", enc.gks_encode((4, 2, 1, 1), 3), (2, 0, -2))
    )
    checks.append(_eq("signed-run decode of (2,) at t=3", enc.olsson_decode((2,), 3), (4, 1)))
    checks.append(_eq("zeta((4,2,1,1)) at t=3", enc.zeta((4, 2, 1, 1), 3), (4, 1)))

    sc = lat.dh_path_to_selfconj("RURRRUUR", 7, 11)
    checks.append(_eq("(7,11) diagonal-hooks path decodes to (3,3,3)", sc, (3, 3, 3)))
    checks.append(_eq("diagonal hooks of the decoded (3,3,3)", pt.diagonal_hooks(sc), (5, 3, 1)))
    checks.append(
        _eq("(7,11) yin-yang path decodes to (6,)", lat.yy_path_to_barcore("RURRRUUR", 7, 11), (6,))
    )
    checks.append(_eq("gamma((3,3,3)) at (7,11)", lat.gamma((3, 3, 3), 7, 11), (6,)))

    lam = (21, 20, 12, 12, 12, 12, 11, 11, 10, 9, 8, 6, 2, 2, 2, 2, 2, 2, 2, 2, 1)
    checks.append(_eq("calibration partition size", pt.size(lam), 161))
    checks.append(
        _eq("calibration partition is self-conjugate", pt.is_self_conjugate(lam), True)
    )
    tower = cq.decompose(lam, 3)
    checks.append(_eq("3-core of the calibration partition", tower.core, (4, 2, 1, 1)))
    checks.append(
        _eq(
            "3-quotient of the calibration partition",
            tower.quotient,
            ((5, 3, 3, 3, 2, 2, 1, 1, 1), (3, 3, 3), (9, 6, 4, 1, 1)),
        )
    )
    bar = lat.big_gamma(lam, 21, 33)
    checks.append(
        _eq("big-gamma image of the calibration partition", bar, (20, 19, 18, 10, 8, 7, 4))
    )
    checks.append(_eq("big-gamma image size", sum(bar), 86))
    btower = cq.bar_decompose(bar, 3)
    checks.append(_eq("3-bar-core of the image", btower.core, (4, 1)))
    checks.append(
        _eq(
            "3-bar-quotient of the image",
            btower.quotient,
            ((6,), (5, 3, 3, 3, 2, 2, 1, 1, 1)),
        )
    )
    checks.append(
        _eq(
            "big-gamma round trip on the calibration partition",
            lat.big_gamma_inverse(bar, 21, 33),
            lam,
        )
    )
    return checks


def suite_counting(limit: int = 60) -> list[Check]:
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
        if (s, t) == (7, 11):
            by_size: dict[int, set[pt.Partition]] = {}
            for p in census:
                by_size.setdefault(pt.size(p), set()).add(p)
            for n in (24, 36, 48):
                direct = set(orc.enumerate_cores(n, (s, t)))
                checks.append(
                    _eq(f"(7,11)-cores of size {n}, census vs enumeration", by_size.get(n, set()), direct)
                )
        else:
            direct_all: set[pt.Partition] = set()
            for n in range(max_size + 1):
                direct_all.update(orc.enumerate_cores(n, (s, t)))
            checks.append(
                _eq(f"({s},{t})-core census equals the enumerated set", set(census), direct_all)
            )

    for s, t in ((5, 7), (7, 11)):
        want = comb(s // 2 + t // 2, s // 2)
        sc_census = list(lat.enumerate_selfconj_by_dh(s, t))
        checks.append(_eq(f"self-conjugate ({s},{t})-core census size", len(sc_census), want))
        checks.append(
            _eq(f"self-conjugate ({s},{t})-core census is duplicate-free", len(set(sc_census)), want)
        )
        bar_census = list(lat.enumerate_barcores_by_yy(s, t))
        checks.append(_eq(f"({s}-bar,{t}-bar)-core census size", len(bar_census), want))
        checks.append(
            _eq(f"({s}-bar,{t}-bar)-core census is duplicate-free", len(set(bar_census)), want)
        )

        sc_cap = max(pt.size(p) for p in sc_census) if s == 5 else min(limit, 40)
        direct_sc: set[pt.Partition] = set()
        for n in range(sc_cap + 1):
            direct_sc.update(
                p
                for p in orc.enumerate_self_conjugate(n)
                if pt.is_t_core(p, s) and pt.is_t_core(p, t)
            )
        checks.append(
            _eq(
                f"self-conjugate ({s},{t})-core census vs enumeration to {sc_cap}",
                {p for p in sc_census if pt.size(p) <= sc_cap},
                direct_sc,
            )
        )

        bar_cap = max(sum(b) for b in bar_census) if s == 5 else min(limit, 40)
        direct_bar: set[bp.BarPartition] = set()
        for n in range(bar_cap + 1):
            direct_bar.update(
                b for b in bp.enumerate_bar_partitions(n) if cq.is_stbar_core(b, s, t)
            )
        checks.append(
            _eq(
                f"({s}-bar,{t}-bar)-core census vs enumeration to {bar_cap}",
                {b for b in bar_census if sum(b) <= bar_cap},
                direct_bar,
            )
        )
    return checks


def suite_genfun(limit: int = 60) -> list[Check]:
    """Every generating function against brute-force count tables."""
    checks: list[Check] = []
    cap30 = min(limit, 30)
    cap40 = min(limit, 40)
    for t in range(1, 8):
        checks.append(
            _series_vs_table(
                f"{t}-core series vs enumeration",
                sr.core_gf(t, cap30),
                orc.core_counts(t, cap30),
                cap30,
            )
        )
    for t in range(1, 8):
        checks.append(
            _series_vs_table(
                f"self-conjugate {t}-core series vs enumeration",
                sr.selfconj_core_gf(t, cap30),
                orc.selfconj_core_counts(t, cap30),
                cap30,
            )
        )
    for t in (1, 3, 5, 7, 9):
        checks.append(
            _series_vs_table(
                f"{t}-bar-core series vs enumeration",
                sr.barcore_gf(t, cap30),
                orc.barcore_counts(t, cap30),
                cap30,
            )
        )
    for s, t in ((4, 6), (6, 9), (6, 10), (10, 15)):
        checks.append(
            _series_vs_table(
                f"({s},{t})-core series vs enumeration",
                sr.psi_st_gf(s, t, cap40),
                orc.st_core_counts(s, t, cap40),
                cap40,
            )
        )
    for s, t in ((4, 6), (6, 9), (6, 10)):
        checks.append(
            _series_vs_table(
                f"self-conjugate ({s},{t})-core series vs enumeration",
                sr.psi_star_st_gf(s, t, cap40),
                orc.selfconj_st_core_counts(s, t, cap40),
                cap40,
            )
        )
    for s, t in ((9, 15), (15, 21)):
        checks.append(
            _series_vs_table(
                f"({s}-bar,{t}-bar)-core series vs enumeration",
                sr.psi_bar_st_gf(s, t, cap40),
                orc.stbar_core_counts(s, t, cap40),
                cap40,
            )
        )

    star_val = sr.psi_star_st_gf(21, 33, 161)[161]
    checks.append(
        (
            "(21,33) self-conjugate series sees the calibration partition",
            star_val >= 1,
            f"coefficient at 161 is {star_val}",
        )
    )
    bar_val = sr.psi_bar_st_gf(21, 33, 86)[86]
    checks.append(
        (
            "(21-bar,33-bar) series sees the calibration image",
            bar_val >= 1,
            f"coefficient at 86 is {bar_val}",
        )
    )
    return checks


def suite_convolution(limit: int = 60) -> list[Check]:
    """Core-times-quotient convolution forms against the closed products."""
    checks: list[Check] = []
    cap = min(limit, 40)
    for s, t in ((4, 6), (6, 9), (6, 10), (10, 15)):
        checks.append(
            _eq(
                f"({s},{t})-core convolution equals the product form",
                sr.convolution_psi(s, t, cap),
                sr.psi_st_gf(s, t, cap),
            )
        )
    for s, t in ((4, 6), (6, 10), (6, 9)):
        checks.append(
            _eq(
                f"self-conjugate ({s},{t})-core convolution equals the product form",
                sr.convolution_psi_star(s, t, cap),
                sr.psi_star_st_gf(s, t, cap),
            )
        )
    for s, t in ((9, 15), (15, 21)):
        checks.append(
            _eq(
                f"({s}-bar,{t}-bar)-core convolution equals the product form",
                sr.convolution_psi_bar(s, t, cap),
                sr.psi_bar_st_gf(s, t, cap),
            )
        )
    two = sr.core_gf(2, cap)
    three = sr.core_gf(3, cap)
    for r in (1, 2):
        lhs, rhs = sr.progression_extract(two, three, 3, r)
        checks.append(_eq(f"progression extraction at residue {r}", lhs, rhs))
    return checks


def suite_congruence(limit: int = 60) -> list[Check]:
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
    for label, series, g, modulus, residue in member_scans:
        found = sr.congruence_scan(series, g, modulus)
        checks.append(
            (label, residue in found, f"scan to {limit} reports residues {found}")
        )

    qnr = tuple(r for r in range(1, 5) if pow(24 * r + 1, 2, 5) == 4)
    checks.append(
        _eq(
            "5-bar-core counts even exactly on the nonresidue progressions",
            sr.congruence_scan(sr.barcore_gf(5, limit), 5, 2),
            qnr,
        )
    )
    bar_found = sr.congruence_scan(sr.psi_bar_st_gf(15, 25, limit), 5, 2)
    checks.append(
        (
            "(15-bar,25-bar)-core counts even on the nonresidue progressions",
            all(r in bar_found for r in qnr),
            f"scan to {limit} reports residues {bar_found}",
        )
    )

    cap50 = min(limit, 50)
    for t, g, modulus, residue in ((10, 5, 5, 4), (14, 7, 7, 5), (22, 11, 11, 6)):
        fails = []
        points = list(range(residue, cap50 + 1, g))
        for n in points:
            val = orc.not_g_core_count_at(n, t, g)
            if val % modulus:
                fails.append(f"n={n}: {val}")
        checks.append(
            _all(
                f"{t}-cores that are not {g}-cores, counts on {g}k+{residue} divisible by {modulus}",
                fails,
                len(points),
            )
        )
    fails = []
    points = []
    for residue in qnr:
        points.extend(range(residue, cap50 + 1, 5))
    for n in sorted(points):
        val = orc.not_g_core_count_at(n, 15, 5, variant="bar")
        if val % 2:
            fails.append(f"n={n}: {val}")
    checks.append(
        _all(
            "15-bar-cores that are not 5-bar-cores, counts even on the nonresidue progressions",
            fails,
            len(points),
        )
    )
    return checks


def suite_bounds(limit: int = 60) -> list[Check]:
    """Lower bounds, positivity, and cumulative-growth checks, brute-forced."""
    checks: list[Check] = []
    cap40 = min(limit, 40)
    cap35 = min(limit, 35)
    cap30 = min(limit, 30)

    fails = []
    for n in range(4, cap40 + 1):
        val = orc.not_g_core_count_at(n, 16, 4)
        floor_sum = sum(orc.q_tuple_count(4, 4, 4, w) for w in range(1, n // 4 + 1))
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
        fails = []
        for n in range(cap40 + 1):
            val = orc.not_g_core_count_at(n, t, 8, variant="selfconj")
            live = [w for w in range(1, n // 16 + 1) if n - 16 * w != 2]
            floor_sum = sum(orc.q_tuple_count(tp, tp, 4, w) for w in live)
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
        sc_table = orc.selfconj_core_counts(tp, cap40)
        fails = []
        for n in range(cap40 + 1):
            val = orc.not_g_core_count_at(n, t, 11, variant="selfconj")
            m = n // 11
            floor_sum = 0
            for w1 in range(m // 2 + 1):
                for w2 in range(m - 2 * w1 + 1):
                    v = 2 * w1 + w2
                    if v >= 1 and n - 11 * v != 2:
                        floor_sum += orc.q_tuple_count(tp, tp, 5, w1) * sc_table[w2]
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

    fails = []
    for n in range(7, cap35 + 1):
        val = orc.not_g_core_count_at(n, 21, 7, variant="bar")
        floor_sum = sum(orc.q_bar_tuple_count(3, 3, 7, w) for w in range(1, n // 7 + 1))
        if val < floor_sum:
            fails.append(f"n={n}: {val} < tuple sum {floor_sum}")
        elif val < 4:
            fails.append(f"n={n}: {val} < 4")
    checks.append(
        _all("21-bar-cores that are not 7-bar-cores meet the lower bounds", fails, max(0, cap35 - 6))
    )

    for t in (4, 5, 6, 7):
        series = sr.core_gf(t, limit)
        table = orc.core_counts(t, cap30)
        fails = [f"n={n}" for n in range(limit + 1) if series[n] < 1]
        fails += [f"enumerated n={n}" for n in range(cap30 + 1) if table[n] < 1]
        checks.append(_all(f"every size admits a {t}-core", fails, limit + cap30 + 2))
    for t in (8, 10, 11):
        series = sr.selfconj_core_gf(t, limit)
        table = orc.selfconj_core_counts(t, cap30)
        fails = [f"n={n}" for n in range(limit + 1) if n != 2 and series[n] < 1]
        fails += [f"enumerated n={n}" for n in range(cap30 + 1) if n != 2 and table[n] < 1]
        if series[2] != 0 or table[2] != 0:
            fails.append("n=2 admits no self-conjugate partition at all, yet a count is nonzero")
        checks.append(
            _all(f"every size but 2 admits a self-conjugate {t}-core", fails, limit + cap30 + 2)
        )
    for t in (7, 9, 11):
        series = sr.barcore_gf(t, limit)
        table = orc.barcore_counts(t, cap30)
        fails = [f"n={n}" for n in range(limit + 1) if series[n] < 1]
        fails += [f"enumerated n={n}" for n in range(cap30 + 1) if table[n] < 1]
        checks.append(_all(f"every size admits a {t}-bar-core", fails, limit + cap30 + 2))

    marks = [m for m in (8, 16, 24, 32, 40) if m <= cap40]
    appearing: list[tuple[str, Callable[[int], int]]] = [
        (
            "(4,6)-cores that are not 2-cores keep appearing",
            lambda n: sum(1 for p in orc.enumerate_cores(n, (4, 6)) if not pt.is_t_core(p, 2)),
        ),
        (
            "self-conjugate (4,6)-cores that are not 2-cores keep appearing",
            lambda n: sum(
                1
                for p in orc.enumerate_self_conjugate(n)
                if pt.is_t_core(p, 4) and pt.is_t_core(p, 6) and not pt.is_t_core(p, 2)
            ),
        ),
        (
            "(9-bar,15-bar)-cores that are not 3-bar-cores keep appearing",
            lambda n: sum(1 for b in orc.enumerate_barcores(n, (9, 15)) if not bp.is_tbar_core(b, 3)),
        ),
    ]
    for label, count_at in appearing:
        running = list(accumulate(count_at(n) for n in range(max(marks, default=-1) + 1)))
        cumulative = [running[m] for m in marks]
        checks.append(
            (
                label,
                all(a < b for a, b in zip(cumulative, cumulative[1:])),
                f"cumulative counts at {marks}: {cumulative}",
            )
        )
    return checks


def suite_bijections(limit: int = 60) -> list[Check]:
    """Round trips and image coverage for zeta, gamma, and big-gamma."""
    checks: list[Check] = []
    cap25 = min(limit, 25)
    cap30 = min(limit, 30)

    for t in (3, 5, 7):
        fails = []
        total = 0
        for n in range(cap25 + 1):
            for p in orc.enumerate_self_conjugate(n):
                if not pt.is_t_core(p, t):
                    continue
                total += 1
                b = enc.zeta(p, t)
                if not bp.is_bar_partition(b) or not bp.is_tbar_core(b, t):
                    fails.append(f"zeta({p}) = {b} is not a {t}-bar-core")
                elif enc.zeta_inverse(b, t) != p:
                    fails.append(f"round trip fails at {p}")
        checks.append(
            _all(f"zeta round trips on self-conjugate {t}-cores", fails, total)
        )

    for t in (3, 5, 7):
        h = (t - 1) // 2
        fails = []
        images = set()
        total = 0
        for half in product(range(-3, 4), repeat=h):
            total += 1
            full = half + (0,) + tuple(-a for a in reversed(half))
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

    fails = []
    seen: set[bp.BarPartition] = set()
    total = 0
    for n in range(cap30 + 1):
        for p in orc.enumerate_self_conjugate(n):
            if not (pt.is_t_core(p, 9) and pt.is_t_core(p, 15)):
                continue
            total += 1
            b = lat.big_gamma(p, 9, 15)
            if not cq.is_stbar_core(b, 9, 15):
                fails.append(f"image of {p} invalid")
            elif lat.big_gamma_inverse(b, 9, 15) != p:
                fails.append(f"round trip fails at {p}")
            elif b in seen:
                fails.append(f"two sources map to {b}")
            seen.add(b)
    checks.append(
        _all(
            "big-gamma injects self-conjugate (9,15)-cores into bar-cores",
            fails,
            total,
        )
    )
    return checks


def suite_structure(limit: int = 60) -> list[Check]:
    """Exhaustive structural invariants at their stated scales."""
    checks: list[Check] = []
    c25 = min(limit, 25)
    c22 = min(limit, 22)
    c20 = min(limit, 20)

    conj_fails: list[str] = []
    beta_fails: list[str] = []
    diag_fails: list[str] = []
    total = 0
    for n in range(c25 + 1):
        for p in orc.enumerate_partitions(n):
            total += 1
            q = pt.conjugate(p)
            if pt.conjugate(q) != p or pt.hook_length_multiset(q) != pt.hook_length_multiset(p):
                conj_fails.append(f"{p}")
            beta = pt.first_column_hooks(p)
            padded = frozenset(range(3)) | {b + 3 for b in beta}
            if pt.from_first_column_hooks(beta) != p or pt.from_first_column_hooks(padded) != p:
                beta_fails.append(f"{p}")
            diag = pt.diagonal_hooks(p)
            conj_here = q
            want = tuple(
                p[i] + conj_here[i] - 2 * i - 1 for i in range(len(p)) if p[i] > i
            )
            if diag != want:
                diag_fails.append(f"{p}")
            elif pt.is_self_conjugate(p):
                odd_form = tuple(2 * (p[i] - i) - 1 for i in range(len(p)) if p[i] > i)
                if diag != odd_form or sum(diag) != n or pt.from_diagonal_hooks(diag) != p:
                    diag_fails.append(f"{p}")
    checks.append(_all("conjugation is an involution preserving hooks", conj_fails, total))
    checks.append(_all("first-column hook codec round trips, padding ignored", beta_fails, total))
    checks.append(_all("diagonal hooks recompose self-conjugate partitions", diag_fails, total))

    core_fails: list[str] = []
    total20 = 0
    for n in range(c20 + 1):
        for p in orc.enumerate_partitions(n):
            total20 += 1
            hooks = pt.hook_length_multiset(p)
            for t in range(2, 9):
                if pt.is_t_core(p, t) != all(h % t for h in hooks):
                    core_fails.append(f"{p} at t={t}")
    checks.append(_all("t-core test equals hook divisibility", core_fails, total20))

    bar_fails: list[str] = []
    barcore_fails: list[str] = []
    btotal = 0
    for n in range(c25 + 1):
        for b in bp.enumerate_bar_partitions(n):
            btotal += 1
            bars = bp.bar_length_multiset(b)
            if len(bars) != n or bars != bp.bar_length_multiset_by_diagram(b):
                bar_fails.append(f"{b}")
            if n <= c20:
                for t in (3, 5, 7, 9):
                    if bp.is_tbar_core(b, t) != all(v % t for v in bars):
                        barcore_fails.append(f"{b} at t={t}")
    checks.append(_all("bar lengths by row formula match the diagram", bar_fails, btotal))
    checks.append(_all("t-bar-core test equals bar divisibility", barcore_fails, btotal))

    tower_fails: list[str] = []
    transfer_fails: list[str] = []
    ttotal = 0
    for n in range(c25 + 1):
        for p in orc.enumerate_partitions(n):
            hooks = Counter(pt.hook_length_multiset(p))
            for g in (2, 3, 4, 5):
                ttotal += 1
                tower = cq.decompose(p, g)
                if pt.size(tower.core) + g * tower.weight != n:
                    tower_fails.append(f"size identity fails for {p} at g={g}")
                    continue
                if cq.reconstruct(tower) != p:
                    tower_fails.append(f"round trip fails for {p} at g={g}")
                    continue
                qhooks: Counter[int] = Counter()
                for comp in tower.quotient:
                    qhooks.update(pt.hook_length_multiset(comp))
                for k in range(1, 7):
                    if hooks[g * k] != qhooks[k]:
                        transfer_fails.append(f"{p} at g={g}, k={k}")
    checks.append(_all("core size plus scaled quotient weight recovers each partition", tower_fails, ttotal))
    checks.append(_all("hooks divisible by g transfer to quotient hooks", transfer_fails, ttotal))

    bt_fails: list[str] = []
    btransfer_fails: list[str] = []
    bttotal = 0
    for n in range(c25 + 1):
        for b in bp.enumerate_bar_partitions(n):
            bars_counter = Counter(bp.bar_length_multiset(b))
            for g in (3, 5, 7):
                bttotal += 1
                tower = cq.bar_decompose(b, g)
                if sum(tower.core) + g * tower.weight != n:
                    bt_fails.append(f"size identity fails for {b} at g={g}")
                    continue
                if cq.bar_reconstruct(tower) != b:
                    bt_fails.append(f"round trip fails for {b} at g={g}")
                    continue
                qbars: Counter[int] = Counter(bp.bar_length_multiset(tower.quotient[0]))
                for comp in tower.quotient[1:]:
                    qbars.update(pt.hook_length_multiset(comp))
                for k in range(1, 7):
                    if bars_counter[g * k] != qbars[k]:
                        btransfer_fails.append(f"{b} at g={g}, k={k}")
    checks.append(
        _all("bar-core size plus scaled quotient weight recovers each bar partition", bt_fails, bttotal)
    )
    checks.append(_all("bar lengths divisible by g transfer to the quotient", btransfer_fails, bttotal))

    eq_fails: list[str] = []
    sc_fails: list[str] = []
    eq_total = 0
    for n in range(c22 + 1):
        for p in orc.enumerate_partitions(n):
            eq_total += 1
            for s, t in ((4, 6), (6, 9), (6, 10), (10, 15)):
                if cq.is_st_core(p, s, t) != cq.is_st_core_by_quotient(p, s, t):
                    eq_fails.append(f"{p} at ({s},{t})")
            for g in (2, 3, 4, 5):
                if cq.selfconjugate_tower_check(cq.decompose(p, g)) != pt.is_self_conjugate(p):
                    sc_fails.append(f"{p} at g={g}")
    checks.append(_all("joint core test equals the quotient criterion", eq_fails, eq_total))
    checks.append(_all("self-conjugacy is visible in the tower", sc_fails, eq_total))

    beq_fails: list[str] = []
    beq_total = 0
    for n in range(c22 + 1):
        for b in bp.enumerate_bar_partitions(n):
            beq_total += 1
            for s, t in ((9, 15), (15, 21), (21, 33)):
                if cq.is_stbar_core(b, s, t) != cq.is_stbar_core_by_quotient(b, s, t):
                    beq_fails.append(f"{b} at ({s},{t})")
    checks.append(_all("joint bar-core test equals the quotient criterion", beq_fails, beq_total))

    gks_fails: list[str] = []
    gks_total = 0
    for t in (2, 3, 5, 7):
        for n in range(c25 + 1):
            for p in orc.enumerate_partitions(n):
                if not pt.is_t_core(p, t):
                    continue
                gks_total += 1
                entries = enc.gks_encode(p, t)
                if sum(entries) != 0 or enc.gks_decode(entries, t) != p:
                    gks_fails.append(f"{p} at t={t}")
                elif not enc._check_conjugation_law(p, t):
                    gks_fails.append(f"conjugation law fails for {p} at t={t}")
    checks.append(
        _all("runner-surplus encoding round trips and respects conjugation", gks_fails, gks_total)
    )

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
    checks.append(
        _all("runner-surplus decoding inverts encoding on zero-sum tuples", dec_fails, dec_total)
    )

    dht_fails: list[str] = []
    dht_total = 0
    for t in (3, 5, 7):
        for n in range(c25 + 1):
            for p in orc.enumerate_self_conjugate(n):
                if not pt.is_t_core(p, t):
                    continue
                dht_total += 1
                entries = enc.gks_encode(p, t)
                if not enc.is_selfconjugate_tuple(entries):
                    dht_fails.append(f"tuple of {p} is not antisymmetric at t={t}")
                elif enc.diagonal_hooks_from_tuple(entries) != pt.diagonal_hooks(p):
                    dht_fails.append(f"{p} at t={t}")
    checks.append(_all("diagonal hooks read directly off the runner tuple", dht_fails, dht_total))

    pair_fails: list[str] = []
    grid = lat.dh_grid(7, 11)
    paths = list(lat.enumerate_paths(grid.rows, grid.cols))
    for path in paths:
        core = lat.dh_path_to_selfconj(path, 7, 11)
        diag = pt.diagonal_hooks(core)
        for t in (7, 11):
            if any((a + b) % (2 * t) == 0 for a in diag for b in diag):
                pair_fails.append(f"path {path} at t={t}")
    checks.append(
        _all("no two diagonal hooks of a trapped core sum to a forbidden multiple", pair_fails, len(paths) * 2)
    )
    return checks


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


def run_suite(name: str, limit: int = 60) -> list[Check]:
    """Run one named suite at the given series truncation.

    Raises:
        ValueError: for an unknown suite name.
    """
    if name not in SUITES:
        known = ", ".join(sorted(SUITES))
        raise ValueError(f"unknown suite {name!r}; choose from: {known}")
    return SUITES[name](limit)


def run_all(limit: int = 60) -> dict[str, list[Check]]:
    """Run every suite, keyed by name, in sorted-name order."""
    return {name: SUITES[name](limit) for name in sorted(SUITES)}
