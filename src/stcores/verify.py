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
parameters and the cap. In ``suite_bounds`` a row is one lower-bound theorem,
read with one rule: a size with no live quotient weight counts zero, and
every other size meets the row's tuple-sum floor and its bound.
``suite_bijections`` sends every map through one round-trip check: each image
is valid, inverts to its source and collides with no earlier image, and
gamma's images cover the bar census. ``suite_structure`` is one tally: its
labels are written once, in report order, and one local ``check`` adds each
case to its check where the case runs, so every case total is counted, none
derived. It makes one pass per size over the partitions and one over the bar
partitions, computing each partition's conjugate, hook multiset and g-towers
for g = 2..5 once, and the hook counts of each distinct quotient component
once per pass.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, partial
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
    core = lat.path_to_core("straight", (1, 3, 3, 4, 5, 6, 6, 7, 7, 7, 7), 7, 11)
    sc = lat.path_to_core("selfconj", (0, 1, 1, 1, 3), 7, 11)
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
        ("(7,11) yin-yang path decodes to (6,)", lat.path_to_core("bar", (0, 1, 1, 1, 3), 7, 11), (6,)),
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
        census = list(lat.enumerate_cores_by_paths("straight", s, t))
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
                list(lat.enumerate_cores_by_paths("selfconj", s, t)),
                orc.enumerate_self_conjugate,
                lambda p: cq.is_st_core(p, s, t),
            ),
            (
                f"({s}-bar,{t}-bar)-core",
                list(lat.enumerate_cores_by_paths("bar", s, t)),
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
        ("5-core counts on 5k+4 divisible by 5", sr.core_gf(5, limit), 5, 5, (4,)),
        ("7-core counts on 7k+5 divisible by 7", sr.core_gf(7, limit), 7, 7, (5,)),
        ("11-core counts on 11k+6 divisible by 11", sr.core_gf(11, limit), 11, 11, (6,)),
        ("(10,15)-core counts on 5k+4 divisible by 5", sr.psi_st_gf(10, 15, limit), 5, 5, (4,)),
        ("(14,21)-core counts on 7k+5 divisible by 7", sr.psi_st_gf(14, 21, limit), 7, 7, (5,)),
        ("(22,33)-core counts on 11k+6 divisible by 11", sr.psi_st_gf(22, 33, limit), 11, 11, (6,)),
    ]

    # The scan reports no residue above the truncation, where no coefficient
    # lies, so each expected residue is checked only where it can be; a check
    # whose residues all lie above the truncation passes and says it saw nothing.
    def scan_check(
        label: str, series: sr.TruncatedSeries, g: int, modulus: int, residues: tuple[int, ...]
    ) -> Check:
        if min(residues) > limit:
            progressions = " or ".join(f"{g}k+{r}" for r in residues)
            return label, True, f"no coefficient on {progressions} up to {limit}"
        found = sr.congruence_scan(series, g, modulus)
        passed = all(r in found for r in residues if r <= limit)
        return label, passed, f"scan to {limit} reports residues {found}"

    checks.extend(scan_check(*scan) for scan in member_scans)

    qnr = tuple(r for r in range(1, 5) if pow(24 * r + 1, 2, 5) == 4)
    found = sr.congruence_scan(sr.barcore_gf(5, limit), 5, 2)
    checks.append(
        _eq(
            "5-bar-core counts even exactly on the nonresidue progressions",
            found,
            tuple(r for r in qnr if r <= limit),
        )
    )
    bar_label = "(15-bar,25-bar)-core counts even on the nonresidue progressions"
    checks.append(scan_check(bar_label, sr.psi_bar_st_gf(15, 25, limit), 5, 2, qnr))

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
    cap30 = min(limit, 30)

    # One row per theorem on the t-cores of a variant that are not g-cores:
    # label, t, g, variant, cap, quotient-tuple series, first size, and the
    # bound given the number k of live weights. A tuple of weight w fills
    # w * g cells, or 2 * w * g for an even g in the self-conjugate variant,
    # whose quotient components pair off with their conjugates; w is live
    # unless the leftover g-core would be a self-conjugate one of size 2,
    # which cannot exist. The floors read the series kernel, the counts the
    # oracle walks.
    core = partial(sr.core_gf, truncation=cap40)

    def paired(tp: int) -> sr.TruncatedSeries:
        # weight v = 2 * w1 + w2: five paired tp-cores of total w1 and a
        # self-conjugate tp-core of size w2
        return (core(tp) ** 5).substitute_power(2) * sr.selfconj_core_gf(tp, cap40)

    # the 11-rows ask for 6 from two live weights on: from n = 22 on, but at
    # 24, whose weight 2 leaves size 2
    theorems = {
        "16-cores that are not 4-cores": (16, 4, "straight", cap40, core(4) ** 4, 4, lambda k: 4 * k),
        "self-conjugate 16-cores that are not 8-cores": (16, 8, "selfconj", cap40, core(2) ** 4, 0, lambda k: 4),
        "self-conjugate 32-cores that are not 8-cores": (
            32, 8, "selfconj", cap40, core(4) ** 4, 0, lambda k: 4 * k
        ),
        "self-conjugate 22-cores that are not 11-cores": (
            22, 11, "selfconj", cap40, paired(2), 0, lambda k: 6 if k > 1 else 1
        ),
        "self-conjugate 44-cores that are not 11-cores": (
            44, 11, "selfconj", cap40, paired(4), 0, lambda k: 6 if k > 1 else 1
        ),
        "21-bar-cores that are not 7-bar-cores": (
            21, 7, "bar", min(limit, 35), sr.barcore_gf(3, cap40) * core(3) ** 3, 7, lambda k: 4
        ),
    }
    for label, (t, g, variant, cap, tuples, first, bound) in theorems.items():
        step = 2 * g if variant == "selfconj" and g % 2 == 0 else g
        table = orc.not_g_core_counts((t,), g, cap, variant)
        fails = []
        for n in range(first, cap + 1):
            val = table[n]
            live = [w for w in range(1, n // step + 1) if variant != "selfconj" or n - step * w != 2]
            floor_sum = sum(tuples[w] for w in live)
            if not live and val:
                fails.append(f"n={n}: {val} nonzero yet no weight is live")
            elif val < floor_sum:
                fails.append(f"n={n}: {val} < tuple sum {floor_sum}")
            elif live and val < bound(len(live)):
                fails.append(f"n={n}: {val} < bound {bound(len(live))}")
        checks.append(_all(f"{label} meet the lower bounds", fails, len(range(first, cap + 1))))

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


def _bijects(
    label: str, sources: list, forward: Callable, is_core: Callable, inverse: Callable,
    census: frozenset = frozenset(),
) -> Check:
    # forward sends each source to a bar partition that is_core accepts and
    # inverse takes back to the source, no two sources to one image, and onto
    # all of a census if one is given
    fails = []
    images = set()
    for source in sources:
        b = forward(source)
        if not (bp.is_bar_partition(b) and is_core(b)):
            fails.append(f"image of {source} is invalid: {b}")
        elif inverse(b) != source:
            fails.append(f"round trip fails at {source}")
        elif b in images:
            fails.append(f"two sources map to {b}")
        images.add(b)
    if census - images:
        fails.append(f"image misses {len(census - images)} of the {len(census)} in the census")
    return _all(label, fails, len(sources))


def suite_bijections(limit: int) -> list[Check]:
    """Round trips and image coverage for zeta, gamma, and big-gamma."""
    selfconj = [p for n in range(min(limit, 30) + 1) for p in orc.enumerate_self_conjugate(n)]

    checks = [
        _bijects(
            f"zeta round trips on self-conjugate {t}-cores",
            [p for p in selfconj if sum(p) <= min(limit, 25) and pt.is_t_core(p, t)],
            partial(enc.zeta, t=t),
            partial(bp.is_tbar_core, t=t),
            partial(enc.zeta_inverse, t=t),
        )
        for t in (3, 5, 7)
    ]
    # a signed tuple of length (t-1)/2 halves the runner tuple of a
    # self-conjugate t-core, and zeta of that core encodes back to it
    for t in (3, 5, 7):
        halves = product(range(-3, 4), repeat=(t - 1) // 2)
        checks.append(
            _bijects(
                f"zeta is invertible over signed tuples at t={t}",
                [(h, enc.gks_decode(h + (0,) + enc.conjugate_tuple(h))) for h in halves],
                lambda source, t=t: enc.zeta(source[1], t),
                partial(bp.is_tbar_core, t=t),
                lambda b, t=t: (enc.olsson_encode(b, t), enc.zeta_inverse(b, t)),
            )
        )
    for s, t in ((5, 7), (7, 11)):
        bars = frozenset(lat.enumerate_cores_by_paths("bar", s, t))
        checks.append(
            _bijects(
                f"gamma bijects self-conjugate ({s},{t})-cores onto bar-cores",
                list(lat.enumerate_cores_by_paths("selfconj", s, t)),
                partial(lat.gamma, s=s, t=t),
                bars.__contains__,
                partial(lat.gamma_inverse, s=s, t=t),
                bars,
            )
        )
    checks.append(
        _bijects(
            "big-gamma injects self-conjugate (9,15)-cores into bar-cores",
            [p for p in selfconj if cq.is_st_core(p, 9, 15)],
            partial(lat.big_gamma, s=9, t=15),
            partial(cq.is_stbar_core, s=9, t=15),
            partial(lat.big_gamma_inverse, s=9, t=15),
        )
    )
    return checks


def suite_structure(limit: int) -> list[Check]:
    """Exhaustive structural invariants at their stated scales."""
    c25 = min(limit, 25)
    c22 = min(limit, 22)
    c20 = min(limit, 20)
    labels = (
        "conjugation is an involution preserving hooks",
        "first-column hook codec round trips, padding ignored",
        "diagonal hooks recompose self-conjugate partitions",
        "t-core test equals hook divisibility",
        "bar lengths by row formula match the diagram",
        "t-bar-core test equals bar divisibility",
        "core size plus scaled quotient weight recovers each partition",
        "hooks divisible by g transfer to quotient hooks",
        "bar-core size plus scaled quotient weight recovers each bar partition",
        "bar lengths divisible by g transfer to the quotient",
        "joint core test equals the quotient criterion",
        "self-conjugacy is visible in the tower",
        "joint bar-core test equals the quotient criterion",
        "runner-surplus encoding round trips and respects conjugation",
        "runner-surplus decoding inverts encoding on zero-sum tuples",
        "diagonal hooks read directly off the runner tuple",
        "no two diagonal hooks of a trapped core sum to a forbidden multiple",
    )
    totals = [0] * len(labels)
    fails: list[list[str]] = [[] for _ in labels]

    def check(i: int, passed: bool, fmt: str, *values: object) -> None:
        # one case of labels[i]; a failure is formatted only when it happens
        totals[i] += 1
        if not passed:
            fails[i].append(fmt.format(*values))

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

    # A case that tries several moduli or pairs reports the first that fails.
    for n in range(c25 + 1):
        for p in orc.enumerate_partitions(n):
            q = pt.conjugate(p)
            self_conjugate = q == p
            hooks = pt.hook_length_multiset(p)
            check(0, pt.conjugate(q) == p and pt.hook_length_multiset(q) == hooks, "{}", p)
            beta = pt.first_column_hooks(p)
            padded = frozenset(range(3)) | {b + 3 for b in beta}
            rebuilt = pt.from_first_column_hooks(beta), pt.from_first_column_hooks(padded)
            check(1, rebuilt == (p, p), "{}", p)
            diag = pt.diagonal_hooks(p)
            want = tuple(p[i] + q[i] - 2 * i - 1 for i in range(len(p)) if p[i] > i)
            # for a self-conjugate p, want is the odd form 2 * (p[i] - i) - 1,
            # which sums to n
            recomposes = diag == want and (not self_conjugate or pt.from_diagonal_hooks(diag) == p)
            check(2, recomposes, "{}", p)
            hook_counts = Counter(hooks)
            if n <= c20:
                miss = next(
                    (t for t in range(2, 9) if pt.is_t_core(p, t) != all(h % t for h in hook_counts)), None
                )
                check(3, miss is None, "{} at t={}", p, miss)

            towers = {g: cq.decompose(p, g) for g in (2, 3, 4, 5)}
            for g, tower in towers.items():
                recovers = pt.size(tower.core) + g * tower.weight == n and cq.reconstruct(tower) == p
                check(6, recovers, "{} at g={}", p, g)
                if recovers:
                    qhooks = quotient_hooks(tower.quotient)
                    miss = next((k for k, h in enumerate(qhooks, 1) if hook_counts[g * k] != h), None)
                    check(7, miss is None, "{} at g={}, k={}", p, g, miss)
            if n <= c22:
                miss = next((
                    (s, t) for s, t in ((4, 6), (6, 9), (6, 10), (10, 15))
                    if cq.is_st_core(p, s, t) != cq.st_core_tower_check(towers[gcd(s, t)], s, t)
                ), None)
                check(10, miss is None, "{0} at ({1[0]},{1[1]})", p, miss)
                miss = next(
                    (g for g in towers if cq.selfconjugate_tower_check(towers[g]) != self_conjugate),
                    None,
                )
                check(11, miss is None, "{} at g={}", p, miss)

            for t in (2, 3, 5, 7):
                if not pt.is_t_core(p, t):
                    continue
                entries = enc.gks_encode(p, t)
                round_trips = sum(entries) == 0 and enc.gks_decode(entries) == p
                conjugates = enc.gks_encode(q, t) == enc.conjugate_tuple(entries)
                check(13, round_trips and conjugates, "{} at t={}", p, t)
                if t > 2 and self_conjugate:
                    antisymmetric = enc.is_selfconjugate_tuple(entries)
                    reads = antisymmetric and enc.diagonal_hooks_from_tuple(entries) == diag
                    check(15, reads, "{} at t={}", p, t)

    for n in range(c25 + 1):
        for b in bp.enumerate_bar_partitions(n):
            bars = bp.bar_length_multiset(b)
            check(4, len(bars) == n and bars == bp.bar_length_multiset_by_diagram(b), "{}", b)
            miss = next(
                (t for t in (3, 5, 7, 9) if bp.is_tbar_core(b, t) != all(v % t for v in bars)), None
            )
            check(5, miss is None, "{} at t={}", b, miss)

            bar_counts = Counter(bars)
            for g in (3, 5, 7):
                tower = cq.bar_decompose(b, g)
                recovers = sum(tower.core) + g * tower.weight == n and cq.bar_reconstruct(tower) == b
                check(8, recovers, "{} at g={}", b, g)
                if recovers:
                    lam0 = short_lengths(bp.bar_length_multiset(tower.quotient[0]))
                    qbars = [x + y for x, y in zip(lam0, quotient_hooks(tower.quotient[1:]))]
                    miss = next((k for k, h in enumerate(qbars, 1) if bar_counts[g * k] != h), None)
                    check(9, miss is None, "{} at g={}, k={}", b, g, miss)
            if n <= c22:
                miss = next((
                    (s, t) for s, t in ((9, 15), (15, 21), (21, 33))
                    if cq.is_stbar_core(b, s, t) != cq.is_stbar_core_by_quotient(b, s, t)
                ), None)
                check(12, miss is None, "{0} at ({1[0]},{1[1]})", b, miss)

    for t in (1, 2, 3, 4, 5):
        for entries in product(range(-2, 3), repeat=t):
            if sum(entries) == 0:
                check(14, enc.gks_encode(enc.gks_decode(entries), t) == entries, "{}", entries)

    for core in lat.enumerate_cores_by_paths("selfconj", 7, 11):
        diag = pt.diagonal_hooks(core)
        for t in (7, 11):
            check(16, all((a + b) % (2 * t) for a in diag for b in diag), "{} at t={}", core, t)

    return [_all(label, fails[i], totals[i]) for i, label in enumerate(labels)]


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
