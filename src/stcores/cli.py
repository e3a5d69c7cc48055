"""Command line entry points: count, series, grid, bijection, scan, verify.

Structured values print as compact JSON and tables as CSV, so identical
arguments always produce byte-identical output. Invalid parameters exit
nonzero with a one-line diagnostic.
"""

from __future__ import annotations

import os
import sys
import time

from . import __version__, formats, lattice, oracle
from . import series as series_module
from . import verify as verify_module
from .bar_partitions import as_bar_partition
from .encodings import zeta, zeta_inverse
from .partitions import as_partition
from .series import TruncatedSeries

# Largest truncation `count` accepts per variant. Every count table prunes a
# partition at its first forbidden hook, bar or diagonal hook, but a modulus
# above -N prunes nothing: then the walk visits every (self-conjugate, bar)
# partition of every size up to -N, and those numbers grow exponentially in
# sqrt(N). Measured cold at each cap in that worst case on a 2-vCPU Xeon
# (Python 3.11.7, single and joint counts, e.g. `count -t 61 -N 60`, three
# runs each): straight 3.6-4.7 s, selfconj 0.9-1.0 s, bar 1.9-2.3 s.
COUNT_CAPS = {"straight": 60, "selfconj": 180, "bar": 100}

# Largest -t that `bijection --map zeta` and `zeta-inverse` accept: their work
# is linear in t even for the empty partition (a t-tuple of runner surpluses,
# (t-1)/2 residue classes). Measured cold at the cap with the empty partition
# on a 2-vCPU Xeon (Python 3.11.7, three runs each): zeta 0.6-1.0 s,
# zeta-inverse 1.3-1.8 s, under 40 MB peak RSS.
ZETA_T_CAP = 1_000_001

# Largest -s and -t that the pair maps (gamma, big-gamma and their inverses)
# accept. gamma reads its two grids as ranges, only where the path runs, so its
# work grows with s + t and the sizes of its input and output, not with s*t;
# big-gamma reaches gamma only at s/g and t/g. The cap keeps the value that
# bounded full grids of cells. Measured cold on a 2-vCPU Xeon (Python 3.11.7,
# three runs each): gamma and gamma-inverse at (2999,3001) with `--input []`
# 0.07-0.10 s and 15 MB peak RSS; big-gamma at (2991,2997) with `--input
# [2,1]`, whose middle 3-quotient component (1,) reaches gamma at (997,999),
# 0.08-0.09 s and 15 MB.
PAIR_MAP_CAP = 3001

# Largest -s and -t that `grid` accepts: it prints every cell, row by row, so
# its work and memory grow with s*t. Anderson's s x t grid is the largest; the
# diagonal-hooks and yin-yang grids have a quarter of its cells and take the
# pair maps' cap. Measured cold on a 2-vCPU Xeon (Python 3.11.7, three runs
# each): anderson at (1500,1501) 0.50-0.70 s and 117 MB peak RSS, dh at
# (3000,3001) 0.63-0.68 s and yinyang at (2999,3001) 0.55-0.71 s, 118 MB.
GRID_CAP = 1501

# Largest -N that `series`, `scan` and `verify` accept. A series product is
# quadratic in -N once its factors go dense, and the worst builder is a
# single eta quotient: core_gf(t) makes t passes over the coefficients from
# x**t up, slowest with t near -N/2. Measured cold at the cap on a 2-vCPU Xeon
# (Python 3.11.7, three runs each): `series --gf core -t 1601` 1.4-1.9 s,
# `series --gf psi -s 3202 -t 4803` 1.7 s, under 16 MB peak RSS; `verify all`
# 4.1-5.8 s, against 2.2-2.8 s at -N 40, as its bounds and congruence suites
# grow with -N.
TRUNCATION_CAP = 4000

# Per --gf: the builder and the moduli it reads. The joint builders refuse a
# census of the reduced pair (s/g, t/g) whose work passes stcores.series's cap.
GENERATING_FUNCTIONS = {
    "partition": (series_module.partition_gf, ""),
    "core": (series_module.core_gf, "t"),
    "selfconj": (series_module.selfconj_core_gf, "t"),
    "barcore": (series_module.barcore_gf, "t"),
    "psi": (series_module.psi_st_gf, "st"),
    "psistar": (series_module.psi_star_st_gf, "st"),
    "psibar": (series_module.psi_bar_st_gf, "st"),
}
# Per --variant: the count by -t alone, the joint count by -s and -t, the cap on -N.
COUNTS = {
    "straight": (oracle.core_counts, oracle.st_core_counts, COUNT_CAPS["straight"]),
    "selfconj": (oracle.selfconj_core_counts, oracle.selfconj_st_core_counts, COUNT_CAPS["selfconj"]),
    "bar": (oracle.barcore_counts, oracle.stbar_core_counts, COUNT_CAPS["bar"]),
}
# Per --kind: the grid builder and the cap on -s and -t.
GRIDS = {
    "anderson": (lattice.anderson_grid, GRID_CAP),
    "dh": (lattice.dh_grid, PAIR_MAP_CAP),
    "yinyang": (lattice.yinyang_grid, PAIR_MAP_CAP),
}
# Per --map: the map, the moduli it reads, whether it reads a straight
# partition (forward) or a bar partition, and the cap on each modulus.
MAPS = {
    "zeta": (zeta, "t", True, ZETA_T_CAP),
    "zeta-inverse": (zeta_inverse, "t", False, ZETA_T_CAP),
    "gamma": (lattice.gamma, "st", True, PAIR_MAP_CAP),
    "gamma-inverse": (lattice.gamma_inverse, "st", False, PAIR_MAP_CAP),
    "big-gamma": (lattice.big_gamma, "st", True, PAIR_MAP_CAP),
    "big-gamma-inverse": (lattice.big_gamma_inverse, "st", False, PAIR_MAP_CAP),
}


def _echo(text: str) -> None:
    # flushed at once, so stdout stays ahead of a later one-line error
    print(text, flush=True)


def _moduli(
    option: str, choice: str, reads: str, s: int | None, t: int | None, cap: int | None = None
) -> list[int]:
    """The moduli that ``choice`` reads ("s", "t", both or none), checked before any work.

    Refuses a missing one, then a given one the choice does not read, then
    one past ``cap``, each -s before -t.
    """
    given = {"s": s, "t": t}
    if any(given[name] is None for name in reads):
        # the pair maps name themselves without their option
        who = choice if option == "--map" else f"{option} {choice}"
        raise ValueError(f"{who} needs {'both -s and -t' if len(reads) == 2 else '-t'}")
    for name, value in given.items():
        if value is not None and name not in reads:
            raise ValueError(f"{option} {choice} does not read -{name}")
        if value is not None and cap is not None and value > cap:
            raise ValueError(f"-{name} {value} exceeds the cap {cap} for {option} {choice}")
    return [given[name] for name in reads]


def _check_truncation(truncation: int) -> None:
    if truncation > TRUNCATION_CAP:
        raise ValueError(f"-N {truncation} exceeds the cap {TRUNCATION_CAP}")


def _build_series(gf: str, s: int | None, t: int | None, truncation: int) -> TruncatedSeries:
    build, reads = GENERATING_FUNCTIONS[gf]
    moduli = _moduli("--gf", gf, reads, s, t)
    _check_truncation(truncation)
    return build(*moduli, truncation)


def count(t: int, s: int | None, variant: str, truncation: int, fmt: str) -> None:
    """Brute-force count table of cores by size (enumeration, not series).

    Builds partitions part by part (self-conjugate ones by distinct odd
    diagonal hooks) in one walk over every size, dropping a branch at the
    first forbidden hook or bar.
    Refuses -N above 60 (straight), 180 (selfconj) or 100 (bar); where a
    generating function exists, the series verb reaches any truncation.
    """
    single, joint, cap = COUNTS[variant]
    if truncation > cap:
        raise ValueError(f"-N {truncation} exceeds the brute-force cap {cap} for --variant {variant}")
    table = single(t, truncation) if s is None else joint(s, t, truncation)
    _echo(formats.count_table_csv(table) if fmt == "csv" else formats.count_table_json(table))


def series(gf: str, s: int | None, t: int | None, truncation: int, fmt: str) -> None:
    """Exact coefficients of a generating function up to the truncation."""
    result = _build_series(gf, s, t, truncation)
    _echo(formats.series_csv(result) if fmt == "csv" else formats.series_json(result))


def grid(kind: str, s: int, t: int) -> None:
    """Signed lattice grid as integer CSV, top row first."""
    build, cap = GRIDS[kind]
    _echo(formats.grid_csv(build(*_moduli("--kind", kind, "st", s, t, cap))))


def bijection(map_name: str, s: int | None, t: int, input_text: str) -> None:
    """Apply zeta, gamma, or big-gamma (or an inverse) to one partition."""
    apply, reads, forward, cap = MAPS[map_name]
    moduli = _moduli("--map", map_name, reads, s, t, cap)
    kind, parts = formats.parse_partition_argument(input_text)
    if forward and kind == "bar":
        raise ValueError(f"{map_name} expects a straight partition as input")
    # One canonical form per input: the kind the map reads.
    parts = as_partition(parts) if forward else as_bar_partition(parts)
    result = apply(parts, *moduli)
    _echo(formats.bar_to_json(result) if forward else formats.partition_to_json(result))


def scan(gf: str, s: int | None, t: int | None, g: int, modulus: int, truncation: int) -> None:
    """Residues r where every coefficient on gk+r is divisible by the modulus."""
    result = _build_series(gf, s, t, truncation)
    residues = series_module.congruence_scan(result, g, modulus)
    _echo(formats.scan_report_json(g, modulus, residues, truncation))


def verify(suite: str, truncation: int, report_path: str | None) -> None:
    """Run one named check suite, or "all".

    Suites: bijections, bounds, congruence, convolution, counting, examples,
    genfun, structure. Prints one PASS/FAIL line per check and exits nonzero
    on any failure.
    """
    names = sorted(verify_module.SUITES) if suite == "all" else [suite]
    if names[0] not in verify_module.SUITES:
        verify_module.run_suite(suite, truncation)  # refuses the name, runs nothing
    _check_truncation(truncation)
    # Opened first, so a path that cannot be written fails before any check.
    report = None if report_path is None else open(report_path, "w", encoding="utf-8")
    results = {}
    wall_s = {}
    for name in names:
        start = time.perf_counter()
        results[name] = verify_module.run_suite(name, truncation)
        wall_s[name] = time.perf_counter() - start
    text, failures = formats.checks_report(results)
    _echo(text)
    if report is not None:
        with report:
            report.write(formats.checks_report_json(results, wall_s, truncation) + "\n")
    if failures:
        sys.exit(1)


def _truncation(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        import argparse

        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return value


def _option(*flags: str, **settings) -> tuple[tuple[str, ...], dict]:
    """One row of the option table: argparse's flags and keyword arguments."""
    return flags, settings


# Stands for -N's default, read from STCORES_TRUNCATION on every call.
_FROM_ENVIRONMENT = object()

_VERSION = _option("--version", action="version", version=f"stcores, version {__version__}")
_TRUNCATION = _option(
    "-N",
    "--truncation",
    dest="truncation",
    type=_truncation,
    default=_FROM_ENVIRONMENT,
    help="Largest size/exponent computed (default: 60; STCORES_TRUNCATION "
    "overrides the default).",
)
_FORMAT = _option(
    "--format", dest="fmt", choices=["csv", "json"], default="csv", help="Output encoding (default: %(default)s)."
)

# Every verb's options, in the order its usage line lists them. Optional
# arguments name their dest; a positional argument is its own dest.
OPTIONS = {
    count: (
        _option("-t", dest="t", type=int, required=True, help="Modulus t."),
        _option("-s", dest="s", type=int, help="Second modulus for joint counts."),
        _option(
            "--variant", dest="variant", choices=list(COUNTS), default="straight",
            help="Which partitions to count (default: %(default)s).",
        ),
        _TRUNCATION,
        _FORMAT,
    ),
    series: (
        _option(
            "--gf", dest="gf", choices=list(GENERATING_FUNCTIONS), required=True,
            help="Which generating function to expand.",
        ),
        _option("-s", dest="s", type=int),
        _option("-t", dest="t", type=int),
        _TRUNCATION,
        _FORMAT,
    ),
    grid: (
        _option("--kind", dest="kind", choices=list(GRIDS), required=True, help="Which signed grid to print."),
        _option("-s", dest="s", type=int, required=True),
        _option("-t", dest="t", type=int, required=True),
    ),
    bijection: (
        _option(
            "--map", dest="map_name", choices=list(MAPS), required=True, help="Which correspondence to apply."
        ),
        _option("-s", dest="s", type=int, help="First parameter (pair maps only)."),
        _option("-t", dest="t", type=int, required=True),
        _option("--input", dest="input_text", required=True, help="Partition as JSON."),
    ),
    scan: (
        _option("--gf", dest="gf", choices=list(GENERATING_FUNCTIONS), required=True),
        _option("-s", dest="s", type=int),
        _option("-t", dest="t", type=int),
        _option("-g", "--progression", dest="g", type=int, required=True, help="Progression step."),
        _option("--mod", dest="modulus", type=int, required=True, help="Divisibility modulus."),
        _TRUNCATION,
    ),
    verify: (
        _option("suite"),
        _TRUNCATION,
        _option(
            "--report",
            dest="report_path",
            metavar="PATH",
            help="Also write each suite's wall time and every check's label, result "
            "and detail (with its case total) to this file as JSON.",
        ),
    ),
}
_VERBS = {verb.__name__: verb for verb in OPTIONS}


def _default(settings: dict):
    # argparse passes a string default through the option's type, so a bad
    # STCORES_TRUNCATION is refused like a bad -N.
    default = settings.get("default")
    return (os.environ.get("STCORES_TRUNCATION") or "60") if default is _FROM_ENVIRONMENT else default


def _read(argv: list[str]) -> dict | None:
    """Read a canonical call from the option table, or return None.

    Canonical is `--version` alone (printed here, as argparse would), or a
    verb, its positional arguments, then OPTION VALUE pairs: each option
    spelled as in the table, each dest at most once, no value starting with
    "-", every required option present, every value accepted by its type
    and choices. Anything else, help included, is left to `_parser`, which
    either reads it the same way or prints argparse's message.
    """
    flags, settings = _VERSION
    if tuple(argv) == flags:
        sys.stdout.write(settings["version"] + "\n")
        sys.exit(0)
    verb = _VERBS.get(argv[0]) if argv else None
    if verb is None:
        return None
    options = {"verb": verb}
    words = argv[1:]
    by_flag = {}
    for flags, settings in OPTIONS[verb]:
        if flags[0].startswith("-"):
            by_flag.update(dict.fromkeys(flags, settings))
        elif words and not words[0].startswith("-"):
            options[flags[0]] = words.pop(0)
        else:
            return None
    if len(words) % 2:
        return None
    given = {}
    for flag, text in zip(words[::2], words[1::2]):
        settings = by_flag.get(flag)
        if settings is None or settings["dest"] in given or text.startswith("-"):
            return None
        given[settings["dest"]] = text
    for flags, settings in OPTIONS[verb]:
        dest = settings.get("dest")
        if dest is None:  # a positional argument, read above
            continue
        if dest not in given and settings.get("required"):
            return None
        value = given.get(dest, _default(settings))
        if isinstance(value, str):
            try:
                value = settings.get("type", str)(value)
            except Exception:  # argparse reports it
                return None
        if "choices" in settings and value not in settings["choices"]:
            return None
        options[dest] = value
    return options


def _parser(prog_name: str):
    """The argparse parser built from the option table, with help and errors."""
    import argparse

    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__, allow_abbrev=False)
    parser.add_argument(*_VERSION[0], **_VERSION[1])
    verbs = parser.add_subparsers(title="commands", required=True, metavar="COMMAND")
    for function, options in OPTIONS.items():
        doc = function.__doc__
        verb = verbs.add_parser(
            function.__name__, help=doc.split("\n")[0], description=doc, allow_abbrev=False
        )
        verb.set_defaults(verb=function)
        for flags, settings in options:
            verb.add_argument(*flags, **{**settings, "default": _default(settings)})
    return parser


def main(args: list[str] | None = None, prog_name: str = "stcores") -> None:
    """Exact counts, series, grids, and bijections for joint core partitions."""
    argv = sys.argv[1:] if args is None else list(args)
    options = _read(argv)
    if options is None:
        options = vars(_parser(prog_name).parse_args(argv))
    verb = options.pop("verb")
    try:
        verb(**options)
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): exit 1 quietly, as click
        # did, with stdout pointed at devnull so the final flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except (ValueError, OSError) as err:
        print(f"Error: {err}", file=sys.stderr)
        sys.exit(1)


# bench/test_bench.py, the one remaining user of click, drives the CLI with
# click.testing.CliRunner, which reads the program name from `main.name` and
# calls `main.main(args=..., prog_name=...)`; these two attributes answer it
# without importing click.
main.name = "stcores"
main.main = main


if __name__ == "__main__":
    main()
