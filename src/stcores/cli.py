"""Command line entry points: count, series, grid, bijection, scan, verify.

Structured values print as compact JSON and tables as CSV, so identical
arguments always produce byte-identical output. Invalid parameters exit
nonzero with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__, formats, lattice, oracle
from . import series as series_module
from . import verify as verify_module
from .bar_partitions import as_bar_partition
from .encodings import zeta, zeta_inverse
from .series import TruncatedSeries

GENERATING_FUNCTIONS = ["partition", "core", "selfconj", "barcore", "psi", "psistar", "psibar"]


def _echo(text: str) -> None:
    # flushed at once, so stdout stays ahead of a later one-line error
    print(text, flush=True)


def _build_series(
    gf: str, s: int | None, t: int | None, truncation: int
) -> TruncatedSeries:
    if gf == "partition":
        return series_module.partition_gf(truncation)
    if gf in ("core", "selfconj", "barcore"):
        if t is None:
            raise ValueError(f"--gf {gf} needs -t")
        single = {
            "core": series_module.core_gf,
            "selfconj": series_module.selfconj_core_gf,
            "barcore": series_module.barcore_gf,
        }
        return single[gf](t, truncation)
    if s is None or t is None:
        raise ValueError(f"--gf {gf} needs both -s and -t")
    joint = {
        "psi": series_module.psi_st_gf,
        "psistar": series_module.psi_star_st_gf,
        "psibar": series_module.psi_bar_st_gf,
    }
    return joint[gf](s, t, truncation)


# Largest truncation `count` accepts per variant. Every count table prunes a
# partition at its first forbidden hook, bar or diagonal hook, but a modulus
# above -N prunes nothing: then the walk visits every (self-conjugate, bar)
# partition of every size up to -N, and those numbers grow exponentially in
# sqrt(N). Measured cold at each cap in that worst case on a 2-vCPU Xeon
# (Python 3.11.7, single and joint counts, e.g. `count -t 61 -N 60`, three
# runs each): straight 3.6-4.7 s, selfconj 0.9-1.0 s, bar 1.9-2.3 s.
COUNT_CAPS = {"straight": 60, "selfconj": 180, "bar": 100}


def count(t: int, s: int | None, variant: str, truncation: int, fmt: str) -> None:
    """Brute-force count table of cores by size (enumeration, not series).

    Builds partitions part by part (self-conjugate ones by distinct odd
    diagonal hooks) in one walk over every size, dropping a branch at the
    first forbidden hook or bar.
    Refuses -N above 60 (straight), 180 (selfconj) or 100 (bar); where a
    generating function exists, the series verb reaches any truncation.
    """
    if truncation > COUNT_CAPS[variant]:
        raise ValueError(
            f"-N {truncation} exceeds the brute-force cap {COUNT_CAPS[variant]} "
            f"for --variant {variant}"
        )
    if s is None:
        single = {
            "straight": oracle.core_counts,
            "selfconj": oracle.selfconj_core_counts,
            "bar": oracle.barcore_counts,
        }
        table = single[variant](t, truncation)
    else:
        joint = {
            "straight": oracle.st_core_counts,
            "selfconj": oracle.selfconj_st_core_counts,
            "bar": oracle.stbar_core_counts,
        }
        table = joint[variant](s, t, truncation)
    _echo(formats.count_table_csv(table) if fmt == "csv" else formats.count_table_json(table))


def series(gf: str, s: int | None, t: int | None, truncation: int, fmt: str) -> None:
    """Exact coefficients of a generating function up to the truncation."""
    result = _build_series(gf, s, t, truncation)
    _echo(formats.series_csv(result) if fmt == "csv" else formats.series_json(result))


def grid(kind: str, s: int, t: int) -> None:
    """Signed lattice grid as integer CSV, top row first."""
    builders = {
        "anderson": lattice.anderson_grid,
        "dh": lattice.dh_grid,
        "yinyang": lattice.yinyang_grid,
    }
    _echo(formats.grid_csv(builders[kind](s, t)))


def bijection(map_name: str, s: int | None, t: int, input_text: str) -> None:
    """Apply zeta, gamma, or big-gamma (or an inverse) to one partition."""
    kind, parts = formats.parse_partition_argument(input_text)
    forward = not map_name.endswith("inverse")
    if forward and kind == "bar":
        raise ValueError(f"{map_name} expects a straight partition as input")
    if not forward:
        parts = as_bar_partition(parts)
    if map_name in ("zeta", "zeta-inverse"):
        result = zeta(parts, t) if forward else zeta_inverse(parts, t)
    else:
        if s is None:
            raise ValueError(f"{map_name} needs both -s and -t")
        pair_maps = {
            "gamma": lattice.gamma,
            "gamma-inverse": lattice.gamma_inverse,
            "big-gamma": lattice.big_gamma,
            "big-gamma-inverse": lattice.big_gamma_inverse,
        }
        result = pair_maps[map_name](parts, s, t)
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
    results = {}
    wall_s = {}
    for name in names:
        start = time.perf_counter()
        results[name] = verify_module.run_suite(name, truncation)
        wall_s[name] = time.perf_counter() - start
    text, failures = formats.checks_report(results)
    _echo(text)
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as out:
            out.write(formats.checks_report_json(results, wall_s, truncation) + "\n")
    if failures:
        sys.exit(1)


def _truncation(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a nonnegative integer")
    return value


def _parser(prog_name: str) -> argparse.ArgumentParser:
    # Built per call, so STCORES_TRUNCATION is read when main runs. argparse
    # passes a string default through the option's type, so a bad value in
    # the variable is refused like a bad -N.
    parser = argparse.ArgumentParser(prog=prog_name, description=main.__doc__, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"stcores, version {__version__}")
    verbs = parser.add_subparsers(title="commands", required=True, metavar="COMMAND")

    def command(function) -> argparse.ArgumentParser:
        doc = function.__doc__
        verb = verbs.add_parser(
            function.__name__, help=doc.split("\n")[0], description=doc, allow_abbrev=False
        )
        verb.set_defaults(verb=function)
        return verb

    def truncation_option(verb: argparse.ArgumentParser) -> None:
        verb.add_argument(
            "-N",
            "--truncation",
            type=_truncation,
            default=os.environ.get("STCORES_TRUNCATION") or "60",
            help="Largest size/exponent computed (default: 60; STCORES_TRUNCATION "
            "overrides the default).",
        )

    def format_option(verb: argparse.ArgumentParser) -> None:
        verb.add_argument(
            "--format",
            dest="fmt",
            choices=["csv", "json"],
            default="csv",
            help="Output encoding (default: %(default)s).",
        )

    verb = command(count)
    verb.add_argument("-t", type=int, required=True, help="Modulus t.")
    verb.add_argument("-s", type=int, help="Second modulus for joint counts.")
    verb.add_argument(
        "--variant",
        choices=["straight", "selfconj", "bar"],
        default="straight",
        help="Which partitions to count (default: %(default)s).",
    )
    truncation_option(verb)
    format_option(verb)

    verb = command(series)
    verb.add_argument(
        "--gf", choices=GENERATING_FUNCTIONS, required=True, help="Which generating function to expand."
    )
    verb.add_argument("-s", type=int)
    verb.add_argument("-t", type=int)
    truncation_option(verb)
    format_option(verb)

    verb = command(grid)
    verb.add_argument(
        "--kind", choices=["anderson", "dh", "yinyang"], required=True, help="Which signed grid to print."
    )
    verb.add_argument("-s", type=int, required=True)
    verb.add_argument("-t", type=int, required=True)

    verb = command(bijection)
    verb.add_argument(
        "--map",
        dest="map_name",
        choices=["zeta", "zeta-inverse", "gamma", "gamma-inverse", "big-gamma", "big-gamma-inverse"],
        required=True,
        help="Which correspondence to apply.",
    )
    verb.add_argument("-s", type=int, help="First parameter (pair maps only).")
    verb.add_argument("-t", type=int, required=True)
    verb.add_argument("--input", dest="input_text", required=True, help="Partition as JSON.")

    verb = command(scan)
    verb.add_argument("--gf", choices=GENERATING_FUNCTIONS, required=True)
    verb.add_argument("-s", type=int)
    verb.add_argument("-t", type=int)
    verb.add_argument("-g", "--progression", dest="g", type=int, required=True, help="Progression step.")
    verb.add_argument("--mod", dest="modulus", type=int, required=True, help="Divisibility modulus.")
    truncation_option(verb)

    verb = command(verify)
    verb.add_argument("suite")
    truncation_option(verb)
    verb.add_argument(
        "--report",
        dest="report_path",
        metavar="PATH",
        help="Also write each suite's wall time and every check's label, result "
        "and detail (with its case total) to this file as JSON.",
    )
    return parser


def main(args: list[str] | None = None, prog_name: str = "stcores") -> None:
    """Exact counts, series, grids, and bijections for joint core partitions."""
    options = vars(_parser(prog_name).parse_args(args))
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


# click.testing.CliRunner, which the tests and bench/ drive the CLI with,
# reads the program name from `main.name` and calls `main.main(args=...,
# prog_name=...)`; these two attributes answer it without importing click.
main.name = "stcores"
main.main = main


if __name__ == "__main__":
    main()
