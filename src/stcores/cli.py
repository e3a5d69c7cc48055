"""Command line entry points: count, series, grid, bijection, scan, verify.

Structured values print as compact JSON and tables as CSV, so identical
arguments always produce byte-identical output. Invalid parameters exit
nonzero with a one-line diagnostic.
"""

from __future__ import annotations

import sys
import time

import click

from . import __version__, formats, lattice, oracle
from . import series as series_module
from . import verify as verify_module
from .bar_partitions import as_bar_partition
from .encodings import zeta, zeta_inverse
from .series import TruncatedSeries

truncation_option = click.option(
    "-N",
    "--truncation",
    type=click.IntRange(min=0),
    default=60,
    show_default=True,
    envvar="STCORES_TRUNCATION",
    help="Largest size/exponent computed (STCORES_TRUNCATION overrides the default).",
)

format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "json"]),
    default="csv",
    show_default=True,
    help="Output encoding.",
)


@click.group()
@click.version_option(version=__version__, prog_name="stcores")
def main() -> None:
    """Exact counts, series, grids, and bijections for joint core partitions."""


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


@main.command()
@click.option("-t", "t", type=int, required=True, help="Modulus t.")
@click.option("-s", "s", type=int, default=None, help="Second modulus for joint counts.")
@click.option(
    "--variant",
    type=click.Choice(["straight", "selfconj", "bar"]),
    default="straight",
    show_default=True,
    help="Which partitions to count.",
)
@truncation_option
@format_option
def count(t: int, s: int | None, variant: str, truncation: int, fmt: str) -> None:
    """Brute-force count table of cores by size (enumeration, not series).

    Builds partitions part by part (self-conjugate ones by distinct odd
    diagonal hooks) in one walk over every size, dropping a branch at the
    first forbidden hook or bar.
    Refuses -N above 60 (straight), 180 (selfconj) or 100 (bar); where a
    generating function exists, the series verb reaches any truncation.
    """
    try:
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
    except ValueError as err:
        raise click.ClickException(str(err)) from None
    click.echo(formats.count_table_csv(table) if fmt == "csv" else formats.count_table_json(table))


@main.command()
@click.option(
    "--gf",
    type=click.Choice(["partition", "core", "selfconj", "barcore", "psi", "psistar", "psibar"]),
    required=True,
    help="Which generating function to expand.",
)
@click.option("-s", "s", type=int, default=None)
@click.option("-t", "t", type=int, default=None)
@truncation_option
@format_option
def series(gf: str, s: int | None, t: int | None, truncation: int, fmt: str) -> None:
    """Exact coefficients of a generating function up to the truncation."""
    try:
        result = _build_series(gf, s, t, truncation)
    except ValueError as err:
        raise click.ClickException(str(err)) from None
    click.echo(formats.series_csv(result) if fmt == "csv" else formats.series_json(result))


@main.command()
@click.option(
    "--kind",
    type=click.Choice(["anderson", "dh", "yinyang"]),
    required=True,
    help="Which signed grid to print.",
)
@click.option("-s", "s", type=int, required=True)
@click.option("-t", "t", type=int, required=True)
def grid(kind: str, s: int, t: int) -> None:
    """Signed lattice grid as integer CSV, top row first."""
    builders = {
        "anderson": lattice.anderson_grid,
        "dh": lattice.dh_grid,
        "yinyang": lattice.yinyang_grid,
    }
    try:
        result = builders[kind](s, t)
    except ValueError as err:
        raise click.ClickException(str(err)) from None
    click.echo(formats.grid_csv(result))


@main.command()
@click.option(
    "--map",
    "map_name",
    type=click.Choice(
        ["zeta", "zeta-inverse", "gamma", "gamma-inverse", "big-gamma", "big-gamma-inverse"]
    ),
    required=True,
    help="Which correspondence to apply.",
)
@click.option("-s", "s", type=int, default=None, help="First parameter (pair maps only).")
@click.option("-t", "t", type=int, required=True)
@click.option("--input", "input_text", required=True, help="Partition as JSON.")
def bijection(map_name: str, s: int | None, t: int, input_text: str) -> None:
    """Apply zeta, gamma, or big-gamma (or an inverse) to one partition."""
    try:
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
    except ValueError as err:
        raise click.ClickException(str(err)) from None
    click.echo(formats.bar_to_json(result) if forward else formats.partition_to_json(result))


@main.command()
@click.option(
    "--gf",
    type=click.Choice(["partition", "core", "selfconj", "barcore", "psi", "psistar", "psibar"]),
    required=True,
)
@click.option("-s", "s", type=int, default=None)
@click.option("-t", "t", type=int, default=None)
@click.option("-g", "--progression", "g", type=int, required=True, help="Progression step.")
@click.option("--mod", "modulus", type=int, required=True, help="Divisibility modulus.")
@truncation_option
def scan(
    gf: str, s: int | None, t: int | None, g: int, modulus: int, truncation: int
) -> None:
    """Residues r where every coefficient on gk+r is divisible by the modulus."""
    try:
        result = _build_series(gf, s, t, truncation)
        residues = series_module.congruence_scan(result, g, modulus)
    except ValueError as err:
        raise click.ClickException(str(err)) from None
    click.echo(formats.scan_report_json(g, modulus, residues, truncation))


@main.command()
@click.argument("suite")
@truncation_option
@click.option(
    "--report",
    "report_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Also write each suite's wall time and every check's label, result "
    "and detail (with its case total) to this file as JSON.",
)
def verify(suite: str, truncation: int, report_path: str | None) -> None:
    """Run one named check suite, or "all".

    Suites: bijections, bounds, congruence, convolution, counting, examples,
    genfun, structure. Prints one PASS/FAIL line per check and exits nonzero
    on any failure.
    """
    names = sorted(verify_module.SUITES) if suite == "all" else [suite]
    results = {}
    wall_s = {}
    try:
        for name in names:
            start = time.perf_counter()
            results[name] = verify_module.run_suite(name, truncation)
            wall_s[name] = time.perf_counter() - start
    except ValueError as err:
        raise click.ClickException(str(err)) from None
    text, failures = formats.checks_report(results)
    click.echo(text)
    if report_path is not None:
        try:
            with open(report_path, "w", encoding="utf-8") as out:
                out.write(formats.checks_report_json(results, wall_s, truncation) + "\n")
        except OSError as err:
            raise click.ClickException(str(err)) from None
    if failures:
        sys.exit(1)


if __name__ == "__main__":
    main()
