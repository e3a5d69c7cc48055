"""Tests of the benchmark itself: pools, goldens, cross-checks and tracing.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from click.testing import CliRunner

import capture_goldens
import run
import workloads
from stcores.cli import main as stcores_main

BENCH = Path(__file__).resolve().parent
GOLDENS = json.loads((BENCH / "goldens.json").read_text())


def test_every_invocation_a_seed_can_draw_has_a_golden():
    assert {workloads.key(op) for op in workloads.pool()} <= GOLDENS.keys()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_seed_fixes_one_invocation_per_slot(name):
    slots = workloads.WORKLOADS[name]()
    for seed in range(20):
        ops = workloads.draw(name, seed)
        assert ops == workloads.draw(name, seed)
        owners = sorted(i for op in ops for i, slot in enumerate(slots) if op in slot)
        assert owners == list(range(len(slots)))


def _at_prefix(argv: workloads.Argv) -> workloads.Argv:
    i = argv.index("-N")
    return argv[: i + 1] + (str(capture_goldens.PREFIX),) + argv[i + 2 :]


def _stdout(argv: workloads.Argv) -> str:
    result = CliRunner().invoke(stcores_main, list(argv))
    assert result.exit_code == 0, result.output
    return result.output


def test_every_series_scan_and_count_invocation_agrees_with_its_second_source():
    ops = [
        _at_prefix(op)
        for op in dict.fromkeys(workloads.pool())
        if op[0] in ("series", "scan", "count")
    ]
    outputs = {workloads.key(op): _stdout(op) for op in dict.fromkeys(ops)}
    for op in ops:
        capture_goldens.cross_check(op, outputs[workloads.key(op)], outputs)


def test_cross_check_rejects_a_wrong_number():
    series = ("series", "--gf", "core", "-t", "5", "-N", "25")
    text = _stdout(series)
    wrong = text.replace("\n25,", "\n25,1", 1)
    assert wrong != text
    with pytest.raises(ValueError, match="oracle"):
        capture_goldens.cross_check(series, wrong, {})

    count = ("count", "-t", "6", "-s", "10", "-N", "25", "--format", "json")
    value = json.loads(_stdout(count))
    value["counts"][7] += 1
    with pytest.raises(ValueError, match="series"):
        capture_goldens.cross_check(count, json.dumps(value), {})

    scan = ("scan", "--gf", "core", "-t", "5", "-g", "5", "--mod", "5", "-N", "25")
    outputs = {workloads.key(series): text}
    extra = _stdout(scan).replace('"residues":[', '"residues":[0,', 1)
    with pytest.raises(ValueError, match="residues"):
        capture_goldens.cross_check(scan, extra, outputs)


def test_children_ignore_an_inherited_truncation(monkeypatch):
    monkeypatch.setenv("STCORES_TRUNCATION", "5")
    implicit = run.spawn(("series", "--gf", "core", "-t", "5"))
    explicit = run.spawn(("series", "--gf", "core", "-t", "5", "-N", "60"))
    assert implicit.exit_code == explicit.exit_code == 0
    assert implicit.stdout_sha256 == explicit.stdout_sha256


def test_tracing_keeps_stdout_and_repeats_its_counts():
    argv = ("series", "--gf", "psistar", "-s", "14", "-t", "22", "-N", "30")
    plain = run.spawn(argv)
    traces = []
    for _ in range(2):
        sample = run.spawn(argv, trace=True)
        assert sample.stdout_sha256 == plain.stdout_sha256
        traces.append(run.parse_trace(sample))
    assert traces[0]["counts"] == traces[1]["counts"]
    assert traces[0]["mul_inner_ops"] == traces[1]["mul_inner_ops"] > 0
    assert traces[0]["counts"]["lattice.enumerate_paths"][1] > 0
    for calls, total, self_s, _ in traces[0]["spans"].values():
        assert calls > 0 and 0 <= self_s <= total + 1e-6


def test_traced_pass_reports_every_per_layer_metric():
    names = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    runner = run.Runner(GOLDENS)
    ops = [("series", "--gf", "psi", "-s", "14", "-t", "22", "-N", "60")]
    metrics = run.layer_metrics(run.traced_pass(runner, ops))
    assert runner.failures == []
    assert set(metrics) | {"trace.overhead_s"} == names
    # Every monotone path of the 7 x 11 Anderson grid; C(18, 7) / 18 cores.
    assert metrics["lattice.paths_visited"] == comb(18, 7)
    assert metrics["lattice.cores_yielded"] == comb(18, 7) // 18


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census-pairs", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
