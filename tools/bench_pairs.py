"""Paired benchmark runs of a parent revision against the working tree.

    python3 tools/bench_pairs.py --parent REV --out BENCH_6.json [--first-seed S]

Exports REV into a temporary directory with `git archive`, then replaces
the export's bench/ and BENCHMARK.json by the working tree's, so one harness
measures both sides' src/ and a change to the benchmark itself can be paired
against its parent. For every workload in BENCHMARK.json it runs `python3
bench/run.py --workload W --seed N --seconds 30 --trace 0` once in that copy
and once in the working tree for each of 10 seeds from S on, one process at
a time, alternating which side runs first. Each run's last stdout line is
its result; the script reads the end-to-end metrics from it and writes, per
workload and metric, the median and quartiles of both sides, the number of
pairs the change wins and loses (by the metric's direction in
BENCHMARK.json), and the change's median over the parent's. The report also
records the Python version, the CPU count, both commits, whether the
harness differs from REV's, the seeds and every run.

The script only launches bench/run.py; it imports and edits nothing under
the working tree's bench/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SECONDS = 30
PAIRS = 10
# What both sides run from the working tree: the benchmark and its spec.
HARNESS = ("bench", "BENCHMARK.json")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest``, without touching the repository."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=REPO, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def use_harness(tree: Path) -> None:
    """Replace the harness files in ``tree`` by the working tree's."""
    shutil.rmtree(tree / "bench", ignore_errors=True)
    shutil.copytree(REPO / "bench", tree / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tree / "BENCHMARK.json")


def bench_once(tree: Path, workload: str, seed: int) -> dict:
    """One bench/run.py run in ``tree``; its parsed result line plus the wall time."""
    proc = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"bench/run.py failed in {tree} ({workload}, seed {seed}): {proc.stderr[-500:]}"
        )
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict[str, dict]:
    summary = {}
    for name, direction in better.items():
        parent = [run["parent"]["metrics"][name] for run in runs]
        change = [run["change"]["metrics"][name] for run in runs]
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
        p_stats, c_stats = quartiles(parent), quartiles(change)
        summary[name] = {
            "better": direction,
            "parent": p_stats,
            "change": c_stats,
            "change_wins": wins,
            "change_losses": losses,
            "change_over_parent": c_stats["median"] / p_stats["median"],
            "parent_iqr": p_stats["q3"] - p_stats["q1"],
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="Revision to compare against.")
    parser.add_argument("--out", required=True, type=Path, help="JSON report to write.")
    parser.add_argument("--first-seed", type=int, default=601)
    args = parser.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent_commit = git("rev-parse", args.parent)
    head = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    harness_changed = (
        subprocess.run(["git", "diff", "--quiet", parent_commit, "--", *HARNESS], cwd=REPO).returncode
        != 0
    )

    report: dict = {
        "script": "tools/bench_pairs.py",
        "command": f"python3 bench/run.py --workload W --seed N --seconds {SECONDS} --trace 0",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "parent_commit": parent_commit,
        "change_commit": head,
        "change_has_uncommitted_edits": dirty,
        "harness": "the working tree's bench/ and BENCHMARK.json, on both sides",
        "harness_differs_from_parent": harness_changed,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export(parent_commit, parent_tree)
        use_harness(parent_tree)
        trees = {"parent": parent_tree, "change": REPO}
        for workload in workloads:
            runs = []
            seeds = list(range(args.first_seed, args.first_seed + PAIRS))
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                run: dict = {"seed": seed, "first": order[0]}
                for side in order:
                    run[side] = bench_once(trees[side], workload, seed)
                runs.append(run)
                print(
                    f"{workload} seed {seed}: "
                    + ", ".join(
                        f"{side} wall_s {run[side]['metrics']['wall_s']:.3f}" for side in order
                    ),
                    file=sys.stderr,
                )
            report["workloads"][workload] = {
                "seeds": seeds,
                "all_correct": all(run[side]["correct"] for run in runs for side in trees),
                "metrics": summarize(runs, better),
                "runs": runs,
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
