"""stcores benchmark: cold CLI invocations, checked against golden outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one `stcores` process at a time (a closed loop), each in a
fresh interpreter started by launch.py from this checkout's `src/`, because a
CLI user pays for every start and every empty cache. The seed draws the
workload's invocations (workloads.py). Every invocation's stdout must match
its golden sha256 digest (goldens.json) and its exit code must be 0;
anything else counts as failed.

--trace 0 repeats the invocation list in whole rounds for about S seconds
and reports:
  wall_s             wall time of the list, the mean over the rounds;
  answers_per_cpu_s  exact integers printed per CPU second of the children,
                     totalled over the rounds;
  setup_s            median cold start of `stcores --version`, sampled
                     before every invocation;
  peak_rss_mb        largest child resident set.
The three timings are scaled to a reference speed of the host, measured by a
fixed pure-Python child run before every invocation (see REFERENCE_CODE);
the unscaled values are in the stderr report.
--trace 1 runs the list once untraced and twice traced (tracer.py) and
reports per-layer counts and self times, tracing overhead, and each layer's
share of self time. The two traced passes must produce identical work
counts.

A human-readable report goes to stderr; the last stdout line is the result
as JSON: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LAUNCH = BENCH / "launch.py"
GOLDENS = BENCH / "goldens.json"

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150.0

# The host's speed drifts: on a 2-vCPU Intel Xeon (2.1 GHz) guest the same
# invocation list ran up to 1.4x slower in one 35 s run than in the next,
# with CPU time growing as wall time does and steal near 0. So every
# invocation is preceded by a reference run, a fresh interpreter running
# REFERENCE_CODE, which calls no stcores code, and the timings are reported
# scaled to a host on which the reference run takes REFERENCE_S. A change to
# the program moves the scaled timings by the same factor as the raw ones.
REFERENCE_CODE = """
acc = 0
table = {}
for i in range(60000):
    key = (i % 251, i * i % 97)
    table[key] = table.get(key, 0) + (i ^ 0x5A5A)
    acc += (i * 2654435761) % 1000003
"""
REFERENCE_S = 0.140


SERIES_BUILDERS = (
    "partition_gf",
    "core_gf",
    "selfconj_core_gf",
    "barcore_gf",
    "psi_st_gf",
    "psi_star_st_gf",
    "psi_bar_st_gf",
    "product_term",
)
CENSUS = ("enumerate_st_cores_by_paths", "enumerate_selfconj_by_dh", "enumerate_barcores_by_yy")
BIJECTIONS = ("gamma", "gamma_inverse", "big_gamma", "big_gamma_inverse")
TOWERS = ("decompose", "reconstruct", "bar_decompose", "bar_reconstruct")
SUITES = (
    "bijections",
    "bounds",
    "congruence",
    "convolution",
    "counting",
    "examples",
    "genfun",
    "structure",
)
REPEATED_COUNTS = (
    "series.mul.inner_ops",
    "lattice.paths_visited",
    "oracle.partitions_enumerated",
    "oracle.predicate_calls",
)


def child_env() -> dict[str, str]:
    """Hermetic child environment: no inherited STCORES_* (STCORES_TRUNCATION
    changes the default -N) or PYTHON* settings, and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("STCORES_", "PYTHON"))}
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Sample:
    argv: workloads.Argv
    wall_s: float
    cpu_s: float
    rss_kb: int
    exit_code: int
    stdout_sha256: str
    stderr: str


def spawn(argv: workloads.Argv, trace: bool = False) -> Sample:
    """Run one cold stcores process; CPU and peak RSS come from wait4."""
    cmd = [sys.executable, str(LAUNCH)] + (["--trace"] if trace else []) + list(argv)
    start = perf_counter()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    chunks: dict[object, list[bytes]] = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as selector:
            for stream in chunks:
                selector.register(stream, selectors.EVENT_READ)
            while selector.get_map():
                events = selector.select(timeout=start + CHILD_TIMEOUT_S - perf_counter())
                if not events:
                    proc.kill()
                    break
                for key, _ in events:
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        selector.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Sample(
        argv=argv,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        exit_code=proc.returncode,
        stdout_sha256=hashlib.sha256(b"".join(chunks[proc.stdout])).hexdigest(),
        stderr=b"".join(chunks[proc.stderr]).decode(errors="replace"),
    )


class Runner:
    """Spawns invocations and checks each one against its golden digest."""

    def __init__(self, goldens: dict[str, dict]):
        self.goldens = goldens
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, argv: workloads.Argv, trace: bool = False) -> Sample:
        sample = spawn(argv, trace)
        self.attempted += 1
        want = self.goldens[workloads.key(argv)]["sha256"]
        if sample.exit_code != 0 or sample.stdout_sha256 != want:
            tail = sample.stderr.strip().splitlines()[-1:] or [""]
            self.failures.append(
                f"{workloads.key(argv)}: exit {sample.exit_code}, "
                f"stdout {'matches' if sample.stdout_sha256 == want else 'differs from'} golden; {tail[0]}"
            )
        return sample

    def answers(self, argv: workloads.Argv) -> int:
        return self.goldens[workloads.key(argv)]["answers"]


def reference_run() -> float:
    """Wall seconds of one fresh interpreter running REFERENCE_CODE."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", REFERENCE_CODE],
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )
    return perf_counter() - start


def measure(runner: Runner, ops: list[workloads.Argv], seconds: float) -> dict:
    """Repeat the invocation list in whole rounds for about ``seconds``.

    A reference run and a cold `stcores --version` precede every
    invocation, so the reference and set-up samples span the same stretch of
    time as the workload's. Wall time and answers per CPU second are totals
    over every round: the host's speed changes from second to second, and a
    total over the whole run varies less from run to run than a median of a
    few long invocations does. All three timings are scaled by REFERENCE_S
    over the reference time during the invocations: each invocation is
    bracketed by the reference runs before and after it, and weighted by
    its wall time.
    """
    samples: dict[workloads.Argv, list[Sample]] = {op: [] for op in ops}
    setup = []
    references = []
    walls = []
    round_walls = []
    start = perf_counter()
    deadline = start + seconds
    while True:
        round_start = perf_counter()
        for op in ops:
            references.append(reference_run())
            setup.append(runner.run(workloads.VERSION).wall_s)
            samples[op].append(runner.run(op))
            walls.append(samples[op][-1].wall_s)
        now = perf_counter()
        round_walls.append(sum(samples[op][-1].wall_s for op in ops))
        # At least MIN_ROUNDS rounds, so a list of long invocations is still
        # averaged over most of a minute; after that, stop where the expected
        # end is closest to the deadline. Never start a round that would end
        # past twice the budget.
        if len(round_walls) >= MIN_ROUNDS and now + (now - round_start) / 2 >= deadline:
            break
        if now + (now - round_start) > start + 2 * seconds:
            break
    references.append(reference_run())
    rounds = len(round_walls)
    cpu_s = sum(s.cpu_s for ss in samples.values() for s in ss)
    answers = rounds * sum(runner.answers(op) for op in ops)
    peak_kb = max(s.rss_kb for ss in samples.values() for s in ss)
    print(f"rounds: {rounds}; list wall s per round: "
          + " ".join(f"{w:.3f}" for w in round_walls), file=sys.stderr)
    print(f"{'mean wall s':>11} {'cpu s':>7} {'answers':>7}  invocation", file=sys.stderr)
    for op in ops:
        print(
            f"{statistics.mean(s.wall_s for s in samples[op]):11.4f} "
            f"{statistics.mean(s.cpu_s for s in samples[op]):7.4f} "
            f"{runner.answers(op):7d}  stcores {workloads.key(op)}",
            file=sys.stderr,
        )
    raw = {
        "wall_s": sum(round_walls) / rounds,
        "answers_per_cpu_s": answers / cpu_s,
        "setup_s": statistics.median(setup),
    }
    bracketed = zip(walls, references, references[1:])
    reference = sum(w * (before + after) / 2 for w, before, after in bracketed) / sum(walls)
    scale = REFERENCE_S / reference
    print(f"reference run: {reference:.4f} s from {len(references)} runs, scale {scale:.4f}; "
          "unscaled: " + json.dumps(raw), file=sys.stderr)
    return {
        "wall_s": raw["wall_s"] * scale,
        "answers_per_cpu_s": raw["answers_per_cpu_s"] / scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": peak_kb / 1024,
    }


def parse_trace(sample: Sample) -> dict | None:
    for line in reversed(sample.stderr.splitlines()):
        if line.startswith(tracer.MARK):
            return json.loads(line[len(tracer.MARK) :])
    return None


def traced_pass(runner: Runner, ops: list[workloads.Argv]) -> dict:
    """One traced run of the list, with spans and counts summed over it."""
    spans: dict[str, list] = {}
    counts: dict[str, list] = {}
    totals = {"wall_s": 0.0, "main_s": 0.0, "cli_self_s": 0.0, "mul_inner_ops": 0, "checks": 0}
    import_s = []
    for op in ops:
        failed_before = len(runner.failures)
        sample = runner.run(op, trace=True)
        report = parse_trace(sample)
        if report is None:
            if len(runner.failures) == failed_before:
                runner.failures.append(f"{workloads.key(op)}: no trace report")
            continue
        for key, stat in report["spans"].items():
            acc = spans.setdefault(key, [0, 0.0, 0.0, 0])
            for i, v in enumerate(stat):
                acc[i] += v
        for key, cell in report["counts"].items():
            acc = counts.setdefault(key, [0, 0])
            acc[0] += cell[0]
            acc[1] += cell[1]
        totals["wall_s"] += sample.wall_s
        totals["main_s"] += report["main_s"]
        totals["cli_self_s"] += report["main_s"] - report["root_child_s"]
        totals["mul_inner_ops"] += report["mul_inner_ops"]
        if op[0] == "verify":
            totals["checks"] += runner.answers(op)
        import_s.append(report["import_s"])
    totals["import_s"] = statistics.median(import_s)
    return {"spans": spans, "counts": counts, **totals}


def layer_self_s(spans: dict[str, list], layer: str) -> float:
    return sum((stat[2] for key, stat in spans.items() if key.startswith(layer + ".")), 0.0)


def layer_metrics(p: dict) -> dict[str, float]:
    spans, counts = p["spans"], p["counts"]

    def span(layer: str, names, field: int) -> float:
        return sum(spans.get(f"{layer}.{n}", (0, 0.0, 0.0, 0))[field] for n in names)

    def count(key: str, field: int) -> int:
        return counts.get(key, (0, 0))[field]

    paths = count("lattice.enumerate_paths", 1)
    cores = span("lattice", CENSUS, 3)
    predicate_calls = count("partitions.is_t_core", 0) + count("bar_partitions.is_tbar_core", 0)
    accepted = count("partitions.is_t_core", 1) + count("bar_partitions.is_tbar_core", 1)
    m = {
        "series.mul.calls": span("series", ["TruncatedSeries.__mul__"], 0),
        "series.mul.inner_ops": p["mul_inner_ops"],
        "series.mul.self_s": span("series", ["TruncatedSeries.__mul__"], 2),
        "series.product_term.calls": span("series", ["product_term"], 0),
        "series.builders.self_s": span("series", SERIES_BUILDERS, 2),
        "series.scan.self_s": span("series", ["congruence_scan"], 2),
        "lattice.census.self_s": span("lattice", CENSUS, 2),
        "lattice.paths_visited": paths,
        "lattice.cores_yielded": cores,
        "lattice.path_yield": cores / paths if paths else 0.0,
        "lattice.bijection.self_s": span("lattice", BIJECTIONS, 2),
        "core_quotient.calls": span("core_quotient", TOWERS, 0),
        "core_quotient.self_s": span("core_quotient", TOWERS, 2),
        "encodings.self_s": layer_self_s(spans, "encodings"),
        "oracle.partitions_enumerated": count("oracle.enumerate_partitions", 1)
        + count("oracle.enumerate_self_conjugate", 1)
        + count("bar_partitions.enumerate_bar_partitions", 1),
        "oracle.predicate_calls": predicate_calls,
        "oracle.accept_ratio": accepted / predicate_calls if predicate_calls else 0.0,
        "oracle.self_s": layer_self_s(spans, "oracle"),
        "partitions.self_s": layer_self_s(spans, "partitions"),
        "bar_partitions.self_s": layer_self_s(spans, "bar_partitions"),
    }
    for suite in SUITES:
        m[f"verify.{suite}.wall_s"] = span("verify", [f"suite_{suite}"], 1)
    m["verify.checks"] = p["checks"]
    m["cli.import_s"] = p["import_s"]
    m["formats.self_s"] = layer_self_s(spans, "formats")
    return m


def layer_shares(p: dict) -> dict[str, float]:
    """Each layer's self time as a share of the time spent in the CLI's main()."""
    shares = {layer: layer_self_s(p["spans"], layer) / p["main_s"] for layer in tracer.LAYERS}
    shares["cli"] = p["cli_self_s"] / p["main_s"]
    return shares


def design_checks(workload: str, shares: dict[str, float]) -> list[tuple[str, bool]]:
    """The layer mix each workload was built for, checked on every traced run."""
    if workload == "series-large":
        return [("series >= 80% of self time", shares["series"] >= 0.80)]
    if workload == "census-pairs":
        return [
            ("lattice >= 80% of self time", shares["lattice"] >= 0.80),
            ("series <= 5% of self time", shares["series"] <= 0.05),
        ]
    oracle = shares["oracle"]
    rest = max(v for k, v in shares.items() if k != "oracle")
    return [("oracle (with its predicates) is the largest share", oracle > rest)]


def run_traced(runner: Runner, workload: str, ops: list[workloads.Argv]) -> tuple[dict, bool]:
    untraced = sum(runner.run(op).wall_s for op in ops)
    passes = [traced_pass(runner, ops), traced_pass(runner, ops)]
    metrics = [layer_metrics(p) for p in passes]
    repeat_ok = True
    for name in REPEATED_COUNTS:
        if metrics[0][name] != metrics[1][name]:
            repeat_ok = False
            print(f"count {name} differs between traced passes: "
                  f"{metrics[0][name]} vs {metrics[1][name]}", file=sys.stderr)
    result = {}
    for name, first in metrics[0].items():
        values = [first, metrics[1][name]]
        result[name] = first if isinstance(first, int) else statistics.mean(values)
    traced = statistics.mean(p["wall_s"] for p in passes)
    result["trace.overhead_s"] = traced - untraced
    print(f"wall_s untraced {untraced:.4f}, traced {traced:.4f}", file=sys.stderr)
    shares = layer_shares(passes[0])
    print("self-time share per layer:", file=sys.stderr)
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:15s} {share:7.2%}", file=sys.stderr)
    for label, ok in design_checks(workload, shares):
        print(f"layer-share check {'PASS' if ok else 'FAIL'}: {label}", file=sys.stderr)
    return result, repeat_ok


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def machine_record(args: argparse.Namespace) -> dict:
    cpu_model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_at_start": os.getloadavg(),
        "git_commit": git_commit(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "stcores" / "cli.py").is_file():
        print(f"bench: no stcores sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    goldens = json.loads(GOLDENS.read_text())
    ops = workloads.draw(args.workload, args.seed)
    missing = [workloads.key(op) for op in ops + [workloads.VERSION] if workloads.key(op) not in goldens]
    if missing:
        print(f"bench: no golden output for {missing}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine_record(args)), file=sys.stderr)

    runner = Runner(goldens)
    # Untimed launch: compiles the bytecode cache of a fresh checkout.
    runner.run(workloads.VERSION)
    repeat_ok = True
    if args.trace:
        metrics, repeat_ok = run_traced(runner, args.workload, ops)
    else:
        metrics = measure(runner, ops, args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"error_rate: {failed / runner.attempted:.4f} ({failed} of {runner.attempted})", file=sys.stderr)
    result = {
        "correct": failed == 0 and repeat_ok,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
