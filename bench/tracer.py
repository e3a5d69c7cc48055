"""Spans and counters around stcores' public functions, for one CLI process.

launch.py installs this after importing `stcores.cli` and before calling the
CLI. Every public function defined in a layer module is replaced, in every
stcores namespace that holds it (module globals and module-level dicts such
as `verify.SUITES`), by a wrapper that records a span. Self time is a span's
duration minus the durations of the spans it encloses. Functions called
hundreds of thousands of times per process are counted but get no span, so
their time stays in the enclosing span. Everything is kept in memory and
written to stderr as one marked JSON line at exit.
"""

from __future__ import annotations

import atexit
import functools
import inspect
import json
import sys
from time import perf_counter

MARK = "stcores-bench-trace "

LAYERS = (
    "partitions",
    "bar_partitions",
    "core_quotient",
    "encodings",
    "lattice",
    "series",
    "oracle",
    "verify",
    "formats",
)

# Measured per `verify all -N 40` or per census invocation: each of these is
# called or yields 10^4 to 4*10^6 times, where a span would cost more than
# the function itself.
COUNT_ONLY = {
    "partitions": {
        "conjugate",
        "first_column_hooks",
        "from_first_column_hooks",
        "hook_length_multiset",
        "is_self_conjugate",
        "is_t_core",
        "size",
    },
    "bar_partitions": {"enumerate_bar_partitions", "is_tbar_core"},
    "oracle": {"enumerate_partitions", "enumerate_self_conjugate"},
    "lattice": {
        "anderson_grid",
        "anderson_path_to_core",
        "dh_grid",
        "dh_path_to_selfconj",
        "enumerate_paths",
        "heights_to_path",
        "path_heights",
        "yinyang_grid",
        "yy_path_to_barcore",
    },
}

PREDICATES = {"partitions.is_t_core", "bar_partitions.is_tbar_core"}


class Tracer:
    def __init__(self) -> None:
        # spans[key] = [calls, total_s, self_s, yields]
        self.spans: dict[str, list] = {}
        # counts[key] = [calls, yields or accepted results]
        self.counts: dict[str, list[int]] = {}
        self.mul_inner_ops = 0
        # Time covered by child spans, one entry per open span plus the root.
        self.stack = [0.0]

    def span(self, key: str, f):
        stat = self.spans.setdefault(key, [0, 0.0, 0.0, 0])
        stack = self.stack

        if inspect.isgeneratorfunction(f):

            @functools.wraps(f)
            def gen_wrapper(*args, **kwargs):
                stat[0] += 1
                it = f(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        d = perf_counter() - t0
                        stat[1] += d
                        stat[2] += d - stack.pop()
                        stack[-1] += d
                    stat[3] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stat[1] += d
                stat[2] += d - stack.pop()
                stack[-1] += d

        return wrapper

    def count(self, key: str, f):
        cell = self.counts.setdefault(key, [0, 0])

        if inspect.isgeneratorfunction(f):

            @functools.wraps(f)
            def gen_counter(*args, **kwargs):
                cell[0] += 1
                for item in f(*args, **kwargs):
                    cell[1] += 1
                    yield item

            return gen_counter

        if key in PREDICATES:

            @functools.wraps(f)
            def predicate_counter(*args, **kwargs):
                result = f(*args, **kwargs)
                cell[0] += 1
                if result:
                    cell[1] += 1
                return result

            return predicate_counter

        @functools.wraps(f)
        def counter(*args, **kwargs):
            cell[0] += 1
            return f(*args, **kwargs)

        return counter

    def mul(self, f):
        """TruncatedSeries.__mul__ as a span that also counts inner-loop steps."""
        timed = self.span("series.TruncatedSeries.__mul__", f)

        def mul(left, right):
            n = min(len(left.coeffs), len(right.coeffs))
            self.mul_inner_ops += sum(n - i for i, a in enumerate(left.coeffs[:n]) if a)
            return timed(left, right)

        return mul

    def install(self) -> None:
        modules = {name: sys.modules[f"stcores.{name}"] for name in LAYERS}
        replace = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                key = f"{layer}.{name}"
                hot = name in COUNT_ONLY.get(layer, ())
                replace[id(obj)] = (self.count if hot else self.span)(key, obj)
        for name, module in list(sys.modules.items()):
            if name != "stcores" and not name.startswith("stcores."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in replace:
                            value[k] = replace[id(v)]
        series_class = modules["series"].TruncatedSeries
        series_class.__mul__ = self.mul(series_class.__mul__)

    def report(self, import_s: float, main_s: float) -> str:
        return MARK + json.dumps(
            {
                "import_s": import_s,
                "main_s": main_s,
                "root_child_s": self.stack[0],
                "spans": {k: v for k, v in self.spans.items() if v[0]},
                "counts": {k: v for k, v in self.counts.items() if v[0]},
                "mul_inner_ops": self.mul_inner_ops,
            },
            separators=(",", ":"),
        )


def install(import_s: float) -> None:
    """Trace this process from now on and report at interpreter exit."""
    tracer = Tracer()
    tracer.install()
    start = perf_counter()

    def write() -> None:
        sys.stderr.write("\n" + tracer.report(import_s, perf_counter() - start) + "\n")
        sys.stderr.flush()

    atexit.register(write)
