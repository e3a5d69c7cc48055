"""Start the stcores CLI from this checkout's sources in a fresh interpreter.

    python3 bench/launch.py [--trace] STCORES-ARGS...

Imports `stcores.cli` from `src/` next to this directory, refusing any other
copy, and runs it as the `stcores` console script would. With `--trace`, the
tracer in this directory wraps the library first and reports spans and
counts to stderr at exit; stdout is unchanged.
"""

import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    args = sys.argv[1:]
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import stcores.cli

    import_s = perf_counter() - t0
    if not Path(stcores.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"launch: imported stcores from {stcores.cli.__file__}, not from {SRC}")
    if trace:
        import tracer

        tracer.install(import_s)
    stcores.cli.main(args, prog_name="stcores")


if __name__ == "__main__":
    main()
