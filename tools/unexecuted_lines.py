"""List the lines of the stcores package that no Tier-1 test executes.

    PYTHONPATH=src python3 tools/unexecuted_lines.py [PYTEST ARGS...]

Runs pytest in this process (default arguments: the Tier-1 command's
`-q --continue-on-collection-errors`) under a `sys.settrace` line trace
limited to the files of `src/stcores`, then prints `file:line` for every
executable line that no test ran. A line is executable when a code object
compiled from the file maps an instruction to it (line 0, a module's entry,
is left out). Lines that run only in a child process started by a test are
not seen.

The body of a module-level `if __name__ == "__main__":` block is exempt. The
exit status is 1 if pytest fails or any other line is listed, else 0. It
needs only the standard library and pytest. The trace makes the run about
six times slower: Tier-1 took 3.3 min traced against 30-40 s untraced on a
2-vCPU Xeon.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stcores"


def executable_lines(path: Path) -> set[int]:
    """Lines an instruction of the module or any code object within it maps to."""
    lines = set()
    codes = [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(const for const in code.co_consts if isinstance(const, CodeType))
    return lines


def main_block_lines(path: Path) -> set[int]:
    """Lines of the body of each module-level ``if __name__ == "__main__":``."""
    lines = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'":
            for stmt in node.body:
                lines.update(range(stmt.lineno, stmt.end_lineno + 1))
    return lines


def main(argv: list[str]) -> int:
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    traced: dict[str, bool] = {}

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            traced[name] = str(Path(name).resolve()) in files
        return local if traced[name] else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran = {(str(Path(name).resolve()), line) for name, line in executed}
    missed = [
        f"{path.relative_to(PACKAGE.parents[1])}:{line}"
        for name, path in files.items()
        for line in sorted(executable_lines(path) - main_block_lines(path))
        if (name, line) not in ran
    ]
    print(*missed, sep="\n")
    print(f"{len(missed)} unexecuted lines in {len(files)} files", file=sys.stderr)
    return 1 if status or missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
