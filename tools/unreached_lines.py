"""List the executable lines of src/clustercrypt that tier-1 never runs.

Usage, from the repository root:

    python tools/unreached_lines.py [extra pytest arguments]

Runs the test suite in this process under a `sys.settrace` line tracer
that records lines only for frames whose code lives in src/clustercrypt.
The executable lines of each module are the line numbers that
`co_lines` gives for its compiled code objects, nested ones included.
Prints every executable line that never ran as `file:line  source`,
then their count. Wall-time tests can fail under the tracer; their
failures are reported and the lines are still printed. Exits 0.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clustercrypt"


def executable_lines(path: Path) -> set[int]:
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def main(argv: list[str]) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        status = pytest.main(
            ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
             str(ROOT / "tests"), *argv]
        )
    finally:
        sys.settrace(None)
    if status != 0:
        print(f"pytest exited {int(status)} under the tracer (wall-time tests may fail)")

    missing = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        ran = hits.get(str(path), set())
        for line in sorted(executable_lines(path) - ran):
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
            missing += 1
    print(f"{missing} executable lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
