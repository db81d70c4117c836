#!/usr/bin/env python3
"""Run pytest under the standard library's ``trace`` and print, for each
module of ``src/repfreq``, the lines no test ran, then their total.

Arguments are passed to pytest as they are; with none, it runs the whole
suite. A line counts as unrun where ``python -m trace --missing`` would mark it
``>>>>>>``: it starts a statement, no traced test reached it, and it is not a
docstring. Only ``src/repfreq`` is traced, so a module that no test imports
shows every line unrun; ``trace``'s own ignore rule caches its verdict by file
base name, so there an ignored ``numpy/__init__.py`` would hide
``repfreq/__init__.py``. Code run in a child process (the CLI tests'
subprocesses) is not traced. Exits with pytest's exit code.

    python3 scripts/unrun_lines.py                       # the whole suite
    python3 scripts/unrun_lines.py tests/test_game.py -q
"""

import os
import sys
import trace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repfreq"


class OnlyPackage:
    """An ignore rule for ``trace.Trace`` that traces the files of PACKAGE alone."""

    def names(self, filename: str, modulename: str) -> bool:
        return not filename.startswith(f"{PACKAGE}{os.sep}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    import pytest

    tracer = trace.Trace(count=1, trace=0)
    tracer.ignore = OnlyPackage()
    code = tracer.runfunc(pytest.main, sys.argv[1:])
    ran = tracer.results().counts
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        # The lines trace's --missing reports on: each statement's first, docstrings left out.
        lines = trace._find_executable_linenos(str(path))
        unrun = sorted(line for line in lines if line and (str(path), line) not in ran)
        total += len(unrun)
        print(f"{path.name:<20} {len(unrun):>5}  {' '.join(map(str, unrun))}".rstrip())
    print(f"{'total':<20} {total:>5}")
    return code


if __name__ == "__main__":
    sys.exit(main())
