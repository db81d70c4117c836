import difflib
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_script(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_comparative_statics_script():
    out = run_script("comparative_statics.py", "--points", "2")
    assert "product choice: buyer threshold" in out
    assert "fiscal policy" in out


def test_tail_bound_grid_script():
    out = run_script("tail_bound_grid.py", "--reps", "1000")
    assert out.count("yes") == 24  # every cell respects the bound
    assert " NO " not in out


def test_frequency_experiment_script():
    out = run_script("frequency_experiment.py", "--reps", "100")
    assert "incentive slack" in out
    assert "VIOLATED" not in out


def test_cli_digest_script_prints_the_same_lines_on_every_run():
    first = run_script("cli_digest.py", "--games", "product_choice", "random")
    assert run_script("cli_digest.py", "--games", "product_choice", "random") == first
    lines = first.splitlines()
    fixture_lines = [line for line in lines if " random_" not in line]
    # game calls, witness-target calls, trailing calls, tail grid, absorbing game
    assert len(fixture_lines) == 18 + 6 + 24 + 12 + 2
    assert all(line.startswith("0 ") for line in fixture_lines)
    # analyze, fstar and fstar --equality on each of the 40 random games, and
    # in-set-a wherever the equality witness exists
    assert 3 * 40 < len(lines) - len(fixture_lines) <= 4 * 40
    assert sum(line.startswith("0 ") and " analyze random_" in line for line in lines) == 40


def _assert_digest_matches(golden_file: str, *args: str) -> None:
    # The file's "#" lines name the numpy, Python and machine it was made on;
    # a mismatch on another host is a finding to report, not a reason to
    # loosen this.
    golden = (GOLDEN / golden_file).read_text(encoding="utf-8").splitlines()
    expected = [line for line in golden if not line.startswith("#")]
    actual = run_script("cli_digest.py", *args).splitlines()
    if actual != expected:
        pinned = dict(line[2:].split(" ", 1) for line in golden if line.startswith("# "))
        running = {"numpy": np.__version__, "python": platform.python_version(), "machine": platform.machine()}
        hosts = [f"{key}: pinned {pinned.get(key)}, running {value}" for key, value in running.items()]
        moved = difflib.unified_diff(expected, actual, "golden", "now", lineterm="", n=0)
        pytest.fail("\n".join(["CLI digest moved (- golden, + now):", *moved, *hosts]))


def test_cli_digest_matches_the_committed_golden_lines():
    # Every CLI answer on the default call set, byte for byte: a change meant
    # to keep every output must leave these lines as they are.
    _assert_digest_matches("cli_digest.txt")


def test_wide_cli_digest_matches_the_committed_golden_lines():
    # The same on the wide games, 8 and 9 actions a side, which no other
    # committed output covers. Two in-set-a lines record exit 1 at the pivot
    # cap; a change that lifts it moves them.
    _assert_digest_matches("cli_digest_wide.txt", "--games", "wide")


SYNTHETIC_MODULE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


class Box:
    """Class docstring."""

    size = 1

    def area(self):
        """Method docstring,
        over two lines."""
        return (
            self.size
            * math.pi
        )


def loose():
    "A one-line docstring."
    text = """a string, not a docstring,
    over two lines"""
    return text
'''


MODULES = sorted(path.name for path in (SCRIPTS.parent / "src" / "repfreq").glob("*.py"))


def _counts(lines: list[str]) -> dict[str, int]:
    """The count on each "name count ..." line of a report."""
    return {name: int(count) for name, count, *_ in map(str.split, lines)}


def test_src_lines_counts_lines_that_hold_code(tmp_path):
    # import, class, size, def area, the four lines of return (...), def
    # loose, the two lines of text, return text: 12. Docstrings, comments and
    # blank lines do not count.
    module = tmp_path / "synthetic.py"
    module.write_text(SYNTHETIC_MODULE, encoding="utf-8")
    assert _counts(run_script("src_lines.py", str(module)).splitlines()) == {"synthetic.py": 12, "total": 12}
    counts = _counts(run_script("src_lines.py").splitlines())
    assert list(counts) == [*MODULES, "total"]
    assert sum(counts.values()) == 2 * counts["total"]


def test_unrun_lines_lists_what_one_test_file_leaves_unrun():
    # Only the attainability tests run, so most of the simulator is unrun.
    # pytest's own lines come first, then a line per module and the total.
    out = run_script("unrun_lines.py", str(SCRIPTS.parent / "tests" / "test_attain.py"), "-q", "-p", "no:cacheprovider")
    counts = _counts(out.splitlines()[-len(MODULES) - 1 :])
    assert list(counts) == [*MODULES, "total"]
    assert counts["simulate.py"] > 0
    assert sum(counts.values()) == 2 * counts["total"]
