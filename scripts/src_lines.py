#!/usr/bin/env python3
"""Print the code lines of each module of ``src/repfreq``, then their total.

A code line holds a token other than a comment, once module, class and
function docstrings are dropped: blank lines, comment lines and docstrings do
not count, and an expression spread over several lines counts each line that
holds one of its tokens. Paths given on the command line are counted instead
of ``src/repfreq/*.py``.

    python3 scripts/src_lines.py
    python3 scripts/src_lines.py src/repfreq/simulate.py
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repfreq"
# Tokens that carry no code of their own.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, help="modules to count (default: src/repfreq/*.py)")
    paths = parser.parse_args().paths or sorted(SRC.glob("*.py"))
    counts = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in paths}
    for name, count in counts.items():
        print(f"{name:<20} {count:>6}")
    print(f"{'total':<20} {sum(counts.values()):>6}")


if __name__ == "__main__":
    main()
