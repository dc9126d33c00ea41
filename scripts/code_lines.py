#!/usr/bin/env python3
"""Count the code lines and physical lines of each module in src/torlog, and their totals.

A code line holds at least one token of code.  Blank lines, comment-only
lines and the docstrings of modules, classes and functions do not count; a
multi-line string that is not a docstring counts on every line it spans.
Each output line gives the code lines, then the physical lines (every line
of the file), then the module.

Examples::

    python3 scripts/code_lines.py                 # every module in src/torlog
    python3 scripts/code_lines.py src/torlog/splitting.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_starts(source: str) -> set:
    """The (line, column) where each module, class or function docstring begins."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_starts(source)
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _NOT_CODE or tok.start in skip:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    paths = [Path(a) for a in args] or sorted((ROOT / "src" / "torlog").glob("*.py"))
    total = physical_total = 0
    for path in paths:
        count = code_lines(path)
        physical = len(path.read_bytes().splitlines())
        total += count
        physical_total += physical
        print(f"{count:6d} {physical:6d}  {path.name}")
    print(f"{total:6d} {physical_total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
