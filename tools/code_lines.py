#!/usr/bin/env python3
"""Count the lines of ``src/**/*.py`` that carry code.

    python3 tools/code_lines.py                  # per file, then total
    python3 tools/code_lines.py --parent ../parent   # per-file deltas

A code line is a physical line that holds at least one token of code:
blank lines, comment lines and the lines of docstrings (the first
statement of a module, class or function, when it is a string literal)
do not count.  Every line of a multi-line expression counts, and so
does every line of a string literal that is not a docstring.  Deleting
comments or docstrings therefore leaves the count unchanged, unlike a
raw line count.  The counted tree is the ``src/`` of the checkout this
script lives in; ``--parent DIR`` counts ``DIR/src`` as well and prints
the files whose counts differ, with the change in each and in total.
Only the standard library is used; nothing is written to disk.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, Tuple

#: Tokens that carry no code of their own.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}

_Span = Tuple[Tuple[int, int], Tuple[int, int]]


def _docstring_spans(tree: ast.AST) -> List[_Span]:
    """``((line, col), (end_line, end_col))`` of every docstring."""
    spans = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            spans.append(((first.lineno, first.col_offset),
                          (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that carry code."""
    spans = _docstring_spans(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if token.type == tokenize.STRING and any(
            start <= token.start < end for start, end in spans
        ):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count_tree(root: Path) -> Dict[str, int]:
    """Code lines of every ``*.py`` under ``root/src``, keyed by the
    path relative to ``root``."""
    return {
        path.relative_to(root).as_posix():
            code_lines(path.read_text(encoding="utf-8"))
        for path in sorted((root / "src").rglob("*.py"))
    }


def format_counts(counts: Dict[str, int]) -> List[str]:
    lines = [f"{n:7d}  {name}" for name, n in counts.items()]
    lines.append(f"{sum(counts.values()):7d}  total")
    return lines


def format_deltas(parent: Dict[str, int], change: Dict[str, int]) -> List[str]:
    """One row per file whose count differs, then the totals."""
    lines = [f"{'parent':>7}  {'change':>7}  {'delta':>6}  file"]
    for name in sorted(set(parent) | set(change)):
        before, after = parent.get(name, 0), change.get(name, 0)
        if before != after:
            lines.append(
                f"{before:7d}  {after:7d}  {after - before:+6d}  {name}"
            )
    before, after = sum(parent.values()), sum(change.values())
    lines.append(f"{before:7d}  {after:7d}  {after - before:+6d}  total")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--parent", type=Path,
        help="a checkout to compare with; prints per-file deltas",
    )
    args = parser.parse_args(argv)
    change = count_tree(Path(__file__).resolve().parents[1])
    if args.parent is None:
        lines = format_counts(change)
    else:
        if not (args.parent / "src").is_dir():
            parser.error(f"{args.parent} has no src/ directory")
        lines = format_deltas(count_tree(args.parent.resolve()), change)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
