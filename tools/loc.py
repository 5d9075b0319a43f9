"""Code lines per file: lines holding a token outside comments and docstrings.

Usage: ``python tools/loc.py [PATH ...]`` (standard library only).  Each PATH
is a Python file or a directory searched for ``*.py`` files; the default is
the package under ``src/``.  Prints one line per file, then the total.

A docstring is a string literal standing alone as the first statement of a
module, class or function.  A line counts if any other token (a string that
is no docstring included) starts, ends or runs across it; blank lines,
comment-only lines and docstring lines do not count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Tokens that carry no code of their own.
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of the source hold a token outside comments and docstrings."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def files(paths: list[str]) -> list[Path]:
    found: list[Path] = []
    for path in map(Path, paths):
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv: list[str]) -> int:
    total = 0
    for path in files(argv or [str(ROOT / "src")]):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        try:
            shown = path.resolve().relative_to(ROOT)
        except ValueError:
            shown = path
        print(f"{count:6d}  {shown}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
