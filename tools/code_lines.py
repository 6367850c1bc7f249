"""Count the code lines of Python source files.

    python tools/code_lines.py src/fixloc/*.py
    python tools/code_lines.py src

A directory stands for every *.py file under it, recursively, in sorted
order.  A code line is a line that holds a token of a statement: docstrings
(the first statement of a module, class or function, when it is a
string), comments and blank lines are left out, and a statement over
three lines counts three.  Prints one line per file, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

# tokens that hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that hold code (see the module docstring)."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {line for tok in tokens if tok.type not in _LAYOUT
             for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Count code lines: no docstrings, comments "
                                                 "or blank lines.")
    parser.add_argument("paths", nargs="+", type=Path, metavar="PATH")
    args = parser.parse_args(argv)
    files = [file for path in args.paths
             for file in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
