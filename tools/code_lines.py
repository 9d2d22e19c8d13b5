"""Count the code lines of Python files: lines that hold a token other than
a comment, with docstrings and blank lines left out.

    python3 tools/code_lines.py PATH...

Each PATH is a .py file or a directory, searched recursively for .py
files.  Prints one "count path" line per file, in sorted order, and then
"count total".

A docstring is the string expression that opens a module, class or
function body (found with `ast`); all of its lines are left out.  The other
lines are read with `tokenize`: a line counts when some token on it is not
a comment, a newline, an indent or a dedent, and a token that spans lines
(a multi-line string) counts every line it spans.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one file's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(source))


def python_files(paths) -> list:
    files = []
    for path in map(Path, paths):
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return files


def main() -> int:
    paths = sys.argv[1:]
    if not paths:
        print("usage: python3 tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for path in python_files(paths):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
