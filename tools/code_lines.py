"""Count the code lines of the mpsolve package: lines that hold a Python
token, without docstrings, comments or blank lines.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/mpsolve beside this script's directory.  Prints
one line per module, then the total.  A docstring is the string expression
that opens a module, class or function body, as `ast` finds it; every line
it spans is left out, and so is every line whose only tokens are comments
or line breaks, as `tokenize` finds them.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of `tree` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: str) -> int:
    """The count of code lines in the Python file at `path`."""
    with open(path, "rb") as fh:
        source = fh.read()
    lines: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    package = argv[0] if argv else os.path.join(here, os.pardir, "src", "mpsolve")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            count = code_lines(os.path.join(package, name))
            total += count
            print("%-16s %5d" % (name, count))
    print("%-16s %5d" % ("total", total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
