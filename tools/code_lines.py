"""Count code lines of Python files: lines holding a token that is not a
comment, a docstring or layout (blank lines, indentation, newlines).

A docstring is the leading string-literal statement of a module, class
or function body, found with :mod:`ast`; the remaining lines are found
with :mod:`tokenize`.  A statement spanning several lines counts each
line it covers.

Usage: python3 tools/code_lines.py [PATH ...]   (default: src)

Each path is a file or a directory searched for ``*.py``.  Prints one
line per file, ``<count> <path>``, then ``<total> total``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """Number of code lines in one Python source file."""
    source = Path(path).read_bytes()
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None):
    roots = [Path(p) for p in (argv if argv else ["src"])]
    files = []
    for root in roots:
        files += sorted(root.rglob("*.py")) if root.is_dir() else [root]
    total = 0
    for path in files:
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
