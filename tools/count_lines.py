"""Count the lines of Python source that hold code.

    python tools/count_lines.py PATH [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them.  A line holds
code if a token other than a comment starts on it or runs across it; blank
lines, comment lines and the lines of module, class and function
docstrings do not count.  One count is printed per file, then the total.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def python_files(path: str) -> list[str]:
    if not os.path.isdir(path):
        return [path]
    return sorted(os.path.join(base, name) for base, _, names in os.walk(path)
                  for name in names if name.endswith(".py"))


def main(paths: list[str]) -> int:
    total = 0
    for path in (f for p in paths for f in python_files(p)):
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tools/count_lines.py PATH [PATH ...]")
    sys.exit(main(sys.argv[1:]))
