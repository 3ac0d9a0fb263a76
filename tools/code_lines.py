"""Line counts of the Python modules and C files of ``src/regcount``, with and without docs.

    python3 tools/code_lines.py

Prints one row per file of ``src/regcount``, a total row, and a ``tests``
row for the Python modules of ``tests/`` together: ``lines``
counts every line of the file, ``code`` only the lines that hold a token of
code, so blank lines, comments and docstrings (the string that opens a
module, class or function body) do not count; in a C file, ``//`` and
``/* */`` comments do not count.
"""

from __future__ import annotations

import ast
import io
import os
import re
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SOURCE = os.path.join(ROOT, "src", "regcount")
TESTS = os.path.join(ROOT, "tests")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
#: A C comment, string or character literal, or any other non-blank character.
C_TOKEN = re.compile(r"/\*.*?\*/|//[^\n]*|\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])*'|\S", re.S)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            code.update(line for line in range(token.start[0], token.end[0] + 1) if line not in docs)
    return len(source.splitlines()), len(code)


def count_c(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one C file."""
    code: set[int] = set()
    line, last = 1, 0
    for match in C_TOKEN.finditer(source):
        line += source.count("\n", last, match.start())
        last = match.start()
        if not match.group().startswith(("/*", "//")):
            code.update(range(line, line + match.group().count("\n") + 1))
    return len(source.splitlines()), len(code)


def counted(directory: str) -> list[tuple[str, int, int]]:
    """(name, all lines, code lines) of each Python module and C file of ``directory``."""
    rows = []
    for name in sorted(name for name in os.listdir(directory) if name.endswith((".py", ".c"))):
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            rows.append((name, *(count_c if name.endswith(".c") else count)(fh.read())))
    return rows


def main() -> int:
    rows = counted(SOURCE)
    tests = counted(TESTS)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    rows.append(("tests", sum(r[1] for r in tests), sum(r[2] for r in tests)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>5}  {'code':>5}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>5}  {code:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
