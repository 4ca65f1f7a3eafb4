"""Count the lines and the code lines of each `src/lpatrace` module.

Run from anywhere:

    python tools/code_lines.py [package directory]

A code line is any line but a blank one, a comment-only one and one inside
a docstring: a string literal standing alone as a statement, as module,
class and function docstrings do.  It prints one row per module, then the
totals, so that a change's size reads the same way each time it is quoted.
This is a survey tool, not a test and not a CI gate; it uses only the
standard library.
"""

from __future__ import annotations

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lpatrace")


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of each string literal that stands as a statement."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one module's source."""
    text = source.splitlines()
    skipped = docstring_lines(ast.parse(source))
    code = sum(
        1 for n, line in enumerate(text, 1)
        if n not in skipped and line.strip() and not line.lstrip().startswith("#")
    )
    return len(text), code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = args[0] if args else PACKAGE
    total = code = 0
    print(f"{'module':<20}{'lines':>7}{'code':>7}")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                n, c = count(f.read())
            total, code = total + n, code + c
            print(f"{name:<20}{n:>7}{c:>7}")
    print(f"{'total':<20}{total:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
