"""Count the code lines of Python modules: no blank, comment or docstring lines.

A line counts unless it is blank, holds only a ``#`` comment, or lies in
the docstring of a module, class or function, found with ``ast``.  A
string that is not a docstring, a comment after code, and every line of
a statement that spans several lines all count.

    python scripts/count_code_lines.py

Prints one "<count> <module>" line per ``.py`` file under ``src/``, in
path order, then "<count> total".
"""

from __future__ import annotations

import ast
from pathlib import Path

DEFAULT_ROOT = Path(__file__).resolve().parent.parent / "src"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers, from 1, of every module, class and function
    docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """The code lines of one module's ``source``."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if n not in skip and line.strip() and not line.lstrip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(DEFAULT_ROOT.rglob("*.py")):
        count = count_code_lines(path.read_text())
        total += count
        print(f"{count} {path}")
    print(f"{total} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
