"""Count the code lines of ``src/repro``: non-blank, non-comment, non-docstring.

    python benchmarks/code_lines.py   # one row per package, then the total

A line counts when a token other than a comment starts, ends or runs
through it, and that token is not part of a docstring.  A docstring is a
string-literal expression statement that opens a module, class or
function body.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The ``(line, column)`` at which every docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(text: str) -> int:
    """How many lines of ``text`` (Python source) are code."""
    docstrings = docstring_starts(ast.parse(text))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type in _LAYOUT or (
            token.type == tokenize.STRING and token.start in docstrings
        ):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count_tree(root: Path) -> Counter[str]:
    """Code lines per file under ``root``, keyed by path relative to it."""
    return Counter(
        {
            path.relative_to(root).as_posix(): code_lines(
                path.read_text(encoding="utf-8")
            )
            for path in sorted(root.rglob("*.py"))
        }
    )


def main() -> None:
    counts = count_tree(PACKAGE)
    packages: Counter[str] = Counter()
    for path, lines in counts.items():
        packages[path.rpartition("/")[0] or "."] += lines
    for package, lines in sorted(packages.items()):
        print(f"{lines:8,d}  {package}")
    print(f"{sum(counts.values()):8,d}  src/repro")


if __name__ == "__main__":
    main()
