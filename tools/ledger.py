"""Print the size of the library: lines and statements per module of ``src/sigrel``.

Usage: ``python tools/ledger.py`` (no options).

For each ``.py`` file of ``src/sigrel``, in name order, and for their total, it
prints the line count, ``len(text.splitlines())``, and the number of ``ast.stmt``
nodes in the parsed module, compound statements and the statements nested in
them each counted once. These are the two numbers of the line ledger in
ROADMAP.md and of each entry of CHANGES.md. Only the standard library is used.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sigrel"


def size(path: Path) -> tuple[int, int]:
    """(lines, statements) of one module."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return len(text.splitlines()), sum(isinstance(node, ast.stmt) for node in ast.walk(tree))


def main() -> None:
    rows = [(path.name, *size(path)) for path in sorted(PACKAGE.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'module':<16}{'lines':>7}{'stmts':>7}")
    for name, lines, statements in rows:
        print(f"{name:<16}{lines:>7,}{statements:>7,}")


if __name__ == "__main__":
    main()
