"""Every name that ``svq`` exports has a use.

A name stays public only while something uses it: code in ``src/`` outside
the ``def`` or ``class`` that defines it, or a mention in ``bench/*.py``,
``tests/test_acceptance.py`` or ``README.md``. In ``src/`` the uses are read
from the syntax tree, so imports, docstrings and comments do not count; in
the other files a whole-word match does.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "svq"


def exported_names() -> list[str]:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def src_uses() -> set[tuple[str, str | None]]:
    """(name read, the top-level def or class it is read in, or None)."""
    uses = set()
    for path in SRC.glob("*.py"):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    uses.add((node.id, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    uses.add((node.attr, owner))
    return uses


def test_every_exported_name_has_a_use():
    uses = src_uses()
    mentions = "\n".join(
        path.read_text(encoding="utf-8")
        for path in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py", ROOT / "README.md"]
    )
    unused = [
        name
        for name in exported_names()
        if not any(used == name and owner != name for used, owner in uses)
        and not re.search(rf"\b{re.escape(name)}\b", mentions)
    ]
    assert unused == []
