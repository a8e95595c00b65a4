"""Every name a module of svq imports is read in that module.

No linter runs on this repository, so an import that a refactor left
behind would stay unnoticed. The one allowance is a name that
``bench/tracer.py`` wraps in that module: the tracer replaces a module
attribute by name, so the module must keep it even if nothing there reads
it. ``__init__.py`` imports to re-export and is left out.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from tracer import WRAPS  # noqa: E402

MODULES = sorted(p for p in (ROOT / "src" / "svq").glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """The names the module's import statements bind, with their lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    wrapped = {attr for module, attr, *_ in WRAPS if module == path.stem}
    unused = [(name, line) for name, line in imported_names(tree) if name not in read | wrapped]
    assert unused == []
