"""Every module reads each name it imports, so no import outlives the code that used it.

A plain ``ast`` scan, with no linter needed: an imported name must be read
somewhere in its module or listed in its ``__all__``.  An import marked
``# noqa: F401`` on its own line or on its statement's first line is exempt;
those keep names that the benchmark's tracer wraps from outside.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "ustrindex").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and not any("noqa: F401" in lines[k - 1] for k in (node.lineno, alias.lineno)):
                unused.append(name)
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_finds_an_unused_import_and_spares_the_exempt():
    source = (
        "from os import path, sep\n"
        "import numpy as np\n"
        "from json import dumps  # noqa: F401 - kept for a wrapper\n"
        "from sys import (  # noqa: F401\n    argv,\n)\n"
        "from re import (\n    escape,  # noqa: F401\n    match,\n)\n"
        "__all__ = ['sep']\n"
        "print(np.zeros(1))\n"
    )
    assert unused_imports(source) == ["path", "match"]
