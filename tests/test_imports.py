"""Every module-level import of the package modules and of the tests is read:
a deletion that leaves an import behind fails here."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "affectmtl").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each name that a module-level import binds and that no
    expression of the module reads; ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "import os\nimport os.path as p\nfrom a import b, c as d\nimport e.f\nprint(d, e)\n"
    assert unused_imports(source) == [(1, "os"), (2, "p"), (3, "b")]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == [], path
