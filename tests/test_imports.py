"""Import hygiene: every name a module imports is referenced in it.

There is no linter in the toolchain, so this parses each module with
``ast``.  A package ``__init__.py`` is exempt: its imports are its
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for pattern in ("src/semgcn/*.py", "tests/*.py")
                 for p in ROOT.glob(pattern) if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_finds_an_unused_name():
    source = "import os\nfrom a.b import c, d as e\nprint(c)\n"
    assert unused_imports(source) == ["os", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
