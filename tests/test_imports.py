"""Import hygiene: every name a module imports is referenced in it, and
every function, class and method of the package has a caller in it.

There is no linter in the toolchain, so this parses each module with
``ast``.  A package ``__init__.py`` is exempt: its imports are its
re-exports, and a re-export is no caller.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for pattern in ("src/semgcn/*.py", "tests/*.py")
                 for p in ROOT.glob(pattern) if p.name != "__init__.py")
PACKAGE = sorted(p for p in ROOT.glob("src/semgcn/*.py")
                 if p.name != "__init__.py")


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


def definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, and the non-dunder methods of
    top-level classes, as ``name`` or ``Class.method``."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = []
    for node in tree.body:
        if isinstance(node, kinds):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, kinds[:2])
                      and not item.name.startswith("__")]
    return names


def references(tree: ast.Module) -> set[str]:
    """Every name read as a ``Name``, an ``Attribute`` or an import."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.split(".")[-1])
    return refs


def uncalled(sources: list[str]) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    refs = set().union(*map(references, trees))
    return [name for tree in trees for name in definitions(tree)
            if name.split(".")[-1] not in refs]


def test_finds_an_uncalled_definition():
    sources = ["class A:\n    def used(self): pass\n    def idle(self): pass\n"
               "    def __repr__(self): pass\n",
               "from m import A\ndef f(): return A().used()\n"]
    assert uncalled(sources) == ["A.idle", "f"]


def test_every_definition_has_a_caller():
    sources = [path.read_text() for path in PACKAGE]
    assert sum(len(definitions(ast.parse(s))) for s in sources) > 100
    assert uncalled(sources) == []


def test_only_the_container_names_the_file_layout():
    # the on-disk float64 layout lives in one module, so a rule about it
    # (formats stay float64 whatever the compute dtype) has one home
    naming = [path.name for path in PACKAGE if '"<f8"' in path.read_text()]
    assert naming == ["container.py"]


def test_only_the_dtype_constant_names_float64():
    # the compute dtype is named once, as autodiff.DTYPE, so a later dtype
    # change is that constant; data, metrics and files stay float64 on
    # purpose, in the two modules that own them
    naming = [(path.name, line.split("#")[0].strip())
              for path in sorted(ROOT.glob("src/semgcn/*.py"))
              if path.name not in ("container.py", "posedata.py")
              for line in path.read_text().splitlines() if "float64" in line]
    assert naming == [("autodiff.py", "DTYPE = np.float64")]
