"""No module of the package imports a name it never reads."""

import ast
from pathlib import Path

import pytest

import diffoplab

PACKAGE = Path(diffoplab.__file__).resolve().parent
# __init__.py imports to re-export; diffops binds ``kernel`` without calling
# it because perfbench/tests/test_tracer.py checks that the tracer rebinds it there
KEPT = {("diffops.py", "kernel")}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# a sub-bimodule is built with Bimodule.generated, the one closure under
# module actions; HomSpace.action_closure closes preimages under its families
CLOSURE_IMPORTERS = {"bimodule.py", "homspace.py"}


def unused_imports(source: str):
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_the_finder_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from .linalg import Matrix, kernel as k\n"
              "def f(m: Matrix):\n    from .x import y\n    return sys.argv\n")
    assert unused_imports(source) == ["os", "k", "y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = [name for name in unused_imports(path.read_text(encoding="utf-8"))
              if (path.name, name) not in KEPT]
    assert unused == []


def linalg_imports(source: str):
    """The names that ``source`` imports from the package's ``linalg``."""
    return {a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module in ("linalg", "diffoplab.linalg")
            for a in node.names}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_bimodule_and_homspace_import_closure(path):
    imported = "closure" in linalg_imports(path.read_text(encoding="utf-8"))
    assert not imported or path.name in CLOSURE_IMPORTERS
