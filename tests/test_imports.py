"""Every top-level import of the package and of the tests is read.

An unused import costs nothing at run time, but in the oracles it makes a
module look as if it used machinery it does not.  The scan is a plain
ast walk: a name bound by a top-level import must appear as a Name
somewhere in the module (attribute access a.b reads the Name a).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = (sorted((ROOT / "src" / "orbivertex").glob("*.py"))
           + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(source):
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_scan_finds_unused_imports():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os"]
    assert unused_imports("from a import b as c, d\nd()\n") == ["c"]
    assert unused_imports("import os.path\nos.sep\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.parent.name + "/" + p.name for p in MODULES])
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
