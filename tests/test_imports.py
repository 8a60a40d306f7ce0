"""Every top-level import of the package and of the tests is read, and
every top-level name of the package is read somewhere in the package.

An unused import costs nothing at run time, but in the oracles it makes a
module look as if it used machinery it does not.  The scan is a plain
ast walk: a name bound by a top-level import must appear as a Name
somewhere in the module (attribute access a.b reads the Name a).

A function, class or constant that no package module reads is dead code
unless it is one of the paper's objects that only the tests call, or the
benchmark in perfbench/ reaches it; those are listed in ALLOWED with a
reason, or read from perfbench's own task and trace tables.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "orbivertex").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = ROOT / "perfbench"

# top-level names no package module reads -> why each stays
ALLOWED = {
    "upsilon": "the paper's staircase correction factor, checked on its own",
    "phi": "the paper's Z2xZ2 / Z4 bridge factor, checked on its own",
    "symmetry_check": "the vertex's cyclic symmetry, checked by enumeration",
    "pochhammer_factors": "the q-Pochhammer symbol behind the closed products",
    "term_var": "builds a one-variable term for the tests' series",
    "region": "the paper's admissible corner of one slice, as corners() gives",
    "restrict_positions": "the same restriction as brick positions",
    "realize": "the inverse of restrict, a pyramid for a restricted family",
    "convert_frame": "re-addresses a brick between the two slice frames",
    "color": "the color of a brick at its address in either frame",
}


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


def top_level_names(source):
    """Names a module defines at top level, dunders left out."""
    out = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Assign):
            out |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    return {n for n in out if not n.startswith("__")}


def read_names(source):
    """Names a module reads: loaded Names and the attr of every a.b."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def perfbench_names():
    """Package names the benchmark reaches: the function of every
    call("module", "function", ...) in workloads.py and every part of a
    path in tracer.py's WRAPS."""
    out = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "call"):
            out.add(node.args[1].value)
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["WRAPS"]):
            out |= {part for wrap in node.value.elts
                    for part in wrap.elts[1].value.split(".")}
    return out


def test_scan_finds_unread_names():
    source = "import x\nA = 1\n__all__ = []\ndef f(): return x.g\n"
    assert top_level_names(source) == {"A", "f"}
    assert read_names(source) == {"x", "g"}
    assert {"enumerate_3d", "gamma_apply", "Series"} <= perfbench_names()


def test_every_top_level_name_is_read():
    defined = set().union(*(top_level_names(p.read_text()) for p in SRC))
    read = set().union(*(read_names(p.read_text()) for p in SRC))
    unread = defined - read - perfbench_names()
    assert sorted(unread - set(ALLOWED)) == []
    # an entry that is read again, or gone, leaves the list
    assert sorted(set(ALLOWED) - unread) == []
