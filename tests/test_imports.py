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

A name that some package module reads may still sit on a path that
nothing runs.  So every package function and method must also be entered
when the golden CLI cases and one call of each benchmark task run under
sys.setprofile, or be named in ALLOWED (a class entry covers its
methods): a wrap in perfbench/tracer.py excuses no function, since
wrapping a function does not run it.
"""

import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "orbivertex").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))
PERFBENCH = ROOT / "perfbench"

# top-level names no package module reads, or functions, methods and
# classes that no CLI case or benchmark task enters -> why each stays
ALLOWED = {
    "upsilon": "the paper's staircase correction factor, checked on its own",
    "phi": "the paper's Z2xZ2 / Z4 bridge factor, checked on its own",
    "symmetry_check": "the vertex's cyclic symmetry, checked by enumeration",
    "region": "the paper's admissible corner of one slice, as corners() gives",
    "restrict_positions": "the same restriction as brick positions",
    "realize": "the inverse of restrict, a pyramid for a restricted family",
    "convert_frame": "re-addresses a brick between the two slice frames",
    "color": "the color of a brick at its address in either frame",
    "PyramidPartition": "the paper's pyramid partition as bricks, which "
                        "the tests enumerate and validate",
    "_cells_to_partition": "reads a PyramidPartition slice off its bricks",
    "address_to_position": "the paper's brick address in a slice frame",
    "position_to_address": "the inverse of address_to_position",
    "check_type_interlacing": "the paper's chain condition on slices, "
                              "which validate and realize check",
    "interlaces": "one link of the chain condition",
    "edge_value": "the edge sequence that orders a chain's links",
    "restrict": "the paper's restriction of a pyramid to a leg's family",
    "enumerate_pyramids": "the paper's listing of the pyramid partitions",
    "interlacing_families": "the paper's listing of a leg's restricted "
                            "families",
    # perfbench/tracer.py wraps the next five, and its self-check needs
    # every wrapped metric, so they stay until the tracer drops them
    "gamma_apply": "the plain transition step of the operator identities",
    "weight_apply": "the plain diagonal step of the operator identities",
    "Series.invert": "the inverse that the tracer's invert layer wraps",
    "Series.__pow__": "the power that the tracer's pow layer wraps",
    "Series.__mul__": "the product that the tracer's mul layer wraps; "
                      "the closed Zn vertex makes one Schur function",
    "Series._like": "builds the results of the product, power and inverse",
    "Series.map_vars": "relabels the side-slot enumeration for "
                       "symmetry_check",
    "Series.coefficient": "reads the first differing coefficient when "
                          "--verify finds a mismatch",
    "_monomial": "names that coefficient's monomial",
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


def wrapped_paths():
    """The attribute paths ("gamma_apply", "Series.invert") of tracer.py's
    WRAPS."""
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["WRAPS"]):
            return {wrap.elts[1].value for wrap in node.value.elts}
    raise AssertionError("no WRAPS in tracer.py")


def perfbench_names():
    """Package names the benchmark reaches: the function of every
    call("module", "function", ...) in workloads.py and every part of a
    path in tracer.py's WRAPS."""
    out = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "call"):
            out.add(node.args[1].value)
    return out | {part for path in wrapped_paths() for part in path.split(".")}


def test_scan_finds_unread_names():
    source = "import x\nA = 1\n__all__ = []\ndef f(): return x.g\n"
    assert top_level_names(source) == {"A", "f"}
    assert read_names(source) == {"x", "g"}
    assert {"enumerate_3d", "gamma_apply", "Series"} <= perfbench_names()


def unread_names():
    defined = set().union(*(top_level_names(p.read_text()) for p in SRC))
    read = set().union(*(read_names(p.read_text()) for p in SRC))
    return defined - read - perfbench_names()


def test_every_top_level_name_is_read():
    assert sorted(unread_names() - set(ALLOWED)) == []


# dunders that only a test or a debugger calls
EXEMPT = {"__eq__", "__hash__", "__repr__"}


def package_functions():
    """{"f" or "Class.method": code object} over the package's modules:
    the functions and classes each module defines, cached functions
    unwrapped, and every function in a class body, classmethods
    included."""
    out = {}
    for path in SRC:
        module = importlib.import_module("orbivertex." + path.stem)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member) and attr not in EXEMPT:
                        out[name + "." + attr] = member.__code__
            elif callable(obj):
                out[name] = inspect.unwrap(obj).__code__
    return out


def run_routes():
    """Every golden CLI case and one call of each benchmark task, with
    to_json() on each series result as the benchmark's worker does."""
    from orbivertex import cli
    from test_cli_golden import CASES

    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    package = importlib.import_module("orbivertex")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in CASES.values():
            assert cli.main(argv) == 0, argv
        for name in workloads.WORKLOADS:
            for t in workloads.tasks(name):
                if t.is_cli:
                    assert cli.main(t.argv) == 0, t.argv
                else:
                    fn = t.run.resolve(package)
                    fn(*t.run.args, **dict(t.run.kwargs)).to_json()


def unreached_paths():
    """The package functions and methods that neither importing the
    package nor run_routes enters, as a sorted list of paths."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        run_routes()
    finally:
        sys.setprofile(None)
    return sorted(path for path, code in package_functions().items()
                  if code not in seen)


def test_every_function_is_reached():
    # a fresh interpreter, so module-level calls count and no memo cache
    # that an earlier test filled skips a function's body; it imports the
    # package from the src/ that SRC lists
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, __file__], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    unreached = set(json.loads(run.stdout))

    def excused(path):
        return path in ALLOWED or path.split(".")[0] in ALLOWED

    assert sorted(p for p in unreached if not excused(p)) == []
    # an entry that excuses neither an unread name nor an unreached
    # function, or names nothing, leaves the list
    unread = unread_names()
    stale = {n for n in ALLOWED
             if n not in unread
             and not any(p == n or p.startswith(n + ".") for p in unreached)}
    assert sorted(stale) == []


if __name__ == "__main__":
    print(json.dumps(unreached_paths()))
