"""The package holds what the command line reaches.

A static walk of name references from ``cli.main`` through the top-level
definitions of ``src/amoebas``: a function, a class, or an assigned name.
``from .m import n`` (at module level or inside a function) resolves ``n`` to
``m.n``, and ``from . import m`` resolves ``m.x`` to ``m.x``, so two modules'
definitions of one name stay distinct.  Whatever the walk does not reach
must be on the reserved list below; test-only oracles live in conftest.

Two more checks keep the package light to start and its memos counted: the
command line imports no numerical library until a command needs one, and
the process-wide caches are the listed ones.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import amoebas

PACKAGE = Path(amoebas.__file__).parent

# classify_arch_point is the one-point verdict of the library (the
# benchmark's query workload calls it); the command line scans rays with
# scan_arch_ray.  Code that a later change calls comes back with its
# caller.
RESERVED = {"classify.classify_arch_point"}

# The functools caches on src/ functions, each kept because removing it was
# measured to cost (CHANGES.md has the figures).  A new cache joins this
# list with its measurement.
CACHED = {"cli.build_parser", "polyhedral.keyed_interior_point", "tropical._support"}


def _modules():
    return {
        path.stem: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def _defined_names(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _graph():
    """({module.name: referenced module.names}, import-time roots)."""
    edges, roots = {}, set()
    for mod, tree in _modules().items():
        names = {n: f"{mod}.{n}" for node in tree.body for n in _defined_names(node)}
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module is None:
                        aliases[a.asname or a.name] = a.name
                    else:
                        names[a.asname or a.name] = f"{node.module}.{a.name}"

        def refs(node):
            out = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in names:
                    out.add(names[sub.id])
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in aliases
                ):
                    out.add(f"{aliases[sub.value.id]}.{sub.attr}")
            return out

        for node in tree.body:
            defined = _defined_names(node)
            for n in defined:
                edges[f"{mod}.{n}"] = refs(node)
            if not defined:
                roots |= refs(node)
    return edges, roots


def unreached():
    edges, roots = _graph()
    seen, todo = set(), ["cli.main", *roots]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        todo.extend(edges.get(name, ()))
    return set(edges) - seen


def test_walk_resolves_imports_per_module():
    edges, _ = _graph()
    # a name defined in its module resolves there, an imported one to the
    # module that defines it
    assert "tropical._support" in edges["tropical.corner_locus"]
    assert "laurent.ratio_valuations" in edges["tropical.adelic_amoeba"]
    assert {"scalars.valuation", "tropical.tropical_data"} <= edges["tropical.adelic_amoeba"]
    assert "scalars.valuations" in edges["laurent.ratio_valuations"]
    # a module reached through `from . import m` and an attribute
    assert any(name.startswith("plot.") for name in edges["cli._plot"])


def test_every_unreached_definition_is_reserved():
    assert unreached() == RESERVED


def _unread_imports(name, tree, counts):
    """An entry "name:line imported" for each name bound by an import node
    of tree for which counts(node) holds, and read by no Name in tree."""
    imported = {
        a.asname or a.name.split(".")[0]: node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and counts(node)
        for a in node.names
    }
    read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return [f"{name}:{line} {n}" for n, line in imported.items() if n not in read]


def test_every_package_relative_import_is_used():
    # a name imported with `from .m import n` (or `from . import m`) is read
    # somewhere in its module; __init__ re-exports, so it is left out
    relative = lambda node: isinstance(node, ast.ImportFrom) and node.level == 1
    unused = [u for mod, tree in _modules().items() for u in _unread_imports(mod, tree, relative)]
    assert unused == []


def test_every_test_module_import_is_read():
    # an import outlives the test that read it; a __future__ import binds
    # no name, so it is left out
    counted = lambda node: getattr(node, "module", None) != "__future__"
    unused = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        unused += _unread_imports(path.stem, ast.parse(path.read_text()), counted)
    assert unused == []


def _dotted(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return getattr(node, "id", "")


def test_process_wide_caches_are_the_listed_ones():
    caches = {"functools.lru_cache", "functools.cache", "lru_cache", "cache"}
    cached = {
        f"{mod}.{node.name}"
        for mod, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_dotted(dec) in caches for dec in node.decorator_list)
    }
    assert cached == CACHED


def test_command_line_imports_no_numerical_library():
    # numpy, sympy and mpmath are imported where a command first needs them
    code = 'import sys, amoebas.cli; print(sorted({"numpy", "sympy", "mpmath"} & set(sys.modules)))'
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert done.returncode == 0 and done.stdout == "[]\n", done.stdout + done.stderr
