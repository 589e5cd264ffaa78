"""The package holds what the command line reaches.

A static walk of name references from ``cli.main`` through the top-level
definitions of ``src/amoebas``: a function, a class, or an assigned name.
``from .m import n`` (at module level or inside a function) resolves ``n`` to
``m.n``, and ``from . import m`` resolves ``m.x`` to ``m.x``, so two modules'
definitions of one name stay distinct.  Whatever the walk does not reach
must be on the reserved list below; test-only oracles live in conftest.
"""
import ast
from pathlib import Path

import amoebas

PACKAGE = Path(amoebas.__file__).parent

# classify_arch_point is the one-point verdict of the library (the
# benchmark's query workload calls it); the command line scans rays with
# scan_arch_ray.  remove_redundancy reduces a raw polyhedron (the
# benchmark's tracer wraps it by name, and the corner-locus and projection
# oracles call it); prevariety reduces its pieces on their keys with
# keyed_reduction, which runs the same greedy.  Code that a later change
# calls comes back with its caller.
RESERVED = {"classify.classify_arch_point", "polyhedral.remove_redundancy"}


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
    # the corner loci read tropical's support table, not scalars'
    assert "tropical._support" in edges["tropical.corner_locus"]
    assert "scalars._support" not in edges["tropical.corner_locus"]
    assert "scalars._support" in edges["scalars.support_places"]
    # a module reached through `from . import m` and an attribute
    assert any(name.startswith("plot.") for name in edges["cli._plot"])


def test_every_unreached_definition_is_reserved():
    assert unreached() == RESERVED


def test_every_package_relative_import_is_used():
    # a name imported with `from .m import n` (or `from . import m`) is read
    # somewhere in its module; __init__ re-exports, so it is left out
    unused = []
    for mod, tree in _modules().items():
        imported = {
            a.asname or a.name: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names
        }
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{mod}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unused == []
