"""Source hygiene of the package, read with the ast module alone.

Every name a module imports is read in it, and every private top-level
name a module defines is read somewhere in the package beyond its own
definition.  The re-exports listed in __all__ of __init__.py count as
read, and so do the dict caches that bench/tracer.py looks up by name
(DICT_CACHES).
"""

import ast
from pathlib import Path

from test_bench_bindings import load_tracer

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kdvcohom"


def _modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _reads(tree):
    """(name, line) for each name read in tree: a loaded name, an
    attribute, or a name imported from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_read():
    unread = []
    for mod, tree in _modules().items():
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        loaded |= _all(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in loaded:
                        unread.append(f"{mod}: {name}")
    assert not unread


def _private_definitions(tree):
    """(name, first line, last line) of each private top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def test_every_private_name_is_read_beyond_its_definition():
    modules = _modules()
    reads = {mod: list(_reads(tree)) for mod, tree in modules.items()}
    by_name = set(load_tracer().DICT_CACHES)
    unread = []
    for mod, tree in modules.items():
        for name, first, last in _private_definitions(tree):
            if (mod, name) in by_name:
                continue
            if not any(n == name and (other != mod or not first <= line <= last)
                       for other, found in reads.items() for n, line in found):
                unread.append(f"{mod}.{name}")
    assert not unread
