"""Source-level invariants of the package."""

import ast
import pathlib
import types

import hurwitzdiv

SRC = pathlib.Path(hurwitzdiv.__file__).parent


def test_no_invariant_depends_on_assert():
    # python -O strips assert statements and sets __debug__ to False, so
    # a check written with either would vanish from an optimized run;
    # this covers every code path, where a diff of outputs under -O only
    # samples some
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "__debug__"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert (SRC / "cli.py").is_file()


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """The names that the top-level imports of a module bind, with the
    line of each import; ``from __future__`` binds none."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.append((alias.asname or alias.name.partition(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend((alias.asname or alias.name, node.lineno) for alias in node.names)
    return names


def _unused_imports(tree: ast.Module) -> list[tuple[str, int]]:
    """The names that a top-level import binds and that the module never
    reads, with the line of each import."""
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(name, line) for name, line in _imported_names(tree) if name not in read]


def test_every_import_is_used():
    # a name imported at the top of a module and never read there is
    # left over from deleted code; __init__ imports only to re-export
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        unused += [f"{path.name}:{line} {name}" for name, line in _unused_imports(tree)]
    assert unused == []
    assert (SRC / "core.py").is_file()


def test_import_scan_reads_the_names_an_import_binds():
    # ``import a.b`` binds a, an alias binds the alias, a name that is
    # only assigned to is not read, and ``from __future__`` binds nothing
    source = """
from __future__ import annotations
import os.path
import json as js
from math import comb, gcd as g
from fractions import Fraction

def f():
    Fraction = 1
    return os.path.join(js.dumps(g(4, 6)))
"""
    assert _unused_imports(ast.parse(source)) == [("comb", 5), ("Fraction", 6)]


def test_star_import_binds_no_module():
    # the imports of __init__ bind each submodule as an attribute of the
    # package; ``from hurwitzdiv import *`` must not bind those over the
    # importer's own names
    assert hurwitzdiv.__all__
    for name in hurwitzdiv.__all__:
        assert not isinstance(getattr(hurwitzdiv, name), types.ModuleType), name
    namespace = {}
    exec("from hurwitzdiv import *", namespace)
    assert "trace" not in namespace and "checks" not in namespace
