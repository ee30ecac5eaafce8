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


def test_public_api_census():
    # adding or removing a public name is a visible diff of this list
    assert sorted(hurwitzdiv.__all__) == [
        "AffineExpr", "Basis", "CHECKS", "CheckResult", "ClassMap", "DivisorClass",
        "E0", "E2", "E3", "Ejc", "ExtSymbol", "ExternalCoeffs", "FAILS", "GenusData",
        "GrrPieces", "HOLDS", "LAMBDA", "MarkedSet", "PER_FACTORIAL_B", "RAW",
        "SlopeReport", "T2", "T3j", "UNKNOWN", "b_sym", "c_sym", "catalan_number",
        "count_boundary", "delta", "delta_restricted", "delta_s", "delta_tau", "e_coeff",
        "eh_divisor", "enumerate_boundary", "factorial_b", "forgetful_pullback",
        "format_rational", "genus_data", "grr_pieces", "hurwitz_basis", "induced_slope",
        "intersect_nonempty", "kappa_class", "kappa_slope_bound", "m0b_sym_basis",
        "mg_basis", "mg_canonical_class", "normalize", "omega_tau_sq", "p_phi_delta",
        "p_phi_lambda", "p_phihat_delta", "p_phihat_lambda", "p_push", "p_q_kappa",
        "p_q_map", "parse_rational", "phi_pull_boundary", "phi_pull_lambda",
        "phihat_pull_boundary", "phihat_pull_lambda", "prym_boundary_class",
        "prym_hodge_class", "psi_restricted", "q_pullback", "run_checks", "s_omega_sq",
        "slope_of", "slope_target", "zero_class",
    ]


def _private_definitions(tree: ast.Module) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each private name that a module
    defines: its functions, classes and methods at any depth, and the
    names assigned in the module body and in class bodies.  Private is
    one leading underscore: neither a dunder nor ``_`` itself."""
    found = []
    bodies = [tree.body]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            bodies.append(node.body)
    for body in bodies:
        for node in body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found += [
                    (n.id, node.lineno, node.end_lineno)
                    for target in targets
                    for n in ast.walk(target)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
    return [
        (name, first, last)
        for name, first, last in found
        if name.startswith("_") and not name.startswith("__") and name != "_"
    ]


def _unread_private_names(modules: dict[str, ast.Module]) -> list[str]:
    """Each private name defined in one of ``modules`` (file name ->
    tree) that no ``Name`` or ``Attribute`` node of any of them reads,
    outside the lines of its own definition."""
    reads: dict[str, list[tuple[str, int]]] = {}
    for module, tree in modules.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((module, node.lineno))
    unread = []
    for module, tree in modules.items():
        for name, first, last in sorted(_private_definitions(tree), key=lambda d: d[1]):
            if all(m == module and first <= line <= last for m, line in reads.get(name, ())):
                unread.append(f"{module}:{first} {name}")
    return unread


def test_every_private_name_is_read():
    # a private function, class, method or constant that nothing in the
    # package reads is left over from deleted code; only the package
    # counts, not the tests or the benchmark
    modules = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    assert "bases.py" in modules
    assert _unread_private_names(modules) == []


def test_private_name_census_reads_its_rules():
    # a read inside the definition (recursion) does not count, a read in
    # another module does, methods and class constants count, and
    # neither a dunder nor ``_`` is private
    source = """
_USED = 1
_UNUSED = 2
def _recursive(n):
    return _recursive(n - 1) if n else _USED
class _Kept:
    _flag = True
    _idle: int = 0
    def _method(self):
        return self._flag
    def _orphan(self):
        return self._orphan()
def public():
    return _Kept()._method(), other._shared
_, x = 1, 2
__dunder__ = 3
"""
    modules = {"m.py": ast.parse(source), "n.py": ast.parse("_shared = 4\n")}
    assert _unread_private_names(modules) == [
        "m.py:3 _UNUSED",
        "m.py:4 _recursive",
        "m.py:8 _idle",
        "m.py:11 _orphan",
    ]
