"""Source-level invariants of the package."""

import ast
import pathlib

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
