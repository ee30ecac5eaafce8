"""Byte-identity gate: the sha256 of every ``class`` output for
k = 1..8 in json, csv and md, of every ``table --quantity
coefficients:<name>`` over k = 1..8 in the same formats, and of
``verify --k-min 1 --k-max 8`` must match the digests in
``golden_outputs.json``.

The fixture pins the output bytes, so a change to the arithmetic or to
the coefficient representation cannot alter what users see.  Re-record
only for a change that is meant to alter output, and name that change
in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from hurwitzdiv.bases import genus_reduced_trace, genus_trace
from hurwitzdiv.cli import main

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")
K_RANGE = range(1, 9)
FORMATS = ("json", "csv", "md")

HURWITZ_CLASSES = (
    "delta-tau",
    "omega-tau-sq",
    "delta-s",
    "s-omega-sq",
    "phi-lambda",
    "phihat-lambda",
    "prym-hodge",
    "prym-boundary",
    "q-T2",
)
PUSHED_CLASSES = ("p-phi-lambda", "p-phihat-lambda", "p-q-kappa", "eh-divisor")
INDEXED_CLASSES = ("phi-delta", "phihat-delta", "q-T3j")
VERIFY_ARGV = ("verify", "--k-min", "1", "--k-max", "8")


def _indices(base: str, k: int) -> range:
    # every boundary index up to one past k (those above k pull back to
    # zero), capped by the genus of the target curve
    if base == "q-T3j":
        return range(1, k + 1)
    genus = genus_trace(k) if base == "phi-delta" else genus_reduced_trace(k)
    return range(min(k + 1, genus // 2) + 1)


def class_argvs(name: str) -> list[tuple[str, ...]]:
    """Every ``class`` command line the fixture pins for one class name."""
    argvs = []
    for k in K_RANGE:
        if name in INDEXED_CLASSES:
            names = [f"{name}:{j}" for j in _indices(name, k)]
        else:
            names = [name]
        for full in names:
            for fmt in FORMATS:
                argv = ("class", full, "--k", str(k), "--format", fmt)
                argvs.append(argv)
                if name in PUSHED_CLASSES:
                    argvs.append(argv + ("--normalized",))
    return argvs


def table_argvs(name: str) -> list[tuple[str, ...]]:
    """Every ``table --quantity coefficients:<name>`` command line the
    fixture pins for one class name."""
    argvs = []
    for fmt in FORMATS:
        argv = (
            "table",
            "--quantity",
            f"coefficients:{name}",
            "--k-min",
            str(K_RANGE[0]),
            "--k-max",
            str(K_RANGE[-1]),
            "--format",
            fmt,
        )
        argvs.append(argv)
        if name in PUSHED_CLASSES:
            argvs.append(argv + ("--normalized",))
    return argvs


def all_argvs() -> list[tuple[str, ...]]:
    argvs = [VERIFY_ARGV]
    for name in HURWITZ_CLASSES + PUSHED_CLASSES + INDEXED_CLASSES:
        argvs.extend(class_argvs(name))
    for name in HURWITZ_CLASSES + PUSHED_CLASSES:
        argvs.extend(table_argvs(name))
    return argvs


def digest(argv: tuple[str, ...]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    if code != 0:
        raise AssertionError(f"{' '.join(argv)} exited {code}")
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in all_argvs())


def test_verify_output_is_byte_identical(golden):
    assert digest(VERIFY_ARGV) == golden[" ".join(VERIFY_ARGV)]


@pytest.mark.parametrize("name", HURWITZ_CLASSES + PUSHED_CLASSES + INDEXED_CLASSES)
def test_class_output_is_byte_identical(golden, name):
    changed = [
        " ".join(argv)
        for argv in class_argvs(name)
        if digest(argv) != golden[" ".join(argv)]
    ]
    assert not changed, f"output bytes changed for: {changed}"


@pytest.mark.parametrize("name", HURWITZ_CLASSES + PUSHED_CLASSES)
def test_coefficient_table_output_is_byte_identical(golden, name):
    changed = [
        " ".join(argv)
        for argv in table_argvs(name)
        if digest(argv) != golden[" ".join(argv)]
    ]
    assert not changed, f"output bytes changed for: {changed}"


if __name__ == "__main__":
    digests = {" ".join(argv): digest(argv) for argv in all_argvs()}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}", file=sys.stderr)
