"""Byte-identity gate at large k: the sha256 of ``verify --k-min 1
--k-max 60``, of every Hurwitz and pushed ``class`` output at k = 40 in
csv, json and md (raw, and ``--normalized`` for the pushed classes), of
the q^* pullbacks of T3j for j = 1, 2, 39, 40 at k = 40 in csv and json
(q^*T2 is among the Hurwitz classes), of two one-entry boundary
pullbacks at k = 12 in json, and of the coefficients tables of
phi-lambda and p-phi-lambda over k = 19..21 in every format must match
the digests in ``golden_large_k.json``.

``golden_outputs.json`` stops at k = 8, where every E_{j,c} row of a
Hurwitz class is short; these digests pin the bytes where the rows are
long and the pushed numerators are (6k)!-sized.  Re-record only for a
change that is meant to alter output, and name that change in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden_large_k.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from test_golden import HURWITZ_CLASSES, PUSHED_CLASSES, digest

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_large_k.json")
VERIFY_ARGV = ("verify", "--k-min", "1", "--k-max", "60")
CLASS_K = "40"
CLASS_FORMATS = ("csv", "json", "md")
ONE_ENTRY_ARGVS = (
    ("class", "phi-delta:7", "--k", "12", "--format", "json"),
    ("class", "phihat-delta:5", "--k", "12", "--format", "json"),
)
# q^*T3j, the one E_{j,c} row j, at the first and the last rows
Q_PULLBACK_ARGVS = tuple(
    ("class", f"q-T3j:{j}", "--k", CLASS_K, "--format", fmt)
    for j in (1, 2, 39, 40)
    for fmt in ("csv", "json")
)
# rows j >= 10 of E_{j,c} (c up to 10 at k = 20, 21) and delta_j with
# j >= 10 carrying the weights, several k in one table
TABLE_ARGVS = tuple(
    ("table", "--quantity", f"coefficients:{name}", "--k-min", "19", "--k-max", "21")
    + ("--format", fmt)
    for name in ("phi-lambda", "p-phi-lambda")
    for fmt in ("json", "csv", "md")
)


def class_argvs() -> list[tuple[str, ...]]:
    argvs = []
    for name in HURWITZ_CLASSES + PUSHED_CLASSES:
        for fmt in CLASS_FORMATS:
            argv = ("class", name, "--k", CLASS_K, "--format", fmt)
            argvs.append(argv)
            if name in PUSHED_CLASSES:
                argvs.append(argv + ("--normalized",))
    return argvs + list(Q_PULLBACK_ARGVS) + list(ONE_ENTRY_ARGVS)


def all_argvs() -> list[tuple[str, ...]]:
    return [VERIFY_ARGV] + class_argvs() + list(TABLE_ARGVS)


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_command(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in all_argvs())


def test_large_k_verify_output_is_byte_identical(golden):
    assert digest(VERIFY_ARGV) == golden[" ".join(VERIFY_ARGV)]


@pytest.mark.parametrize("argv", class_argvs(), ids=" ".join)
def test_large_k_class_output_is_byte_identical(golden, argv):
    assert digest(argv) == golden[" ".join(argv)]


@pytest.mark.parametrize("argv", TABLE_ARGVS, ids=" ".join)
def test_large_k_table_output_is_byte_identical(golden, argv):
    assert digest(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    digests = {" ".join(argv): digest(argv) for argv in all_argvs()}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {FIXTURE}", file=sys.stderr)
