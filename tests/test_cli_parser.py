"""The command-line grammar: the bytes argparse writes, and a fuzz over
the grammar.

``golden_parser.json`` pins the exit code and the sha256 of stdout and
stderr of every command line in ``PARSER_ARGVS``: the help texts, the
usage errors and the missing required options, with the terminal width
set to 80 columns (argparse wraps help to it).  Re-record only for a
change that is meant to alter these bytes, and name it in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_parser.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzdiv import cli

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_parser.json")
COMMANDS = ("class", "verify", "slope", "m0n", "table")
PARSER_ARGVS = (
    ("--help",),
    *((command, "--help") for command in COMMANDS),
    (),
    ("bogus",),
    ("--bogus", "verify", "--k-min", "1", "--k-max", "1"),
    ("verify", "--k-min", "1", "--k-max", "1", "--bogus"),
    ("--", "verify", "--k-min", "1", "--k-max", "1"),
    # one missing required option per command
    ("class", "delta-tau"),
    ("verify", "--k-min", "1"),
    ("slope", "--k", "3"),
    ("m0n", "count"),
    ("table", "--k-min", "1", "--k-max", "1"),
)


def outcome(call, argv) -> tuple:
    """What ``call(argv)`` returns, or the code of the ``SystemExit`` it
    raises, with its stdout and stderr.  Any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def record(argv) -> dict:
    code, out, err = outcome(cli.main, argv)
    return {"code": code, "stdout": _sha256(out), "stderr": _sha256(err)}


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_command_line(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in PARSER_ARGVS)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_parser_bytes_are_unchanged(golden, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    assert record(argv) == golden[" ".join(argv)]


# The fuzz: argv built from the command names, every option, k in 1..4
# and malformed values.  OUT and EXTERNALS stand for paths in a
# temporary directory.
OUT, EXTERNALS, MISSING = "<out>", "<externals>", "<missing>"
MALFORMED = ("0", "-1", "x", "", "1/2", "1.5", "١", "1e3")
K_VALUES = ("1", "2", "3", "4") + MALFORMED
OPTION_VALUES = {
    "--k": K_VALUES,
    "--k-min": K_VALUES,
    "--k-max": K_VALUES,
    "--b": ("4", "5", "6") + MALFORMED,
    "--format": ("json", "csv", "md", "pdf"),
    "--normalized": (),
    "--out": (OUT,),
    "--checks": ("all", "closed-forms", "hygiene,slopes", "delta-j-checks", "bogus"),
    "--externals": (EXTERNALS, MISSING),
    "--s-prime": ("12", "23/2", "-7/2", "214/67", "twelve") + MALFORMED,
    "--variant": ("trace", "reduced", "kappa", "bogus"),
    "--quantity": (
        "genus",
        "kappa-slope",
        "slope-bound",
        "coefficients:delta-tau",
        "coefficients:p-q-kappa",
        "coefficients:bogus",
        "bogus",
    ),
}
POSITIONALS = (
    "delta-tau",
    "phi-lambda",
    "phi-delta:1",
    "phihat-delta:2",
    "q-T3j:1",
    "q-T2",
    "p-phi-lambda",
    "eh-divisor",
    "no-such-class",
    "count",
    "normalize",
    "intersect",
    "1,2",
    "4,5",
    "1,x",
)
TOKENS = COMMANDS + tuple(OPTION_VALUES) + POSITIONALS + MALFORMED + (
    "-h",
    "--help",
    "--bogus",
    "--",
    "--k=2",
    "--variant=kappa",
)


def _option(name: str):
    values = OPTION_VALUES[name]
    if not values:
        return st.just([name])
    return st.sampled_from(values).map(lambda value: [name, value])


CHUNKS = st.one_of(
    st.sampled_from(sorted(OPTION_VALUES)).flatmap(_option),
    st.sampled_from(TOKENS).map(lambda token: [token]),
)
ARGVS = st.one_of(
    st.just(()),
    st.tuples(
        st.one_of(st.sampled_from(COMMANDS), st.sampled_from(TOKENS)),
        st.lists(CHUNKS, max_size=7),
    ).map(lambda parts: (parts[0], *(token for chunk in parts[1] for token in chunk))),
)


@contextlib.contextmanager
def _paths(argv):
    """``argv`` with the path placeholders replaced by paths in a fresh
    temporary directory, which holds a valid external table for k = 2."""
    with tempfile.TemporaryDirectory() as tmp:
        table = os.path.join(tmp, "ext.json")
        with open(table, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "schema": "external-coeffs/1",
                    "k": 2,
                    "c": {"1": "0", "2": "1"},
                    "b": {"1": "0", "2": "3"},
                },
                handle,
            )
        paths = {
            OUT: os.path.join(tmp, "out.txt"),
            EXTERNALS: table,
            MISSING: os.path.join(tmp, "missing.json"),
        }
        yield [paths.get(token, token) for token in argv]


@settings(max_examples=300, deadline=None)
@given(ARGVS)
def test_main_exits_with_an_honest_code(argv):
    # 0 ok, 1 a failed check, 2 bad input; argparse's own exits are 0
    # (help) or 2 (usage); never a traceback
    with _paths(argv) as concrete:
        code, _, _ = outcome(cli.main, concrete)
    assert code in (0, 1, 2)


# command lines where argparse treats a token by its position or shape,
# so the one-command parser must hand over to the full tree or match it:
# arguments left over, "--" after the command, -h before, among and after
# the arguments, and negative numbers as values; the fuzz draws them too,
# and the parametrized test runs each one every time
PARSER_CASES = (
    ("verify", "--k-min", "1", "--k-max", "1", "--bogus"),
    ("verify", "--k-min", "1", "--k-max", "1", "extra"),
    ("m0n", "--b", "5", "count", "--bogus", "x"),
    ("verify", "--", "--k-min", "1", "--k-max", "1"),
    ("verify", "--k-min", "1", "--k-max", "1", "--"),
    ("m0n", "--b", "5", "--", "count"),
    ("m0n", "--b", "5", "normalize", "--", "-1"),
    ("-h", "verify"),
    ("verify", "-h"),
    ("verify", "--k-min", "1", "-h", "--bogus"),
    ("verify", "--bogus", "-h"),
    ("slope", "--k", "3", "--variant", "trace", "--s-prime", "12", "-h"),
    ("class", "-h", "delta-tau", "--k", "2"),
    ("class", "delta-tau", "--k", "-2"),
    ("slope", "--k", "3", "--variant", "trace", "--s-prime", "-7"),
    ("slope", "--k", "3", "--variant", "trace", "--s-prime", "-7/2"),
    ("m0n", "--b", "-5", "count"),
    ("table", "--quantity", "genus", "--k-min", "-1", "--k-max", "2"),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(PARSER_CASES), ARGVS))
def test_one_command_parser_matches_the_full_tree(argv):
    # the path main takes, which builds only argv[0]'s parser when it
    # names a command, gives the namespace of the full tree, or the same
    # exit code and the same text
    with _paths(argv) as concrete:
        taken = outcome(cli._parse_args, concrete)
        full = outcome(cli._build_parser().parse_args, concrete)
    assert taken == full


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_command_parser_matches_the_full_tree_on_each_case(argv):
    assert outcome(cli._parse_args, argv) == outcome(cli._build_parser().parse_args, argv)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = {" ".join(argv): record(argv) for argv in PARSER_ARGVS}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(records)} records to {FIXTURE}", file=sys.stderr)
