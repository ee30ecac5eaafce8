"""The command-line grammar: the bytes argparse writes, a fuzz over the
grammar, and the plain parse, which reads most lines without argparse.

``golden_parser.json`` pins the exit code and the sha256 of stdout and
stderr of every command line in ``PARSER_ARGVS``: the help texts, the
usage errors and the missing required options, with the terminal width
set to 80 columns (argparse wraps help to it).  Re-record only for a
change that is meant to alter these bytes, and name it in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_parser.py
"""

from __future__ import annotations

import argparse
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
from test_cli import _COMMANDS as LISTED

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


@st.composite
def table_lines(draw) -> tuple[str, ...]:
    """A line of one command built from its entry of the command table,
    so that many are plain: each required option and some others with a
    drawn value, in a drawn order, the positionals as one run among them,
    and now and then one more token anywhere after the command."""
    name = draw(st.sampled_from(COMMANDS))
    arguments = cli._COMMANDS[name][3]
    chunks = [
        draw(_option(flag))
        for flag, options in arguments
        if flag.startswith("-") and (options.get("required") or draw(st.booleans()))
    ]
    chunks = draw(st.permutations(chunks))
    width = sum(not flag.startswith("-") for flag, _ in arguments)
    run = draw(st.lists(st.sampled_from(POSITIONALS), min_size=width, max_size=2 * width))
    chunks.insert(draw(st.integers(0, len(chunks))), run)
    argv = [name, *(token for chunk in chunks for token in chunk)]
    if draw(st.booleans()):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(TOKENS)))
    return tuple(argv)


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


# command lines on both sides of the boundary of the plain parse, which
# main reads straight from the command table, and the lines it leaves to
# the full tree: arguments left over, "--" after the command, -h before,
# among and after the arguments, values and positionals starting with
# "-", an option given twice, abbreviations, --flag=value, positionals
# split by an option, and values that int reads although they are not
# ASCII digits; the fuzz draws such lines too, and the parametrized test
# runs each one every time
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
    ("slope", "--k", "2", "--k", "3", "--variant", "kappa"),
    ("class", "eh-divisor", "--k", "3", "--normalized", "--normalized"),
    ("class", "delta-tau", "--k", ""),
    ("verify", "--k-min", "1", "--k-max", "1", "--checks", ""),
    ("class", "delta-tau", "--k", " 3"),
    ("class", "delta-tau", "--k", "١"),
    ("class", "delta-tau", "--k", "2", "--out", "-"),
    ("class", "-x y", "--k", "2"),
    ("slope", "--k", "3", "--var", "trace", "--s-prime", "12"),
    ("verify", "--k-m", "1", "--k-max", "1"),
    ("class", "delta-tau", "--k=2"),
    ("m0n", "normalize", "--b", "5", "4,5"),
    ("m0n", "--b", "5", "intersect", "4,5", "5,6"),
    ("m0n", "intersect", "4,5", "5,6", "--b", "5", "--out", "x"),
    ("class", "--normalized", "eh-divisor", "--k", "3", "--format", "csv"),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(PARSER_CASES), ARGVS, table_lines()))
def test_parse_args_matches_the_full_tree(argv):
    # the path main takes, which reads a plain line straight from the
    # command table and hands every other line to the full tree, gives
    # the namespace of the full tree, or the same exit code and text
    with _paths(argv) as concrete:
        taken = outcome(cli._parse_args, concrete)
        full = outcome(cli._build_parser().parse_args, concrete)
    assert taken == full


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_parse_args_matches_the_full_tree_on_each_case(argv):
    assert outcome(cli._parse_args, argv) == outcome(cli._build_parser().parse_args, argv)


def test_plain_parse_reads_every_keyword_of_the_command_table():
    # _parse_plain knows these keywords and no others (help text is
    # argparse's alone); argparse would also put a str default through
    # the type, and a "*" positional before another one would not take
    # the rest of the run
    for _, _, _, arguments in cli._COMMANDS.values():
        for flag, options in arguments:
            assert set(options) <= {"action", "choices", "default", "help", "nargs", "required", "type"}
            assert options.get("action", "store_true") == "store_true"
            assert options.get("nargs", "*") == "*"
            assert not ("type" in options and isinstance(options.get("default"), str))
        positionals = [options for flag, options in arguments if not flag.startswith("-")]
        assert all("nargs" not in options for options in positionals[:-1])


# The fast path, pinned: no ArgumentParser is built for a line of any
# shape the benchmark issues (perfbench/workloads.py, and the set-up
# command of perfbench/run.py), nor for a line of the CI command list
# other than the ones listed below, which only the full tree parses.
WORKLOAD_LINES = (
    ("m0n", "--b", "4", "count"),
    ("verify", "--k-min", "51", "--k-max", "51"),
    ("class", "delta-tau", "--k", "86", "--format", "json"),
    ("class", "eh-divisor", "--k", "90", "--format", "csv", "--normalized"),
    ("table", "--quantity", "coefficients:p-phi-lambda", "--k-min", "26", "--k-max", "38",
     "--format", "json"),
    ("table", "--quantity", "coefficients:p-phi-lambda", "--k-min", "26", "--k-max", "38",
     "--format", "json", "--normalized"),
    ("verify", "--k-min", "6", "--k-max", "8", "--checks", "delta-j-checks",
     "--externals", "externals-k7.json"),
    ("slope", "--k", "7", "--s-prime", "23/2", "--variant", "reduced",
     "--externals", "externals-k7.json"),
    ("slope", "--k", "7", "--variant", "kappa", "--externals", "externals-k7.json"),
)
FULL_TREE_LINES = {
    "--help",
    "slope --help",
    "class delta-tau --k=2",
    "slope --k 3 --var trace --s-prime 12",
    "verify --k-min=1 --k-max 2 --checks genus",
    # an integer option spelled outside [+-]?[0-9]+ is argparse's error
    "class delta-tau --k \u0663",
    "m0n --b 1_0 count",
}


@pytest.fixture
def parsers_built(monkeypatch) -> list:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize("argv", (*WORKLOAD_LINES, *LISTED), ids=" ".join)
def test_only_a_full_tree_line_builds_a_parser(argv, parsers_built):
    taken = outcome(cli._parse_args, argv)
    assert (parsers_built == []) == (" ".join(argv) not in FULL_TREE_LINES)
    assert taken == outcome(cli._build_parser().parse_args, argv)


def test_every_full_tree_line_is_listed():
    assert FULL_TREE_LINES <= {" ".join(argv) for argv in LISTED}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    records = {" ".join(argv): record(argv) for argv in PARSER_ARGVS}
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(records, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(records)} records to {FIXTURE}", file=sys.stderr)
