"""The examples of README.md hold: every line of "Library use" and of
"Command line" that states a value in its comment is run and compared
with that value, and every other commented line is listed here as a
description, so a new example is pinned or named when it is added."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

import hurwitzdiv as hd
from hurwitzdiv.bases import DivisorClass, LAMBDA, delta
from hurwitzdiv.cli import main
from hurwitzdiv.core import AffineExpr

README = Path(__file__).resolve().parents[1] / "README.md"


def _code_block(heading: str, lang: str) -> list[tuple[str, str]]:
    """(code, comment) of each commented line of the first ``lang``
    block under the heading."""
    section = README.read_text(encoding="utf-8").split(f"\n## {heading}\n", 1)[1]
    block = section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep:
            lines.append((code.strip(), comment.strip()))
    return lines


def _units(d: DivisorClass) -> dict[str, DivisorClass]:
    """Each generator of the basis of ``d`` as a class, by its name."""
    return {g: DivisorClass(d.basis, {g: 1}) for g in d.basis.generators()}


def _leading_terms(d: DivisorClass, comment: str) -> None:
    """A comment "569 lambda - 67 delta_0 - ..." lists the first
    coefficients of ``d``; the "..." says that more follow."""
    listed, more = comment.removesuffix(" - ..."), comment.endswith(" - ...")
    terms = re.findall(r"(?:^|([+-]) )(\d+) (\w+)", listed)
    assert terms
    for sign, n, name in terms:
        assert d.coefficient(name) == AffineExpr(-int(n) if sign == "-" else int(n)), name
    assert d.support()[: len(terms)] == [name for _, _, name in terms]
    assert (len(d.support()) > len(terms)) == more


def _fraction(value, comment):
    assert value == eval(comment, {"Fraction": Fraction})


def _check_delta_tau(d, comment):
    # "node class of the trace family over k = 2"
    assert d.basis == hd.hurwitz_basis(2) and not d.is_zero()


def _check_class_sum(d, comment):
    # "(E0 + E_1_0)/5", read with each generator name bound to its class
    assert d == eval(comment, _units(d))


def _check_pushed_hodge(d, comment):
    _leading_terms(d, comment.removeprefix("pushed Hodge class, "))


def _check_slope_bound(value, comment):
    # "Fraction(33, 4) == 6 + 18/(g+2)" at k = 3, so g = 2k = 6
    left, right = comment.split("==")
    _fraction(value, left)
    assert value == eval(right, {"g": Fraction(6)})


def _check_slope_target(d, comment):
    # "a class of that slope": the induced slope of the line above
    assert hd.slope_of(d).slope == hd.induced_slope(3, Fraction(12), "trace")


LIBRARY = {
    "hd.delta_tau(2)": _check_delta_tau,
    "hd.phi_pull_lambda(1)": _check_class_sum,
    "hd.p_phi_lambda(3)": _check_pushed_hodge,
    "hd.kappa_slope_bound(3)": _check_slope_bound,
    'hd.induced_slope(3, Fraction(12), "trace")': _fraction,
    'hd.induced_slope(3, Fraction(12), "reduced")': _fraction,
    'hd.slope_target(3, Fraction(12), "trace")': _check_slope_target,
}

# command lines whose comment describes them rather than their output
DESCRIBED = {
    "hurwitzdiv class delta-tau --k 2": "json (canonical format)",
    "hurwitzdiv class p-q-kappa --k 2 --normalized": "divide out the (6k)! factor",
    "hurwitzdiv verify --k-min 1 --k-max 50": "full identity sweep",
}


def test_every_commented_example_is_pinned():
    assert [code for code, _ in _code_block("Library use", "python")] == list(LIBRARY)
    commands = dict(_code_block("Command line", "sh"))
    assert set(DESCRIBED.items()) <= set(commands.items())
    outputs = [comment for code, comment in commands.items() if code not in DESCRIBED]
    assert outputs == [
        "E_1_0,5/1",
        "delta_1,64/11 + 9/11*c_1 - 27/11*b_1",
        "21/2 ≈ 10.500000",
        "{3,4,5,6}",
        "empty",
    ]


@pytest.mark.parametrize("code, comment", _code_block("Library use", "python"))
def test_library_example_gives_its_comment(code, comment):
    LIBRARY[code](eval(code, {"hd": hd, "Fraction": Fraction}), comment)


@pytest.mark.parametrize(
    "code, comment",
    [(c, m) for c, m in _code_block("Command line", "sh") if c not in DESCRIBED],
)
def test_command_example_prints_its_comment(code, comment, capsys):
    # the comment is an output line, or the start of one
    argv = code.split()
    assert argv[0] == "hurwitzdiv"
    assert main(argv[1:]) == 0
    out = capsys.readouterr().out.splitlines()
    assert any(line == comment or line.startswith(comment + " ") for line in out), out


def test_the_symbolic_example_carries_one_weight_pair(capsys):
    # "Where the symbols live": both delta_j of p-q-kappa at k = 2 carry
    # 9/11 c_j - 27/11 b_j, and lambda and delta_0 carry no symbol
    assert main(["class", "p-q-kappa", "--k", "2", "--normalized", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "lambda,324/1\n"
        "delta_0,-36/1\n"
        "delta_1,64/11 + 9/11*c_1 - 27/11*b_1\n"
        "delta_2,100/11 + 9/11*c_2 - 27/11*b_2\n"
    )


def test_the_leading_terms_reader_reads_signs_and_the_rest():
    d = DivisorClass(hd.mg_basis(2), {LAMBDA: 3, delta(0): -2, delta(1): 5})
    _leading_terms(d, "3 lambda - 2 delta_0 - ...")
    _leading_terms(d, "3 lambda - 2 delta_0 + 5 delta_1")
    for wrong in ("3 lambda + 2 delta_0 - ...", "3 lambda - 2 delta_0", "2 delta_0 - ..."):
        with pytest.raises(AssertionError):
            _leading_terms(d, wrong)
