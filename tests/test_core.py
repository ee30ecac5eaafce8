import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from affine_model import affine, combine, expr, substitute
from hurwitzdiv.bases import DivisorClass, LAMBDA, mg_basis
from hurwitzdiv.core import (
    AffineExpr,
    ExtSymbol,
    b_sym,
    c_sym,
    display_key,
    format_rational,
    parse_rational,
)

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40
)
symbols = st.sampled_from([c_sym(1), c_sym(2), b_sym(1), b_sym(3)])
affines = st.builds(
    AffineExpr,
    rationals,
    st.dictionaries(symbols, rationals, max_size=3),
)


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


def test_parse_and_format():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == Fraction(5)
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(2) == "2/1"
    with pytest.raises(ValueError):
        parse_rational("x/y")
    with pytest.raises(ValueError):
        parse_rational("1/0")


@pytest.mark.parametrize(
    "text",
    ["1e400", "0.5", "1_000", " 5", "5 ", "3/-4", "+", "/2", "1/", "1/0", "1/00", "\u0661", ""],
)
def test_parse_rational_rejects_everything_outside_the_grammar(text):
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rational_grammar():
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("214/67") == Fraction(214, 67)
    assert parse_rational("+6/4") == Fraction(3, 2)
    assert parse_rational("-0") == 0


def test_format_parse_round_trip():
    for x in (Fraction(0), Fraction(-5, 7), Fraction(22, 11), Fraction(10**30, 7)):
        assert parse_rational(format_rational(x)) == x


def test_ext_symbol_validation():
    assert str(c_sym(2)) == "c_2"
    assert str(b_sym(1)) == "b_1"
    with pytest.raises(ValueError):
        ExtSymbol("x", 1)
    # the text names the type: True and "2" would read as valid indices
    for index, got in (
        (0, "0 (int)"),
        (True, "True (bool)"),
        (2.0, "2.0 (float)"),
        ("2", "'2' (str)"),
    ):
        text = f"symbol index must be an int >= 1, got {got}"
        with pytest.raises(ValueError, match=re.escape(text)):
            ExtSymbol("c", index)


def test_ext_symbol_identity_order_and_text():
    # separately built symbols are one dict key; ordering is by (family,
    # index), display order puts c_j before b_j
    assert c_sym(1) == ExtSymbol("c", 1) and c_sym(1) is not ExtSymbol("c", 1)
    assert hash(c_sym(1)) == hash(c_sym(1))
    assert len({c_sym(1), ExtSymbol("c", 1), b_sym(1)}) == 2
    assert c_sym(1) != b_sym(1) and c_sym(1) != c_sym(2)
    built = [c_sym(10), b_sym(2), c_sym(2), b_sym(10), c_sym(1)]
    assert sorted(built) == [b_sym(2), b_sym(10), c_sym(1), c_sym(2), c_sym(10)]
    assert sorted(built, key=display_key) == [
        c_sym(1), c_sym(2), c_sym(10), b_sym(2), b_sym(10)
    ]
    assert [str(s) for s in built] == ["c_10", "b_2", "c_2", "b_10", "c_1"]
    assert (c_sym(3).family, c_sym(3).index) == ("c", 3)
    with pytest.raises(AttributeError):
        c_sym(3).index = 4


def test_affine_drops_zero_terms():
    e = AffineExpr(1, {c_sym(1): 0, b_sym(1): Fraction(1, 2)})
    assert e.terms == {b_sym(1): Fraction(1, 2)}
    assert AffineExpr(0).is_constant()
    assert not AffineExpr(0)


def test_affine_equality_and_hash():
    e1 = AffineExpr(Fraction(1, 2), {c_sym(1): 2})
    e2 = AffineExpr(Fraction(1, 2), {c_sym(1): Fraction(2)})
    assert e1 == e2
    assert hash(e1) == hash(e2)
    assert AffineExpr(3) == 3
    assert e1 != AffineExpr(Fraction(1, 2))


@given(rationals)
def test_constant_affine_hashes_like_its_fraction(value):
    # equal objects must hash alike, or sets and dicts hold both forms
    assert AffineExpr(value) == value
    assert hash(AffineExpr(value)) == hash(value)
    assert len({AffineExpr(value), value}) == 1
    assert len({AffineExpr(3), Fraction(3), 3}) == 1


def test_affine_expr_has_no_arithmetic():
    # a read-only value: no operator takes it, not even a divisor class
    d = DivisorClass(mg_basis(1), {LAMBDA: 1})
    for op in (
        lambda: AffineExpr(1) + 1,
        lambda: 2 * AffineExpr(1),
        lambda: AffineExpr(1) / 2,
        lambda: d * AffineExpr(2),
        lambda: AffineExpr(2) * d,
    ):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(ValueError, match="not constant"):
        AffineExpr(1, {c_sym(1): 1}).constant_value()


def test_substitute_examples():
    e = AffineExpr(3, {c_sym(1): 2})
    assert e.substitute({c_sym(1): Fraction(1, 2)}) == AffineExpr(4)
    assert AffineExpr(5).substitute({}) == AffineExpr(5)
    partial = AffineExpr(0, {c_sym(1): 1, b_sym(1): 1})
    assert partial.substitute({c_sym(1): 0}) == AffineExpr(0, {b_sym(1): 1})


def test_substitute_full_substitution_is_constant():
    e = AffineExpr(Fraction(1, 7), {c_sym(1): 2, b_sym(1): Fraction(-3, 5)})
    out = e.substitute({c_sym(1): Fraction(1, 2), b_sym(1): 5})
    assert out.is_constant()
    assert out.constant_value() == Fraction(1, 7) + 1 - 3


@given(affines, affines, rationals, st.dictionaries(symbols, rationals, max_size=4))
def test_substitute_is_linear(e1, e2, a, values):
    # a * e1 + e2 is formed in the reference model of tests/affine_model.py
    combined = combine([(a, affine(e1)), (1, affine(e2))])
    left = affine(expr(combined).substitute(values))
    right = combine(
        [(a, affine(e1.substitute(values))), (1, affine(e2.substitute(values)))]
    )
    assert left == right == substitute(combined, values)


def test_affine_text_rendering():
    assert str(AffineExpr(Fraction(5))) == "5/1"
    e = AffineExpr(Fraction(1, 5), {c_sym(1): Fraction(1, 4), b_sym(1): Fraction(-3, 10)})
    assert str(e) == "1/5 + 1/4*c_1 - 3/10*b_1"
    pure = AffineExpr(0, {b_sym(2): Fraction(-1, 2)})
    assert str(pure) == "-1/2*b_2"
