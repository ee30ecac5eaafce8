import csv
import io
import json
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, strategies as st

from hurwitzdiv.bases import (
    E0,
    E3,
    HURWITZ,
    M0B_SYM,
    MG,
    MG_HAT,
    MG_PRIME,
    Basis,
    DivisorClass,
    Ejc,
    delta,
    hurwitz_basis,
    mg_basis,
)
from hurwitzdiv.core import AffineExpr, b_sym, c_sym, parse_rational
from hurwitzdiv.pushforward import (
    ExternalCoeffs,
    PER_FACTORIAL_B,
    RAW,
    p_phihat_lambda,
    p_q_kappa,
)
from hurwitzdiv.serialize import (
    affine_from_obj,
    affine_to_obj,
    class_from_obj,
    class_to_csv,
    class_to_json,
    class_to_md,
    class_to_obj,
    coefficient_texts,
    decimal_approx,
    dumps_canonical,
    externals_from_obj,
    load_externals,
    table_to_csv,
    table_to_json,
    table_to_md,
)
from hurwitzdiv.trace import delta_tau, phi_pull_lambda
from test_bases import assert_apply_is_substitute, emission_scales, with_weights


def test_affine_obj_round_trip():
    e = AffineExpr(Fraction(1, 5), {c_sym(1): Fraction(1, 4), b_sym(2): Fraction(-3, 10)})
    obj = affine_to_obj(e)
    assert obj == {"const": "1/5", "c": {"1": "1/4"}, "b": {"2": "-3/10"}}
    assert affine_from_obj(obj) == e
    constant = affine_to_obj(AffineExpr(Fraction(2)))
    assert constant == {"const": "2/1"}


def test_class_json_examples():
    obj = class_to_obj(delta_tau(1), RAW)
    assert obj["schema"] == "divisor-class/1"
    assert obj["basis"] == "Hurwitz"
    assert obj["k"] == 1
    assert obj["coefficients"] == {
        "E0": {"const": "2/1"},
        "E_1_0": {"const": "1/1"},
    }
    phi = class_to_obj(phi_pull_lambda(1), RAW)
    assert phi["coefficients"] == {
        "E0": {"const": "1/5"},
        "E_1_0": {"const": "1/5"},
    }


def test_class_json_byte_round_trip():
    for d, mode in (
        (delta_tau(3), RAW),
        (phi_pull_lambda(2), RAW),
        (p_phihat_lambda(2), PER_FACTORIAL_B),
    ):
        text = class_to_json(d, mode)
        parsed, mode_back = class_from_obj(json.loads(text))
        assert (parsed, mode_back) == (d, mode)
        assert class_to_json(parsed, mode_back) == text


def test_class_from_obj_rejects_wrong_schema():
    with pytest.raises(ValueError):
        class_from_obj({"schema": "nope", "k": 1})


def test_class_csv_and_md():
    text = class_to_csv(delta_tau(1))
    assert text == "E0,2/1\nE_1_0,1/1\n"
    md = class_to_md(delta_tau(1))
    assert "| E0 | 2/1 |" in md
    symbolic = DivisorClass(
        mg_basis(1), {delta(1): AffineExpr(Fraction(8, 5), {c_sym(1): Fraction(3, 5)})}
    )
    assert class_to_csv(symbolic) == "delta_1,8/5 + 3/5*c_1\n"


def test_table_renderers():
    csv_text = table_to_csv(["k", "slope"], [["1", "21/2"]])
    assert csv_text == "k,slope\n1,21/2\n"
    md_text = table_to_md(["k", "slope"], [["1", "21/2"]])
    assert md_text.splitlines()[0] == "| k | slope |"
    quoted = table_to_csv(["a"], [['x,"y']])
    assert quoted == 'a\n"x,""y"\n'


def test_decimal_approx():
    assert decimal_approx(Fraction(489, 59)) == "8.288136"
    assert decimal_approx(Fraction(33, 4)) == "8.250000"
    assert decimal_approx(Fraction(21, 2)) == "10.500000"
    assert decimal_approx(Fraction(-1, 3)) == "-0.333333"
    assert decimal_approx(Fraction(1, 2_000_000)) == "0.000000"  # ties go to even
    assert decimal_approx(Fraction(3, 2_000_000)) == "0.000002"
    assert decimal_approx(Fraction(0)) == "0.000000"


@given(st.fractions(max_denominator=10**9))
@example(Fraction(5, 2_000_000))
@example(Fraction(-3, 2_000_000))
@example(Fraction(-1, 2_000_000))
def test_decimal_approx_is_the_fraction_rounded_to_six_places(x):
    # Fraction.__round__ rounds exactly, ties to even, and the sign is
    # the sign of x even where the rounded value is zero
    text = decimal_approx(x)
    assert re.fullmatch(r"-?[0-9]+\.[0-9]{6}", text)
    assert Fraction(text) == round(x, 6)
    assert text.startswith("-") == (x < 0)


def test_externals_round_trip(tmp_path):
    ext = ExternalCoeffs(2, {1: Fraction(1, 2), 2: Fraction(3)}, {1: Fraction(0), 2: Fraction(-5, 7)})
    obj = {
        "schema": "external-coeffs/1",
        "k": 2,
        "c": {"1": "1/2", "2": "3/1"},
        "b": {"1": "0/1", "2": "-5/7"},
    }
    assert externals_from_obj(obj) == ext
    path = tmp_path / "ext.json"
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    assert load_externals(str(path)) == ext
    # a table read from unreduced text equals the one of its values: its
    # integers sit over another lcm, and == compares the values
    unreduced = {**obj, "c": {"1": "+6/4", "2": "3/1"}}
    assert externals_from_obj(unreduced) == ExternalCoeffs(
        2, {1: Fraction(3, 2), 2: Fraction(3)}, ext.b
    )


def test_load_externals_rejects_a_repeated_key(tmp_path):
    path = tmp_path / "ext.json"
    path.write_text(
        '{"schema": "external-coeffs/1", "k": 1, "c": {"1": "1", "1": "5"}, "b": {"1": "0"}}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="twice"):
        load_externals(str(path))


def test_externals_rejects_partial_tables():
    with pytest.raises(ValueError):
        externals_from_obj(
            {"schema": "external-coeffs/1", "k": 2, "c": {"1": "1/2"}, "b": {"1": "0", "2": "1"}}
        )
    with pytest.raises(ValueError):
        externals_from_obj({"schema": "wrong", "k": 1, "c": {"1": "0"}, "b": {"1": "0"}})


@pytest.mark.parametrize(
    "obj",
    [
        [],
        "external-coeffs/1",
        None,
        {"schema": "external-coeffs/1", "k": "1", "c": {"1": "0"}, "b": {"1": "0"}},
        {"schema": "external-coeffs/1", "k": True, "c": {"1": "0"}, "b": {"1": "0"}},
        {"schema": "external-coeffs/1", "k": 1, "c": ["0"], "b": {"1": "0"}},
        {"schema": "external-coeffs/1", "k": 1, "c": {"one": "0"}, "b": {"1": "0"}},
        {"schema": "external-coeffs/1", "k": 1, "c": {"1": 0.5}, "b": {"1": "0"}},
        {"schema": "external-coeffs/1", "k": 1, "c": {"\u0661": "0"}, "b": {"1": "0"}},
        {"schema": "external-coeffs/1", "k": 1, "c": {"01": "0"}, "b": {"1": "0"}},
        {"schema": "external-coeffs/1", "k": 1, "c": {"1": "1", "01": "5"}, "b": {"1": "0"}},
        {"schema": "external-coeffs/1", "k": 1, "c": {"+1": "0"}, "b": {"1": "0"}},
        {"schema": "external-coeffs/1", "k": 1, "c": {"1": "0", "0": "0"}, "b": {"1": "0"}},
        {"schema": "external-coeffs/1", "k": 1, "c": {"1": "0"}, "b": {"1": "0"}, "notes": "x"},
        {"schema": "external-coeffs/1", "k": 1, "c": {"1": "0"}, "b": {"1": "0"}, "bb": {}},
    ],
)
def test_externals_rejects_malformed_shapes(obj):
    with pytest.raises(ValueError):
        externals_from_obj(obj)


def test_externals_name_unknown_keys_before_missing_ones_and_k():
    # the header of a table is read as that of a divisor class: the
    # exact key set, unknown keys first, then missing ones, then k
    for obj, text in (
        ({"schema": "external-coeffs/1", "k": 1, "c": {"1": "0"}},
         "an external coefficient table lacks the keys ['b']"),
        ({"schema": "external-coeffs/1", "k": 0, "c": {}, "notes": "x"},
         "an external coefficient table has unknown keys ['notes']"),
        ({"schema": "external-coeffs/1", "k": 0, "c": {}, "b": {}},
         "external table 'k' must be a positive integer, got 0"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            externals_from_obj(obj)


@pytest.mark.parametrize("index", ["0", "01", "+1", " 1", "", "\u0661", "\u00b2"])
def test_externals_index_outside_the_grammar_is_named(index):
    # externals indices are the index grammar without 0: [1-9][0-9]*
    obj = {"schema": "external-coeffs/1", "k": 1, "c": {"1": "0", index: "0"}, "b": {"1": "0"}}
    with pytest.raises(ValueError, match="'c' has a malformed index"):
        externals_from_obj(obj)


def reference_rational(text: str) -> Fraction:
    """The rational grammar read independently of ``core.parse_ratio``:
    one regex over the whole text, then a reduced ``Fraction``."""
    if not re.fullmatch(r"[+-]?[0-9]+(?:/[0-9]+)?", text):
        raise ValueError(f"not a rational literal: {text!r}")
    numerator, _, denominator = text.partition("/")
    if denominator and not denominator.strip("0"):
        raise ValueError(f"zero denominator in rational literal {text!r}")
    return Fraction(int(numerator), int(denominator or 1))


def _value_or_error(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return ("ValueError", str(exc))


# texts in the grammar, and just outside it: whitespace, digit
# separators, non-ASCII digits, decimal points, exponents, signs in the
# wrong place, zero denominators
RATIONAL_TEXTS = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
    st.text(alphabet="0123456789+-/ _.e\u0661\u00b2\u2212", max_size=8),
    st.sampled_from(
        ("+6/4", "-0", "007/010", "1/0", "1/000", "0.5", "1_0", " 1", "1 ", "1\n",
         "\u0661", "\uff11", "", "+", "-", "/2", "1/", "3/-4", "+-1", "1e3")
    ),
)


@given(RATIONAL_TEXTS, RATIONAL_TEXTS)
@example("+6/4", "007/010")
@example("-0", "1/0")
@example("12", "0.5")
def test_externals_reader_matches_parse_rational(c_text, b_text):
    # value for value, and the same ValueError text for the first
    # malformed value, c before b
    expected = [_value_or_error(reference_rational, text) for text in (c_text, b_text)]
    assert [_value_or_error(parse_rational, text) for text in (c_text, b_text)] == expected
    obj = {"schema": "external-coeffs/1", "k": 1, "c": {"1": c_text}, "b": {"1": b_text}}
    got = _value_or_error(externals_from_obj, obj)
    errors = [value for value in expected if type(value) is tuple]
    if errors:
        assert got == errors[0]
        return
    assert [got.c, got.b] == [{1: expected[0]}, {1: expected[1]}]
    assert all(type(value) is Fraction for value in (*got.c.values(), *got.b.values()))
    d = p_q_kappa(1)  # carries c_1 and b_1 on delta_1
    applied = assert_apply_is_substitute(got, d)
    assert all(value.is_constant() for _, value in applied.items())


BIG = factorial(6 * 20)
numerators = st.one_of(st.integers(-60, 60), st.integers(-BIG, BIG))
denominators = st.one_of(st.integers(1, 60), st.integers(1, BIG))
big_rationals = st.builds(Fraction, numerators, denominators)
constant_values = st.one_of(st.just(0), big_rationals)


@st.composite
def any_classes(draw):
    """Divisor classes over all five basis kinds, k up to 12 (so names
    such as E_10_0 and deltaP_10 occur), with constant coefficients of
    (6*20)!-sized numerators over pairwise different denominators, and
    on Mg, where symbols live, the two weights of c_j and b_j on every
    delta_j, so symbolic and symbol-only coefficients too; the zero
    class included."""
    kind = draw(st.sampled_from((HURWITZ, MG, M0B_SYM, MG_PRIME, MG_HAT)))
    basis = Basis(kind, draw(st.integers(1, 12)))
    generators = list(basis.generators())
    coeffs = draw(st.dictionaries(st.sampled_from(generators), constant_values, max_size=8))
    if kind == MG:
        coeffs = with_weights(basis.k, coeffs, draw(constant_values), draw(constant_values))
    return DivisorClass(basis, coeffs)


# c_j and b_j on every delta_j, symbol-only coefficients among them, and
# indices >= 10, which JSON orders before 2 ("10" < "2")
MIXED_CLASS = DivisorClass(
    mg_basis(12),
    with_weights(
        12,
        {delta(2): Fraction(-BIG, 7), delta(11): Fraction(5, 13)},
        Fraction(BIG + 1, 11),
        Fraction(-7, BIG + 1),
    ),
)


# constant-only Hurwitz classes, rendered row by row: over denominator 1,
# and over a denominator that some entries share a factor with
INTEGER_ROWS_CLASS = DivisorClass(
    hurwitz_basis(12), {E0: -3, Ejc(10, 4): 7, Ejc(11, 0): -12, Ejc(12, 6): 1}
)
FRACTION_ROWS_CLASS = DivisorClass(
    hurwitz_basis(12),
    {E3: Fraction(5, 6), Ejc(1, 0): Fraction(-1, 3), Ejc(12, 6): Fraction(7, 4)},
)


@given(any_classes(), st.sampled_from((RAW, PER_FACTORIAL_B)), emission_scales)
@example(MIXED_CLASS, RAW, 1)
@example(MIXED_CLASS, RAW, factorial(6 * 12))
@example(INTEGER_ROWS_CLASS, RAW, 1)
@example(INTEGER_ROWS_CLASS, RAW, factorial(6 * 40))
@example(FRACTION_ROWS_CLASS, RAW, 1)
@example(FRACTION_ROWS_CLASS, RAW, 10)
@example(DivisorClass(mg_basis(3)), PER_FACTORIAL_B, 1)
def test_renderer_matches_affine_reference(d, mode, scale):
    # each writer renders d * scale without building it; the reference
    # builds it and goes through AffineExpr and the json/csv modules
    scaled = d * scale
    assert class_to_json(d, mode, scale) == dumps_canonical(class_to_obj(scaled, mode))
    rows = [(name, str(value)) for name, value in scaled.items()]
    assert coefficient_texts(d, scale) == rows
    reference_csv = io.StringIO()
    csv.writer(reference_csv, lineterminator="\n").writerows(rows)
    assert class_to_csv(d, scale) == reference_csv.getvalue()
    assert class_to_md(d, scale).splitlines()[2:] == [
        f"| {name} | {text} |" for name, text in rows
    ]


def test_mixed_class_renders_both_families_and_index_order():
    text = class_to_json(MIXED_CLASS, RAW)
    obj = json.loads(text)["coefficients"]
    assert list(obj)[:5] == [delta(1), delta(10), delta(11), delta(12), delta(2)]
    assert obj[delta(10)] == {
        "b": {"10": f"-7/{BIG + 1}"},
        "c": {"10": f"{BIG + 1}/11"},
        "const": "0/1",
    }
    assert list(obj[delta(2)]) == ["b", "c", "const"]
    texts = dict(coefficient_texts(MIXED_CLASS))
    assert texts[delta(10)] == f"{BIG + 1}/11*c_10 - 7/{BIG + 1}*b_10"
    assert texts[delta(11)] == f"5/13 + {BIG + 1}/11*c_11 - 7/{BIG + 1}*b_11"


@given(
    st.lists(st.text(max_size=5), min_size=1, max_size=4),
    st.data(),
)
def test_table_json_matches_reference(columns, data):
    row = st.lists(st.text(max_size=8), min_size=len(columns), max_size=len(columns))
    rows = data.draw(st.lists(row, max_size=4))
    expected = dumps_canonical([dict(zip(columns, values)) for values in rows])
    assert table_to_json(columns, rows) == expected


_DROP = object()
# the weight 2 of c_j on delta_1 and delta_2, and a constant on delta_1
REFERENCE_CLASS = DivisorClass(
    mg_basis(2),
    {delta(1): AffineExpr(1, {c_sym(1): 2}), delta(2): AffineExpr(0, {c_sym(2): 2})},
)


def _malformed(**changes):
    """A valid divisor-class/1 object with ``changes`` applied; a key set
    to ``_DROP`` is removed."""
    obj = class_to_obj(REFERENCE_CLASS, RAW)
    obj.update(changes)
    return {key: value for key, value in obj.items() if value is not _DROP}


@pytest.mark.parametrize(
    "obj",
    [
        [],
        "divisor-class/1",
        _malformed(extra="x"),
        _malformed(normalization=_DROP),
        _malformed(basis="Nope"),
        _malformed(basis=["Mg"]),
        _malformed(k="2"),
        _malformed(k=True),
        _malformed(k=0),
        _malformed(k=2.0),
        _malformed(normalization="cooked"),
        _malformed(normalization=None),
        _malformed(coefficients=[]),
        _malformed(coefficients={"delta_1": "1/2"}),
        _malformed(coefficients={"delta_1": {"c": {"1": "1/2"}}}),
        _malformed(coefficients={"delta_1": {"const": "1", "d": {}}}),
        _malformed(coefficients={"delta_1": {"const": 0.5}}),
        _malformed(coefficients={"delta_1": {"const": "0.5"}}),
        _malformed(coefficients={"delta_1": {"const": "1", "c": ["1/2"]}}),
        _malformed(coefficients={"delta_1": {"const": "1", "c": {"01": "1/2"}}}),
        _malformed(coefficients={"delta_1": {"const": "1", "c": {"\u0661": "1/2"}}}),
        _malformed(coefficients={"delta_1": {"const": "1", "b": {"0": "1/2"}}}),
        _malformed(coefficients={"delta_1": {"const": "1", "b": {"1": 1}}}),
        _malformed(coefficients={"delta_1": {"const": "1", "b": {"1": "1/0"}}}),
        _malformed(coefficients={"E0": {"const": "1"}}),
        # a symbol off Mg: on Hurwitz E_{j,c} and E0, and on M0bSym
        _malformed(basis="Hurwitz", coefficients={"E_2_1": {"const": "1", "c": {"1": "1/2"}}}),
        _malformed(basis="Hurwitz", coefficients={"E0": {"const": "0", "b": {"2": "1"}}}),
        _malformed(basis="M0bSym", coefficients={"T2": {"const": "1", "c": {"1": "1"}}}),
    ],
)
def test_class_from_obj_rejects_malformed_shapes(obj):
    with pytest.raises(ValueError):
        class_from_obj(obj)


def test_class_from_obj_refuses_a_symbol_off_mg():
    # the JSON shape is fine, the class is not: symbols live only over Mg
    for basis, name in (("Hurwitz", "E_2_1"), ("M0bSym", "T2"), ("MgPrime", "deltaP_3")):
        obj = _malformed(basis=basis, coefficients={name: {"const": "1", "c": {"1": "1/2"}}})
        text = f"generator {name!r} of {basis}(k=2) cannot carry an external symbol"
        with pytest.raises(ValueError, match=re.escape(text)):
            class_from_obj(obj)
    # the constant half of the same object is read
    obj = _malformed(basis="Hurwitz", coefficients={"E_2_1": {"const": "1/2"}})
    assert class_from_obj(obj) == (DivisorClass(hurwitz_basis(2), {Ejc(2, 1): Fraction(1, 2)}), RAW)


def test_class_from_obj_accepts_the_reference_object():
    assert class_from_obj(_malformed()) == (REFERENCE_CLASS, RAW)
