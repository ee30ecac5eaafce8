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
    affine_to_obj,
    class_to_csv,
    class_to_json,
    class_to_md,
    class_to_obj,
    decimal_approx,
    dumps_canonical,
    externals_from_obj,
    load_externals,
    table_to_csv,
    table_to_json,
    table_to_md,
)
from hurwitzdiv.trace import delta_tau, phi_pull_lambda
from test_bases import assert_apply_is_substitute, csv_rows, emission_scales, with_weights


def test_affine_to_obj():
    e = AffineExpr(Fraction(1, 5), {c_sym(1): Fraction(1, 4), b_sym(2): Fraction(-3, 10)})
    obj = affine_to_obj(e)
    assert obj == {"const": "1/5", "c": {"1": "1/4"}, "b": {"2": "-3/10"}}
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
    # the text reads back as the object of the class, and the canonical
    # dump of what it reads back is the text again
    for d, mode, scale in (
        (delta_tau(3), RAW, 1),
        (phi_pull_lambda(2), RAW, 1),
        (p_phihat_lambda(2), PER_FACTORIAL_B, 1),
        (p_phihat_lambda(2), RAW, factorial(12)),
    ):
        text = class_to_json(d, mode, scale)
        assert json.loads(text) == class_to_obj(d * scale, mode)
        assert dumps_canonical(json.loads(text)) == text


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
    # the header is read in order: the exact key set, unknown keys
    # first, then missing ones, then k
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


_DROP = object()


def _table(**changes):
    """A valid external-coeffs/1 object at k = 1 with ``changes`` applied;
    a key set to ``_DROP`` is removed."""
    obj = {"schema": "external-coeffs/1", "k": 1, "c": {"1": "0"}, "b": {"1": "0"}}
    obj.update(changes)
    return {key: value for key, value in obj.items() if value is not _DROP}


_NOT_AN_OBJECT = "an external coefficient table must be a JSON object, got "
_SCHEMA = "expected schema 'external-coeffs/1', got "
_K = "external table 'k' must be a positive integer, got "
_NOT_A_MAP = "external table {!r} must map indices to \"p/q\" strings"
_INDEX = "external table {!r} has a malformed index {!r} (indices are 1, 2, 3, ... without leading zeros)"


# Every refusal of the reader, one branch at a time, with its whole text:
# the object, the schema, the key set, k, each index table, its indices,
# its values and their rational grammar, and then the coverage of 1..k.
@pytest.mark.parametrize(
    "obj, text",
    [
        ([], _NOT_AN_OBJECT + "an array"),
        ("external-coeffs/1", _NOT_AN_OBJECT + "a string"),
        (None, _NOT_AN_OBJECT + "null"),
        (1, _NOT_AN_OBJECT + "a number"),
        (0.5, _NOT_AN_OBJECT + "a number"),
        (True, _NOT_AN_OBJECT + "a boolean"),
        (_table(schema=_DROP), _SCHEMA + "None"),
        (_table(schema="external-coeffs/2"), _SCHEMA + "'external-coeffs/2'"),
        (_table(schema=None), _SCHEMA + "None"),
        (_table(schema=1), _SCHEMA + "1"),
        (_table(notes="x"), "an external coefficient table has unknown keys ['notes']"),
        (_table(b=_DROP), "an external coefficient table lacks the keys ['b']"),
        (_table(c=_DROP, b=_DROP), "an external coefficient table lacks the keys ['b', 'c']"),
        (_table(k=_DROP), "an external coefficient table lacks the keys ['k']"),
        (_table(c=_DROP, bb={}), "an external coefficient table has unknown keys ['bb']"),
        (_table(k=0), _K + "0"),
        (_table(k=-1), _K + "-1"),
        (_table(k="1"), _K + "'1'"),
        (_table(k=True), _K + "True"),
        (_table(k=1.0), _K + "1.0"),
        (_table(k=None), _K + "None"),
        (_table(c=["0"]), _NOT_A_MAP.format("c")),
        (_table(c="1/2"), _NOT_A_MAP.format("c")),
        (_table(c=0), _NOT_A_MAP.format("c")),
        (_table(b=[]), _NOT_A_MAP.format("b")),
        (_table(c={"0": "0"}), _INDEX.format("c", "0")),
        (_table(c={"1": "0", "01": "0"}), _INDEX.format("c", "01")),
        (_table(b={"+1": "0"}), _INDEX.format("b", "+1")),
        (_table(b={" 1": "0"}), _INDEX.format("b", " 1")),
        (_table(c={"": "0"}), _INDEX.format("c", "")),
        (_table(c={"\u0661": "0"}), _INDEX.format("c", "\u0661")),
        (_table(c={"\u00b2": "0"}), _INDEX.format("c", "\u00b2")),
        (_table(c={"one": "0"}), _INDEX.format("c", "one")),
        (_table(c={"1": 0}), 'c_1 must be a "p/q" string, got 0'),
        (_table(c={"1": 0.5}), 'c_1 must be a "p/q" string, got 0.5'),
        (_table(b={"1": None}), 'b_1 must be a "p/q" string, got null'),
        (_table(b={"1": ["1"]}), 'b_1 must be a "p/q" string, got ["1"]'),
        (_table(c={"1": {"const": "1"}}), 'c_1 must be a "p/q" string, got {"const": "1"}'),
        (_table(c={"1": True}), 'c_1 must be a "p/q" string, got true'),
        (_table(c={"1": "0.5"}), "not a rational literal: '0.5'"),
        (_table(c={"1": "1/0"}), "zero denominator in rational literal '1/0'"),
        (_table(b={"1": "1/000"}), "zero denominator in rational literal '1/000'"),
        (_table(c={"1": " 1"}), "not a rational literal: ' 1'"),
        (_table(b={"1": "3/-4"}), "not a rational literal: '3/-4'"),
        (_table(c={"1": ""}), "not a rational literal: ''"),
        # c is read before b
        (_table(c={"1": "x"}, b={"1": "1/0"}), "not a rational literal: 'x'"),
        (_table(c={}), "external table 'c' must cover exactly 1..1, got indices []"),
        (_table(c={"1": "0", "2": "0"}), "external table 'c' must cover exactly 1..1, got indices [1, 2]"),
        (_table(k=2), "external table 'c' must cover exactly 1..2, got indices [1]"),
        (
            _table(k=2, c={"1": "0", "2": "0"}, b={"1": "0", "3": "0"}),
            "external table 'b' must cover exactly 1..2, got indices [1, 3]",
        ),
    ],
)
def test_externals_refusal_texts(obj, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
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
    """Divisor classes over all three basis kinds, k up to 22 (so names
    such as E_10_0, E_20_10, delta_10 and T3j_10 occur, which JSON orders
    before E_2_0, delta_2 and T3j_2), with constant coefficients of
    (6*20)!-sized numerators over pairwise different denominators, and
    on Mg, where symbols live, the two weights of c_j and b_j on every
    delta_j, so symbolic and symbol-only coefficients too; the zero
    class included."""
    kind = draw(st.sampled_from((HURWITZ, MG, M0B_SYM)))
    basis = Basis(kind, draw(st.integers(1, 22)))
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
# JSON key order where rows reach c = 10: E_10_0 before E_1_0, and
# E_20_10 before E_20_2
LONG_ROWS_CLASS = DivisorClass(
    hurwitz_basis(22),
    {
        Ejc(1, 0): Fraction(1, 6),
        Ejc(10, 0): Fraction(-5, 4),
        Ejc(20, 2): Fraction(7, 9),
        Ejc(20, 10): 3,
    },
)


@given(any_classes(), st.sampled_from((RAW, PER_FACTORIAL_B)), emission_scales)
@example(MIXED_CLASS, RAW, 1)
@example(MIXED_CLASS, RAW, factorial(6 * 12))
@example(INTEGER_ROWS_CLASS, RAW, 1)
@example(INTEGER_ROWS_CLASS, RAW, factorial(6 * 40))
@example(FRACTION_ROWS_CLASS, RAW, 1)
@example(FRACTION_ROWS_CLASS, RAW, 10)
@example(DivisorClass(mg_basis(3)), PER_FACTORIAL_B, 1)
@example(LONG_ROWS_CLASS, RAW, factorial(6 * 22))
def test_renderer_matches_affine_reference(d, mode, scale):
    # each writer renders d * scale without building it; the reference
    # builds it and goes through AffineExpr and the json/csv modules
    scaled = d * scale
    assert class_to_json(d, mode, scale) == dumps_canonical(class_to_obj(scaled, mode))
    rows = [(name, str(value)) for name, value in scaled.items()]
    reference_csv = io.StringIO()
    csv.writer(reference_csv, lineterminator="\n").writerows(rows)
    assert class_to_csv(d, scale) == reference_csv.getvalue()
    assert class_to_md(d, scale).splitlines()[2:] == [
        f"| {name} | {text} |" for name, text in rows
    ]


def test_emission_builds_no_generator_name_table(monkeypatch):
    # the writers name each E_j_c inline; the cached flat name table of
    # the accessors is never read
    from hurwitzdiv import bases

    d = phi_pull_lambda(22)
    expected = [class_to_json(d, RAW, 10), class_to_csv(d), class_to_md(d, 10)]
    assert expected[0] == dumps_canonical(class_to_obj(d * 10))

    def refuse(k):
        raise AssertionError("emission read the E_{j,c} name table")

    monkeypatch.setattr(bases, "ejc_names", refuse)
    got = [class_to_json(d, RAW, 10), class_to_csv(d), class_to_md(d, 10)]
    assert got == expected


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
    texts = dict(csv_rows(MIXED_CLASS))
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

