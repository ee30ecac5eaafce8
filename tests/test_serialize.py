import json
from fractions import Fraction

import pytest

from hurwitzdiv.bases import DivisorClass, delta, mg_basis
from hurwitzdiv.core import AffineExpr, b_sym, c_sym
from hurwitzdiv.pushforward import ExternalCoeffs, PER_FACTORIAL_B, RAW, p_phihat_lambda
from hurwitzdiv.serialize import (
    affine_from_obj,
    affine_to_obj,
    class_from_obj,
    class_to_csv,
    class_to_json,
    class_to_md,
    class_to_obj,
    decimal_approx,
    dumps_canonical,
    externals_from_obj,
    externals_to_obj,
    load_externals,
    table_to_csv,
    table_to_md,
)
from hurwitzdiv.trace import delta_tau, phi_pull_lambda


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
    assert decimal_approx(Fraction(1, 8), places=2) == "0.12"  # ties go to even
    assert decimal_approx(Fraction(3, 8), places=2) == "0.38"
    assert decimal_approx(Fraction(0)) == "0.000000"


def test_externals_round_trip(tmp_path):
    ext = ExternalCoeffs(2, {1: Fraction(1, 2), 2: Fraction(3)}, {1: Fraction(0), 2: Fraction(-5, 7)})
    obj = externals_to_obj(ext)
    assert obj["schema"] == "external-coeffs/1"
    assert obj["c"] == {"1": "1/2", "2": "3/1"}
    assert externals_from_obj(obj) == ext
    path = tmp_path / "ext.json"
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    assert load_externals(str(path)) == ext


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
    ],
)
def test_externals_rejects_malformed_shapes(obj):
    with pytest.raises(ValueError):
        externals_from_obj(obj)
