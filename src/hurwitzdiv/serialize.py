"""Serialization: the divisor-class JSON schema, CSV and markdown
renderings, the external-coefficients file format, and exact decimal
approximation for human-facing slope lines.

JSON is the canonical machine format and rationals appear there only as
"p/q" strings; csv and md are lossy renderings of the same data.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Any, Mapping

from .bases import Basis, DivisorClass
from .core import AffineExpr, ExtSymbol, format_rational, parse_rational
from .pushforward import ExternalCoeffs, RAW

CLASS_SCHEMA = "divisor-class/1"
EXTERNALS_SCHEMA = "external-coeffs/1"


def affine_to_obj(e: AffineExpr) -> dict[str, Any]:
    obj: dict[str, Any] = {"const": format_rational(e.const)}
    c_part = {str(s.index): format_rational(v) for s, v in e.terms.items() if s.family == "c"}
    b_part = {str(s.index): format_rational(v) for s, v in e.terms.items() if s.family == "b"}
    if c_part:
        obj["c"] = c_part
    if b_part:
        obj["b"] = b_part
    return obj


def affine_from_obj(obj: Mapping[str, Any]) -> AffineExpr:
    terms: dict[ExtSymbol, Fraction] = {}
    for family in ("c", "b"):
        for index, value in obj.get(family, {}).items():
            terms[ExtSymbol(family, int(index))] = parse_rational(value)
    return AffineExpr(parse_rational(obj["const"]), terms)


def class_to_obj(d: DivisorClass, normalization: str = RAW) -> dict[str, Any]:
    return {
        "schema": CLASS_SCHEMA,
        "k": d.basis.k,
        "basis": d.basis.kind,
        "normalization": normalization,
        "coefficients": {name: affine_to_obj(value) for name, value in d.items()},
    }


def class_from_obj(obj: Mapping[str, Any]) -> tuple[DivisorClass, str]:
    if obj.get("schema") != CLASS_SCHEMA:
        raise ValueError(f"expected schema {CLASS_SCHEMA!r}, got {obj.get('schema')!r}")
    basis = Basis(obj["basis"], int(obj["k"]))
    coeffs = {
        name: affine_from_obj(value) for name, value in obj["coefficients"].items()
    }
    return DivisorClass(basis, coeffs), obj["normalization"]


def dumps_canonical(obj: Any) -> str:
    """Canonical JSON rendering; serialize-parse-serialize is the
    identity on these bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def class_to_json(d: DivisorClass, normalization: str = RAW) -> str:
    return dumps_canonical(class_to_obj(d, normalization))


def class_to_csv(d: DivisorClass) -> str:
    """Rows "generator,value" in natural basis order, no header."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for name, value in d.items():
        writer.writerow([name, str(value)])
    return buffer.getvalue()


def class_to_md(d: DivisorClass) -> str:
    lines = ["| generator | coefficient |", "| --- | --- |"]
    for name, value in d.items():
        lines.append(f"| {name} | {value} |")
    return "\n".join(lines) + "\n"


def table_to_csv(columns: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def table_to_md(columns: list[str], rows: list[list[str]]) -> str:
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def table_to_json(columns: list[str], rows: list[list[Any]]) -> str:
    return dumps_canonical([dict(zip(columns, row)) for row in rows])


def decimal_approx(x: Fraction, places: int = 6) -> str:
    """Decimal approximation of a rational with exact integer rounding
    (ties to even); used only for display."""
    sign = "-" if x < 0 else ""
    n, d = abs(x).numerator, abs(x).denominator
    scaled, remainder = divmod(n * 10**places, d)
    if 2 * remainder > d or (2 * remainder == d and scaled % 2 == 1):
        scaled += 1
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def externals_to_obj(ext: ExternalCoeffs) -> dict[str, Any]:
    return {
        "schema": EXTERNALS_SCHEMA,
        "k": ext.k,
        "c": {str(j): format_rational(v) for j, v in sorted(ext.c.items())},
        "b": {str(j): format_rational(v) for j, v in sorted(ext.b.items())},
    }


def _externals_table(obj: Mapping[str, Any], family: str) -> dict[int, Fraction]:
    table = obj.get(family, {})
    if not isinstance(table, dict):
        raise ValueError(
            f'external table {family!r} must map indices to "p/q" strings'
        )
    parsed: dict[int, Fraction] = {}
    for index, value in table.items():
        if not index.isdecimal():
            raise ValueError(
                f"external table {family!r} has a malformed index {index!r}"
            )
        if not isinstance(value, str):
            raise ValueError(
                f'{family}_{index} must be a "p/q" string, got {json.dumps(value)}'
            )
        parsed[int(index)] = parse_rational(value)
    return parsed


def externals_from_obj(obj: Any) -> ExternalCoeffs:
    """Parse an external-coeffs/1 object; any other shape is a
    ``ValueError``."""
    if not isinstance(obj, dict):
        kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
        raise ValueError(
            "an external coefficient table must be a JSON object, "
            f"got {kind.get(type(obj), 'a number')}"
        )
    if obj.get("schema") != EXTERNALS_SCHEMA:
        raise ValueError(
            f"expected schema {EXTERNALS_SCHEMA!r}, got {obj.get('schema')!r}"
        )
    k = obj.get("k")
    if type(k) is not int or k < 1:
        raise ValueError(f"external table 'k' must be a positive integer, got {k!r}")
    return ExternalCoeffs(k, _externals_table(obj, "c"), _externals_table(obj, "b"))


def load_externals(path: str) -> ExternalCoeffs:
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    return externals_from_obj(obj)
