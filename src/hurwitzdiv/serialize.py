"""Serialization: the divisor-class JSON schema, CSV and markdown
renderings, the external-coefficients file format, and exact decimal
approximation for human-facing slope lines.

JSON is the canonical machine format and rationals appear there only as
"p/q" strings; csv and md are lossy renderings of the same data.

Emission renders from the integer numerators a divisor class stores
(``DivisorClass._formatted_items``), in one pass over its head map and
rows: every coefficient costs at most one gcd and one string format (a
class over denominator 1 needs no gcd), and ``class_to_json``/
``table_to_json`` write the canonical JSON text directly.
``class_to_json`` puts out each coefficient object as one f-string and
escapes none of its generator names, "p/q" values and symbol indices,
which are ASCII letters, digits, ``_``, ``-`` and ``/`` by
construction; only the basis kind, the normalization label and the
table cells go through JSON string escaping.  The class writers and
``coefficient_texts`` take a positive int ``scale`` and render
``d * scale`` without building it: a raw pushed class is emitted as its
per-factorial-b class with scale (6k)!, whose decimal digits are
computed once per call instead of once per (6k)!-sized numerator.  An
:class:`AffineExpr`, the read-only value of a coefficient, is built only
by the accessors
``DivisorClass.coefficient``/``items``, which the library objects
``class_to_obj``/``affine_to_obj`` use; ``dumps_canonical`` of those
objects is the reference the direct writers are tested against.

An external-coefficients table is read once, straight into integers:
each "p/q" goes through the one strict grammar of ``core.parse_ratio``
into a pair of ints, with no reduced ``Fraction`` per value, and
``ExternalCoeffs`` puts those pairs over one common denominator.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Sequence

from .bases import Basis, DivisorClass
from .core import AffineExpr, ExtSymbol, affine_text, format_rational, parse_ratio
from .core import is_index_literal, parse_rational
from .pushforward import NORMALIZATIONS, ExternalCoeffs, RAW

CLASS_SCHEMA = "divisor-class/1"
EXTERNALS_SCHEMA = "external-coeffs/1"

_CLASS_KEYS = frozenset({"schema", "k", "basis", "normalization", "coefficients"})
_COEFFICIENT_KEYS = frozenset({"const", "c", "b"})


def _kind_of(obj: Any) -> str:
    kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
    return "an object" if isinstance(obj, dict) else kind.get(type(obj), "a number")


def _index_table(table: Any, family: str, where: str) -> dict[int, tuple[int, int]]:
    """Parse a JSON map from c_j or b_j indices to "p/q" strings into
    the int pairs (p, q) of ``core.parse_ratio``, not reduced; any other
    shape is a ``ValueError``."""
    if not isinstance(table, dict):
        raise ValueError(f'{where} {family!r} must map indices to "p/q" strings')
    parsed: dict[int, tuple[int, int]] = {}
    for index, value in table.items():
        # the index grammar without 0: [1-9][0-9]*, one spelling per index
        if not (isinstance(index, str) and is_index_literal(index)) or index == "0":
            raise ValueError(
                f"{where} {family!r} has a malformed index {index!r} "
                "(indices are 1, 2, 3, ... without leading zeros)"
            )
        if not isinstance(value, str):
            raise ValueError(
                f'{family}_{index} must be a "p/q" string, '
                f"got {json.dumps(value, default=repr)}"
            )
        parsed[int(index)] = parse_ratio(value)
    return parsed


def affine_to_obj(e: AffineExpr) -> dict[str, Any]:
    obj: dict[str, Any] = {"const": format_rational(e.const)}
    c_part = {str(s.index): format_rational(v) for s, v in e.terms.items() if s.family == "c"}
    b_part = {str(s.index): format_rational(v) for s, v in e.terms.items() if s.family == "b"}
    if c_part:
        obj["c"] = c_part
    if b_part:
        obj["b"] = b_part
    return obj


def affine_from_obj(obj: Any, where: str = "coefficient") -> AffineExpr:
    """Parse ``{"const": "p/q"}`` with optional ``"c"``/``"b"`` maps from
    indices to "p/q" strings; any other shape is a ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError(
            f'{where} must be an object with a "const" string, got {_kind_of(obj)}'
        )
    unknown = obj.keys() - _COEFFICIENT_KEYS
    if unknown:
        raise ValueError(f"{where} has unknown keys {sorted(unknown)}")
    if "const" not in obj:
        raise ValueError(f'{where} has no "const" value')
    terms: dict[ExtSymbol, Fraction] = {}
    for family in ("c", "b"):
        for index, ratio in _index_table(obj.get(family, {}), family, where).items():
            terms[ExtSymbol(family, index)] = Fraction(*ratio)
    return AffineExpr(parse_rational(obj["const"]), terms)


def class_to_obj(d: DivisorClass, normalization: str = RAW) -> dict[str, Any]:
    return {
        "schema": CLASS_SCHEMA,
        "k": d.basis.k,
        "basis": d.basis.kind,
        "normalization": normalization,
        "coefficients": {name: affine_to_obj(value) for name, value in d.items()},
    }


def class_from_obj(obj: Any) -> tuple[DivisorClass, str]:
    """Parse a divisor-class/1 object; any other shape is a
    ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError(f"a divisor class must be a JSON object, got {_kind_of(obj)}")
    if obj.get("schema") != CLASS_SCHEMA:
        raise ValueError(f"expected schema {CLASS_SCHEMA!r}, got {obj.get('schema')!r}")
    if obj.keys() != _CLASS_KEYS:
        unknown, missing = obj.keys() - _CLASS_KEYS, _CLASS_KEYS - obj.keys()
        raise ValueError(
            f"a divisor class has unknown keys {sorted(unknown)}"
            if unknown
            else f"a divisor class lacks the keys {sorted(missing)}"
        )
    k = obj["k"]
    if type(k) is not int or k < 1:
        raise ValueError(f"divisor class 'k' must be a positive integer, got {k!r}")
    normalization = obj["normalization"]
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    coefficients = obj["coefficients"]
    if not isinstance(coefficients, dict):
        raise ValueError(
            f"divisor class 'coefficients' must be an object, got {_kind_of(coefficients)}"
        )
    basis = Basis(obj["basis"], k)
    coeffs = {
        name: affine_from_obj(value, f"coefficient of {name}")
        for name, value in coefficients.items()
    }
    return DivisorClass(basis, coeffs), normalization


def dumps_canonical(obj: Any) -> str:
    """Canonical JSON rendering; serialize-parse-serialize is the
    identity on these bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _json_terms(terms: tuple[tuple[ExtSymbol, str], ...]) -> str:
    """The ``"b"`` and ``"c"`` fields of a coefficient object, each with
    its index-sorted entries, in the layout of ``json.dumps(indent=2)``."""
    fields = ""
    for family in ("b", "c"):
        part = sorted((str(s.index), v) for s, v in terms if s.family == family)
        if part:
            entries = ",\n        ".join([f'"{index}": "{v}"' for index, v in part])
            fields += f'      "{family}": {{\n        {entries}\n      }},\n'
    return fields


def class_to_json(d: DivisorClass, normalization: str = RAW, scale: int = 1) -> str:
    """``dumps_canonical(class_to_obj(d * scale, normalization))``,
    written straight from the stored numerators: the same bytes, with no
    ``AffineExpr`` and no scaled class built.

    Each coefficient object is one f-string.  Generator names, "p/q"
    values and symbol indices are ASCII letters, digits, ``_``, ``-`` and
    ``/`` by construction, so they are written without JSON escaping."""
    coefficients = ",\n    ".join(
        [
            f'"{name}": {{\n{_json_terms(terms) if terms else ""}'
            f'      "const": "{const}"\n    }}'
            for name, const, terms in sorted(d._formatted_items(scale), key=itemgetter(0))
        ]
    )
    body = "{\n    " + coefficients + "\n  }" if coefficients else "{}"
    q = encode_basestring_ascii
    return (
        f'{{\n  "basis": {q(d.basis.kind)},\n  "coefficients": {body},\n'
        f'  "k": {d.basis.k},\n  "normalization": {q(normalization)},\n'
        f'  "schema": {q(CLASS_SCHEMA)}\n}}\n'
    )


def coefficient_texts(d: DivisorClass, scale: int = 1) -> list[tuple[str, str]]:
    """(generator, coefficient) rows of ``d * scale`` in natural basis
    order; each coefficient reads as ``str`` of its :class:`AffineExpr`."""
    return [
        (name, affine_text(const, terms) if terms else const)
        for name, const, terms in d._formatted_items(scale)
    ]


def class_to_csv(d: DivisorClass, scale: int = 1) -> str:
    """Rows "generator,value" of ``d * scale`` in natural basis order,
    no header.  Generator names and coefficient texts hold no comma,
    quote or line break, so no field needs csv quoting and the rows of
    :func:`coefficient_texts` are joined directly; the bytes are those
    of ``csv.writer``."""
    return "".join([f"{name},{text}\n" for name, text in coefficient_texts(d, scale)])


def class_to_md(d: DivisorClass, scale: int = 1) -> str:
    return table_to_md(["generator", "coefficient"], coefficient_texts(d, scale))


def table_to_csv(columns: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def table_to_md(columns: list[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(columns) + " |",
        "| " + " | ".join("---" for _ in columns) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def table_to_json(columns: list[str], rows: list[list[str]]) -> str:
    """``dumps_canonical([dict(zip(columns, row)) for row in rows])`` for
    rows of strings as long as ``columns``, written directly."""
    if not rows:
        return "[]\n"
    q = encode_basestring_ascii
    # column -> position of its value, the last one for a repeated column
    positions = dict(zip(columns, range(len(columns))))
    keys = [(q(column), i) for column, i in sorted(positions.items())]
    objects = [
        "{\n    " + ",\n    ".join([f"{key}: {q(row[i])}" for key, i in keys]) + "\n  }"
        if keys
        else "{}"
        for row in rows
    ]
    return "[\n  " + ",\n  ".join(objects) + "\n]\n"


_PLACES = 6


def decimal_approx(x: Fraction) -> str:
    """Decimal approximation of a rational to six places with exact
    integer rounding (ties to even); used only for display."""
    sign = "-" if x < 0 else ""
    n, d = abs(x).numerator, abs(x).denominator
    scaled, remainder = divmod(n * 10**_PLACES, d)
    if 2 * remainder > d or (2 * remainder == d and scaled % 2 == 1):
        scaled += 1
    whole, frac = divmod(scaled, 10**_PLACES)
    return f"{sign}{whole}.{frac:0{_PLACES}d}"


def externals_from_obj(obj: Any) -> ExternalCoeffs:
    """Parse an external-coeffs/1 object; any other shape is a
    ``ValueError``."""
    if not isinstance(obj, dict):
        raise ValueError(
            f"an external coefficient table must be a JSON object, got {_kind_of(obj)}"
        )
    if obj.get("schema") != EXTERNALS_SCHEMA:
        raise ValueError(
            f"expected schema {EXTERNALS_SCHEMA!r}, got {obj.get('schema')!r}"
        )
    k = obj.get("k")
    if type(k) is not int or k < 1:
        raise ValueError(f"external table 'k' must be a positive integer, got {k!r}")
    return ExternalCoeffs._from_ratios(
        k,
        _index_table(obj.get("c", {}), "c", "external table"),
        _index_table(obj.get("b", {}), "b", "external table"),
    )


def load_externals(path: str) -> ExternalCoeffs:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError:
            # the decoder recurses once per nested array or object
            raise ValueError("externals JSON is nested too deeply") from None
    return externals_from_obj(obj)


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's pairs as a dict; a repeated key is a ``ValueError``
    rather than a silent overwrite."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise ValueError(f"JSON object has the key {repeated!r} twice")
    return obj
