"""Serialization: the divisor-class JSON schema, CSV and markdown
renderings written line by line from a class's stored integers, the
external-coefficients file format, and exact decimal approximation for
human-facing slope lines.

JSON is the canonical machine format and rationals appear there only as
"p/q" strings; csv and md are lossy renderings of the same data.

Every class writer (``class_to_json``/``class_to_csv``/``class_to_md``
and ``coefficient_lines``, which writes the rows of a ``cli``
coefficients table whole) is one call of ``_lines``, which
walks the stored form of the class once and writes one line per
coefficient in the layout of its format: the head map, then a
Hurwitz class's flat E_{j,c} tuple row by row, each name ``E_j_c``
written inline with its value.  Each value costs at most one gcd and one
string format, with its two factors looked up by that gcd; JSON key
order comes from sorting the k row keys and each row's lines, not every
entry.  Generator names, "p/q" values and symbol indices are ASCII
letters, digits, ``_``, ``-`` and ``/`` by construction and are written
without escaping; only the basis kind, the normalization label and the
cells of the other tables (``table_to_json``) go through JSON string
escaping.  The writers take a
positive int ``scale`` and render ``d * scale`` without building it: a
raw pushed class is emitted as its per-factorial-b class with scale
(6k)!, whose decimal digits are computed once per call instead of once
per (6k)!-sized numerator.  An :class:`AffineExpr`, the read-only value
of a coefficient, is built only by the accessors
``DivisorClass.coefficient``/``items``, which the library objects
``class_to_obj``/``affine_to_obj`` use; ``dumps_canonical`` of those
objects is the reference the writers are tested against.

A divisor-class/1 object is written, never read: the one JSON reader
is that of an external-coefficients table.  It checks the header (the
schema, exactly its top-level keys, a positive int k) and reads the
table once, straight into integers: each "p/q" goes through the one
strict grammar of ``core.parse_ratio`` into a pair of ints, with no
reduced ``Fraction`` per value, and ``ExternalCoeffs`` puts those pairs
over one common denominator when the table is made.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import floordiv, methodcaller, mul
from typing import Any, NamedTuple, Sequence

from .bases import B_WEIGHT, C_WEIGHT, E0, E2, E3, DivisorClass, ejc_offsets
from .core import AffineExpr, affine_text, format_rational, is_index_literal, parse_ratio
from .pushforward import ExternalCoeffs, RAW

CLASS_SCHEMA = "divisor-class/1"
EXTERNALS_SCHEMA = "external-coeffs/1"

_EXTERNALS_KEYS = frozenset({"schema", "k", "c", "b"})
_HEAD = (E0, E2, E3)


def _kind_of(obj: Any) -> str:
    kind = {list: "an array", str: "a string", bool: "a boolean", type(None): "null"}
    return "an object" if isinstance(obj, dict) else kind.get(type(obj), "a number")


def _index_table(table: Any, family: str) -> dict[int, tuple[int, int]]:
    """Parse the JSON map of an external table from c_j or b_j indices
    to "p/q" strings into the int pairs (p, q) of ``core.parse_ratio``,
    not reduced; any other shape is a ``ValueError``."""
    if not isinstance(table, dict):
        raise ValueError(f'external table {family!r} must map indices to "p/q" strings')
    parsed: dict[int, tuple[int, int]] = {}
    for index, value in table.items():
        # the index grammar without 0: [1-9][0-9]*, one spelling per index
        if not (isinstance(index, str) and is_index_literal(index)) or index == "0":
            raise ValueError(
                f"external table {family!r} has a malformed index {index!r} "
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


def class_to_obj(d: DivisorClass, normalization: str = RAW) -> dict[str, Any]:
    return {
        "schema": CLASS_SCHEMA,
        "k": d.basis.k,
        "basis": d.basis.kind,
        "normalization": normalization,
        "coefficients": {name: affine_to_obj(value) for name, value in d.items()},
    }


def dumps_canonical(obj: Any) -> str:
    """Canonical JSON rendering; serialize-parse-serialize is the
    identity on these bytes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


class _Layout(NamedTuple):
    """How :func:`_lines` writes one coefficient: ``pre + generator + mid
    + value + end``.  A json layout puts the lines in key order and writes
    the weights of a delta_j as its "b" and "c" fields before "const";
    any other writes them into the value as its affine text."""

    pre: str
    mid: str
    end: str
    json: bool = False


# a coefficient object in the layout of ``json.dumps(indent=2)``
_JSON_KEY = '": {\n'
_JSON_CONST = '      "const": "'
_JSON = _Layout('"', _JSON_KEY + _JSON_CONST, '"\n    }', json=True)
_CSV = _Layout("", ",", "\n")
_MD = _Layout("| ", " | ", " |\n")
_BARE = _Layout("", ",", "")


def _lines(d: DivisorClass, layout: _Layout, scale: int = 1) -> list[str]:
    """One line of ``layout`` per generator in the support of ``d *
    scale``, each value "p/q" in lowest terms, written straight from the
    stored numerators; no ``Fraction``, ``ExtSymbol`` or
    :class:`AffineExpr` is built and no scaled class either.

    A Hurwitz class is written from its head map and then row by row
    from its flat E_{j,c} tuple, each name ``E_j_c`` inline with its
    value.  In JSON key order E0, E2 and E3 come first, the rows follow
    sorted by "j_" (E_10_* before E_1_*), and each row's lines are sorted,
    which puts c in string order (E_20_10 before E_20_2); the lines of
    every other kind are sorted whole.  Sorting lines sorts by generator,
    as the name is followed by a character below every name character.
    The two weights of an ``Mg(k)`` class are rendered once and written
    on every delta_j.

    ``scale`` is a positive int.  A numerator n over the denominator den
    of ``d`` renders with g = gcd(n, den) as (n // g) * (scale // g1)
    over (den // g) // g1, g1 = gcd(scale, den // g), in lowest terms:
    per prime, either the scale absorbs all of the power of den // g or
    the quotient keeps none of it.  Both factors of the numerator depend
    on g alone, so they are made once per distinct g; for scale != 1
    they are exact ``decimal`` integers, whose digits come from one
    conversion of ``scale`` per call instead of one quadratic
    int-to-text conversion per (6k)!-sized value."""
    if not isinstance(scale, int) or scale < 1:
        raise ValueError(f"scale must be a positive int, got {scale!r}")
    den, nums, flat, k = d._den, d._nums, d._flat, d.basis.k
    pre, mid, end, json_order = layout
    gs = list(map(gcd, flat, repeat(den)))
    # a fresh context per call; an inexact step raises instead of
    # printing wrong digits
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
    with decimal.localcontext(ctx):
        whole = 1 if scale == 1 else decimal.Decimal(scale)
        factor, over = {}, {}
        # den is the g of 0, the constant of a delta_j that has only weights
        for g in {den, *gs, *map(gcd, nums.values(), repeat(den))}:
            g1 = gcd(scale, den // g)
            factor[g], over[g] = whole // g1, f"/{den // g // g1}"

        def text(n: int) -> str:
            g = gcd(n, den)
            return f"{n // g * factor[g]}{over[g]}"

        if flat:
            lines = [f"{pre}{name}{mid}{text(nums[name])}{end}" for name in _HEAD if name in nums]
            numerators = list(map(floordiv, flat, gs))
            if scale != 1:
                numerators = list(map(mul, numerators, map(factor.__getitem__, gs)))
            offsets = ejc_offsets(k)
            indices = [str(c) for c in range(k // 2 + 1)]
            for j in sorted(range(1, k + 1), key="{}_".format) if json_order else range(1, k + 1):
                row = f"{pre}E_{j}_"
                a, b = offsets[j], offsets[j + 1]
                part = [
                    f"{row}{c}{mid}{n}{over[g]}{end}"
                    for c, n, g in zip(indices, numerators[a:b], gs[a:b])
                    if n
                ]
                if json_order:
                    part.sort()
                lines += part
            return lines
        # the weights in display order, c_j before b_j; a reserved key is
        # the family letter of its symbols
        weights = [(key, text(nums[key])) for key in (C_WEIGHT, B_WEIGHT) if key in nums]
        lines = []
        for name, n, j in d._entries():
            value = text(n)
            if not j:
                lines.append(f"{pre}{name}{mid}{value}{end}")
            elif json_order:
                fields = "".join(
                    [f'      "{f}": {{\n        "{j}": "{w}"\n      }},\n' for f, w in weights[::-1]]
                )
                lines.append(f"{pre}{name}{_JSON_KEY}{fields}{_JSON_CONST}{value}{end}")
            else:
                terms = [(f"{f}_{j}", w) for f, w in weights]
                lines.append(f"{pre}{name}{mid}{affine_text(value, terms)}{end}")
        if json_order:
            lines.sort()
        return lines


def class_to_json(d: DivisorClass, normalization: str = RAW, scale: int = 1) -> str:
    """``dumps_canonical(class_to_obj(d * scale, normalization))``,
    written line by line by :func:`_lines`: the same bytes, with no
    ``AffineExpr`` and no scaled class built.

    Generator names, "p/q" values and symbol indices are ASCII letters,
    digits, ``_``, ``-`` and ``/`` by construction, so they are written
    without JSON escaping."""
    lines = _lines(d, _JSON, scale)
    body = "{\n    " + ",\n    ".join(lines) + "\n  }" if lines else "{}"
    q = encode_basestring_ascii
    return (
        f'{{\n  "basis": {q(d.basis.kind)},\n  "coefficients": {body},\n'
        f'  "k": {d.basis.k},\n  "normalization": {q(normalization)},\n'
        f'  "schema": {q(CLASS_SCHEMA)}\n}}\n'
    )


def class_to_csv(d: DivisorClass, scale: int = 1) -> str:
    """Rows "generator,value" of ``d * scale`` in natural basis order,
    no header.  Generator names and coefficient texts hold no comma,
    quote or line break, so no field needs csv quoting; the bytes are
    those of ``csv.writer``."""
    return "".join(_lines(d, _CSV, scale))


def class_to_md(d: DivisorClass, scale: int = 1) -> str:
    return table_to_md(["generator", "coefficient"], []) + "".join(_lines(d, _MD, scale))


COEFFICIENT_COLUMNS = ("k", "generator", "coefficient")


def coefficient_lines(d: DivisorClass, k: int, fmt: str, scale: int = 1) -> list[str]:
    """The rows of ``d * scale`` in a ``fmt`` (json, csv or md)
    coefficients table at ``k``, each written whole by :func:`_lines`,
    with no list per row and no escaping: the k, the generator names and
    the coefficient texts hold no comma, quote, backslash or line break
    by construction.  A csv or md row is one layout with the k in its
    prefix; a json row names the coefficient before the generator, so it
    is cut from the bare "generator,coefficient" line at its one
    comma."""
    if fmt == "csv":
        return _lines(d, _Layout(f"{k},", ",", "\n"), scale)
    if fmt == "md":
        return _lines(d, _Layout(f"| {k} | ", " | ", " |\n"), scale)
    tail = f'",\n    "k": "{k}"\n  }}'
    return [
        f'{{\n    "coefficient": "{value}",\n    "generator": "{name}{tail}'
        for name, _, value in map(methodcaller("partition", ","), _lines(d, _BARE, scale))
    ]


def coefficient_table(lines: list[str], fmt: str) -> str:
    """A coefficients table from the rows of :func:`coefficient_lines`:
    the bytes of ``table_to_<fmt>(COEFFICIENT_COLUMNS, rows)``."""
    if fmt == "json":
        return "[\n  " + ",\n  ".join(lines) + "\n]\n" if lines else "[]\n"
    if fmt == "csv":
        return table_to_csv(COEFFICIENT_COLUMNS, []) + "".join(lines)
    return table_to_md(COEFFICIENT_COLUMNS, []) + "".join(lines)


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
    ``ValueError``.  The header is checked first, in this order: a JSON
    object, the schema, exactly the top-level keys (unknown keys named
    before missing ones), a positive int k."""
    what = "an external coefficient table"
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {_kind_of(obj)}")
    if obj.get("schema") != EXTERNALS_SCHEMA:
        raise ValueError(f"expected schema {EXTERNALS_SCHEMA!r}, got {obj.get('schema')!r}")
    if obj.keys() != _EXTERNALS_KEYS:
        unknown, missing = obj.keys() - _EXTERNALS_KEYS, _EXTERNALS_KEYS - obj.keys()
        raise ValueError(
            f"{what} has unknown keys {sorted(unknown)}"
            if unknown
            else f"{what} lacks the keys {sorted(missing)}"
        )
    k = obj["k"]
    if type(k) is not int or k < 1:
        raise ValueError(f"external table 'k' must be a positive integer, got {k!r}")
    return ExternalCoeffs._from_ratios(k, _index_table(obj["c"], "c"), _index_table(obj["b"], "b"))


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
