"""Exact arithmetic layer: rationals, their strict "p/q" parsing, and the
affine-linear symbolic expressions in the external coefficients c_j, b_j.

Every value is immutable and every operation is exact; no floating point
is used anywhere in the package.  Rationals are ``fractions.Fraction``,
which already keeps gcd-reduced canonical form with a positive
denominator and arbitrary-precision integer parts.  An
:class:`AffineExpr` is the read-only public value of a coefficient that
may carry a symbol: it has no arithmetic operators, and a constant
expression compares and hashes equal to its ``Fraction`` value.  Divisor
classes do their arithmetic on integer numerators and build an
:class:`AffineExpr` only at their public accessors
(``DivisorClass.coefficient``/``items``), so it is not on the hot path.
The text form of an affine expression is defined once, by
:func:`affine_text` over already formatted "p/q" parts; both
``AffineExpr.__str__`` and the emitters in ``serialize`` use it.

Every cached builder of the package is declared with
:func:`per_k_cache`, which makes it a plain module-level
``functools.lru_cache`` in its own module and registers it here, so
that :func:`clear_caches` can drop the values of one k before the next;
every sweep over k (``verify``, ``table``) walks :func:`each_k`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, TypeVar, Union

RationalLike = Union[int, Fraction]


_F = TypeVar("_F", bound=Callable)

_BUILDER_CACHES: list = []


def per_k_cache(fn: _F) -> _F:
    """``functools.lru_cache(maxsize=None, typed=True)`` for a builder of
    one k's values (k among its arguments), registered for
    :func:`clear_caches`; typed, so a bool or float k is refused, not
    answered from the equal int's entry."""
    cached = lru_cache(maxsize=None, typed=True)(fn)
    _BUILDER_CACHES.append(cached)
    return cached


def builder_caches() -> tuple:
    """Every builder declared with :func:`per_k_cache`, in import order."""
    return tuple(_BUILDER_CACHES)


def clear_caches() -> None:
    """Empty every builder cache."""
    for cached in _BUILDER_CACHES:
        cached.cache_clear()


def each_k(k_min: int, k_max: int) -> Iterator[int]:
    """The k of a range 1 <= k_min <= k_max of ints in order, refused at
    the call when it is not one.  A check at one k never needs another
    k's values, so the builder caches are emptied between two k."""
    if not (type(k_min) is int and type(k_max) is int and 1 <= k_min <= k_max):
        raise ValueError(f"invalid range 1 <= {k_min} <= {k_max}")

    def sweep() -> Iterator[int]:
        for k in range(k_min, k_max + 1):
            if k > k_min:
                clear_caches()  # looked up here, so a patched one is called
            yield k

    return sweep()


_RATIONAL_LITERAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def parse_ratio(text: str) -> tuple[int, int]:
    """The ints (p, q) of a rational literal "p/q", as written and not
    reduced; a bare integer "p" gives (p, 1).

    The grammar is strict: an optional sign ``+`` or ``-``, one or more
    ASCII digits, and optionally ``/`` followed by one or more ASCII
    digits, which must not all be zero.  Nothing else is accepted: no
    whitespace, decimal point, exponent, digit separator or sign on the
    denominator.  Anything else raises ``ValueError``.
    """
    match = _RATIONAL_LITERAL.fullmatch(text) if isinstance(text, str) else None
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    numerator, denominator = match.groups()
    if denominator is None:
        return int(numerator), 1
    q = int(denominator)
    if not q:
        raise ValueError(f"zero denominator in rational literal {text!r}")
    return int(numerator), q


def parse_rational(text: str) -> Fraction:
    """The value of a rational literal "p/q" in the grammar of
    :func:`parse_ratio`."""
    return Fraction(*parse_ratio(text))


INDEX_GRAMMAR = "0|[1-9][0-9]*"


def is_index_literal(text: str) -> bool:
    """Whether ``text`` spells a non-negative index in its one accepted
    way, ``0|[1-9][0-9]*`` in ASCII digits: no sign, no leading zero, no
    superscript or non-ASCII digit."""
    return text.isascii() and text.isdigit() and (text[0] != "0" or text == "0")


def format_ratio(numerator: int, denominator: int) -> str:
    """Render ``numerator / denominator`` (denominator > 0) as "p/q" in
    lowest terms, with the sign carried by the numerator."""
    g = gcd(numerator, denominator)
    return f"{numerator // g}/{denominator // g}"


def format_rational(x: RationalLike) -> str:
    """Render a rational as "p/q" with the sign carried by the numerator."""
    x = Fraction(x)
    return format_ratio(x.numerator, x.denominator)


class _SymbolFields(NamedTuple):
    family: str
    index: int


class ExtSymbol(_SymbolFields):
    """An external coefficient symbol: family "c" models c_j, "b" models b_j.

    A named tuple, so that hashing, equality and ordering, by (family,
    index), run in C: symbols key the terms of every :class:`AffineExpr`."""

    __slots__ = ()

    def __new__(cls, family: str, index: int) -> "ExtSymbol":
        if family not in ("c", "b"):
            raise ValueError(f"symbol family must be 'c' or 'b', got {family!r}")
        # a bool or a float would print as c_True or b_2.0
        if type(index) is not int or index < 1:
            raise ValueError(
                f"symbol index must be an int >= 1, "
                f"got {index!r} ({type(index).__name__})"
            )
        return super().__new__(cls, family, index)

    def __str__(self) -> str:
        return f"{self.family}_{self.index}"


def c_sym(j: int) -> ExtSymbol:
    return ExtSymbol("c", j)


def b_sym(j: int) -> ExtSymbol:
    return ExtSymbol("b", j)


def display_key(s: ExtSymbol) -> tuple[int, int]:
    """Sort key of the display order of symbols: c_j before b_j, then by
    index."""
    return (0 if s.family == "c" else 1, s.index)


def affine_text(const: str, terms: Sequence[tuple[str, str]]) -> str:
    """The display form ``"p/q - 3/4*c_2 + 1/5*b_2"`` of an affine
    expression from its parts, each already rendered as text: the
    constant as "p/q", and the (symbol, coefficient) terms in display
    order, as ("c_2", "-3/4").  The constant is left out when it is zero
    and there are terms."""
    if not terms:
        return const
    parts = [] if const == "0/1" else [const]
    for sym, coef in terms:
        negative = coef.startswith("-")
        piece = f"{coef[1:] if negative else coef}*{sym}"
        if parts:
            parts.append(f"- {piece}" if negative else f"+ {piece}")
        else:
            parts.append(f"-{piece}" if negative else piece)
    return " ".join(parts)


class AffineExpr:
    """An exact affine-linear combination ``const + sum coef_s * s`` over
    the external symbols, as a read-only value: its parts, equality,
    hashing and text.  Instances are immutable.
    """

    __slots__ = ("_const", "_terms")

    def __init__(
        self,
        const: RationalLike = 0,
        terms: Mapping[ExtSymbol, RationalLike] | None = None,
    ):
        self._const = const if type(const) is Fraction else Fraction(const)
        cleaned: dict[ExtSymbol, Fraction] = {}
        if terms:
            for sym, coef in terms.items():
                if type(coef) is not Fraction:
                    coef = Fraction(coef)
                if coef:
                    cleaned[sym] = coef
        self._terms = cleaned

    @property
    def const(self) -> Fraction:
        return self._const

    @property
    def terms(self) -> dict[ExtSymbol, Fraction]:
        return dict(self._terms)

    def is_constant(self) -> bool:
        return not self._terms

    def constant_value(self) -> Fraction:
        if self._terms:
            raise ValueError(f"expression is not constant: {self}")
        return self._const

    def coefficient(self, sym: ExtSymbol) -> Fraction:
        return self._terms.get(sym, Fraction(0))

    def substitute(self, values: Mapping[ExtSymbol, RationalLike]) -> "AffineExpr":
        """Replace every symbol present in ``values``; others stay symbolic."""
        const = self._const
        terms: dict[ExtSymbol, Fraction] = {}
        for sym, coef in self._terms.items():
            if sym in values:
                const += coef * Fraction(values[sym])
            else:
                terms[sym] = coef
        return AffineExpr(const, terms)

    def __bool__(self) -> bool:
        return bool(self._const) or bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return not self._terms and self._const == other
        if not isinstance(other, AffineExpr):
            return NotImplemented
        return self._const == other._const and self._terms == other._terms

    def __hash__(self) -> int:
        # a constant expression equals its Fraction, so it must hash alike
        if not self._terms:
            return hash(self._const)
        return hash((self._const, frozenset(self._terms.items())))

    def __str__(self) -> str:
        return affine_text(
            format_rational(self._const),
            [
                (str(sym), format_rational(self._terms[sym]))
                for sym in sorted(self._terms, key=display_key)
            ],
        )

    def __repr__(self) -> str:
        return f"AffineExpr({self})"

