"""Generator bases for the five divisor class groups in play, sparse
divisor classes over them, and linear maps between them.

The groups are handled as free modules on named generators:

* ``Hurwitz(k)``: E0, E2 (only for k >= 3), E3 (only for k >= 2) and
  E_j_c for 1 <= j <= k, 0 <= c <= floor(j/2).
* ``Mg(k)``: lambda and delta_0 .. delta_k (the boundary classes that can
  receive a nonzero push-forward).
* ``M0bSym(k)``: the symmetric boundary classes T2 and T3j_1 .. T3j_k of
  the space of 6k-pointed rational curves.
* ``MgPrime(k)`` / ``MgHat(k)``: lambda and delta_0 .. delta_floor(g/2)
  of the target moduli spaces of the trace and reduced-trace curve, of
  genus g = 5k^2 - 4k + 1 and (5k - 2)(k - 1)/2.

Generators are plain strings so that they serialize unchanged.  One
spec per kind, ``_SPECS``, lists its generators.  The order of every
basis is cached per (kind, k) as a name -> position map, which answers
both membership and position, and the Hurwitz builders take their
E_{j,c} names from :func:`ejc_names`, a cached table sliced from that
order, instead of formatting them again.

Every coefficient is stored as integer numerators over one positive
common denominator: a divisor class keeps its constant parts and the
coefficients of the external symbols c_j, b_j in lowest terms, a class
map keeps its images as sparse integer columns, one per source
generator, which the builders write directly.  Sums run through one
n-ary kernel, :func:`linear_combination`, which puts all its terms over
one lcm, sums their numerators in a single pass and reduces once; ``+``
and ``-`` are its two-term calls.  Addition, scaling, substitution and
the application and composition of class maps run on plain ``int``:
``ClassMap.compose`` maps each inner integer column through the outer
columns over the product of the two denominators, without building a
row as a class.  A ``Fraction`` or an :class:`AffineExpr` is built only
at the public accessors ``DivisorClass.coefficient``/``items``.  Beside ``items`` sits
the internal ``DivisorClass._formatted_items``, the same values as "p/q"
text rendered from the integers, which ``serialize`` and the ``cli``
tables emit from.  It renders the class times an int ``scale`` without
building that product: a raw pushed class is emitted as its
per-factorial-b class with scale (6k)!, whose decimal digits are
computed once per call (exact ``decimal`` arithmetic in a context of
its own) rather than once per (6k)!-sized numerator, so no emitted value
is converted to text through Python's quadratic, digit-limited int
conversion.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .core import (
    AffineExpr,
    AffineLike,
    ExtSymbol,
    RationalLike,
    display_key,
    per_k_cache,
)


class ClassGroupError(ValueError):
    """Base class for structural errors in the class-group layer."""


class UnknownGeneratorError(ClassGroupError):
    """A generator name does not belong to the basis at hand."""


class BasisMismatchError(ClassGroupError):
    """Two objects over different bases were combined."""


class IndexRangeError(ClassGroupError):
    """An index (j, c, boundary index, ...) is outside its legal range."""


HURWITZ = "Hurwitz"
MG = "Mg"
M0B_SYM = "M0bSym"
MG_PRIME = "MgPrime"
MG_HAT = "MgHat"

E0 = "E0"
E2 = "E2"
E3 = "E3"
LAMBDA = "lambda"
T2 = "T2"
LAMBDA_PRIME = "lambdaP"
LAMBDA_HAT = "lambdaH"


def Ejc(j: int, c: int) -> str:
    return f"E_{j}_{c}"


def delta(j: int) -> str:
    return f"delta_{j}"


def T3j(j: int) -> str:
    return f"T3j_{j}"


def delta_prime(j: int) -> str:
    return f"deltaP_{j}"


def delta_hat(j: int) -> str:
    return f"deltaH_{j}"


def genus_trace(k: int) -> int:
    """Genus of the trace curve, 5k^2 - 4k + 1."""
    return 5 * k * k - 4 * k + 1


def genus_reduced_trace(k: int) -> int:
    """Genus of the reduced trace curve, (5k - 2)(k - 1)/2."""
    return (5 * k - 2) * (k - 1) // 2


class _KindSpec(NamedTuple):
    """How one kind of basis lists its generators: the leading ones,
    then one indexed family."""

    head: Callable[[int], tuple[str, ...]]
    tail: Callable[[int], Iterable[str]]


def _moduli(lead: str, family: Callable[[int], str], genus) -> _KindSpec:
    """The Hodge class and the boundary classes delta_0 ..
    delta_floor(g/2) of a moduli space of curves of genus g = ``genus(k)``."""
    return _KindSpec(lambda k: (lead,), lambda k: map(family, range(genus(k) // 2 + 1)))


_SPECS = {
    HURWITZ: _KindSpec(
        lambda k: (E0,) + ((E2,) if k >= 3 else ()) + ((E3,) if k >= 2 else ()),
        lambda k: (Ejc(j, c) for j in range(1, k + 1) for c in range(j // 2 + 1)),
    ),
    MG: _KindSpec(lambda k: (LAMBDA,), lambda k: map(delta, range(k + 1))),
    M0B_SYM: _KindSpec(lambda k: (T2,), lambda k: map(T3j, range(1, k + 1))),
    MG_PRIME: _moduli(LAMBDA_PRIME, delta_prime, genus_trace),
    MG_HAT: _moduli(LAMBDA_HAT, delta_hat, genus_reduced_trace),
}
_KINDS = tuple(_SPECS)  # a tuple: an unhashable kind is refused, not a TypeError


@dataclass(frozen=True)
class Basis:
    """A named generator basis, parameterized by k."""

    kind: str
    k: int

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ClassGroupError(f"unknown basis kind {self.kind!r}")
        if self.k < 1:
            raise ClassGroupError(f"basis parameter k must be >= 1, got {self.k}")

    def contains(self, name: str) -> bool:
        return name in _generator_index(self.kind, self.k)

    def check(self, name: str) -> str:
        if not self.contains(name):
            raise self._unknown(name)
        return name

    def _unknown(self, name: str) -> UnknownGeneratorError:
        return UnknownGeneratorError(
            f"generator {name!r} does not belong to {self.kind}(k={self.k})"
        )

    def sort_index(self, name: str) -> int:
        """Position of ``name`` in :meth:`generators`, the natural
        display order."""
        index = _generator_index(self.kind, self.k).get(name)
        if index is None:
            raise self._unknown(name)
        return index

    def generators(self) -> Iterator[str]:
        """All generators of the basis in natural order."""
        spec = _SPECS[self.kind]
        yield from spec.head(self.k)
        yield from spec.tail(self.k)


@per_k_cache
def _generator_index(kind: str, k: int) -> dict[str, int]:
    """Generator name -> position in the natural order."""
    return {name: i for i, name in enumerate(Basis(kind, k).generators())}


@per_k_cache
def ejc_names(k: int) -> tuple[tuple[str, ...], ...]:
    """The E_{j,c} names of ``Hurwitz(k)``, sliced from the cached
    generator order for the builders: entry j holds E_j_0 ..
    E_j_floor(j/2), entry 0 is empty."""
    names = iter(list(_generator_index(HURWITZ, k))[len(_SPECS[HURWITZ].head(k)) :])
    return ((),) + tuple(tuple(islice(names, j // 2 + 1)) for j in range(1, k + 1))


def hurwitz_head(k: int, e0, e2, e3) -> dict:
    """``{E0: e0, E2: e2, E3: e3}`` without the generators ``Hurwitz(k)``
    lacks (E2 needs k >= 3, E3 needs k >= 2)."""
    values = {E0: e0, E2: e2, E3: e3}
    return {name: values[name] for name in _SPECS[HURWITZ].head(k)}


def hurwitz_basis(k: int) -> Basis:
    return Basis(HURWITZ, k)


def mg_basis(k: int) -> Basis:
    return Basis(MG, k)


def m0b_sym_basis(k: int) -> Basis:
    return Basis(M0B_SYM, k)


def mg_prime_basis(k: int) -> Basis:
    return Basis(MG_PRIME, k)


def mg_hat_basis(k: int) -> Basis:
    return Basis(MG_HAT, k)


class DivisorClass:
    """A sparse divisor class: a finite sum of generators of one basis.

    Every coefficient is stored as integer numerators over one positive
    common denominator ``_den``: its constant part in ``_nums`` and the
    coefficients of its external symbols c_j, b_j in ``_sym``, a map
    generator -> symbol -> numerator.  A generator may occur in both
    maps.  No numerator is zero, no inner map of ``_sym`` is empty,
    ``gcd(_den, *every numerator) == 1``, and ``_den == 1`` when there
    are no numerators.  This form is unique, so two classes are equal
    exactly when their stored parts agree.  ``+`` and ``-`` are two-term
    calls of :func:`linear_combination`; a longer sum should be one call
    of it, which copies and reduces the result once instead of once per
    term.  Only the accessors
    :meth:`coefficient` and :meth:`items`, and multiplication by a
    symbolic scalar, which goes through them, build an
    :class:`AffineExpr`.  Instances are immutable.
    """

    __slots__ = ("basis", "_den", "_nums", "_sym")

    def __init__(self, basis: Basis, coeffs: Mapping[str, AffineLike] | None = None):
        self.basis = basis
        plain: dict[str, int | Fraction] = {}
        symbolic: dict[str, dict[ExtSymbol, Fraction]] = {}
        if coeffs:
            for name, value in coeffs.items():
                basis.check(name)
                if isinstance(value, AffineExpr):
                    if not value.is_constant():
                        symbolic[name] = value.terms
                    value = value.const
                elif not isinstance(value, (int, Fraction)):
                    raise TypeError(
                        f"cannot interpret {type(value).__name__} as a coefficient"
                    )
                if value:
                    plain[name] = value
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the stored form is already in lowest terms
        den = lcm(
            *(value.denominator for value in plain.values()),
            *(coef.denominator for terms in symbolic.values() for coef in terms.values()),
        )
        self._den = den
        self._nums = {n: numerator_over(value, den) for n, value in plain.items()}
        self._sym = {
            name: {s: numerator_over(coef, den) for s, coef in terms.items()}
            for name, terms in symbolic.items()
        }

    @classmethod
    def _raw(
        cls,
        basis: Basis,
        den: int,
        nums: dict[str, int],
        sym: dict[str, dict[ExtSymbol, int]] | None = None,
    ) -> "DivisorClass":
        # internal: generators already validated, every numerator nonzero
        # over ``den`` > 0, no inner map of ``sym`` empty; only the common
        # factor of ``den`` and the numerators is removed here
        sym = sym or {}
        if not (nums or sym):
            den = 1
        elif den != 1:
            g = gcd(den, *nums.values())
            if g != 1 and sym:
                g = gcd(g, *_sym_numerators(sym))
            if g != 1:
                den //= g
                nums = {name: n // g for name, n in nums.items()}
                sym = {
                    name: {s: n // g for s, n in terms.items()}
                    for name, terms in sym.items()
                }
        obj = cls.__new__(cls)
        obj.basis = basis
        obj._den = den
        obj._nums = nums
        obj._sym = sym
        return obj

    def _value(self, name: str) -> AffineExpr:
        den = self._den
        terms = self._sym.get(name)
        return AffineExpr(
            Fraction(self._nums.get(name, 0), den),
            terms and {s: Fraction(n, den) for s, n in terms.items()},
        )

    def coefficient(self, name: str) -> AffineExpr:
        self.basis.check(name)
        return self._value(name)

    def support(self) -> list[str]:
        position = _generator_index(self.basis.kind, self.basis.k)
        return sorted(self._nums.keys() | self._sym.keys(), key=position.__getitem__)

    def items(self) -> list[tuple[str, AffineExpr]]:
        return [(name, self._value(name)) for name in self.support()]

    def _formatted_items(
        self, scale: int = 1
    ) -> list[tuple[str, str, tuple[tuple[ExtSymbol, str], ...]]]:
        """:meth:`items` of ``self * scale`` as text, for emission: per
        generator in support order, its constant part and its (symbol,
        coefficient) terms in display order, each rendered as "p/q" in
        lowest terms straight from the stored numerators; no
        ``Fraction`` or :class:`AffineExpr` is built.

        ``scale`` is a positive int.  A value n0/d0 in lowest terms
        becomes n0 * (scale // g) over d0 // g with g = gcd(scale, d0),
        again in lowest terms: per prime, either the scale absorbs all
        of d0's power or the quotient keeps none of it.  For scale != 1
        the numerator digits come from one exact ``decimal`` conversion
        of ``scale`` per call, divided once per distinct g and
        multiplied by each n0, instead of one quadratic int-to-text
        conversion per (6k)!-sized value."""
        if not isinstance(scale, int) or scale < 1:
            raise ValueError(f"scale must be a positive int, got {scale!r}")
        den, nums, sym = self._den, self._nums, self._sym
        if scale == 1:
            def text(n: int) -> str:
                # core.format_ratio, inlined: this runs once per emitted value
                g = gcd(n, den)
                return f"{n // g}/{den // g}"
        else:
            # a fresh context per call; an inexact step raises instead of
            # printing wrong digits
            ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
            ctx.traps[decimal.Inexact] = ctx.traps[decimal.Rounded] = True
            whole = decimal.Decimal(scale)
            quotients: dict[int, decimal.Decimal] = {}

            def text(n: int) -> str:
                g = gcd(n, den)
                d0 = den // g
                g1 = gcd(scale, d0)
                q = quotients.get(g1)
                if q is None:
                    q = quotients[g1] = ctx.divide_int(whole, g1)
                return f"{ctx.multiply(q, n // g)}/{d0 // g1}"
        rendered = []
        for name in self.support():
            terms = sym.get(name)
            if terms:
                terms = tuple((s, text(terms[s])) for s in sorted(terms, key=display_key))
            else:
                terms = ()
            rendered.append((name, text(nums.get(name, 0)), terms))
        return rendered

    def is_zero(self) -> bool:
        return not self._nums and not self._sym

    def substitute(self, values: Mapping[ExtSymbol, RationalLike]) -> "DivisorClass":
        """Replace every symbol present in ``values``; others stay
        symbolic.  Everything is put over one lcm of the denominators of
        the values used."""
        present = set().union(*self._sym.values())
        used = {s: exact_rational(values[s]) for s in present if s in values}
        if not used:
            return self
        common = lcm(*(v.denominator for v in used.values()))
        nums = {name: n * common for name, n in self._nums.items()}
        sym: dict[str, dict[ExtSymbol, int]] = {}
        for name, terms in self._sym.items():
            kept: dict[ExtSymbol, int] = {}
            for s, n in terms.items():
                v = used.get(s)
                if v is None:
                    kept[s] = n * common
                else:
                    nums[name] = nums.get(name, 0) + n * numerator_over(v, common)
            if kept:
                sym[name] = kept
        return DivisorClass._raw(self.basis, self._den * common, _nonzero(nums), sym)

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return linear_combination(self.basis, ((1, self), (1, other)))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return linear_combination(self.basis, ((1, self), (-1, other)))

    def __neg__(self) -> "DivisorClass":
        return self._scaled(-1)

    def _scaled(self, x: int | Fraction) -> "DivisorClass":
        """``self * x``: numerators times p, denominator times q."""
        if not x:
            return DivisorClass._raw(self.basis, 1, {})
        p, q = x.numerator, x.denominator
        g = gcd(self._den, p)
        den, p = self._den // g, p // g
        g = gcd(q, *self._nums.values(), *_sym_numerators(self._sym))
        nums = {name: n // g * p for name, n in self._nums.items()}
        sym = {
            name: {s: n // g * p for s, n in terms.items()}
            for name, terms in self._sym.items()
        }
        return DivisorClass._raw(self.basis, den * (q // g), nums, sym)

    def __mul__(self, scalar: AffineLike) -> "DivisorClass":
        if isinstance(scalar, AffineExpr):
            if not scalar.is_constant():
                return DivisorClass(
                    self.basis, {name: e * scalar for name, e in self.items()}
                )
            scalar = scalar.const
        elif not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self._scaled(scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: AffineLike) -> "DivisorClass":
        if isinstance(scalar, AffineExpr):
            scalar = scalar.constant_value()
        elif not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if scalar == 0:
            raise ZeroDivisionError("division of a divisor class by zero")
        return self._scaled(1 / Fraction(scalar))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return (
            self.basis == other.basis
            and self._den == other._den
            and self._nums == other._nums
            and self._sym == other._sym
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.basis,
                self._den,
                frozenset(self._nums.items()),
                frozenset(
                    (name, frozenset(terms.items())) for name, terms in self._sym.items()
                ),
            )
        )

    def __repr__(self) -> str:
        if self.is_zero():
            body = "0"
        else:
            body = " + ".join(f"({v})*{g}" for g, v in self.items())
        return f"<{self.basis.kind}(k={self.basis.k}): {body}>"


def exact_rational(value) -> int | Fraction:
    """``value`` as an ``int`` or ``Fraction``: one that already is one
    is returned as it is, anything else goes through ``Fraction``."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def numerator_over(value: int | Fraction, den: int) -> int:
    """The numerator of ``value`` over ``den``, a multiple of its
    denominator."""
    return value.numerator * (den // value.denominator)


def _sym_numerators(sym: Mapping[str, Mapping[ExtSymbol, int]]) -> Iterator[int]:
    for terms in sym.values():
        yield from terms.values()


def _add_scaled(acc: dict, terms: Mapping, factor: int) -> None:
    """``acc += factor * terms`` key by key; zeros are left in place."""
    get = acc.get
    for key, n in terms.items():
        acc[key] = get(key, 0) + n * factor


def _nonzero(nums: dict) -> dict:
    return {key: n for key, n in nums.items() if n}


def _nonzero_sym(sym: dict[str, dict[ExtSymbol, int]]) -> dict[str, dict[ExtSymbol, int]]:
    kept = {name: _nonzero(terms) for name, terms in sym.items()}
    return {name: terms for name, terms in kept.items() if terms}


def zero_class(basis: Basis) -> DivisorClass:
    return DivisorClass(basis, {})


def linear_combination(
    basis: Basis, terms: Iterable[tuple[int | Fraction, DivisorClass]]
) -> DivisorClass:
    """The class ``sum(x * d for x, d in terms)`` over ``basis``, in one
    pass: every product is summed in ``int`` over one lcm of the
    ``d._den * x.denominator``, and the result is reduced once.  Zero
    scalars are skipped, no terms give the zero class, and a class over
    another basis raises :class:`BasisMismatchError`."""
    scaled = []
    for x, d in terms:
        if d.basis != basis:
            raise BasisMismatchError(
                f"cannot combine classes over {basis} and {d.basis}"
            )
        if not isinstance(x, (int, Fraction)):
            raise TypeError(
                f"cannot interpret {type(x).__name__} as a rational scalar"
            )
        if x:
            scaled.append((x.numerator, d._den * x.denominator, d))
    if not scaled:
        return DivisorClass._raw(basis, 1, {})
    den = lcm(*(q for _, q, _ in scaled))
    # the first term is copied scaled, the others are added onto it
    p, q, d = scaled[0]
    f = den // q * p
    nums = {name: n * f for name, n in d._nums.items()}
    sym = {name: {s: n * f for s, n in row.items()} for name, row in d._sym.items()}
    for p, q, d in scaled[1:]:
        f = den // q * p
        _add_scaled(nums, d._nums, f)
        for name, row in d._sym.items():
            _add_scaled(sym.setdefault(name, {}), row, f)
    return DivisorClass._raw(basis, den, _nonzero(nums), _nonzero_sym(sym))


class ClassMap:
    """A linear map between class groups, given by the images of the
    source generators.  Generators without an image map to zero.

    The images are sparse integer columns over one common denominator
    ``_den``, not necessarily in lowest terms: ``_cols`` maps a source
    generator to the numerators of its image's constant parts (target ->
    int), ``_sym`` to those of its c_j/b_j parts (target -> symbol ->
    int); none is zero.  :meth:`row` builds the reduced class, and
    :meth:`apply` sums every product in ``int``.  The symbols occur
    linearly: a symbolic source coefficient meeting a column with
    symbolic entries raises ``ValueError``.
    """

    __slots__ = ("source", "target", "_den", "_cols", "_sym")

    def __init__(self, source: Basis, target: Basis, rows: Mapping[str, DivisorClass]):
        for name, image in rows.items():
            source.check(name)
            if image.basis != target:
                raise BasisMismatchError(
                    f"row for {name!r} lives over {image.basis}, expected {target}"
                )
        den = lcm(*(image._den for image in rows.values()))
        cols: dict[str, dict[str, int]] = {}
        sym: dict[str, dict[str, dict[ExtSymbol, int]]] = {}
        for name, image in rows.items():
            f = den // image._den
            if image._nums:
                cols[name] = {t: n * f for t, n in image._nums.items()}
            if image._sym:
                sym[name] = {
                    t: {s: n * f for s, n in terms.items()}
                    for t, terms in image._sym.items()
                }
        self.source, self.target = source, target
        self._den, self._cols, self._sym = den, cols, sym

    @classmethod
    def _raw(cls, source: Basis, target: Basis, den: int, cols, sym=None) -> "ClassMap":
        # internal: columns as stored, generators already validated, every
        # numerator nonzero over ``den`` > 0, no inner map empty
        obj = cls.__new__(cls)
        obj.source, obj.target = source, target
        obj._den, obj._cols, obj._sym = den, cols, sym or {}
        return obj

    def row(self, name: str) -> DivisorClass:
        self.source.check(name)
        return DivisorClass._raw(
            self.target, self._den, self._cols.get(name, {}), self._sym.get(name)
        )

    @property
    def rows(self) -> dict[str, DivisorClass]:
        """The nonzero images, by source generator."""
        return {name: self.row(name) for name in {**self._cols, **self._sym}}

    def _map_numerators(
        self, nums: Mapping[str, int], sym_in: Mapping[str, Mapping[ExtSymbol, int]]
    ) -> tuple[dict[str, int], dict[str, dict[ExtSymbol, int]]]:
        """The image of the class with numerators ``nums``/``sym_in``
        over some denominator q, as numerators over q * ``_den``, zeros
        dropped.  Every product is summed in int; the symbols occur
        linearly, so at most one side of a product carries one."""
        cols, sym_cols = self._cols, self._sym
        sums: dict[str, int] = {}
        sym: dict[str, dict[ExtSymbol, int]] = {}
        for name, x in nums.items():
            for t, r in cols.get(name, {}).items():
                sums[t] = sums.get(t, 0) + x * r
            for t, terms in sym_cols.get(name, {}).items():
                _add_scaled(sym.setdefault(t, {}), terms, x)
        for name, terms in sym_in.items():
            if name in sym_cols:
                raise ValueError(
                    "product of two non-constant affine expressions is not affine"
                )
            for t, r in cols.get(name, {}).items():
                _add_scaled(sym.setdefault(t, {}), terms, r)
        return _nonzero(sums), _nonzero_sym(sym)

    def apply(self, d: DivisorClass) -> DivisorClass:
        if d.basis != self.source:
            raise BasisMismatchError(
                f"class over {d.basis} cannot be fed to a map from {self.source}"
            )
        nums, sym = self._map_numerators(d._nums, d._sym)
        return DivisorClass._raw(self.target, d._den * self._den, nums, sym)

    def compose(self, inner: "ClassMap") -> "ClassMap":
        """The map ``self o inner``; requires inner.target == self.source.
        Each inner column is mapped through this map's columns in int,
        over the denominator ``self._den * inner._den``; no row is built
        as a class."""
        if inner.target != self.source:
            raise BasisMismatchError(
                f"cannot compose: inner map lands in {inner.target}, "
                f"outer map starts from {self.source}"
            )
        cols: dict[str, dict[str, int]] = {}
        sym: dict[str, dict[str, dict[ExtSymbol, int]]] = {}
        for name in {**inner._cols, **inner._sym}:
            nums, terms = self._map_numerators(
                inner._cols.get(name, {}), inner._sym.get(name, {})
            )
            if nums:
                cols[name] = nums
            if terms:
                sym[name] = terms
        return ClassMap._raw(inner.source, self.target, self._den * inner._den, cols, sym)

    def __repr__(self) -> str:
        return (
            f"ClassMap({self.source.kind}(k={self.source.k}) -> "
            f"{self.target.kind}(k={self.target.k}), {len(self.rows)} rows)"
        )


def identity_map(basis: Basis) -> ClassMap:
    rows = {g: DivisorClass(basis, {g: Fraction(1)}) for g in basis.generators()}
    return ClassMap(basis, basis, rows)
