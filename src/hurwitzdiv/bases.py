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
common denominator, in one map per class: the constant part of a
generator's coefficient is keyed by the generator name, the coefficient
of an external symbol c_j, b_j in it by the plain tuple (name, symbol).
A divisor class keeps that map in lowest terms; a class map keeps its
images as sparse integer columns keyed the same way, one per source
generator, which the builders write directly.  Sums, scalings,
reduction, equality, hashing and composition treat every key alike; only
the constructor, the accessors, substitution and the product rule of
:meth:`ClassMap._map_numerators` tell the two kinds of key apart.  Sums
run through one n-ary kernel, :func:`linear_combination`, which puts all
its terms over one lcm, sums their numerators in a single pass and
reduces once; ``+`` and ``-`` are its two-term calls.  Addition,
scaling, substitution and the application and composition of class maps
run on plain ``int``: ``ClassMap.compose`` maps each inner integer
column through the outer columns over the product of the two
denominators, without building a row as a class.  A ``Fraction`` or an
:class:`AffineExpr`, the read-only value of a coefficient, is built only
at the public accessors ``DivisorClass.coefficient``/``items``.  Beside
``items`` sits the internal ``DivisorClass._formatted_items``, the same
values as "p/q" text rendered from the integers, which ``serialize`` and
the ``cli`` tables emit from.  It renders the class times an int ``scale`` without
building that product: a raw pushed class is emitted as its
per-factorial-b class with scale (6k)!, whose decimal digits are
computed once per call (exact ``decimal`` arithmetic in a context of its
own) rather than once per (6k)!-sized numerator, so no emitted value is
converted to text through Python's quadratic, digit-limited int
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

    Every coefficient is stored in one map ``_nums`` of integer
    numerators over one positive common denominator ``_den``.  The
    constant part of a generator's coefficient is keyed by the generator
    name, and the coefficient of an external symbol c_j, b_j in it by the
    plain tuple ``(name, symbol)``.  No numerator is zero,
    ``gcd(_den, *every numerator) == 1``, and ``_den == 1`` when there
    are no numerators.  This form is unique, so two classes are equal
    exactly when their stored parts agree, and sums, scalings and
    reduction treat every key alike.  ``+`` and ``-`` are two-term
    calls of :func:`linear_combination`; a longer sum should be one call
    of it, which copies and reduces the result once instead of once per
    term.  Only the accessors :meth:`coefficient` and :meth:`items`
    build an :class:`AffineExpr`; a scalar is an ``int`` or a
    ``Fraction``, as the symbols occur linearly.  Instances are
    immutable.
    """

    __slots__ = ("basis", "_den", "_nums")

    def __init__(
        self, basis: Basis, coeffs: Mapping[str, RationalLike | AffineExpr] | None = None
    ):
        self.basis = basis
        values: dict[str | tuple[str, ExtSymbol], int | Fraction] = {}
        if coeffs:
            for name, value in coeffs.items():
                basis.check(name)
                if isinstance(value, AffineExpr):
                    for s, coef in value.terms.items():
                        values[name, s] = coef
                    value = value.const
                elif not isinstance(value, (int, Fraction)):
                    raise TypeError(
                        f"cannot interpret {type(value).__name__} as a coefficient"
                    )
                if value:
                    values[name] = value
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the stored form is already in lowest terms
        den = lcm(*(value.denominator for value in values.values()))
        self._den = den
        self._nums = {key: numerator_over(value, den) for key, value in values.items()}

    @classmethod
    def _raw(cls, basis: Basis, den: int, nums: dict) -> "DivisorClass":
        # internal: keys already validated, every numerator nonzero over
        # ``den`` > 0; only the common factor of ``den`` and the
        # numerators is removed here
        if not nums:
            den = 1
        elif den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {key: n // g for key, n in nums.items()}
        obj = cls.__new__(cls)
        obj.basis = basis
        obj._den = den
        obj._nums = nums
        return obj

    def _symbolic(self) -> dict[str, dict[ExtSymbol, int]]:
        """The symbol numerators, grouped as generator -> symbol ->
        numerator."""
        grouped: dict[str, dict[ExtSymbol, int]] = {}
        for key, n in self._nums.items():
            if type(key) is tuple:
                name, s = key
                grouped.setdefault(name, {})[s] = n
        return grouped

    def _value(self, name: str, terms: Mapping[ExtSymbol, int] | None) -> AffineExpr:
        den = self._den
        return AffineExpr(
            Fraction(self._nums.get(name, 0), den),
            terms and {s: Fraction(n, den) for s, n in terms.items()},
        )

    def coefficient(self, name: str) -> AffineExpr:
        self.basis.check(name)
        terms = {
            key[1]: n
            for key, n in self._nums.items()
            if type(key) is tuple and key[0] == name
        }
        return self._value(name, terms)

    def support(self) -> list[str]:
        return self._support(self._symbolic())

    def _support(self, sym: Mapping[str, Mapping[ExtSymbol, int]]) -> list[str]:
        # the constant keys in stored order, then the generators of the
        # grouped symbol terms ``sym`` that have no constant part; a list
        # near basis order sorts faster than a set
        nums = self._nums
        names = [key for key in nums if type(key) is str]
        names += [name for name in sym if name not in nums]
        position = _generator_index(self.basis.kind, self.basis.k)
        return sorted(names, key=position.__getitem__)

    def items(self) -> list[tuple[str, AffineExpr]]:
        sym = self._symbolic()
        return [(name, self._value(name, sym.get(name))) for name in self._support(sym)]

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
        den, nums = self._den, self._nums
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
        sym = self._symbolic()
        rendered = []
        for name in self._support(sym):
            terms = sym.get(name)
            if terms:
                terms = tuple((s, text(terms[s])) for s in sorted(terms, key=display_key))
            else:
                terms = ()
            rendered.append((name, text(nums.get(name, 0)), terms))
        return rendered

    def is_zero(self) -> bool:
        return not self._nums

    def substitute(self, values: Mapping[ExtSymbol, RationalLike]) -> "DivisorClass":
        """Replace every symbol present in ``values``; others stay
        symbolic.  Everything is put over one lcm of the denominators of
        the values used."""
        present = {key[1] for key in self._nums if type(key) is tuple}
        used = {s: exact_rational(values[s]) for s in present if s in values}
        if not used:
            return self
        common = lcm(*(v.denominator for v in used.values()))
        used = {s: numerator_over(v, common) for s, v in used.items()}
        nums: dict = {}
        for key, n in self._nums.items():
            if type(key) is tuple and key[1] in used:
                # a substituted symbol term joins its generator's constant
                key, n = key[0], n * used[key[1]]
            else:
                n *= common
            nums[key] = nums.get(key, 0) + n
        return DivisorClass._raw(self.basis, self._den * common, _nonzero(nums))

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
        g = gcd(q, *self._nums.values())
        nums = {key: n // g * p for key, n in self._nums.items()}
        return DivisorClass._raw(self.basis, den * (q // g), nums)

    def __mul__(self, scalar: RationalLike) -> "DivisorClass":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return self._scaled(scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: RationalLike) -> "DivisorClass":
        if not isinstance(scalar, (int, Fraction)):
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
        )

    def __hash__(self) -> int:
        return hash((self.basis, self._den, frozenset(self._nums.items())))

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


def _add_scaled(acc: dict, terms: Mapping, factor: int) -> None:
    """``acc += factor * terms`` key by key; zeros are left in place."""
    get = acc.get
    for key, n in terms.items():
        acc[key] = get(key, 0) + n * factor


def _nonzero(nums: dict) -> dict:
    return {key: n for key, n in nums.items() if n}


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
    nums = {key: n * f for key, n in d._nums.items()}
    for p, q, d in scaled[1:]:
        _add_scaled(nums, d._nums, den // q * p)
    return DivisorClass._raw(basis, den, _nonzero(nums))


class ClassMap:
    """A linear map between class groups, given by the images of the
    source generators.  Generators without an image map to zero.

    The images are sparse integer columns over one common denominator
    ``_den``, not necessarily in lowest terms: ``_cols`` maps a source
    generator to the numerators of its image, keyed as in
    :class:`DivisorClass` (a target generator for a constant part,
    ``(target, symbol)`` for a c_j/b_j part); none is zero.  :meth:`row`
    builds the reduced class, and :meth:`apply` sums every product in
    ``int``.  The symbols occur linearly: a symbolic source coefficient
    meeting a column with symbolic entries raises ``ValueError``.
    """

    __slots__ = ("source", "target", "_den", "_cols")

    def __init__(self, source: Basis, target: Basis, rows: Mapping[str, DivisorClass]):
        for name, image in rows.items():
            source.check(name)
            if image.basis != target:
                raise BasisMismatchError(
                    f"row for {name!r} lives over {image.basis}, expected {target}"
                )
        den = lcm(*(image._den for image in rows.values()))
        cols: dict[str, dict] = {}
        for name, image in rows.items():
            if image._nums:
                f = den // image._den
                cols[name] = {key: n * f for key, n in image._nums.items()}
        self.source, self.target = source, target
        self._den, self._cols = den, cols

    @classmethod
    def _raw(cls, source: Basis, target: Basis, den: int, cols) -> "ClassMap":
        # internal: columns as stored, keys already validated, every
        # numerator nonzero over ``den`` > 0, no column empty
        obj = cls.__new__(cls)
        obj.source, obj.target = source, target
        obj._den, obj._cols = den, cols
        return obj

    def row(self, name: str) -> DivisorClass:
        self.source.check(name)
        return DivisorClass._raw(self.target, self._den, self._cols.get(name, {}))

    @property
    def rows(self) -> dict[str, DivisorClass]:
        """The nonzero images, by source generator."""
        return {
            name: DivisorClass._raw(self.target, self._den, col)
            for name, col in self._cols.items()
        }

    def _map_numerators(self, nums: Mapping) -> dict:
        """The image of the class with numerators ``nums`` over some
        denominator q, as numerators over q * ``_den``, zeros dropped.
        Every product is summed in int.  The symbols occur linearly: a
        symbol term (name, s) of the source maps through a constant
        entry t of name's column to (t, s), and through a symbolic entry
        it raises ``ValueError``."""
        cols = self._cols
        sums: dict = {}
        get = sums.get
        for key, x in nums.items():
            if type(key) is tuple:
                name, s = key
                for t, r in cols.get(name, {}).items():
                    if type(t) is tuple:
                        raise ValueError(
                            "product of two non-constant affine expressions is not affine"
                        )
                    sums[t, s] = get((t, s), 0) + x * r
            else:
                for t, r in cols.get(key, {}).items():
                    sums[t] = get(t, 0) + x * r
        return _nonzero(sums)

    def apply(self, d: DivisorClass) -> DivisorClass:
        if d.basis != self.source:
            raise BasisMismatchError(
                f"class over {d.basis} cannot be fed to a map from {self.source}"
            )
        return DivisorClass._raw(
            self.target, d._den * self._den, self._map_numerators(d._nums)
        )

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
        cols = {}
        for name, col in inner._cols.items():
            mapped = self._map_numerators(col)
            if mapped:
                cols[name] = mapped
        return ClassMap._raw(inner.source, self.target, self._den * inner._den, cols)

    def __repr__(self) -> str:
        return (
            f"ClassMap({self.source.kind}(k={self.source.k}) -> "
            f"{self.target.kind}(k={self.target.k}), {len(self._cols)} rows)"
        )


def identity_map(basis: Basis) -> ClassMap:
    rows = {g: DivisorClass(basis, {g: Fraction(1)}) for g in basis.generators()}
    return ClassMap(basis, basis, rows)
