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
spec per kind, ``_SPECS``, lists its generators; the E_{j,c} names of
``Hurwitz(k)`` come from :func:`ejc_names`, a cached table in the row
layout, built from one "E_j_" prefix per row and one shared table of
index strings.  The order of every basis is cached per (kind, k) as a name ->
position map, which answers membership and puts the generators of a
class in natural order.

Where symbols live: the external symbols c_j, b_j are the unknown
delta_j coefficients of the pushed classes on M_g-bar, and each class
carries them as gamma_c c_j + gamma_b b_j on every delta_j, j >= 1, of
``Mg(k)``, with one pair (gamma_c, gamma_b) per class: the E2/E3
columns of ``p_push`` and the T2 column of ``p_q_map`` write one weight
for every j.  The constructor refuses any other symbolic shape with a
``ClassGroupError`` that names the generator.  No ``ClassMap`` starts
from ``Mg(k)``, so a symbolic class meets a map only as the
``BasisMismatchError`` of ``apply``.

Every coefficient is stored as integer numerators over one positive
common denominator.  A class keeps two parts over that denominator:

* the head map ``_nums``: the constant part of a generator's
  coefficient keyed by the generator name and, over ``Mg(k)``, the two
  weights keyed by ``C_WEIGHT``/``B_WEIGHT``.  It holds every
  generator of the four small kinds and E0/E2/E3 of ``Hurwitz(k)``;
* on ``Hurwitz(k)`` only, the rows ``_rows``: the constant parts of the
  E_{j,c} in the layout of :func:`ejc_names` and ``trace.jc_rows``, a
  tuple of k + 1 rows whose entry j holds the numerators for c = 0 ..
  floor(j/2), and is ``()`` when all of them are zero (entry 0 always
  is).  Every other kind has ``_rows == ()``.

The form is unique: no head numerator is zero, the gcd of the
denominator and every numerator is 1, and the denominator is 1 for the
zero class; so two classes are equal exactly when their stored parts
agree.  The class maps are the package's own: q^* (``trace.q_pullback``,
``M0bSym(k)`` to ``Hurwitz(k)``), p_* (``pushforward.p_push``,
``Hurwitz(k)`` to ``Mg(k)``), the correspondence action
(``pushforward.p_q_map``, ``M0bSym(k)`` to ``Mg(k)``) and the composite
p_* o q^*; ``ClassMap`` has no public constructor.  A map stores its
images as integer columns over one common denominator in the same two
parts (a column's rows as the sparse (j, row) pairs of its nonzero
rows), and p_*, the one map from ``Hurwitz(k)``, keeps its E_{j,c}
columns blocked by j: p_* sends E_{j,c} to e_{j,c} delta_j only, so
block j is the pair (delta_j, entries over c), and applying the map to
a class costs one C-level dot product ``sum(map(mul, weights, row))``
per j.  Sums, scalings, reduction, equality, hashing, application and
composition each run once over "head map + rows", a weight key like
any other; only the constructor, the accessors and substitution tell a
weight from a constant.  Sums run through one n-ary kernel,
:func:`linear_combination`, which puts all its terms over one lcm, sums
their numerators in a single pass (row by row for the rows) and reduces
once; ``+`` and ``-`` are its two-term calls.  All of it runs on plain
``int``: ``ClassMap.compose`` maps each inner integer column through
the outer map over the product of the two denominators, without
building a row as a class.  A ``Fraction`` or an :class:`AffineExpr`,
the read-only value of a coefficient, is built only at the public
accessors ``DivisorClass.coefficient``/``items``;
``DivisorClass.numerators_view`` hands a class without rows out as its
integers, without a copy, as ``ClassMap.numerators`` does for an image.
The package's builders write their integer numerators over one
denominator straight into the stored form through the trusted
``DivisorClass._raw``/``ClassMap._raw``, naming generators from the
bases' own tables, so no builder pays for the name checks and
``Fraction`` reduction of the validating constructor, which stays for
callers.  Substitution is one kernel, ``DivisorClass._substituted``: it
takes the c_j and b_j values by j as integers over one denominator, as
``pushforward.ExternalCoeffs`` puts its table once, and adds gamma_c
c_j + gamma_b b_j to each delta_j in one pass over j.

Beside ``items`` sits the internal ``DivisorClass._formatted_items``,
the same values as "p/q" text rendered from the integers, which
``serialize`` and the ``cli`` tables emit from.  It renders a class
over denominator 1 as "n/1" with no gcd, the two weights once for every
delta_j, and a Hurwitz class in one pass over its head map and its
rows.  It renders the class times an int ``scale`` without building
that product: a raw pushed class is emitted as its per-factorial-b
class with scale (6k)!, whose decimal digits are computed once per call
(exact ``decimal`` arithmetic in a context of its own) rather than once
per (6k)!-sized numerator, so no emitted value is converted to text
through Python's quadratic, digit-limited int conversion.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import AffineExpr, ExtSymbol, RationalLike, b_sym, c_sym, per_k_cache


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


@per_k_cache
def delta_names(k: int) -> tuple[str, ...]:
    """The names delta_0 .. delta_k of ``Mg(k)``, built once per k."""
    return tuple(map(delta, range(k + 1)))


# The reserved head keys of an Mg(k) class: its weights gamma_c and
# gamma_b, the coefficients of c_j and b_j on every delta_j, j >= 1.  Each
# is the family letter of its symbols, which no generator is named.
C_WEIGHT = "c"
B_WEIGHT = "b"
_WEIGHT_KEYS = (C_WEIGHT, B_WEIGHT)


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
        lambda k: chain.from_iterable(ejc_names(k)),
    ),
    MG: _KindSpec(lambda k: (LAMBDA,), delta_names),
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
            raise ClassGroupError(f"k must be >= 1, got {self.k}")

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
    """The E_{j,c} names of ``Hurwitz(k)`` in the row layout: entry j
    holds E_j_0 .. E_j_floor(j/2), entry 0 is empty.  Each name is
    :func:`Ejc` (j, c), built as the row prefix "E_j_" plus the text of
    c from one table shared by every row."""
    indices = [str(c) for c in range(k // 2 + 1)]
    rows: list[tuple[str, ...]] = [()]
    for j in range(1, k + 1):
        prefix = f"E_{j}_"
        rows.append(tuple([prefix + c for c in indices[: j // 2 + 1]]))
    return tuple(rows)


_HEAD_NAMES = frozenset((E0, E2, E3))


def _ejc_index(name: str) -> tuple[int, int]:
    """(j, c) of a generator ``E_j_c`` of a Hurwitz basis."""
    _, j, c = name.split("_")
    return int(j), int(c)


def _zero_rows(basis: Basis) -> tuple:
    """The rows of the zero class over ``basis``: k + 1 empty rows on
    ``Hurwitz(k)``, none on the other kinds."""
    return ((),) * (basis.k + 1) if basis.kind == HURWITZ else ()


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
    common denominator ``_den``, in two parts: the head map ``_nums``,
    which keys the constant part of a generator's coefficient by the
    generator name and, over ``Mg(k)``, the weights gamma_c and gamma_b
    by the reserved keys ``C_WEIGHT`` and ``B_WEIGHT``, and, on a
    Hurwitz basis, the rows ``_rows`` of the E_{j,c} constant parts in
    the :func:`ejc_names` layout (an all-zero row is ``()``; ``_rows``
    is ``()`` on the other kinds).  No head numerator is zero,
    ``gcd(_den, *every numerator) == 1``, and ``_den == 1`` for the zero
    class.  This form is unique, so two classes are equal exactly when
    their stored parts agree.  ``+`` and ``-`` are two-term calls of
    :func:`linear_combination`; a longer sum should be one call of it,
    which copies and reduces the result once instead of once per term.
    Only the accessors :meth:`coefficient` and :meth:`items` build an
    :class:`AffineExpr`, and :meth:`numerators_view` hands out the
    integers; a scalar is an ``int`` or a ``Fraction``, as the symbols
    occur linearly.  The constructor takes a symbol term only in the
    shape the store holds: gamma_c c_j + gamma_b b_j on every delta_j,
    j >= 1, of ``Mg(k)``, one pair for all j; any other raises
    :class:`ClassGroupError` naming the generator.  Instances are
    immutable.
    """

    __slots__ = ("basis", "_den", "_nums", "_rows")

    def __init__(
        self, basis: Basis, coeffs: Mapping[str, RationalLike | AffineExpr] | None = None
    ):
        self.basis = basis
        values: dict[str, int | Fraction] = {}
        weights: dict[str, tuple[Fraction, Fraction]] = {}
        if coeffs:
            for name, value in coeffs.items():
                basis.check(name)
                if isinstance(value, AffineExpr):
                    if not value.is_constant():
                        weights[name] = _weights_of(basis, name, value)
                    value = value.const
                elif not isinstance(value, (int, Fraction)):
                    raise TypeError(
                        f"cannot interpret {type(value).__name__} as a coefficient"
                    )
                if value:
                    values[name] = value
        if weights:
            # every delta_j, j >= 1, carries the pair of delta_1
            names = delta_names(basis.k)
            pair = weights.get(names[1], (0, 0))
            for name in names[2:]:
                if weights.get(name, (0, 0)) != pair:
                    raise _shape_error(basis, name)
            values.update((key, w) for key, w in zip(_WEIGHT_KEYS, pair) if w)
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the stored form is already in lowest terms
        den = lcm(*(value.denominator for value in values.values()))
        hurwitz = basis.kind == HURWITZ
        nums, rows = {}, {}
        for key, value in values.items():
            if hurwitz and key not in _HEAD_NAMES:
                j, c = _ejc_index(key)
                rows.setdefault(j, [0] * (j // 2 + 1))[c] = numerator_over(value, den)
            else:
                nums[key] = numerator_over(value, den)
        self._den = den
        self._nums = nums
        self._rows = _dense_rows(basis, [(j, tuple(row)) for j, row in rows.items()])

    @classmethod
    def _raw(
        cls, basis: Basis, den: int, nums: dict, rows: tuple | None = None
    ) -> "DivisorClass":
        # internal: keys already validated, every head numerator nonzero
        # over ``den`` > 0, ``rows`` canonical for the basis (None: no
        # E_{j,c} part); only the common factor of ``den`` and the
        # numerators is removed here, which makes the zero class 0/1
        if rows is None:
            rows = _zero_rows(basis)
        if den != 1:
            g = gcd(den, *nums.values(), *chain.from_iterable(rows))
            if g != 1:
                den //= g
                nums = {key: n // g for key, n in nums.items()}
                rows = _scale_rows(rows, 1, g)
        obj = cls.__new__(cls)
        obj.basis = basis
        obj._den = den
        obj._nums = nums
        obj._rows = rows
        return obj

    def _value(self, n: int, j: int) -> AffineExpr:
        """The coefficient with constant numerator ``n``, carrying the
        weights on c_j and b_j when ``j`` >= 1."""
        den, get = self._den, self._nums.get
        weights = j and {
            c_sym(j): Fraction(get(C_WEIGHT, 0), den),
            b_sym(j): Fraction(get(B_WEIGHT, 0), den),
        }
        return AffineExpr(Fraction(n, den), weights)

    def _weighted(self) -> bool:
        return C_WEIGHT in self._nums or B_WEIGHT in self._nums

    def coefficient(self, name: str) -> AffineExpr:
        self.basis.check(name)
        rows = self._rows
        if rows and name not in _HEAD_NAMES:
            j, c = _ejc_index(name)
            return self._value(rows[j][c] if rows[j] else 0, 0)
        # delta_j sits at position j + 1 of Mg(k); lambda (j = -1) and
        # delta_0 carry no weight
        j = _generator_index(MG, self.basis.k)[name] - 1 if self._weighted() else 0
        return self._value(self._nums.get(name, 0), max(j, 0))

    def _entries(self) -> list[tuple[str, int, int]]:
        """(generator, constant numerator, j) of every generator in the
        support, in basis order; j >= 1 for a delta_j that carries the
        weights, else 0."""
        nums, rows, k = self._nums, self._rows, self.basis.k
        if rows:
            # a Hurwitz class: the head map, then each row zipped with its
            # names
            out = [(name, nums[name], 0) for name in _SPECS[HURWITZ].head(k) if name in nums]
            for names, row in zip(ejc_names(k), rows):
                out += [(name, n, 0) for name, n in zip(names, row) if n]
            return out
        if self._weighted():
            # lambda and delta_0 as stored, then every delta_j, j >= 1
            names = delta_names(k)
            out = [(name, nums[name], 0) for name in (LAMBDA, names[0]) if name in nums]
            return out + [(name, nums.get(name, 0), j) for j, name in enumerate(names[1:], 1)]
        # a list near basis order sorts fast
        position = _generator_index(self.basis.kind, k)
        return [(name, nums[name], 0) for name in sorted(nums, key=position.__getitem__)]

    def support(self) -> list[str]:
        return [name for name, _, _ in self._entries()]

    def items(self) -> list[tuple[str, AffineExpr]]:
        return [(name, self._value(n, j)) for name, n, j in self._entries()]

    def _formatted_items(
        self, scale: int = 1
    ) -> list[tuple[str, str, tuple[tuple[ExtSymbol, str], ...]]]:
        """:meth:`items` of ``self * scale`` as text, for emission: per
        generator in support order, its constant part and its (symbol,
        coefficient) terms in display order, each rendered as "p/q" in
        lowest terms straight from the stored numerators; no
        ``Fraction`` or :class:`AffineExpr` is built.  A Hurwitz class
        is rendered in one pass over its head map and its rows, each row
        zipped with its :func:`ejc_names` row, and the two weights of an
        ``Mg(k)`` class are rendered once for every delta_j.

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
        den = self._den
        if scale != 1:
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
        elif den == 1:
            def text(n: int) -> str:
                return f"{n}/1"
        else:
            over = f"/{den}"

            def text(n: int) -> str:
                # core.format_ratio, inlined: this runs once per emitted
                # value, and a value already in lowest terms over den
                # (most are) skips the two divisions
                g = gcd(n, den)
                return f"{n}{over}" if g == 1 else f"{n // g}/{den // g}"
        nums, rows, k = self._nums, self._rows, self.basis.k
        if rows:
            # a Hurwitz class: the head map, then each row zipped with its
            # names
            rendered = [
                (name, text(nums[name]), ()) for name in _SPECS[HURWITZ].head(k) if name in nums
            ]
            for names, row in zip(ejc_names(k), rows):
                rendered += [(name, text(n), ()) for name, n in zip(names, row) if n]
            return rendered
        # a reserved key is the family letter of its symbols
        weights = [(key, text(nums[key])) for key in _WEIGHT_KEYS if key in nums]
        return [
            (name, text(n), tuple([(ExtSymbol(f, j), w) for f, w in weights]) if j else ())
            for name, n, j in self._entries()
        ]

    def is_zero(self) -> bool:
        return not self._nums and not any(self._rows)

    def numerators_view(self) -> tuple[Mapping, int]:
        """The class as integers, with no value built and nothing
        copied: its numerators by generator, the weights gamma_c and
        gamma_b by ``C_WEIGHT`` and ``B_WEIGHT``, and their common
        denominator, in lowest terms.  The map is the class's own and
        read-only by contract: a caller must not change it.  The basis
        must have no E_{j,c} rows, so the map is the whole class."""
        if self.basis.kind == HURWITZ:
            raise ValueError("numerators_view() needs a basis without E_{j,c} rows")
        return self._nums, self._den

    def _substituted(self, c: Sequence[int], b: Sequence[int], den: int) -> "DivisorClass":
        """The substitution kernel: c_j becomes ``c[j - 1] / den`` and
        b_j becomes ``b[j - 1] / den`` for j = 1..k (ints over a
        positive int).  A class without weights is returned as it is;
        otherwise it lies over ``Mg(k)``, the table must be for that k,
        and each delta_j gains gamma_c c_j + gamma_b b_j in one pass over
        j, over ``self._den * den``, reduced once."""
        nums = self._nums
        gc, gb = nums.get(C_WEIGHT, 0), nums.get(B_WEIGHT, 0)
        if not (gc or gb):
            return self
        k = self.basis.k
        if len(c) != k:
            raise ValueError(f"external table is for k={len(c)}, not k={k}")
        out = {key: n * den for key, n in nums.items() if key not in _WEIGHT_KEYS}
        get = out.get
        for name, x, y in zip(delta_names(k)[1:], c, b):
            out[name] = get(name, 0) + gc * x + gb * y
        return DivisorClass._raw(self.basis, self._den * den, _nonzero(out))

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
        g = gcd(q, *self._nums.values(), *chain.from_iterable(self._rows))
        nums = {key: n // g * p for key, n in self._nums.items()}
        rows = _scale_rows(self._rows, p, g)
        return DivisorClass._raw(self.basis, den * (q // g), nums, rows)

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
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.basis, self._den, frozenset(self._nums.items()), self._rows))

    def __repr__(self) -> str:
        if self.is_zero():
            body = "0"
        else:
            body = " + ".join(f"({v})*{g}" for g, v in self.items())
        return f"<{self.basis.kind}(k={self.basis.k}): {body}>"


def _shape_error(basis: Basis, name: str) -> ClassGroupError:
    if basis.kind != MG:
        return ClassGroupError(
            f"generator {name!r} of {basis.kind}(k={basis.k}) cannot carry an "
            f"external symbol; symbols live only over Mg"
        )
    return ClassGroupError(
        f"generator {name!r} of Mg(k={basis.k}) breaks the shape of the "
        f"external symbols: every delta_j, j >= 1, carries the same "
        f"gamma_c*c_j + gamma_b*b_j, and lambda and delta_0 carry none"
    )


def _weights_of(basis: Basis, name: str, value: AffineExpr) -> tuple[Fraction, Fraction]:
    """(gamma_c, gamma_b) of the symbolic coefficient ``value`` of
    ``name``: its coefficients of c_j and b_j, where ``name`` is delta_j,
    j >= 1, of ``Mg(k)`` and ``value`` carries no other symbol."""
    # lambda and delta_0 sit at positions 0 and 1 of Mg(k), delta_j at j + 1
    j = _generator_index(MG, basis.k)[name] - 1 if basis.kind == MG else 0
    if j < 1 or not value.terms.keys() <= {c_sym(j), b_sym(j)}:
        raise _shape_error(basis, name)
    return value.coefficient(c_sym(j)), value.coefficient(b_sym(j))


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


def _scale_rows(rows: tuple, p: int, g: int = 1) -> tuple:
    """Every entry n of ``rows`` as n // g * p; ``g`` divides each one
    and ``p`` is not zero, so a nonzero row stays nonzero."""
    if g == 1:
        if p == 1:
            return rows
        return tuple([tuple([n * p for n in row]) if row else () for row in rows])
    if p == 1:
        return tuple([tuple([n // g for n in row]) if row else () for row in rows])
    return tuple([tuple([n // g * p for n in row]) if row else () for row in rows])


def _combine_rows(terms: list[tuple[int, tuple]]) -> tuple:
    """The rows of ``sum(f * rows)`` over the (int f, rows) terms, all
    over one basis: per row, one chain of C-level maps over the terms'
    rows, materialized once."""
    scalers = [None if f == 1 else f.__mul__ for f, _ in terms]
    out = []
    for parts in zip(*(rows for _, rows in terms)):
        acc = None
        for times, row in zip(scalers, parts):
            if row:
                if times is not None:
                    row = map(times, row)
                acc = row if acc is None else map(add, acc, row)
        if acc is not None:
            acc = tuple(acc)
        out.append(acc if acc and any(acc) else ())
    return tuple(out)


def zero_class(basis: Basis) -> DivisorClass:
    return DivisorClass(basis, {})


def linear_combination(
    basis: Basis, terms: Iterable[tuple[int | Fraction, DivisorClass]]
) -> DivisorClass:
    """The class ``sum(x * d for x, d in terms)`` over ``basis``, in one
    pass: every product is summed in ``int`` over one lcm of the
    ``d._den * x.denominator``, head key by key and row by row, and the
    result is reduced once.  Zero scalars are skipped, no terms give the
    zero class, and a class over another basis raises
    :class:`BasisMismatchError`."""
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
    factors = [(den // q * p, d) for p, q, d in scaled]
    # the first term is copied scaled, the others are added onto it
    f, d = factors[0]
    nums = {key: n * f for key, n in d._nums.items()}
    for f, d in factors[1:]:
        _add_scaled(nums, d._nums, f)
    rows = _combine_rows([(f, d._rows) for f, d in factors])
    return DivisorClass._raw(basis, den, _nonzero(nums), rows)


# A column of a class map: the image of one source generator, as its head
# numerators and the (j, row) pairs of its nonzero E_{j,c} rows (none
# unless the target is a Hurwitz basis).
_Column = tuple[dict, tuple]


def _block_column(block: tuple, c: int) -> _Column | None:
    """The column of E_{j,c} from the block (key, weights) of row j."""
    t, weights = block
    return ({t: weights[c]}, ()) if weights[c] else None


def _dense_rows(basis: Basis, pairs: Iterable[tuple[int, tuple]]) -> tuple:
    """The rows of a class over ``basis`` from the (j, row) pairs of its
    nonzero rows."""
    rows = _zero_rows(basis)
    if pairs:
        rows = list(rows)
        for j, row in pairs:
            rows[j] = row
        rows = tuple(rows)
    return rows


class ClassMap:
    """A linear map between class groups, given by the images of the
    source generators.  Generators without an image map to zero.

    There is no public constructor: each map is one of the package's,
    written into its stored form by ``_raw`` or made by :meth:`compose`.
    The images are integer columns over one common denominator ``_den``,
    not necessarily in lowest terms, stored like a :class:`DivisorClass`:
    head numerators keyed by target generator or weight key,
    and for a Hurwitz target the (j, row) pairs of the nonzero E_{j,c}
    rows.  ``_cols`` maps a source generator to its column, except the
    E_{j,c} of a Hurwitz source: ``_blocks[j]``, j >= 1, holds those of
    row j as the pair (target key, entries over c), as p_* sends each of
    them to one key, so :meth:`apply` meets row j of a class with one
    dot product (``_blocks[0]`` is None: there is no row 0).  No column
    is zero and no block is all zero.  :meth:`row` builds the reduced class,
    :meth:`numerators` hands an image over a target without rows out as
    integers, so this layout stays private to this module, and
    :meth:`apply` sums every product in ``int``.  No map starts from
    ``Mg(k)``, the one basis whose classes carry symbols, so a map meets
    only classes without symbols; its images over ``Mg(k)`` may carry
    the two weights.
    """

    __slots__ = ("source", "target", "_den", "_cols", "_blocks")

    @classmethod
    def _raw(
        cls, source: Basis, target: Basis, den: int, cols: dict, blocks: tuple = ()
    ) -> "ClassMap":
        # internal: columns as stored, keys already validated, every
        # numerator nonzero over ``den`` > 0, no column empty; ``blocks``
        # the k + 1 blocks of a Hurwitz source (p_*), () for any other
        obj = cls.__new__(cls)
        obj.source, obj.target = source, target
        obj._den, obj._cols, obj._blocks = den, cols, blocks
        return obj

    def _column(self, name: str) -> _Column | None:
        if self._blocks and name not in _HEAD_NAMES:
            j, c = _ejc_index(name)
            return _block_column(self._blocks[j], c)
        return self._cols.get(name)

    def _columns(self) -> Iterator[tuple[str, _Column]]:
        """(source generator, column) of every nonzero image: the head
        columns as stored, then the E_{j,c} in (j, c) order."""
        yield from self._cols.items()
        if self._blocks:
            for names, block in zip(ejc_names(self.source.k)[1:], self._blocks[1:]):
                for c, name in enumerate(names):
                    column = _block_column(block, c)
                    if column is not None:
                        yield name, column

    def _image(self, column: _Column | None) -> DivisorClass:
        if column is None:
            return DivisorClass._raw(self.target, 1, {})
        nums, pairs = column
        return DivisorClass._raw(self.target, self._den, nums, _dense_rows(self.target, pairs))

    def row(self, name: str) -> DivisorClass:
        self.source.check(name)
        return self._image(self._column(name))

    def numerators(self, name: str) -> tuple[dict, int]:
        """The image of ``name`` as integers, with no class built: its
        numerators by target key (generator or weight key) and
        their common denominator, not necessarily in lowest terms.  The
        target must have no E_{j,c} rows, so the map is the whole
        image."""
        self.source.check(name)
        if self.target.kind == HURWITZ:
            raise ValueError("numerators() needs a target without E_{j,c} rows")
        column = self._column(name)
        return ({}, 1) if column is None else (dict(column[0]), self._den)

    @property
    def rows(self) -> dict[str, DivisorClass]:
        """The nonzero images, by source generator."""
        return {name: self._image(column) for name, column in self._columns()}

    def _map(self, nums: Mapping, rows: Iterable[tuple[int, tuple]]) -> _Column:
        """The image of the vector with head numerators ``nums`` and the
        (j, row) pairs ``rows`` (a row may be ``()``) over some
        denominator q, as a column over q * ``_den``: the head map, zeros
        dropped, and the pairs of the nonzero target rows.  Every product
        is summed in int; a row meets its block by one dot product."""
        cols, blocks = self._cols, self._blocks
        sums: dict = {}
        get = sums.get
        target_rows: dict[int, list[int]] = {}
        for key, x in nums.items():
            column = cols.get(key)
            if column is None:
                continue
            for t, r in column[0].items():
                sums[t] = get(t, 0) + x * r
            # q^* is the only map into Hurwitz(k), each of its columns owns
            # its row j, and nothing composes after q^*: one write per row
            for j, row in column[1]:
                target_rows[j] = [n * x for n in row]
        for j, x_row in rows:
            if x_row:
                t, weights = blocks[j]
                sums[t] = get(t, 0) + sum(map(mul, weights, x_row))
        pairs = tuple(sorted((j, tuple(acc)) for j, acc in target_rows.items() if any(acc)))
        return _nonzero(sums), pairs

    def apply(self, d: DivisorClass) -> DivisorClass:
        if d.basis != self.source:
            raise BasisMismatchError(
                f"class over {d.basis} cannot be fed to a map from {self.source}"
            )
        nums, pairs = self._map(d._nums, enumerate(d._rows))
        rows = _dense_rows(self.target, pairs)
        return DivisorClass._raw(self.target, d._den * self._den, nums, rows)

    def compose(self, inner: "ClassMap") -> "ClassMap":
        """The map ``self o inner``; requires inner.target == self.source.
        Each inner column is mapped through this map in int, over the
        denominator ``self._den * inner._den``; no row is built as a
        class.  The one map from ``Hurwitz(k)``, p_*, lands in ``Mg(k)``,
        where no map starts, so the inner map never has a Hurwitz source
        and its images are stored as plain columns, with no blocks."""
        if inner.target != self.source:
            raise BasisMismatchError(
                f"cannot compose: inner map lands in {inner.target}, "
                f"outer map starts from {self.source}"
            )
        columns = {}
        for name, (nums, pairs) in inner._columns():
            column = self._map(nums, pairs)
            if column[0] or column[1]:
                columns[name] = column
        return ClassMap._raw(inner.source, self.target, self._den * inner._den, columns)

    def __repr__(self) -> str:
        return (
            f"ClassMap({self.source.kind}(k={self.source.k}) -> "
            f"{self.target.kind}(k={self.target.k}), "
            f"{sum(1 for _ in self._columns())} rows)"
        )
