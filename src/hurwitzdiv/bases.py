"""Generator bases for the three divisor class groups that the
package's classes live in, sparse divisor classes over them, and linear
maps between them.

The groups are handled as free modules on named generators:

* ``Hurwitz(k)``: E0, E2 (only for k >= 3), E3 (only for k >= 2) and
  E_j_c for 1 <= j <= k, 0 <= c <= floor(j/2).
* ``Mg(k)``: lambda and delta_0 .. delta_k (the boundary classes that can
  receive a nonzero push-forward).
* ``M0bSym(k)``: the symmetric boundary classes T2 and T3j_1 .. T3j_k of
  the space of 6k-pointed rational curves.

The target moduli spaces of the trace and reduced-trace curves have no
basis here; they enter through their genera, :func:`genus_trace` and
:func:`genus_reduced_trace`.

Generators are plain strings so that they serialize unchanged.  One
spec per kind, ``_SPECS``, lists its generators; the E_{j,c} names of
``Hurwitz(k)`` come from :func:`ejc_names`, a cached flat table in
(j, c) order built from one "E_j_" prefix per row j and one shared
table of index strings; row j, E_j_0 .. E_j_floor(j/2), runs from
:func:`ejc_offsets` (k)[j] to [j + 1].  The order of every basis is
cached per (kind, k) as a name -> position map, which answers
membership and puts the generators of a class in natural order.

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
* on ``Hurwitz(k)`` only, the flat tuple ``_flat``: the constant part
  of every E_{j,c}, in the order of :func:`ejc_names` and of
  ``trace.jc_family``, one int per generator, 0 for a zero one.  Every
  other kind has ``_flat == ()``.

The form is unique: no head numerator is zero, the gcd of the
denominator and every numerator is 1, and the denominator is 1 for the
zero class; so two classes are equal exactly when their stored parts
agree.  The class maps are the package's own: q^* (``trace.q_pullback``,
``M0bSym(k)`` to ``Hurwitz(k)``), p_* (``pushforward.p_push``,
``Hurwitz(k)`` to ``Mg(k)``), the correspondence action
(``pushforward.p_q_map``, ``M0bSym(k)`` to ``Mg(k)``) and the composite
p_* o q^*; ``ClassMap`` has no public constructor.  A map stores its
images as integer columns over one common denominator in the same two
parts, a column's E_{j,c} part as its one row (j, entries over c),
which q^* writes into the slice of row j.  p_* sends E_{j,c} to
e_{j,c} delta_j only, so it keeps its E_{j,c} part as the flat tuple of
the e_{j,c} itself, and applying it to a class is one C-level product
pass, one prefix-sum difference per row (:func:`row_sums`) and one
multiplication by the denominator per j.  Sums, scalings, reduction,
equality, hashing, application and composition each run once over
"head map + flat tuple", a weight key like any other; only the
constructor, the accessors and substitution tell a weight from a
constant.  Sums run through one n-ary kernel,
:func:`linear_combination`, which adds the scalars of a class given more
than once, so each class is read once, puts all its terms over one lcm,
sums their numerators in one pass (one chain of C-level maps over the
flat tuples) and reduces once; ``+`` and ``-`` are its two-term calls,
and each Hodge pullback of ``trace`` and the Prym class of
``pushforward`` is one call.  All
of it runs on plain ``int``: ``ClassMap.compose`` maps each inner
integer column through the outer map over the product of the two
denominators, without building a row as a class.  A ``Fraction`` or an
:class:`AffineExpr`, the read-only value of a coefficient, is built
only at the public accessors ``DivisorClass.coefficient``/``items``;
``DivisorClass.numerators_view`` hands a class without an E_{j,c} part
out as its integers, without a copy, as ``ClassMap.numerators`` does
for an image.  The package's builders write their integer numerators
over one denominator straight into the stored form through the trusted
``DivisorClass._raw``/``ClassMap._raw``, naming generators from the
bases' own tables, so no builder pays for the name checks and
``Fraction`` reduction of the validating constructor, which stays for
callers.  Substitution is one kernel, ``DivisorClass._substituted``: it
takes the c_j and b_j values by j as integers over one denominator, as
``pushforward.ExternalCoeffs`` puts its table once, and adds gamma_c
c_j + gamma_b b_j to each delta_j in one pass over j.

Emission reads the stored form in place: ``serialize._lines`` writes
one line per coefficient from the head map, the flat tuple row by row
through :func:`ejc_offsets` and the two weights, with the generator
names written inline, so it builds no value and never reads
:func:`ejc_names`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .core import AffineExpr, RationalLike, b_sym, c_sym, per_k_cache


class ClassGroupError(ValueError):
    """Base class for structural errors in the class-group layer."""


class UnknownGeneratorError(ClassGroupError):
    """A generator name does not belong to the basis at hand."""


class BasisMismatchError(ClassGroupError):
    """Two objects over different bases were combined."""


class IndexRangeError(ClassGroupError):
    """An index (j, c, boundary index, ...) is outside its legal range."""


def require_k(k: int) -> None:
    """Refuse a k that is not an ``int``, a bool included, then a k < 1."""
    if type(k) is not int:
        raise IndexRangeError(f"k must be an int, got {k!r} ({type(k).__name__})")
    if k < 1:
        raise IndexRangeError(f"k must be >= 1, got {k}")


def scalar_type_error(x) -> TypeError:
    """The error for a scalar that is neither an ``int`` nor a ``Fraction``."""
    return TypeError(f"cannot interpret {type(x).__name__} as a rational scalar")


HURWITZ = "Hurwitz"
MG = "Mg"
M0B_SYM = "M0bSym"

E0 = "E0"
E2 = "E2"
E3 = "E3"
LAMBDA = "lambda"
T2 = "T2"


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


_SPECS = {
    HURWITZ: _KindSpec(
        lambda k: (E0,) + ((E2,) if k >= 3 else ()) + ((E3,) if k >= 2 else ()),
        lambda k: ejc_names(k),
    ),
    MG: _KindSpec(lambda k: (LAMBDA,), delta_names),
    M0B_SYM: _KindSpec(lambda k: (T2,), lambda k: map(T3j, range(1, k + 1))),
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
        require_k(self.k)

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
def ejc_names(k: int) -> tuple[str, ...]:
    """The E_{j,c} names of ``Hurwitz(k)`` in the flat layout: E_j_0 ..
    E_j_floor(j/2) for j = 1..k, each :func:`Ejc` (j, c), built as the
    row prefix "E_j_" plus the text of c from one shared table."""
    indices = [str(c) for c in range(k // 2 + 1)]
    return tuple([f"E_{j}_" + c for j in range(1, k + 1) for c in indices[: j // 2 + 1]])


@per_k_cache
def ejc_offsets(k: int) -> tuple[int, ...]:
    """Where the rows of the flat E_{j,c} layout of ``Hurwitz(k)`` start:
    row j, the entries for c = 0 .. floor(j/2), is ``flat[off[j]:off[j +
    1]]`` for j = 1..k, and ``off[k + 1]`` is the number of E_{j,c}
    (``off[0] == off[1] == 0``: there is no row 0)."""
    return (0,) + tuple(accumulate([j // 2 + 1 for j in range(1, k + 1)], initial=0))


def row_sums(k: int, values: Iterable[int]) -> list[int]:
    """The sums over c of a flat E_{j,c} sequence of ``Hurwitz(k)``, row
    by row for j = 1..k: one pass of prefix sums, read at the row ends
    off[1..k + 1] in one call, then one difference per row."""
    ends = itemgetter(*ejc_offsets(k)[1:])(list(accumulate(values, initial=0)))
    return list(map(sub, ends[1:], ends))


_HEAD_NAMES = frozenset((E0, E2, E3))


def _ejc_index(name: str) -> tuple[int, int]:
    """(j, c) of a generator ``E_j_c`` of a Hurwitz basis."""
    _, j, c = name.split("_")
    return int(j), int(c)


def _zero_flat(basis: Basis) -> tuple:
    """The E_{j,c} part of the zero class over ``basis``: one 0 per
    E_{j,c} on ``Hurwitz(k)``, none on the other kinds."""
    return (0,) * ejc_offsets(basis.k)[-1] if basis.kind == HURWITZ else ()


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


class DivisorClass:
    """A sparse divisor class: a finite sum of generators of one basis.

    Every coefficient is stored as integer numerators over one positive
    common denominator ``_den``, in two parts: the head map ``_nums``,
    which keys the constant part of a generator's coefficient by the
    generator name and, over ``Mg(k)``, the weights gamma_c and gamma_b
    by the reserved keys ``C_WEIGHT`` and ``B_WEIGHT``, and, on a
    Hurwitz basis, the flat tuple ``_flat`` of the E_{j,c} constant
    parts, one int per name of :func:`ejc_names` and 0 for a zero one
    (``_flat`` is ``()`` on the other kinds).  No head numerator is zero,
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

    __slots__ = ("basis", "_den", "_nums", "_flat")

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
        nums = {}
        flat = list(_zero_flat(basis))  # empty unless basis is Hurwitz(k)
        for key, value in values.items():
            if flat and key not in _HEAD_NAMES:
                j, c = _ejc_index(key)
                flat[ejc_offsets(basis.k)[j] + c] = numerator_over(value, den)
            else:
                nums[key] = numerator_over(value, den)
        self._den = den
        self._nums = nums
        self._flat = tuple(flat)

    @classmethod
    def _raw(
        cls, basis: Basis, den: int, nums: dict, flat: tuple | None = None
    ) -> "DivisorClass":
        # internal: keys already validated, every head numerator nonzero
        # over ``den`` > 0, ``flat`` a tuple of one int per E_{j,c} of
        # the basis (None: no E_{j,c} part); only the common factor of
        # ``den`` and the numerators is removed here, which makes the
        # zero class 0/1
        if flat is None:
            flat = _zero_flat(basis)
        if den != 1:
            g = gcd(den, *nums.values(), *flat)
            if g != 1:
                den //= g
                nums = {key: n // g for key, n in nums.items()}
                flat = tuple([n // g for n in flat])
        obj = cls.__new__(cls)
        obj.basis = basis
        obj._den = den
        obj._nums = nums
        obj._flat = flat
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
        if self._flat and name not in _HEAD_NAMES:
            j, c = _ejc_index(name)
            return self._value(self._flat[ejc_offsets(self.basis.k)[j] + c], 0)
        # delta_j sits at position j + 1 of Mg(k); lambda (j = -1) and
        # delta_0 carry no weight
        j = _generator_index(MG, self.basis.k)[name] - 1 if self._weighted() else 0
        return self._value(self._nums.get(name, 0), max(j, 0))

    def _entries(self) -> list[tuple[str, int, int]]:
        """(generator, constant numerator, j) of every generator in the
        support, in basis order; j >= 1 for a delta_j that carries the
        weights, else 0."""
        nums, flat, k = self._nums, self._flat, self.basis.k
        if flat:
            # a Hurwitz class: the head map, then the flat tuple zipped
            # with its names
            out = [(name, nums[name], 0) for name in _SPECS[HURWITZ].head(k) if name in nums]
            return out + [(name, n, 0) for name, n in zip(ejc_names(k), flat) if n]
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

    def is_zero(self) -> bool:
        return not self._nums and not any(self._flat)

    def numerators_view(self) -> tuple[Mapping, int]:
        """The class as integers, with no value built and nothing
        copied: its numerators by generator, the weights gamma_c and
        gamma_b by ``C_WEIGHT`` and ``B_WEIGHT``, and their common
        denominator, in lowest terms.  The map is the class's own and
        read-only by contract: a caller must not change it.  The basis
        must have no E_{j,c} generators, so the map is the whole class."""
        if self.basis.kind == HURWITZ:
            raise ValueError("numerators_view() needs a basis without E_{j,c} generators")
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
        g = gcd(q, *self._nums.values(), *self._flat)
        nums = {key: n // g * p for key, n in self._nums.items()}
        flat = tuple([n // g * p for n in self._flat])
        return DivisorClass._raw(self.basis, den * (q // g), nums, flat)

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
            and self._flat == other._flat
        )

    def __hash__(self) -> int:
        return hash((self.basis, self._den, frozenset(self._nums.items()), self._flat))

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


def _nonzero(nums: dict) -> dict:
    return {key: n for key, n in nums.items() if n}


def zero_class(basis: Basis) -> DivisorClass:
    return DivisorClass(basis, {})


def linear_combination(
    basis: Basis, terms: Iterable[tuple[int | Fraction, DivisorClass]]
) -> DivisorClass:
    """The class ``sum(x * d for x, d in terms)`` over ``basis``, in one
    pass: the scalars of a class object given more than once are added
    first, so each class is read once; every product is summed in
    ``int`` over one lcm of the ``d._den * x.denominator``, head key by
    key and, for the flat tuples, in one chain of C-level maps
    materialized once, and the result is reduced once.  Zero scalars
    are skipped, no terms give the zero class, and a class over another
    basis raises :class:`BasisMismatchError`."""
    # id(d) -> [summed scalar, d], in the order of first appearance
    merged: dict[int, list] = {}
    for x, d in terms:
        if d.basis != basis:
            raise BasisMismatchError(
                f"cannot combine classes over {basis} and {d.basis}"
            )
        if not isinstance(x, (int, Fraction)):
            raise scalar_type_error(x)
        if id(d) in merged:
            merged[id(d)][0] += x
        else:
            merged[id(d)] = [x, d]
    scaled = [(x.numerator, d._den * x.denominator, d) for x, d in merged.values() if x]
    if not scaled:
        return DivisorClass._raw(basis, 1, {})
    den = lcm(*(q for _, q, _ in scaled))
    factors = [(den // q * p, d) for p, q, d in scaled]
    # the first term is copied scaled, the others are added onto it
    f, d = factors[0]
    nums = {key: n * f for key, n in d._nums.items()}
    get = nums.get
    flat = d._flat if f == 1 else map(mul, d._flat, repeat(f))
    for f, d in factors[1:]:
        for key, n in d._nums.items():
            nums[key] = get(key, 0) + n * f
        flat = map(add, flat, d._flat if f == 1 else map(mul, d._flat, repeat(f)))
    return DivisorClass._raw(basis, den, _nonzero(nums), tuple(flat))


# A column of a class map: the image of one source generator, as its head
# numerators and, into Hurwitz(k), its one E_{j,c} row as the pair (j,
# entries over c); () when it has none.
_Column = tuple[dict, tuple]


class ClassMap:
    """A linear map between class groups, given by the images of the
    source generators.  Generators without an image map to zero.

    There is no public constructor: each map is one of the package's,
    written into its stored form by ``_raw`` or made by :meth:`compose`.
    The images are integer columns over one common denominator ``_den``,
    not necessarily in lowest terms, none of them zero: head numerators
    keyed by target generator or weight key and, for a Hurwitz target,
    the one E_{j,c} row (j, entries over c).  ``_cols`` maps a source
    generator to its column, except the E_{j,c} of a Hurwitz source,
    which p_* sends each to one key: ``_block`` is then the pair (key of
    each row j = 1..k, flat tuple of ints w), E_{j,c} going to w_{j,c}
    times the key of row j (None for any other source).  :meth:`row`
    builds the reduced class, :meth:`numerators` hands an image over a
    target without E_{j,c} generators out as integers, so this layout
    stays private to this module, and :meth:`apply` sums every product
    in ``int``.  No map starts from ``Mg(k)``, the one basis whose
    classes carry symbols, so a map meets only classes without symbols;
    its images over ``Mg(k)`` may carry the two weights.
    """

    __slots__ = ("source", "target", "_den", "_cols", "_block")

    @classmethod
    def _raw(
        cls, source: Basis, target: Basis, den: int, cols: dict, block: tuple | None = None
    ) -> "ClassMap":
        # internal: columns as stored, keys already validated, every head
        # numerator nonzero over ``den`` > 0, no column empty; ``block``
        # the E_{j,c} part of a Hurwitz source (p_*), None for any other
        obj = cls.__new__(cls)
        obj.source, obj.target = source, target
        obj._den, obj._cols, obj._block = den, cols, block
        return obj

    def _column(self, name: str) -> _Column | None:
        if self._block and name not in _HEAD_NAMES:
            j, c = _ejc_index(name)
            keys, weights = self._block
            w = weights[ejc_offsets(self.source.k)[j] + c]
            return ({keys[j - 1]: w * self._den}, ()) if w else None
        return self._cols.get(name)

    def _columns(self) -> Iterator[tuple[str, _Column]]:
        """(source generator, column) of every nonzero image: the head
        columns as stored, then the E_{j,c} in (j, c) order."""
        yield from self._cols.items()
        if self._block:
            for name in ejc_names(self.source.k):
                column = self._column(name)
                if column is not None:
                    yield name, column

    def _image(self, column: _Column | None) -> DivisorClass:
        if column is None:
            return DivisorClass._raw(self.target, 1, {})
        nums, row = column
        flat = None
        if row:
            j, entries = row
            start = ejc_offsets(self.target.k)[j]
            flat = list(_zero_flat(self.target))
            flat[start : start + len(entries)] = entries
            flat = tuple(flat)
        return DivisorClass._raw(self.target, self._den, nums, flat)

    def row(self, name: str) -> DivisorClass:
        self.source.check(name)
        return self._image(self._column(name))

    def numerators(self, name: str) -> tuple[dict, int]:
        """The image of ``name`` as integers, with no class built: its
        numerators by target key (generator or weight key) and
        their common denominator, not necessarily in lowest terms.  The
        target must have no E_{j,c} generators, so the map is the whole
        image."""
        self.source.check(name)
        if self.target.kind == HURWITZ:
            raise ValueError("numerators() needs a target without E_{j,c} generators")
        column = self._column(name)
        return ({}, 1) if column is None else (dict(column[0]), self._den)

    @property
    def rows(self) -> dict[str, DivisorClass]:
        """The nonzero images, by source generator."""
        return {name: self._image(column) for name, column in self._columns()}

    def _map(self, nums: Mapping, flat: Sequence[int] = (), row: tuple = ()) -> tuple:
        """The image of the vector with head numerators ``nums`` and, on
        a Hurwitz source, E_{j,c} part the flat tuple ``flat`` or the one
        row ``row`` = (j, entries over c), over some denominator q: the
        head map over q * ``_den``, zeros dropped, and the flat list of
        the target's E_{j,c} part (None when no column has one).  Every
        product is summed in int."""
        cols = self._cols
        sums: dict = {}
        get = sums.get
        out = None
        for key, x in nums.items():
            column = cols.get(key)
            if column is None:
                continue
            head, target_row = column
            for t, r in head.items():
                sums[t] = get(t, 0) + x * r
            if target_row:
                # q^* is the only map into Hurwitz(k), each of its columns
                # owns its row j, and nothing composes after q^*: one write
                # per row
                if out is None:
                    offsets = ejc_offsets(self.target.k)
                    out = [0] * offsets[-1]
                j, entries = target_row
                start = offsets[j]
                out[start : start + len(entries)] = [n * x for n in entries]
        if self._block:
            keys, weights = self._block
            if row:
                j, entries = row
                start = ejc_offsets(self.source.k)[j]
                part = weights[start : start + len(entries)]
                dots = [(keys[j - 1], sum(map(mul, part, entries)))]
            else:
                dots = zip(keys, row_sums(self.source.k, map(mul, weights, flat)) if flat else ())
            for t, s in dots:
                if s:
                    sums[t] = get(t, 0) + s * self._den
        return _nonzero(sums), out

    def apply(self, d: DivisorClass) -> DivisorClass:
        if d.basis != self.source:
            raise BasisMismatchError(
                f"class over {d.basis} cannot be fed to a map from {self.source}"
            )
        nums, flat = self._map(d._nums, d._flat)
        return DivisorClass._raw(
            self.target, d._den * self._den, nums, None if flat is None else tuple(flat)
        )

    def compose(self, inner: "ClassMap") -> "ClassMap":
        """The map ``self o inner``; requires inner.target == self.source.
        Each inner column is mapped through this map in int, over the
        denominator ``self._den * inner._den``; no row is built as a
        class.  The one map from ``Hurwitz(k)``, p_*, lands in ``Mg(k)``,
        where no map starts, so the inner map never has a Hurwitz source
        and no composite has a Hurwitz target: its images are plain head
        columns."""
        if inner.target != self.source:
            raise BasisMismatchError(
                f"cannot compose: inner map lands in {inner.target}, "
                f"outer map starts from {self.source}"
            )
        columns = {}
        for name, (nums, row) in inner._columns():
            head, _ = self._map(nums, row=row)
            if head:
                columns[name] = (head, ())
        return ClassMap._raw(inner.source, self.target, self._den * inner._den, columns)

    def __repr__(self) -> str:
        return (
            f"ClassMap({self.source.kind}(k={self.source.k}) -> "
            f"{self.target.kind}(k={self.target.k}), "
            f"{sum(1 for _ in self._columns())} rows)"
        )
