"""Generator bases for the five divisor class groups in play, sparse
divisor classes over them, and linear maps between them.

The groups are handled as free modules on named generators:

* ``Hurwitz(k)``: E0, E2 (only for k >= 3), E3 (only for k >= 2) and
  E_j_c for 1 <= j <= k, 0 <= c <= floor(j/2).
* ``Mg(k)``: lambda and delta_0 .. delta_k (the boundary classes that can
  receive a nonzero push-forward).
* ``M0bSym(k)``: the symmetric boundary classes T2 and T3j_1 .. T3j_k of
  the space of 6k-pointed rational curves.
* ``MgPrime(k)`` / ``MgHat(k)``: Hodge and boundary generators of the
  target moduli spaces of the trace and reduced-trace curve; these are
  index-bounded but never stored densely.

Generators are plain strings so that they serialize unchanged.  The
generator sets of the three finite bases are built once per (kind, k)
and kept in a module-level ``lru_cache``, so membership is a set lookup.

A coefficient is stored as a plain ``Fraction`` unless it carries one of
the external symbols c_j, b_j; only then is it an :class:`AffineExpr`.
Those symbols enter through a handful of push-forward rows, so nearly
all arithmetic stays on ``Fraction`` and an expression is built only
where an operand already is one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Union

from .core import AffineExpr, AffineLike, as_affine


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

_KINDS = (HURWITZ, MG, M0B_SYM, MG_PRIME, MG_HAT)
# bases small enough to enumerate; MgPrime and MgHat are tested by index
_FINITE_KINDS = (HURWITZ, MG, M0B_SYM)

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


def _suffix_index(name: str, prefix: str) -> int | None:
    if not name.startswith(prefix):
        return None
    tail = name[len(prefix):]
    if tail.isdigit():
        return int(tail)
    return None


def _parse_ejc(name: str) -> tuple[int, int] | None:
    parts = name.split("_")
    if len(parts) == 3 and parts[0] == "E" and parts[1].isdigit() and parts[2].isdigit():
        return int(parts[1]), int(parts[2])
    return None


def genus_trace(k: int) -> int:
    """Genus of the trace curve, 5k^2 - 4k + 1."""
    return 5 * k * k - 4 * k + 1


def genus_reduced_trace(k: int) -> int:
    """Genus of the reduced trace curve, (5k - 2)(k - 1)/2."""
    return (5 * k - 2) * (k - 1) // 2


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
        k = self.k
        if self.kind in _FINITE_KINDS:
            return name in _generator_set(self.kind, k)
        if self.kind == MG_PRIME:
            if name == LAMBDA_PRIME:
                return True
            j = _suffix_index(name, "deltaP_")
            return j is not None and 0 <= j <= genus_trace(k) // 2
        if name == LAMBDA_HAT:
            return True
        j = _suffix_index(name, "deltaH_")
        return j is not None and 0 <= j <= genus_reduced_trace(k) // 2

    def check(self, name: str) -> str:
        if not self.contains(name):
            raise UnknownGeneratorError(
                f"generator {name!r} does not belong to {self.kind}(k={self.k})"
            )
        return name

    def sort_index(self, name: str) -> tuple:
        """Key giving the natural display order of generators."""
        self.check(name)
        if self.kind == HURWITZ:
            fixed = {E0: (0, 0, 0), E2: (1, 0, 0), E3: (2, 0, 0)}
            if name in fixed:
                return fixed[name]
            j, c = _parse_ejc(name)  # type: ignore[misc]
            return (3, j, c)
        if self.kind == MG:
            if name == LAMBDA:
                return (0, 0)
            return (1, _suffix_index(name, "delta_"))
        if self.kind == M0B_SYM:
            if name == T2:
                return (0, 0)
            return (1, _suffix_index(name, "T3j_"))
        if self.kind == MG_PRIME:
            if name == LAMBDA_PRIME:
                return (0, 0)
            return (1, _suffix_index(name, "deltaP_"))
        if name == LAMBDA_HAT:
            return (0, 0)
        return (1, _suffix_index(name, "deltaH_"))

    def generators(self) -> Iterator[str]:
        """All generators of the basis in natural order."""
        k = self.k
        if self.kind == HURWITZ:
            yield E0
            if k >= 3:
                yield E2
            if k >= 2:
                yield E3
            for j in range(1, k + 1):
                for c in range(j // 2 + 1):
                    yield Ejc(j, c)
        elif self.kind == MG:
            yield LAMBDA
            for j in range(k + 1):
                yield delta(j)
        elif self.kind == M0B_SYM:
            yield T2
            for j in range(1, k + 1):
                yield T3j(j)
        elif self.kind == MG_PRIME:
            yield LAMBDA_PRIME
            for j in range(genus_trace(k) // 2 + 1):
                yield delta_prime(j)
        else:
            yield LAMBDA_HAT
            for j in range(genus_reduced_trace(k) // 2 + 1):
                yield delta_hat(j)


@lru_cache(maxsize=None)
def _generator_set(kind: str, k: int) -> frozenset[str]:
    return frozenset(Basis(kind, k).generators())


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


Coefficient = Union[Fraction, AffineExpr]


def _canonical(value: AffineLike) -> Coefficient:
    """The one stored form of a coefficient: a ``Fraction``, unless the
    value carries a symbol and so stays an :class:`AffineExpr`."""
    if type(value) is Fraction:
        return value
    if isinstance(value, AffineExpr):
        return value.const if value.is_constant() else value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a coefficient")


class DivisorClass:
    """A sparse divisor class: a finite sum of generators of one basis.

    Each coefficient is stored as a ``Fraction``, or as an
    :class:`AffineExpr` when it carries an external symbol; a constant
    expression is always stored as its ``Fraction``.  The accessors
    :meth:`coefficient` and :meth:`items` return :class:`AffineExpr`
    whatever the stored form.  Zero coefficients are never stored, so
    two classes are equal exactly when their coefficient maps agree.
    Instances are immutable.
    """

    __slots__ = ("basis", "_coeffs")

    def __init__(self, basis: Basis, coeffs: Mapping[str, AffineLike] | None = None):
        self.basis = basis
        cleaned: dict[str, Coefficient] = {}
        if coeffs:
            for name, value in coeffs.items():
                basis.check(name)
                value = _canonical(value)
                if value:
                    cleaned[name] = value
        self._coeffs = cleaned

    @classmethod
    def _raw(cls, basis: Basis, coeffs: dict[str, Coefficient]) -> "DivisorClass":
        # internal: generators already validated, values nonzero and canonical
        obj = cls.__new__(cls)
        obj.basis = basis
        obj._coeffs = coeffs
        return obj

    def coefficient(self, name: str) -> AffineExpr:
        self.basis.check(name)
        return as_affine(self._coeffs.get(name, 0))

    def support(self) -> list[str]:
        return sorted(self._coeffs, key=self.basis.sort_index)

    def items(self) -> list[tuple[str, AffineExpr]]:
        return [(name, as_affine(self._coeffs[name])) for name in self.support()]

    def is_zero(self) -> bool:
        return not self._coeffs

    def map_coefficients(self, fn) -> "DivisorClass":
        """Apply ``fn`` to each stored coefficient (a ``Fraction`` or a
        symbolic :class:`AffineExpr`) and keep the nonzero results."""
        mapped: dict[str, Coefficient] = {}
        for name, value in self._coeffs.items():
            value = _canonical(fn(value))
            if value:
                mapped[name] = value
        return DivisorClass._raw(self.basis, mapped)

    def substitute(self, values) -> "DivisorClass":
        return self.map_coefficients(
            lambda e: e.substitute(values) if isinstance(e, AffineExpr) else e
        )

    def _require_same_basis(self, other: "DivisorClass") -> None:
        if self.basis != other.basis:
            raise BasisMismatchError(
                f"cannot combine classes over {self.basis} and {other.basis}"
            )

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        self._require_same_basis(other)
        coeffs = dict(self._coeffs)
        for name, value in other._coeffs.items():
            present = coeffs.get(name)
            if present is None:
                coeffs[name] = value
                continue
            total = _canonical(present + value)
            if total:
                coeffs[name] = total
            else:
                del coeffs[name]
        return DivisorClass._raw(self.basis, coeffs)

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "DivisorClass":
        return self.map_coefficients(lambda e: -e)

    def __mul__(self, scalar: AffineLike) -> "DivisorClass":
        scalar = _canonical(scalar)
        return self.map_coefficients(lambda e: e * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: AffineLike) -> "DivisorClass":
        scalar = as_affine(scalar).constant_value()
        if scalar == 0:
            raise ZeroDivisionError("division of a divisor class by zero")
        return self.map_coefficients(lambda e: e / scalar)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DivisorClass):
            return NotImplemented
        return self.basis == other.basis and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self.basis, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            body = "0"
        else:
            body = " + ".join(f"({v})*{g}" for g, v in self.items())
        return f"<{self.basis.kind}(k={self.basis.k}): {body}>"


def zero_class(basis: Basis) -> DivisorClass:
    return DivisorClass(basis, {})


class ClassMap:
    """A linear map between class groups, given by the images of the
    source generators.  Generators absent from ``rows`` map to zero.
    """

    __slots__ = ("source", "target", "rows")

    def __init__(self, source: Basis, target: Basis, rows: Mapping[str, DivisorClass]):
        self.source = source
        self.target = target
        checked: dict[str, DivisorClass] = {}
        for name, image in rows.items():
            source.check(name)
            if image.basis != target:
                raise BasisMismatchError(
                    f"row for {name!r} lives over {image.basis}, expected {target}"
                )
            if not image.is_zero():
                checked[name] = image
        self.rows = checked

    def row(self, name: str) -> DivisorClass:
        self.source.check(name)
        return self.rows.get(name, zero_class(self.target))

    def apply(self, d: DivisorClass) -> DivisorClass:
        if d.basis != self.source:
            raise BasisMismatchError(
                f"class over {d.basis} cannot be fed to a map from {self.source}"
            )
        # symbol-free and symbolic contributions are summed apart, so a
        # target that picks up one symbolic term is promoted only once
        plain: dict[str, Fraction] = {}
        symbolic: dict[str, AffineExpr] = {}
        rows = self.rows
        for name, value in d._coeffs.items():
            row = rows.get(name)
            if row is None:
                continue
            for target_name, row_value in row._coeffs.items():
                term = row_value * value
                sums = plain if type(term) is Fraction else symbolic
                present = sums.get(target_name)
                sums[target_name] = term if present is None else present + term
        accumulated: dict[str, Coefficient] = {}
        for target_name, total in symbolic.items():
            constant = plain.pop(target_name, None)
            total = _canonical(total if constant is None else total + constant)
            if total:
                accumulated[target_name] = total
        for target_name, total in plain.items():
            if total:
                accumulated[target_name] = total
        return DivisorClass._raw(self.target, accumulated)

    def compose(self, inner: "ClassMap") -> "ClassMap":
        """The map ``self o inner``; requires inner.target == self.source."""
        if inner.target != self.source:
            raise BasisMismatchError(
                f"cannot compose: inner map lands in {inner.target}, "
                f"outer map starts from {self.source}"
            )
        rows = {name: self.apply(image) for name, image in inner.rows.items()}
        return ClassMap(inner.source, self.target, rows)

    def scale(self, scalar: AffineLike) -> "ClassMap":
        return ClassMap(
            self.source, self.target, {g: img * scalar for g, img in self.rows.items()}
        )

    def __repr__(self) -> str:
        return (
            f"ClassMap({self.source.kind}(k={self.source.k}) -> "
            f"{self.target.kind}(k={self.target.k}), {len(self.rows)} rows)"
        )


def identity_map(basis: Basis) -> ClassMap:
    rows = {g: DivisorClass(basis, {g: Fraction(1)}) for g in basis.generators()}
    return ClassMap(basis, basis, rows)


def compose(outer: ClassMap, inner: ClassMap) -> ClassMap:
    """Functional form of :meth:`ClassMap.compose`."""
    return outer.compose(inner)
