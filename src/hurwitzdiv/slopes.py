"""Slope extraction for divisor classes on the genus-2k moduli basis,
the induced-slope rational functions of the two correspondences, and the
moving-slope bounds.

For a class written a*lambda - sum b_j delta_j the slope is a/b_0.  The
ratio only bounds the moving slope when b_0 <= b_j for every
j = 1..k, a delta_j absent from the class counting as b_j = 0; since
the delta_j coefficients involve the external symbols, that proviso is
surfaced as a three-state validity instead of being assumed.  It is
decided on the class's integer numerators, read without a copy
(``DivisorClass.numerators_view``), which also give the lambda and
delta_0 coefficients.  A class stores its symbols as two weights, the
coefficients of c_j and b_j on every delta_j, so a nonzero weight makes
the proviso unknown at every j, and a class without one is decided
delta_j by delta_j; the :class:`AffineExpr` witnesses are built only
when read.

An induced slope is a Moebius map of the source slope s = p/q.  Both of
its routes, the closed form and the one read from the numerators of the
pushed classes, are pairs of integer linear polynomials, evaluated at
(p, q) in integers and compared by cross-multiplying; one ``Fraction``
is built for the result.

The correspondence phi (trace curve) is the variant ``TRACE``, phi-hat
(reduced trace curve) is ``REDUCED``; ``_pushed`` alone maps a variant
to its pushed builders, and an unknown variant is a ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .bases import B_WEIGHT, C_WEIGHT, DivisorClass, LAMBDA, MG, delta, delta_names
from .bases import linear_combination, mg_basis
from .core import AffineExpr, RationalLike, format_rational, per_k_cache
from .pushforward import (
    p_phi_delta,
    p_phi_lambda,
    p_phihat_delta,
    p_phihat_lambda,
    p_push,
    p_q_kappa,
)
from .trace import phi_pull_boundary_sum, phihat_pull_boundary_sum


HOLDS = "Holds"
FAILS = "Fails"
UNKNOWN = "Unknown"

TRACE = "trace"
REDUCED = "reduced"


_DELTA_0 = delta(0)


class SlopeError(ValueError):
    """The class is not of the shape a*lambda - b_0*delta_0 - ..."""


class PoleError(ZeroDivisionError):
    """The slope denominator vanishes at the requested point."""


class VerificationError(ArithmeticError):
    """A closed form and its substitution route disagree."""


@dataclass(frozen=True)
class SlopeReport:
    """The slope of ``source``, the status of its proviso and the j of
    each delta_j that keeps the proviso from holding."""

    slope: Fraction
    valid: str
    source: DivisorClass = field(repr=False)
    witness_indices: tuple[int, ...] = ()

    @property
    def witnesses(self) -> list[tuple[int, AffineExpr]]:
        """(j, delta_j coefficient) for each witness j, built on each read."""
        return [(j, self.source.coefficient(delta(j))) for j in self.witness_indices]


def _mg_numerators(d: DivisorClass) -> tuple[Mapping, int, bool]:
    """The numerators of a class over the genus-2k moduli basis, their
    denominator, and whether its delta_j, j >= 1, carry the symbols (a
    nonzero weight); the map is read, not copied, from the class
    (``DivisorClass.numerators_view``).  A class over another basis is a
    :class:`SlopeError`."""
    if d.basis.kind != MG:
        raise SlopeError(f"slope is defined over the Mg basis, got {d.basis.kind}")
    nums, den = d.numerators_view()
    return nums, den, C_WEIGHT in nums or B_WEIGHT in nums


def lambda_delta0(d: DivisorClass) -> tuple[Fraction, Fraction]:
    """The lambda and delta_0 coefficients of a class over the genus-2k
    moduli basis, read from its numerators; neither carries a symbol."""
    nums, den, _ = _mg_numerators(d)
    return Fraction(nums.get(LAMBDA, 0), den), Fraction(nums.get(_DELTA_0, 0), den)


def slope_of(d: DivisorClass) -> SlopeReport:
    """Slope of a class over the genus-2k moduli basis, together with
    the status of the proviso b_0 <= b_j for every j = 1..k.

    b_j is minus the delta_j coefficient, so a delta_j absent from the
    class has b_j = 0.  The proviso is decided on the integer
    numerators over the class's one denominator.  A witness is a delta_j
    that carries a symbol (``UNKNOWN``) or one whose b_j is below b_0
    (``FAILS``); the report keeps its j, and its coefficient is built
    only when :attr:`SlopeReport.witnesses` is read."""
    nums, den, symbolic = _mg_numerators(d)
    n0 = nums.get(_DELTA_0, 0)
    if n0 == 0:
        raise SlopeError("delta_0 coefficient is zero; slope undefined")
    slope = Fraction(nums.get(LAMBDA, 0), -n0)
    js = range(1, d.basis.k + 1)
    if symbolic:
        # every delta_j carries the weights
        return SlopeReport(slope, UNKNOWN, d, tuple(js))
    # -n_j < -n_0 over the same positive denominator: b_j < b_0
    names = delta_names(d.basis.k)
    witnesses = tuple([j for j in js if nums.get(names[j], 0) > n0])
    return SlopeReport(slope, FAILS if witnesses else HOLDS, d, witnesses)


# (n1, n0), (q1, q0): the induced slope at s is (n1 s + n0)/(q1 s + q0)
_MobiusPair = tuple[tuple[int, int], tuple[int, int]]


def _mobius_closed(k: int, variant: str) -> _MobiusPair:
    """Numerator and denominator of the closed-form induced slope as
    integer linear polynomials in the source slope."""
    if variant == TRACE:
        n1 = 18 * k**3 + 31 * k * k - 69 * k + 11
        n0 = -72 * k**3 - 96 * k * k + 306 * k - 48
        q1 = 3 * k**3 - 5 * k + 1
        q0 = -12 * k**3 + 6 * k * k + 20 * k - 4
    elif variant == REDUCED:
        n1 = 18 * k**3 + 19 * k * k - 117 * k + 20
        n0 = -72 * k**3 - 60 * k * k + 444 * k - 72
        q1 = 3 * k**3 - 2 * k * k - 9 * k + 2
        q0 = -12 * k**3 + 12 * k * k + 30 * k - 6
    else:
        raise ValueError(f"unknown slope variant {variant!r}")
    return (n1, n0), (q1, q0)


def _pushed(variant: str):
    """The builders k -> p_*phi^*lambda and (k, j) -> p_*phi^*delta'_j of
    the variant, and k -> the Hurwitz-side sum of phi^*delta'_j over
    j = 1..k; phi-hat in place of phi for ``REDUCED``."""
    if variant == TRACE:
        return p_phi_lambda, p_phi_delta, phi_pull_boundary_sum
    if variant == REDUCED:
        return p_phihat_lambda, p_phihat_delta, phihat_pull_boundary_sum
    raise ValueError(f"unknown slope variant {variant!r}")


@per_k_cache
def _mobius_substitution(k: int, variant: str) -> tuple[_MobiusPair, int]:
    """The same Moebius map assembled from the pushed Hodge class A and
    boundary class B, as integer polynomials over the common denominator
    den_A * den_B, and that denominator: the ratio cancels it.  Read
    once per (k, variant), as every induced slope of that k and variant
    uses the same two pairs."""
    hodge_of, boundary_of, _ = _pushed(variant)
    a, den_a, _ = _mg_numerators(hodge_of(k))
    b, den_b, _ = _mg_numerators(boundary_of(k, 0))
    pair = (
        (a.get(LAMBDA, 0) * den_b, -b.get(LAMBDA, 0) * den_a),
        (-a.get(_DELTA_0, 0) * den_b, b.get(_DELTA_0, 0) * den_a),
    )
    return pair, den_a * den_b


def mobius_consistency(k: int, variant: str) -> Fraction:
    """Assert that the substitution-route Moebius coefficients are a
    common rational multiple of the closed-form ones and return that
    factor."""
    (n1, n0), (q1, q0) = _mobius_closed(k, variant)
    ((a1, a0), (d1, d0)), den = _mobius_substitution(k, variant)
    if n1 == 0 or a1 == 0:
        raise VerificationError(f"degenerate Moebius data at k={k}")
    # (a0, d1, d0) = rho (n0, q1, q0) with rho = a1 / n1, by cross-products
    if a0 * n1 != a1 * n0 or d1 * n1 != a1 * q1 or d0 * n1 != a1 * q0:
        raise VerificationError(
            f"Moebius coefficients disagree at k={k} for variant {variant!r}"
        )
    return Fraction(a1, n1 * den)


def _evaluate(pair: _MobiusPair, s: Fraction) -> tuple[int, int]:
    """The Moebius map at s = p/q as (numerator, denominator) ints:
    (n1 p + n0 q, q1 p + q0 q)."""
    (n1, n0), (q1, q0) = pair
    p, q = s.numerator, s.denominator
    den = q1 * p + q0 * q
    if den == 0:
        raise PoleError(f"slope denominator vanishes at s = {s}")
    return n1 * p + n0 * q, den


def _check_induced_k(k: int) -> None:
    if k < 3:
        raise ValueError(f"induced slopes are stated for k >= 3, got k={k}")


def induced_slope(k: int, s: RationalLike, variant: str) -> Fraction:
    """Slope of the image of a divisor of slope s on the trace (or reduced
    trace) curve moduli; closed form and substitution must agree exactly."""
    _check_induced_k(k)
    s = Fraction(s)
    num, den = _evaluate(_mobius_closed(k, variant), s)
    sub_num, sub_den = _evaluate(_mobius_substitution(k, variant)[0], s)
    if num * sub_den != sub_num * den:
        raise VerificationError(
            f"closed form {Fraction(num, den)} != substitution route "
            f"{Fraction(sub_num, sub_den)} at (k, s) = ({k}, {s})"
        )
    return Fraction(num, den)


def slope_target(k: int, s: RationalLike, variant: str) -> DivisorClass:
    """s * p_*phi^*lambda - sum_j p_*phi^*delta'_j over j = 0..k (the
    higher ones push forward to zero), phi-hat for ``REDUCED``; its
    slope is :func:`induced_slope`.  By the linearity of ``p_push`` the
    terms j >= 1 are pushed as one class, their Hurwitz-side sum, so
    the target costs three applications of ``p_push``, two of them the
    cached classes that :func:`induced_slope` reads too.  Like
    :func:`induced_slope`, it refuses k < 3."""
    _check_induced_k(k)
    hodge, boundary, boundary_sum = _pushed(variant)
    higher = p_push(k).apply(boundary_sum(k))
    terms = ((s, hodge(k)), (-1, boundary(k, 0)), (-1, higher))
    return linear_combination(mg_basis(k), terms)


def kappa_slope_bound(k: int) -> Fraction:
    """Slope of the pushed ample boundary class: 3(2k+5)/(k+1), which
    equals 6 + 18/(g+2) with g = 2k.  The proviso b_j >= b_0 needs an
    external coefficient table; :func:`kappa_proviso` checks it on the
    substituted class.
    """
    lam, d0 = lambda_delta0(p_q_kappa(k))
    slope = lam / -d0
    if slope != Fraction(3 * (2 * k + 5), k + 1):
        raise VerificationError(
            f"kappa slope {slope} differs from 3(2k+5)/(k+1) at k={k}"
        )
    return slope


def kappa_proviso(k: int, numeric: DivisorClass) -> None:
    """Raise :class:`VerificationError` unless b_0 <= b_j for every
    j = 1..k on ``numeric``, the pushed ample class with an external
    table substituted; the message names each b_j below b_0."""
    report = slope_of(numeric)
    if report.valid != HOLDS:
        # b_j is minus the delta_j coefficient; a class that still
        # carries the symbols has them there, which constant_value refuses
        b0 = format_rational(-lambda_delta0(numeric)[1])
        exceeded = ", ".join(
            f"b_{j} = {format_rational(-value.constant_value())}"
            for j, value in report.witnesses
        )
        raise VerificationError(
            f"kappa slope proviso fails at k={k}: b_0 = {b0} exceeds {exceeded}"
        )
