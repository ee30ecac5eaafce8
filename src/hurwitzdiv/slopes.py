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

An induced slope, that of s p_*phi^*lambda - p_*phi^*delta'_0, is a
Moebius map of s = p/q built from the lambda and delta_0 coefficients of
the two pushed classes, closed (``pushforward``) or as built: two integer
pairs, cached per (k, variant), evaluated at (p, q) and compared in
integers; one ``Fraction`` is built for the result.

The correspondence phi (trace curve) is the variant ``TRACE``, phi-hat
(reduced trace curve) is ``REDUCED``; ``_pushed`` alone maps a variant
to its pushed builders and their closed forms, and an unknown variant
is a ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Mapping

from .bases import B_WEIGHT, C_WEIGHT, DivisorClass, LAMBDA, MG, delta, delta_names
from .bases import linear_combination, mg_basis, numerator_over, scalar_type_error
from .core import AffineExpr, RationalLike, format_rational, per_k_cache
from .pushforward import (
    p_phi_delta,
    p_phi_delta0_closed_coeffs,
    p_phi_lambda,
    p_phi_lambda_closed_coeffs,
    p_phihat_delta,
    p_phihat_delta0_closed_coeffs,
    p_phihat_lambda,
    p_phihat_lambda_closed_coeffs,
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


def _pushed(variant: str):
    """k -> p_*phi^*lambda, (k, j) -> p_*phi^*delta'_j, k -> the Hurwitz-side
    sum of phi^*delta'_j over j = 1..k, and the closed (lambda, delta_0) of
    the first two (j = 0) as functions of k; phi-hat for ``REDUCED``."""
    if variant == TRACE:
        builders = p_phi_lambda, p_phi_delta, phi_pull_boundary_sum
        return builders + (p_phi_lambda_closed_coeffs, p_phi_delta0_closed_coeffs)
    if variant == REDUCED:
        builders = p_phihat_lambda, p_phihat_delta, phihat_pull_boundary_sum
        return builders + (p_phihat_lambda_closed_coeffs, p_phihat_delta0_closed_coeffs)
    raise ValueError(f"unknown slope variant {variant!r}")


def _mobius_pair(hodge: tuple, boundary: tuple) -> _MobiusPair:
    """The slope of s A - B, from the (lambda, delta_0) coefficients of the
    pushed Hodge and boundary classes A and B: the integer Moebius pair
    ((lambda_A, -lambda_B), (-delta0_A, delta0_B)) over their denominators' lcm."""
    (lam_a, d0_a), (lam_b, d0_b) = hodge, boundary
    den = lcm(lam_a.denominator, lam_b.denominator, d0_a.denominator, d0_b.denominator)
    n1, n0, q1, q0 = [numerator_over(x, den) for x in (lam_a, lam_b, d0_a, d0_b)]
    return (n1, -n0), (-q1, q0)


@per_k_cache
def _mobius_closed(k: int, variant: str) -> _MobiusPair:
    """The Moebius pair from the closed forms of the two pushed classes."""
    _, _, _, hodge, boundary = _pushed(variant)
    return _mobius_pair(hodge(k), boundary(k))


@per_k_cache
def _mobius_substitution(k: int, variant: str) -> _MobiusPair:
    """The same Moebius pair read from the two pushed classes as built."""
    hodge, boundary, _, _, _ = _pushed(variant)
    return _mobius_pair(lambda_delta0(hodge(k)), lambda_delta0(boundary(k, 0)))


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
    trace) curve moduli; closed form and substitution must agree exactly.
    It refuses k < 3, then an s that is not an ``int`` or ``Fraction``."""
    _check_induced_k(k)
    if not isinstance(s, (int, Fraction)):
        raise scalar_type_error(s)
    s = Fraction(s)
    num, den = _evaluate(_mobius_closed(k, variant), s)
    sub_num, sub_den = _evaluate(_mobius_substitution(k, variant), s)
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
    hodge, boundary, boundary_sum, _, _ = _pushed(variant)
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
