"""Named verification checks, the machinery behind the ``verify``
subcommand.

Each check is a plain function ``(k, externals) -> None`` that holds
only its comparisons.  One registry, ``_REGISTRY``, maps each check name
to its parts, each a (first k, last k, function) over the range of k
where the paper's identity holds, and one runner, ``_run``, turns every
part that covers k into one PASS/FAIL/SKIP :class:`CheckResult`.
``CHECKS`` maps each name to that runner, and :func:`run_checks` looks
the name up there at each call.  ``delta-j-checks`` is skipped unless
the external coefficient table for that k is supplied; a table for a k
outside the range is refused before any check runs.  The check
substitutes the table into each pushed class once, in integers.

A check FAILs only when an identity of the paper does not hold, and
every such failure is one type, ``slopes.VerificationError``: the
checks' own comparisons raise it, and so do the slope identities of
``slopes``.  A ``slopes.SlopeError`` inside a check also FAILs it: every
class a check reads is one the package built, so a class off ``Mg(k)``
or a zero delta_0 coefficient is a failed identity, not bad input.  A
symbol on lambda or delta_0 cannot occur: the class store refuses it.
Any other exception is a defect or bad input and propagates out of
:func:`run_checks`.  The builders compare nothing; where a quantity
has two expressions, the builder takes one and a check compares the
other.  A sweep over several k walks ``core.each_k``, which empties the
builder caches between two values of k, so it holds one k's classes at
a time.

Each identity is stated once: ``closed-forms``, ``hygiene`` and
``delta-j-checks`` read one list of the pushed classes
(:func:`_pushed_classes`), ``catalan`` and ``closed-forms`` one cached
composite ``pushforward.p_q_composed``, and ``closed-forms`` compares
each pushed Hodge class whole with its expected class
(``pushforward.p_phi_lambda_expected``/``p_phihat_lambda_expected``).
Builders are looked up in their modules at call time, so a patched
builder is the one checked.

``hygiene`` holds what raw output rests on: each pushed class lies over
``Mg(k)``, where its lambda and delta_0 coefficients are constants, and
its reduced denominator, shared by the constants and the two weights of
c_j and b_j, divides (6k)!, so the raw class, the per-factorial-b class
times ``pushforward.factorial_b(k)``, has integer coefficients.  It
reads the denominator from ``DivisorClass.numerators_view`` and builds no
scaled class.  ``delta-j-checks`` requires that no weight is left after
the substitution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import comb, inf
from typing import Callable

from . import m0b, pushforward, slopes, trace
from .bases import DivisorClass, E0, E3, Ejc, T2, T3j, delta, hurwitz_basis
from .core import each_k
from .pushforward import ExternalCoeffs
from .slopes import SlopeError, VerificationError, lambda_delta0

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@dataclass(frozen=True)
class CheckResult:
    check: str
    k: int
    status: str
    detail: str = ""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationError(message)


class _Skip(Exception):
    """The check needs an input that was not supplied for this k."""


def _genus(k: int, externals) -> None:
    gd = trace.genus_data(k)
    g, d = gd.g, gd.d
    _require(
        gd.g_prime == (g - 1) * (2 * d - 3) + (d - 1) ** 2, "trace genus mismatch"
    )
    _require(2 * gd.prym_dim == 5 * k * k - k, "Prym dimension closed form")
    if k == 2:
        _require((gd.g_prime, gd.g_hat) == (13, 4), "k=2 genus values")
    if k == 3:
        _require(gd.g_hat == 13, "k=3 reduced genus")


def _catalan(k: int, externals) -> None:
    n = trace.catalan_number(k)
    _require(k * n == comb(2 * k, k + 1), "the two Catalan expressions disagree")
    _require(trace.e_coeff(k, 1, 0) == n, "e_{1,0} differs from the pencil count")
    # the T3j image of the composite, over its denominator, must be the
    # one integer alpha(k, j) * den on delta_j, as in p_q_map
    composed = pushforward.p_q_composed(k)
    for j, alpha in enumerate(trace.alpha_table(k)[1:], 1):
        nums, den = composed.numerators(T3j(j))
        _require(
            nums == {delta(j): alpha * den},
            f"pushed T3j_{j} differs from alpha(k, j) delta_{j}",
        )


def _small_k_1(k: int, externals) -> None:
    hur = hurwitz_basis(1)
    _require(
        trace.delta_tau(1) == DivisorClass(hur, {E0: 2, Ejc(1, 0): 1}),
        "trace node class at k=1",
    )
    _require(
        trace.delta_s(1) == DivisorClass(hur, {E0: 1, Ejc(1, 0): 1}),
        "reduced node class at k=1",
    )
    fifth = Fraction(1, 5)
    _require(
        trace.phi_pull_lambda(1) == DivisorClass(hur, {E0: fifth, Ejc(1, 0): fifth}),
        "Hodge pullback at k=1",
    )


def _small_k_2(k: int, externals) -> None:
    hur = hurwitz_basis(2)
    _require(
        trace.delta_tau(2)
        == DivisorClass(hur, {E0: 6, E3: 2, Ejc(1, 0): 3, Ejc(2, 0): 2, Ejc(2, 1): 6}),
        "trace node class at k=2",
    )
    _require(
        trace.delta_s(2)
        == DivisorClass(hur, {E0: 3, E3: 1, Ejc(1, 0): 3, Ejc(2, 0): 1, Ejc(2, 1): 3}),
        "reduced node class at k=2",
    )
    _require(
        12 * trace.phihat_pull_lambda(2)
        == DivisorClass(
            hur,
            {
                E0: Fraction(30, 11),
                E3: Fraction(2, 11),
                Ejc(1, 0): Fraction(48, 11),
                Ejc(2, 0): Fraction(74, 11),
                Ejc(2, 1): Fraction(54, 11),
            },
        ),
        "reduced Hodge pullback at k=2",
    )


def _grr_assembly(k: int, externals) -> None:
    _require(
        trace.grr_pieces(k).assembled() == trace.omega_tau_sq(k),
        "dualizing-square assembly differs from the closed form",
    )


def _hodge_closed_forms(k: int, externals) -> None:
    _require(
        12 * trace.phi_pull_lambda(k) == trace.twelve_lambda_trace_closed(k),
        "trace Hodge pullback differs from its closed form",
    )
    _require(
        12 * trace.phihat_pull_lambda(k) == trace.twelve_lambda_reduced_closed(k),
        "reduced Hodge pullback differs from its closed form",
    )


_TRACE_HODGE = "pushed trace Hodge class"
_AMPLE = "pushed ample class"


def _pushed_classes(k: int) -> tuple[tuple[str, DivisorClass, Callable], ...]:
    """(what, class, closed-form coefficients) of the pushed classes
    whose lambda and delta_0 coefficients have closed forms for k >= 3,
    per factorial b."""
    pf = pushforward
    return (
        (_TRACE_HODGE, pf.p_phi_lambda(k), pf.p_phi_lambda_closed_coeffs),
        (
            "pushed reduced Hodge class",
            pf.p_phihat_lambda(k),
            pf.p_phihat_lambda_closed_coeffs,
        ),
        ("pushed boundary class", pf.p_phi_delta(k, 0), pf.p_phi_delta0_closed_coeffs),
        (
            "pushed reduced boundary class",
            pf.p_phihat_delta(k, 0),
            pf.p_phihat_delta0_closed_coeffs,
        ),
        ("branch divisor", pf.eh_divisor(k), pf.eh_closed_coeffs),
        (_AMPLE, pf.p_q_kappa(k), pf.p_q_kappa_closed_coeffs),
    )


def _composite_rows(k: int, externals) -> None:
    # the T3j rows of the composite are alpha(k, j) delta_j in p_q_map
    # and p_q_composed alike; catalan checks them at every k
    direct = pushforward.p_q_map(k).row(T2)
    composed = pushforward.p_q_composed(k).row(T2)
    if k >= 3:
        _require(direct == composed, "composite row T2 mismatch")
    else:
        # at k = 2 the dropped E2 generator only affects the c_j terms
        _require(
            lambda_delta0(direct) == lambda_delta0(composed),
            "composite row T2 lambda/delta_0 mismatch",
        )


def _pushed_closed_forms(k: int, externals) -> None:
    for what, d, closed in _pushed_classes(k):
        _require(lambda_delta0(d) == closed(k), f"{what} differs from closed form")
    pf = pushforward
    for what, pushed, expected in (
        ("trace", pf.p_phi_lambda(k), pf.p_phi_lambda_expected(k)),
        ("reduced", pf.p_phihat_lambda(k), pf.p_phihat_lambda_expected(k)),
    ):
        if pushed != expected:
            # lambda and delta_0 agree by now, so this names a delta_j
            name = (pushed - expected).support()[0]
            raise VerificationError(
                f"{name} coefficient of the pushed {what} Hodge class"
            )


_SLOPE_GRID = (Fraction(23, 2), Fraction(12), Fraction(13), Fraction(20))


def _slopes(k: int, externals) -> None:
    for variant in (slopes.TRACE, slopes.REDUCED):
        for s in _SLOPE_GRID:
            slopes.induced_slope(k, s, variant)
    if k == 3:
        _require(
            slopes.induced_slope(3, Fraction(12), slopes.TRACE) == Fraction(489, 59),
            "spot value at (k, s') = (3, 12)",
        )


def _bounds(k: int, externals) -> None:
    # raises VerificationError unless the slope is 3(2k+5)/(k+1)
    slopes.kappa_slope_bound(k)
    if k < 3:
        return
    for variant in (slopes.TRACE, slopes.REDUCED):
        # at the ample boundary s' = 11 the image slope is n(11)/q(11);
        # with q(11) > 0, excess < 10/k is k (n(11) - 6 q(11)) < 10 q(11)
        _, (q1, q0) = slopes._mobius_closed(k, variant)
        _require(
            11 * q1 + q0 > 0,
            f"{variant}-slope denominator at the ample boundary is not positive",
        )
        excess = slopes.induced_slope(k, Fraction(11), variant) - 6
        _require(excess < Fraction(10, k), f"{variant} slope exceeds 6 + 20/g")


def _intersection_oracle(sa: int, masks: list[int], full: int) -> list[bool]:
    # four-corner test of the label of mask ``sa`` against each of
    # ``masks``: two labels are incompatible exactly when all four mutual
    # intersections of the parts are nonempty; ``full`` is the mask of
    # 1..b
    return [not (sa & sb and sa & ~sb and sb & ~sa and full & ~(sa | sb)) for sb in masks]


def _m0n(k: int, externals) -> None:
    _require(
        m0b.kappa_class(k) + m0b.delta_restricted(k) == m0b.psi_restricted(k),
        "kappa + delta differs from psi on the restricted basis",
    )
    b = 6 * k
    if b <= 12:
        _require(
            m0b.count_boundary(b) == sum(1 for _ in m0b.enumerate_boundary(b)),
            "boundary count differs from enumeration",
        )
    if k == 1:
        for bb in (6, 8):
            labels = list(m0b.enumerate_boundary(bb))
            masks = [label.mask for label in labels]
            full = (1 << (bb + 1)) - 2
            # each label's row of answers against every label, oracle row
            # on the masks
            _require(
                all(
                    [m0b.intersect_nonempty(x, y) for y in labels]
                    == _intersection_oracle(x.mask, masks, full)
                    for x in labels
                ),
                f"intersection criterion differs from oracle at b={bb}",
            )
        images = set()
        for label in m0b.enumerate_boundary(6):
            images.update(m0b.forgetful_pullback(label))
        _require(len(images) == 50, "forgetful pullback image count")
        sections = {m0b.normalize(7, {j, 7}) for j in range(1, 7)}
        _require(not (images & sections), "sections are not pullback images")
        _require(
            len(images | sections) == m0b.count_boundary(7),
            "pullback images plus sections exhaust the boundary",
        )


def _hygiene(k: int, externals) -> None:
    labellings = pushforward.factorial_b(k)
    for what, d, _ in _pushed_classes(k):
        lambda_delta0(d)
        _, den = d.numerators_view()
        _require(
            labellings % den == 0, f"denominator {den} of the {what} does not divide (6k)!"
        )


def _delta_j(k: int, externals: ExternalCoeffs | None) -> None:
    if externals is None or externals.k != k:
        raise _Skip("external coefficient table not supplied for this k")
    # each pushed class is substituted once; the kappa proviso and the
    # Hodge slope are read from these substituted classes
    numeric = {what: externals.apply(d) for what, d, _ in _pushed_classes(k)}
    for d in numeric.values():
        _require(
            not slopes._mg_numerators(d)[2],
            "substitution left a symbolic coefficient behind",
        )
    slopes.kappa_slope_bound(k)
    slopes.kappa_proviso(k, numeric[_AMPLE])
    report = slopes.slope_of(numeric[_TRACE_HODGE])
    _require(report.valid != slopes.UNKNOWN, "slope validity still unknown")


_Part = tuple[int, float, Callable[[int, ExternalCoeffs | None], None]]

# name -> parts (first k, last k, check), in verify order; a part runs
# and prints one line for each k of its range
_REGISTRY: dict[str, tuple[_Part, ...]] = {
    "genus": ((1, inf, _genus),),
    "catalan": ((1, inf, _catalan),),
    "small-k-cases": ((1, 1, _small_k_1), (2, 2, _small_k_2)),
    "grr-assembly": ((1, inf, _grr_assembly),),
    "hodge-closed-forms": ((1, inf, _hodge_closed_forms),),
    # the composite rows from k = 2, where E3 exists; the pushed closed
    # forms from k = 3, where E2 does
    "closed-forms": ((2, inf, _composite_rows), (3, inf, _pushed_closed_forms)),
    "slopes": ((3, inf, _slopes),),
    "bounds": ((1, inf, _bounds),),
    "m0n": ((1, inf, _m0n),),
    "hygiene": ((1, inf, _hygiene),),
    "delta-j-checks": ((1, inf, _delta_j),),
}


def _run(
    name: str, parts: tuple[_Part, ...], k: int, externals: ExternalCoeffs | None
) -> list[CheckResult]:
    results = []
    for first, last, check in parts:
        if not first <= k <= last:
            continue
        try:
            check(k, externals)
        except _Skip as exc:
            results.append(CheckResult(name, k, SKIP, str(exc)))
        except (VerificationError, SlopeError) as exc:
            results.append(CheckResult(name, k, FAIL, str(exc)))
        else:
            results.append(CheckResult(name, k, PASS))
    return results


# looked up by run_checks at each call, so a wrapped entry is the one run
CHECKS: dict[str, Callable[[int, ExternalCoeffs | None], list[CheckResult]]] = {
    name: partial(_run, name, parts) for name, parts in _REGISTRY.items()
}
ALL = "all"


def run_checks(
    k_min: int,
    k_max: int,
    names: list[str] | None = None,
    externals: ExternalCoeffs | None = None,
) -> list[CheckResult]:
    """Run the named checks for every k in the inclusive range and
    return the individual results.  Each named check runs once, in the
    order it was first named; ``all`` anywhere among the names, or no
    names, runs every check once, in registry order."""
    ks = each_k(k_min, k_max)
    if externals is not None and not k_min <= externals.k <= k_max:
        raise ValueError(
            f"external table is for k={externals.k}, not k={k_min}..{k_max}"
        )
    selected = list(dict.fromkeys(names)) if names else [ALL]
    for name in selected:
        if name != ALL and name not in CHECKS:
            raise ValueError(
                f"unknown check {name!r}; available: {', '.join(CHECKS)}"
            )
    if ALL in selected:
        selected = list(CHECKS)
    results: list[CheckResult] = []
    for k in ks:
        for name in selected:
            results.extend(CHECKS[name](k, externals))
    return results
