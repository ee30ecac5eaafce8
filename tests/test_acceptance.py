"""Acceptance suite: one test per criterion, every identity exact.

Run under pytest, or directly (``python3 tests/test_acceptance.py``) to
get one PASS/FAIL line per criterion.
"""

import sys
import time
from fractions import Fraction
from itertools import combinations

from hurwitzdiv.bases import (
    DivisorClass,
    E0,
    E3,
    Ejc,
    LAMBDA,
    T3j,
    delta,
    hurwitz_basis,
    mg_basis,
)
from hurwitzdiv.checks import FAIL, run_checks
from hurwitzdiv.m0b import (
    count_boundary,
    delta_restricted,
    enumerate_boundary,
    intersect_nonempty,
    kappa_class,
    normalize,
    psi_restricted,
)
from hurwitzdiv.pushforward import (
    eh_closed_coeffs,
    eh_divisor,
    p_phi_delta,
    p_phi_delta0_closed_coeffs,
    p_phi_lambda,
    p_phi_lambda_closed_coeffs,
    p_phihat_delta,
    p_phihat_delta0_closed_coeffs,
    p_phihat_lambda,
    p_phihat_lambda_closed_coeffs,
    p_push,
)
from hurwitzdiv.slopes import TRACE, induced_slope, kappa_slope_bound
from hurwitzdiv.trace import (
    alpha_table,
    catalan_number,
    delta_s,
    delta_tau,
    e_coeff,
    genus_data,
    grr_pieces,
    omega_tau_sq,
    phi_pull_lambda,
    phihat_pull_lambda,
    q_pullback,
    twelve_lambda_reduced_closed,
    twelve_lambda_trace_closed,
)


def _lam_d0(d):
    return (
        d.coefficient(LAMBDA).constant_value(),
        d.coefficient(delta(0)).constant_value(),
    )


def test_criterion_1_small_k_specializations():
    h1, h2 = hurwitz_basis(1), hurwitz_basis(2)
    assert delta_tau(1) == DivisorClass(h1, {E0: 2, Ejc(1, 0): 1})
    assert delta_tau(2) == DivisorClass(
        h2, {E0: 6, E3: 2, Ejc(1, 0): 3, Ejc(2, 0): 2, Ejc(2, 1): 6}
    )
    assert delta_s(1) == DivisorClass(h1, {E0: 1, Ejc(1, 0): 1})
    assert delta_s(2) == DivisorClass(
        h2, {E0: 3, E3: 1, Ejc(1, 0): 3, Ejc(2, 0): 1, Ejc(2, 1): 3}
    )
    assert phi_pull_lambda(1) == DivisorClass(
        h1, {E0: Fraction(1, 5), Ejc(1, 0): Fraction(1, 5)}
    )
    assert 12 * phihat_pull_lambda(2) == DivisorClass(
        h2,
        {
            E0: Fraction(30, 11),
            E3: Fraction(2, 11),
            Ejc(1, 0): Fraction(48, 11),
            Ejc(2, 0): Fraction(74, 11),
            Ejc(2, 1): Fraction(54, 11),
        },
    )


def test_criterion_2_grr_assembly():
    start = time.monotonic()
    for k in range(1, 51):
        assert grr_pieces(k).assembled() == omega_tau_sq(k)
    assert time.monotonic() - start < 5.0


def test_criterion_3_hodge_closed_forms():
    for k in range(1, 51):
        assert 12 * phi_pull_lambda(k) == twelve_lambda_trace_closed(k)
        assert 12 * phihat_pull_lambda(k) == twelve_lambda_reduced_closed(k)


def test_criterion_4_dual_route_pushforwards():
    for k in range(3, 31):
        assert _lam_d0(p_phi_lambda(k)) == p_phi_lambda_closed_coeffs(k)
        assert _lam_d0(p_phihat_lambda(k)) == p_phihat_lambda_closed_coeffs(k)
        assert (
            _lam_d0(p_phi_delta(k, 0))
            == p_phi_delta0_closed_coeffs(k)
        )
        assert (
            _lam_d0(p_phihat_delta(k, 0))
            == p_phihat_delta0_closed_coeffs(k)
        )
        assert _lam_d0(eh_divisor(k)) == eh_closed_coeffs(k)


def test_criterion_5_slope_closed_form():
    for k in range(3, 21):
        for s in (Fraction(23, 2), Fraction(12), Fraction(13), Fraction(20)):
            induced_slope(k, s, TRACE)  # raises on closed-form mismatch
    assert induced_slope(3, Fraction(12), TRACE) == Fraction(489, 59)


def test_criterion_6_bounds():
    for k in range(1, 51):
        value = kappa_slope_bound(k)
        assert value == Fraction(3 * (2 * k + 5), k + 1)
        assert value == 6 + Fraction(18, 2 * k + 2)
    for k in range(3, 31):
        assert k * (209 * k * k - 243 * k + 31) < 10 * (
            21 * k**3 + 6 * k * k - 35 * k + 7
        )


def test_criterion_7_genus_identities():
    for k in range(1, 51):
        gd = genus_data(k)
        assert gd.g_prime == (gd.g - 1) * (2 * gd.d - 3) + (gd.d - 1) ** 2
        assert gd.g_prime == 5 * k * k - 4 * k + 1
        assert gd.prym_dim == gd.g_prime - gd.g_hat
        assert 2 * gd.prym_dim == 5 * k * k - k
    assert (genus_data(2).g_prime, genus_data(2).g_hat) == (13, 4)
    assert genus_data(3).g_hat == 13


def test_criterion_8_m0b_combinatorics():
    for b in range(4, 13):
        assert count_boundary(b) == sum(1 for _ in enumerate_boundary(b))
    for b in (6, 8):
        points = frozenset(range(1, b + 1))
        labels = [
            frozenset(combo)
            for size in range(2, b - 1)
            for combo in combinations(points, size)
        ]
        for sa in labels:
            for sb in labels:
                expected = (
                    sa <= sb or sb <= sa or not (sa & sb) or sa | sb == points
                )
                assert (
                    intersect_nonempty(normalize(b, sa), normalize(b, sb)) == expected
                )
    for k in range(1, 51):
        assert kappa_class(k) + delta_restricted(k) == psi_restricted(k)


def test_criterion_9_e_and_alpha_consistency():
    for k in range(1, 31):
        assert e_coeff(k, 1, 0) == catalan_number(k)
        push = p_push(k)
        q = q_pullback(k)
        for j in range(1, k + 1):
            assert alpha_table(k)[j] == sum(
                (j + 1 - 2 * c) * e_coeff(k, j, c) for c in range(j // 2 + 1)
            )
            assert push.apply(q.row(T3j(j))) == DivisorClass(
                mg_basis(k), {delta(j): alpha_table(k)[j]}
            )


def test_criterion_10_full_verify_suite():
    start = time.monotonic()
    results = run_checks(1, 50)
    elapsed = time.monotonic() - start
    failures = [r for r in results if r.status == FAIL]
    assert not failures, failures[:5]
    assert elapsed < 60.0, f"verify 1..50 took {elapsed:.1f}s"


_CRITERIA = [
    (1, "small-k specializations", test_criterion_1_small_k_specializations),
    (2, "dualizing-square assembly", test_criterion_2_grr_assembly),
    (3, "Hodge pullback closed forms", test_criterion_3_hodge_closed_forms),
    (4, "dual-route push-forward identities", test_criterion_4_dual_route_pushforwards),
    (5, "induced-slope closed form", test_criterion_5_slope_closed_form),
    (6, "slope bounds", test_criterion_6_bounds),
    (7, "genus identities", test_criterion_7_genus_identities),
    (8, "pointed rational boundary combinatorics", test_criterion_8_m0b_combinatorics),
    (9, "push-forward multiplicity consistency", test_criterion_9_e_and_alpha_consistency),
    (10, "full verify suite", test_criterion_10_full_verify_suite),
]


def main() -> int:
    status = 0
    for number, description, fn in _CRITERIA:
        try:
            fn()
        except Exception as exc:
            print(f"criterion {number:2d} FAIL  {description}: {exc}")
            status = 1
        else:
            print(f"criterion {number:2d} PASS  {description}")
    return status


if __name__ == "__main__":
    sys.exit(main())
