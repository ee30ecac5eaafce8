"""The two-weight law of the symbolic classes, read through the public
accessors only.

Every class over ``Mg(k)`` that the package builds carries the external
symbols as gamma_c * c_j + gamma_b * b_j on each delta_j, j >= 1, with
one pair (gamma_c, gamma_b) per class, and no symbol on lambda or
delta_0.  These tests read each class through ``items()`` and
``coefficient()``, never through its stored form, so they hold whatever
the store looks like.
"""

from fractions import Fraction

import pytest

from hurwitzdiv import cli
from hurwitzdiv.bases import (
    E2,
    E3,
    HURWITZ,
    LAMBDA,
    MG,
    IndexRangeError,
    UnknownGeneratorError,
    delta,
    genus_reduced_trace,
    genus_trace,
    hurwitz_basis,
)
from hurwitzdiv.core import b_sym, c_sym, clear_caches
from hurwitzdiv.pushforward import (
    eh_divisor,
    mg_canonical_class,
    p_phi_delta,
    p_phi_lambda,
    p_phi_lambda_expected,
    p_phihat_delta,
    p_phihat_lambda,
    p_phihat_lambda_expected,
    p_push,
    p_q_kappa,
    p_q_map,
)
from hurwitzdiv.slopes import REDUCED, TRACE, slope_target
from hurwitzdiv.trace import catalan_number


def census(k):
    """(what, class) of every class over Mg(k) that the package builds
    at k: the pushed classes, every p_*phi^*delta'_j and
    p_*phi-hat^*delta-hat_j up to j = k + 1 where the target has it
    (the higher ones are zero), both expected Hodge classes, the slope
    targets (from k = 3, where slopes are stated), the T2 image of the
    correspondence action and the canonical class."""
    out = [
        ("p-phi-lambda", p_phi_lambda(k)),
        ("p-phihat-lambda", p_phihat_lambda(k)),
        ("p-q-kappa", p_q_kappa(k)),
        ("eh-divisor", eh_divisor(k)),
        ("p-phi-lambda expected", p_phi_lambda_expected(k)),
        ("p-phihat-lambda expected", p_phihat_lambda_expected(k)),
        ("p-q-map T2", p_q_map(k).row("T2")),
        ("canonical", mg_canonical_class(k)),
    ]
    for j in range(min(k + 1, genus_trace(k) // 2) + 1):
        out.append((f"p-phi-delta:{j}", p_phi_delta(k, j)))
    for j in range(min(k + 1, genus_reduced_trace(k) // 2) + 1):
        out.append((f"p-phihat-delta:{j}", p_phihat_delta(k, j)))
    for variant in (TRACE, REDUCED) if k >= 3 else ():
        out.append((f"slope target {variant}", slope_target(k, Fraction(23, 2), variant)))
    return out


def weights(d):
    """The one (gamma_c, gamma_b) of an Mg(k) class, read through
    ``coefficient``; fails unless every delta_j, j >= 1, carries exactly
    gamma_c * c_j + gamma_b * b_j and lambda and delta_0 carry no
    symbol."""
    k = d.basis.k
    for name in (LAMBDA, delta(0)):
        assert d.coefficient(name).is_constant(), name
    pairs = set()
    for j in range(1, k + 1):
        value = d.coefficient(delta(j))
        assert set(value.terms) <= {c_sym(j), b_sym(j)}, (j, value)
        pairs.add((value.coefficient(c_sym(j)), value.coefficient(b_sym(j))))
    assert len(pairs) == 1, pairs
    return pairs.pop()


@pytest.mark.parametrize("ks", [range(1, 11), range(11, 21), range(21, 31)])
def test_every_built_mg_class_carries_one_weight_pair(ks):
    for k in ks:
        symbolic = 0
        for what, d in census(k):
            assert d.basis.kind == MG, what
            gamma = weights(d)
            # items() lists the same values as coefficient(), and a
            # delta_j carrying a weight is in the support
            items = dict(d.items())
            for name in d.basis.generators():
                assert items.get(name, 0) == d.coefficient(name), (what, name)
            if any(gamma):
                symbolic += 1
                assert all(delta(j) in items for j in range(1, k + 1)), what
        # from k = 2 on the E3 column of p_* (b_j) reaches every pushed
        # Hodge class; the canonical class never carries a symbol
        assert weights(mg_canonical_class(k)) == (0, 0)
        if k >= 2:
            assert symbolic >= 6, (k, symbolic)
        clear_caches()


def _hurwitz_classes(k):
    """(name, class) of every Hurwitz class that a ``class`` name gives
    at k, the indexed ones at each of j = 0, 1, k that exists."""
    out = []
    for name, (builder, indexed, pushed) in cli._CLASSES.items():
        if pushed:
            continue
        if not indexed:
            out.append((name, builder(k)))
            continue
        for j in (0, 1, k):
            try:
                out.append((f"{name}:{j}", builder(k, j)))
            except (IndexRangeError, UnknownGeneratorError):
                continue
    return [(name, d) for name, d in out if d.basis.kind == HURWITZ]


@pytest.mark.parametrize("ks", [range(3, 16), range(16, 28), range(28, 41)])
def test_pushed_weights_are_the_e2_and_e3_coefficients(ks):
    for k in ks:
        n = catalan_number(k)
        push = p_push(k)
        for name, h in _hurwitz_classes(k):
            assert h.basis == hurwitz_basis(k)
            e2, e3 = h.coefficient(E2).constant_value(), h.coefficient(E3).constant_value()
            expected = (e2 / 2, -3 * n * e3 / (2 * (2 * k - 1)))
            assert weights(push.apply(h)) == expected, (k, name)
        clear_caches()
