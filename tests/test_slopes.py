from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hurwitzdiv.bases import ClassGroupError, DivisorClass, LAMBDA, delta, hurwitz_basis, mg_basis
from hurwitzdiv.core import AffineExpr, c_sym
from hurwitzdiv.pushforward import ExternalCoeffs, p_phi_lambda, p_q_kappa
from hurwitzdiv.slopes import (
    FAILS,
    HOLDS,
    PoleError,
    REDUCED,
    SlopeError,
    TRACE,
    UNKNOWN,
    VerificationError,
    induced_slope,
    kappa_proviso,
    kappa_slope_bound,
    slope_of,
    slope_target,
)


def mclass(k, coeffs):
    return DivisorClass(mg_basis(k), coeffs)


def test_slope_of_two_term_class():
    # delta_1..delta_3 are absent, so b_1 = b_2 = b_3 = 0 < b_0 = 2
    report = slope_of(mclass(3, {LAMBDA: 13, delta(0): -2}))
    assert report.slope == Fraction(13, 2)
    assert report.valid == FAILS
    assert report.witnesses == [(1, AffineExpr(0)), (2, AffineExpr(0)), (3, AffineExpr(0))]


def test_slope_of_pushed_kappa_k1():
    report = slope_of(p_q_kappa(1))
    assert report.slope == Fraction(21, 2)
    assert report.valid == UNKNOWN  # delta_1 still carries c_1, b_1
    assert [j for j, _ in report.witnesses] == [1]


def test_slope_of_pushed_hodge_k3():
    report = slope_of(p_phi_lambda(3))
    assert report.slope == Fraction(569, 67)
    assert report.valid == UNKNOWN


def test_slope_of_detects_violations():
    report = slope_of(mclass(2, {LAMBDA: 10, delta(0): -2, delta(1): -1}))
    assert report.valid == FAILS
    assert report.witnesses == [(1, AffineExpr(-1)), (2, AffineExpr(0))]
    # an absent delta_j is b_j = 0, below b_0 = 2
    no_delta_1 = slope_of(mclass(2, {LAMBDA: 10, delta(0): -2, delta(2): -7}))
    assert no_delta_1.valid == FAILS
    assert no_delta_1.witnesses == [(1, AffineExpr(0))]
    # every delta_j present and b_j >= b_0, with equality at j = 1
    ok = slope_of(mclass(2, {LAMBDA: 10, delta(0): -2, delta(1): -2, delta(2): -7}))
    assert (ok.slope, ok.valid, ok.witnesses) == (5, HOLDS, [])
    # b_0 < 0: an absent delta_j (b_j = 0) is above it
    negative = slope_of(mclass(2, {LAMBDA: 10, delta(0): 2, delta(1): 1}))
    assert (negative.slope, negative.valid) == (-5, HOLDS)


@pytest.mark.parametrize("k", [1, 2, 5, 12])
def test_slope_of_reads_every_delta_j_in_integers(k):
    # the integer reader agrees with the proviso read off the Fraction
    # values of items(), an absent delta_j counted as b_j = 0
    from hurwitzdiv.pushforward import p_phihat_lambda

    # b_j of the size of N(k) make every delta_j dominate delta_0; one
    # negated b_j makes its delta_j the minimum
    scale = 10 ** (3 + k // 3)
    c = {j: Fraction(j - 3, j + 1) for j in range(1, k + 1)}
    b = {j: Fraction(scale * (j + 1), 3) for j in range(1, k + 1)}
    tables = (ExternalCoeffs(k, c, b), ExternalCoeffs(k, c, {**b, k // 2 + 1: -b[1]}))
    classes = [p_q_kappa(k), p_phi_lambda(k)] + [p_phihat_lambda(k)] * (k >= 3)
    outcomes = set()
    for table, d in [(table, d) for table in tables for d in classes]:
        numeric = table.apply(d)
        values = {name: value.constant_value() for name, value in numeric.items()}
        b0 = -values[delta(0)]
        below = [
            (j, AffineExpr(values.get(delta(j), 0)))
            for j in range(1, k + 1)
            if -values.get(delta(j), 0) < b0
        ]
        report = slope_of(numeric)
        assert report.slope == values.get(LAMBDA, 0) / b0
        assert report.witnesses == below
        assert report.valid == (FAILS if below else HOLDS)
        if numeric != d:  # at k = 1 the Hodge class carries no symbol
            assert slope_of(d).valid == UNKNOWN
        outcomes.add(report.valid)
    assert outcomes == {HOLDS, FAILS}


def test_slope_of_errors():
    with pytest.raises(SlopeError):
        slope_of(mclass(2, {LAMBDA: 10}))  # delta_0 coefficient zero
    # a symbol on lambda is refused where the class is built, so no slope
    # meets one
    with pytest.raises(ClassGroupError, match="^generator 'lambda' of Mg\\(k=2\\) breaks"):
        mclass(2, {LAMBDA: AffineExpr(0, {c_sym(1): 1}), delta(0): -1})
    with pytest.raises(SlopeError):
        slope_of(DivisorClass(hurwitz_basis(2), {}))


def test_induced_slope_trace_spot_values():
    assert induced_slope(3, Fraction(12), TRACE) == Fraction(489, 59)
    # ample-cone boundary value at k = 3: (569*11 - 1938)/(67*11 - 214)
    assert induced_slope(3, Fraction(11), TRACE) == Fraction(4321, 523)


def test_induced_slope_trace_grid_consistency():
    for k in range(3, 21):
        for s in (Fraction(23, 2), Fraction(12), Fraction(13), Fraction(20)):
            induced_slope(k, s, TRACE)  # raises on any closed-form mismatch


def test_induced_slope_requires_k3():
    with pytest.raises(ValueError):
        induced_slope(2, Fraction(12), TRACE)
    with pytest.raises(ValueError):
        induced_slope(1, Fraction(12), REDUCED)


def test_induced_slope_pole():
    with pytest.raises(PoleError):
        induced_slope(3, Fraction(214, 67), TRACE)
    with pytest.raises(PoleError):
        induced_slope(3, Fraction(66, 19), REDUCED)


@given(
    k=st.integers(3, 60),
    variant=st.sampled_from([TRACE, REDUCED]),
    s=st.fractions(max_denominator=10**6),
)
def test_integer_induced_slope_is_the_moebius_map(k, variant, s):
    from hurwitzdiv.slopes import _mobius_closed

    (n1, n0), (q1, q0) = _mobius_closed(k, variant)
    den = q1 * s + q0
    if den == 0:
        with pytest.raises(PoleError):
            induced_slope(k, s, variant)
    else:
        assert induced_slope(k, s, variant) == (n1 * s + n0) / den


@pytest.mark.parametrize("variant", [TRACE, REDUCED])
def test_both_moebius_routes_have_the_pole_of_the_closed_form(variant):
    from hurwitzdiv.core import clear_caches
    from hurwitzdiv.slopes import _evaluate, _mobius_closed, _mobius_substitution

    for k in range(3, 61):
        closed = _mobius_closed(k, variant)
        (_, (q1, q0)) = closed
        pole = Fraction(-q0, q1)
        text = f"slope denominator vanishes at s = {pole}"
        for pair in (closed, _mobius_substitution(k, variant)):
            with pytest.raises(PoleError) as exc:
                _evaluate(pair, pole)
            assert str(exc.value) == text
        with pytest.raises(PoleError):
            induced_slope(k, pole, variant)
        clear_caches()


def _paper_mobius(k, variant):
    # the paper's induced slope (n1 s + n0)/(q1 s + q0), written out as
    # cubics in k: the reference the derived pairs are held to
    if variant == TRACE:
        n1 = 18 * k**3 + 31 * k * k - 69 * k + 11
        n0 = -72 * k**3 - 96 * k * k + 306 * k - 48
        q1 = 3 * k**3 - 5 * k + 1
        q0 = -12 * k**3 + 6 * k * k + 20 * k - 4
    else:
        n1 = 18 * k**3 + 19 * k * k - 117 * k + 20
        n0 = -72 * k**3 - 60 * k * k + 444 * k - 72
        q1 = 3 * k**3 - 2 * k * k - 9 * k + 2
        q0 = -12 * k**3 + 12 * k * k + 30 * k - 6
    return n1, n0, q1, q0


@pytest.mark.parametrize("variant", [TRACE, REDUCED])
def test_the_derived_closed_pair_is_a_positive_multiple_of_the_paper_cubics(variant):
    # the pair built from pushforward's closed (lambda, delta_0) forms is
    # rho times the paper's, rho > 0, so every value and every sign of
    # its denominator is the paper's
    from hurwitzdiv.core import clear_caches
    from hurwitzdiv.slopes import _mobius_closed

    for k in range(3, 201):
        (n1, n0), (q1, q0) = _mobius_closed(k, variant)
        paper = _paper_mobius(k, variant)
        rho = Fraction(n1, paper[0])
        assert rho > 0, k
        assert (n1, n0, q1, q0) == tuple(rho * x for x in paper), k
    clear_caches()


@pytest.mark.parametrize("s", [0.1, "12", Decimal(12), 12.0])
def test_induced_slope_refuses_a_scalar_that_is_not_rational(s):
    # with the text of slope_target, after the k < 3 refusal
    text = f"cannot interpret {type(s).__name__} as a rational scalar"
    for variant in (TRACE, REDUCED):
        for refused in (induced_slope, slope_target):
            with pytest.raises(TypeError) as exc:
                refused(3, s, variant)
            assert str(exc.value) == text
            with pytest.raises(ValueError, match=r"stated for k >= 3, got k=2$"):
                refused(2, s, variant)


def test_a_kappa_slope_without_a_table_builds_no_witness(monkeypatch, capsys):
    # slope prints no witness, so no delta_j coefficient is built
    from hurwitzdiv import bases
    from hurwitzdiv.cli import main
    from hurwitzdiv.core import clear_caches

    real = bases.DivisorClass.coefficient
    calls = []

    def counted(self, name):
        calls.append(name)
        return real(self, name)

    monkeypatch.setattr(bases.DivisorClass, "coefficient", counted)
    clear_caches()
    assert main(["slope", "--k", "40", "--variant", "kappa"]) == 0
    assert capsys.readouterr().out == "255/41 ≈ 6.219512 validity=unknown\n"
    assert calls == []
    # the witnesses are still there when read
    report = slope_of(p_q_kappa(40))
    assert [j for j, _ in report.witnesses] == list(range(1, 41))
    assert len(calls) == 40
    clear_caches()


def test_induced_slope_reduced_spot_value():
    # (163*12 - 612)/(19*12 - 66)
    assert induced_slope(3, Fraction(12), REDUCED) == Fraction(224, 27)


@pytest.mark.parametrize("variant", [TRACE, REDUCED])
def test_slope_target_is_the_chained_sum(variant):
    # the one-pass target equals s * hodge - delta'_0 - ... - delta'_k
    # built with the binary operators, and its slope is the induced one
    from hurwitzdiv import pushforward
    from hurwitzdiv.checks import _SLOPE_GRID

    if variant == TRACE:
        hodge_of, boundary_of = pushforward.p_phi_lambda, pushforward.p_phi_delta
    else:
        hodge_of, boundary_of = pushforward.p_phihat_lambda, pushforward.p_phihat_delta
    # below k = 3 the target is refused with the text of induced_slope
    for k in (1, 2):
        for refused in (slope_target, induced_slope):
            with pytest.raises(ValueError, match=rf"stated for k >= 3, got k={k}$"):
                refused(k, _SLOPE_GRID[0], variant)
    for k in range(3, 16):
        chained = boundary_of(k, 0)
        for j in range(1, k + 1):
            chained = chained + boundary_of(k, j)
        for s in _SLOPE_GRID:
            assert slope_target(k, s, variant) == hodge_of(k) * s - chained
            assert slope_of(slope_target(k, s, variant)).slope == induced_slope(
                k, s, variant
            )


@pytest.mark.parametrize("variant", ["trace", "reduced"])
@pytest.mark.parametrize("k", [3, 10])
def test_a_cold_induced_slope_op_applies_p_push_three_times(monkeypatch, capsys, variant, k):
    # the pushed Hodge class and delta'_0, which the Moebius pair reads
    # too, and one push of the Hurwitz-side sum of the delta'_j, j >= 1;
    # the reduced Hodge class also applies q^* once, to psi
    from hurwitzdiv import bases
    from hurwitzdiv.cli import main
    from hurwitzdiv.core import clear_caches

    real = bases.ClassMap.apply
    calls = []

    def counted(self, d):
        calls.append(d)
        return real(self, d)

    monkeypatch.setattr(bases.ClassMap, "apply", counted)
    clear_caches()
    assert main(["slope", "--k", str(k), "--s-prime", "12", "--variant", variant]) == 0
    assert capsys.readouterr().out.endswith("validity=unknown\n")
    pushes = [d for d in calls if d.basis.kind == bases.HURWITZ]
    assert len(pushes) == 3
    assert len(calls) == (3 if variant == "trace" else 4)
    clear_caches()


def test_unknown_slope_variant_is_a_value_error():
    with pytest.raises(ValueError, match="unknown slope variant"):
        induced_slope(3, Fraction(12), "kappa")
    with pytest.raises(ValueError, match="unknown slope variant"):
        slope_target(3, Fraction(12), "kappa")


def test_kappa_slope_bound_values():
    assert kappa_slope_bound(1) == Fraction(21, 2)
    assert kappa_slope_bound(3) == Fraction(33, 4)
    assert kappa_slope_bound(3) == 6 + Fraction(18, 8)


def test_kappa_slope_identity_range():
    for k in range(1, 51):
        value = kappa_slope_bound(k)
        assert value == Fraction(3 * (2 * k + 5), k + 1)
        assert value - 6 - Fraction(18, 2 * k + 2) == 0


def test_kappa_proviso_with_externals():
    # c_1 = -20, b_1 = 0 makes the delta_1 coefficient large and
    # negative, so the proviso holds
    good = ExternalCoeffs(1, {1: Fraction(-20)}, {1: Fraction(0)})
    assert kappa_proviso(1, good.apply(p_q_kappa(1))) is None
    bad = ExternalCoeffs(1, {1: Fraction(0)}, {1: Fraction(0)})
    with pytest.raises(VerificationError, match=r"b_0 = 6/1 exceeds b_1 = -8/5$"):
        kappa_proviso(1, bad.apply(p_q_kappa(1)))
    # a table for a smaller k is refused by the substitution, and a class
    # that still carries the symbols is refused, not reported as a
    # proviso that fails
    with pytest.raises(ValueError, match="^external table is for k=1, not k=2$"):
        bad.apply(p_q_kappa(2))
    with pytest.raises(ValueError, match="not constant"):
        kappa_proviso(2, p_q_kappa(2))


def test_bound_inequalities():
    for k in range(3, 31):
        assert k * (209 * k * k - 243 * k + 31) < 10 * (
            21 * k**3 + 6 * k * k - 35 * k + 7
        )
        excess = induced_slope(k, Fraction(11), TRACE) - 6
        assert excess < Fraction(10, k)
        assert excess == Fraction(209 * k * k - 243 * k + 31, 21 * k**3 + 6 * k * k - 35 * k + 7)
        reduced_excess = induced_slope(k, Fraction(11), REDUCED) - 6
        assert reduced_excess < Fraction(10, k)
