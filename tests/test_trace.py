from fractions import Fraction
from math import comb

import pytest

from hurwitzdiv.bases import (
    DivisorClass,
    E0,
    E2,
    E3,
    Ejc,
    IndexRangeError,
    T2,
    T3j,
    ejc_offsets,
    hurwitz_basis,
    linear_combination,
    m0b_sym_basis,
)
from hurwitzdiv import trace as trace_mod
from hurwitzdiv.m0b import psi_restricted
from hurwitzdiv.trace import (
    alpha_table,
    catalan_number,
    delta_s,
    delta_tau,
    e_coeff,
    e_numerator,
    genus_data,
    grr_pieces,
    omega_tau_sq,
    phi_pull_boundary,
    phi_pull_boundary_sum,
    phi_pull_lambda,
    phihat_pull_boundary,
    phihat_pull_boundary_sum,
    phihat_pull_lambda,
    q_pullback,
    s_omega_sq,
    twelve_lambda_reduced_closed,
    twelve_lambda_trace_closed,
)


def hclass(k, coeffs):
    return DivisorClass(hurwitz_basis(k), coeffs)


def test_genus_data_values():
    gd1 = genus_data(1)
    assert (gd1.g, gd1.d, gd1.b) == (2, 2, 6)
    assert (gd1.g_prime, gd1.g_hat, gd1.prym_dim) == (2, 0, 2)
    gd2 = genus_data(2)
    assert (gd2.g_prime, gd2.g_hat) == (13, 4)
    assert gd2.prym_dim == 9
    assert genus_data(3).g_hat == 13
    with pytest.raises(IndexRangeError):
        genus_data(0)


def test_genus_identities_across_range():
    for k in range(1, 51):
        gd = genus_data(k)
        assert gd.g_prime == (gd.g - 1) * (2 * gd.d - 3) + (gd.d - 1) ** 2
        assert gd.g_prime == 5 * k * k - 4 * k + 1
        assert gd.prym_dim == gd.g_prime - gd.g_hat


def test_catalan_number_values():
    assert catalan_number(1) == 1
    assert catalan_number(2) == 2
    assert catalan_number(3) == 5
    assert catalan_number(10) == 16796


def test_catalan_number_segner_recurrence():
    # C(n + 1) = sum of C(i) C(n - i) over i = 0..n, with C(0) = 1: a
    # definition with no binomial in it
    cat = [1]
    for n in range(40):
        cat.append(sum(cat[i] * cat[n - i] for i in range(n + 1)))
        assert catalan_number(n + 1) == cat[n + 1]


def test_e_coeff_values():
    assert e_coeff(2, 2, 1) == 1
    assert e_coeff(3, 2, 0) == 3
    assert e_coeff(3, 2, 1) == 2
    for k in range(1, 51):
        assert e_coeff(k, 1, 0) == catalan_number(k)


def test_e_coeff_range_errors():
    with pytest.raises(IndexRangeError):
        e_coeff(2, 3, 0)
    with pytest.raises(IndexRangeError):
        e_coeff(2, 2, 2)
    with pytest.raises(IndexRangeError):
        e_coeff(2, 0, 0)


def test_alpha_values():
    assert alpha_table(1)[1] == 2
    assert alpha_table(2)[1] == 4
    assert alpha_table(2)[2] == 3 * e_coeff(2, 2, 0) + e_coeff(2, 2, 1)


def test_delta_tau_small_k_cases():
    assert delta_tau(1) == hclass(1, {E0: 2, Ejc(1, 0): 1})
    assert delta_tau(2) == hclass(
        2, {E0: 6, E3: 2, Ejc(1, 0): 3, Ejc(2, 0): 2, Ejc(2, 1): 6}
    )


def test_delta_tau_k3_coefficients():
    d = delta_tau(3)
    assert d.coefficient(E3).constant_value() == 4
    assert d.coefficient(E0).constant_value() == 12
    assert d.coefficient(E2).constant_value() == 6


def test_d_coeff_values():
    assert trace_mod._d_int(1, 1, 0) == 1
    assert trace_mod._d_int(2, 1, 0) == 3
    assert trace_mod._d_int(2, 2, 1) == 6


def test_omega_tau_sq_k1():
    w = omega_tau_sq(1)
    assert w.coefficient(E0).constant_value() == Fraction(2, 5)
    assert w.coefficient(Ejc(1, 0)).constant_value() == Fraction(7, 5)
    # a_{1,0} = 7/5, as its numerator over 2(6k - 1) = 10
    assert trace_mod._a_numerator(1, 1, 0) == 14


def test_grr_pieces_k1():
    pieces = grr_pieces(1)
    assert pieces.ram_sq.is_zero()  # the k-1 factor vanishes
    # the universal-cover piece doubles as the genus-2 check:
    # five times it equals 2 E0 + 7 E_{1,0}
    assert pieces.omega_sq == hclass(
        1, {E0: Fraction(2, 5), Ejc(1, 0): Fraction(7, 5)}
    )


def test_grr_cross_piece_is_pulled_psi():
    for k in (2, 5):
        expected = q_pullback(k).apply(psi_restricted(k)) * (k - 1)
        assert grr_pieces(k).cross == expected


def test_grr_assembly_matches_closed_form():
    for k in range(1, 21):
        assert grr_pieces(k).assembled() == omega_tau_sq(k)


def test_phi_pull_lambda_k1():
    fifth = Fraction(1, 5)
    assert phi_pull_lambda(1) == hclass(1, {E0: fifth, Ejc(1, 0): fifth})


def test_phi_pull_lambda_k3_leading_coefficient():
    twelve = 12 * phi_pull_lambda(3)
    assert twelve.coefficient(E0).constant_value() == Fraction(240, 17)


def test_hodge_closed_forms():
    for k in range(1, 31):
        assert 12 * phi_pull_lambda(k) == twelve_lambda_trace_closed(k)
        assert 12 * phihat_pull_lambda(k) == twelve_lambda_reduced_closed(k)


def test_hodge_assembly_identities():
    # phihat_pull_lambda is one combination of the terms of s_omega_sq and
    # delta_s, never of the built s_omega_sq
    for k in range(1, 41):
        assert 12 * phi_pull_lambda(k) - delta_tau(k) == omega_tau_sq(k)
        assert 12 * phihat_pull_lambda(k) - delta_s(k) == s_omega_sq(k)


def test_delta_s_small_k_cases():
    assert delta_s(1) == hclass(1, {E0: 1, Ejc(1, 0): 1})
    assert delta_s(2) == hclass(
        2, {E0: 3, E3: 1, Ejc(1, 0): 3, Ejc(2, 0): 1, Ejc(2, 1): 3}
    )


def test_s_coeff_values():
    assert trace_mod._s_int(2, 1, 0) == 3
    assert trace_mod._s_int(2, 2, 0) == 1
    assert trace_mod._s_int(2, 2, 1) == 3
    # at k = 1 the reduced trace curve is the base line and its family
    # gets a single node, so the coefficient is 1, not the 2 of the
    # general expression
    assert trace_mod._s_int(1, 1, 0) == 1
    general = (
        (1 - 1 + 0) * 1
        + 0
        + (1 + 1) // 2
        + 1
    )
    assert general == 2


def test_s_omega_sq_k1():
    w = s_omega_sq(1)
    assert w.coefficient(E0).constant_value() == -1
    assert w.coefficient(Ejc(1, 0)).constant_value() == -2


def test_s_omega_sq_rearrangement():
    for k in (1, 2, 5):
        lhs = 2 * s_omega_sq(k) + q_pullback(k).apply(psi_restricted(k)) * Fraction(3, 2)
        assert lhs == omega_tau_sq(k)


def test_u_coeff_values():
    # u_{j,c} over 2(6k - 1) = 22: 48/11, 74/11 and 54/11
    assert trace_mod.u_numerator(2, 1, 0) == 96
    assert trace_mod.u_numerator(2, 2, 0) == 148
    assert trace_mod.u_numerator(2, 2, 1) == 108


def test_phihat_pull_lambda_k2_value():
    assert 12 * phihat_pull_lambda(2) == hclass(
        2,
        {
            E0: Fraction(30, 11),
            E3: Fraction(2, 11),
            Ejc(1, 0): Fraction(48, 11),
            Ejc(2, 0): Fraction(74, 11),
            Ejc(2, 1): Fraction(54, 11),
        },
    )


def test_phihat_pull_lambda_k1_vanishes():
    # the reduced trace curve at k = 1 is rational, so the pulled Hodge
    # class collapses to the residual node contribution
    assert 12 * phihat_pull_lambda(1) == hclass(1, {Ejc(1, 0): -1})


def test_q_pullback_rows():
    q1 = q_pullback(1)
    assert q1.row(T2) == hclass(1, {E0: 1})
    assert q1.row(T3j(1)) == hclass(1, {Ejc(1, 0): 2})
    q3 = q_pullback(3)
    assert q3.row(T2) == hclass(3, {E0: 1, E2: 2, E3: 3})
    assert q3.row(T3j(3)) == hclass(3, {Ejc(3, 0): 4, Ejc(3, 1): 2})
    assert q3.row(T3j(2)) == hclass(3, {Ejc(2, 0): 3, Ejc(2, 1): 1})


def test_phi_pull_boundary_examples():
    assert phi_pull_boundary(3, 1) == hclass(3, {Ejc(1, 0): 5})
    big = phi_pull_boundary(3, 0)
    assert big.coefficient(Ejc(2, 1)).constant_value() == 10
    assert big.coefficient(E0).constant_value() == 10
    assert big.coefficient(Ejc(1, 0)).constant_value() == 0
    assert phi_pull_boundary(3, 7).is_zero()
    assert phi_pull_boundary(3, 3).is_zero()  # 2k - 2j vanishes at j = k
    assert phi_pull_boundary(4, 2) == hclass(4, {Ejc(2, 0): 4})


def test_phi_pull_boundary_full_k3():
    assert phi_pull_boundary(3, 0) == hclass(
        3,
        {
            E0: 10,
            E2: 4,
            E3: 2,
            Ejc(2, 0): 2,
            Ejc(2, 1): 10,
            Ejc(3, 0): 3,
            Ejc(3, 1): 7,
        },
    )


def test_phi_pull_boundary_range_error():
    with pytest.raises(IndexRangeError):
        phi_pull_boundary(3, 18)  # trace genus 34, bound 17
    with pytest.raises(IndexRangeError):
        phi_pull_boundary(3, -1)


def test_phihat_pull_boundary_examples():
    assert phihat_pull_boundary(3, 2) == hclass(3, {Ejc(2, 0): 2})
    top = phihat_pull_boundary(3, 0)
    assert top.coefficient(Ejc(2, 1)).constant_value() == 4
    assert phihat_pull_boundary(3, 5).is_zero()
    assert phihat_pull_boundary(3, 3).is_zero()  # k - j vanishes at j = k
    assert phihat_pull_boundary(3, 1) == hclass(3, {Ejc(1, 0): 2})


def test_phihat_pull_boundary_full_k3():
    assert phihat_pull_boundary(3, 0) == hclass(
        3,
        {
            E0: 4,
            E2: 2,
            Ejc(2, 1): 4,
            Ejc(3, 0): 3,
            Ejc(3, 1): 5,
        },
    )


def test_phihat_pull_boundary_range_error():
    with pytest.raises(IndexRangeError):
        phihat_pull_boundary(3, 7)  # reduced genus 13, bound 6
    with pytest.raises(IndexRangeError):
        phihat_pull_boundary(1, 1)  # reduced genus 0, bound 0


def test_phihat_pull_boundary_k1_is_zero():
    assert phihat_pull_boundary(1, 0).is_zero()


def test_small_k_drop_matches_general_formula():
    # the general node-class formulas specialize to the pinned small-k
    # cases once absent generators are dropped; for the reduced family
    # this holds at k = 2 (at k = 1 the single-node value overrides, see
    # test_s_coeff_values)
    d2 = delta_tau(2)
    assert d2.coefficient(E3).constant_value() == 3 * 4 - 13 * 2 + 16
    s2 = delta_s(2)
    assert s2.coefficient(E3).constant_value() == Fraction(3 * 4 - 13 * 2 + 16, 2)


def _e_entry(k, j, c):
    # e_{j,c} is e_numerator over (j+1)(2k-j+1), which divides it
    e, rest = divmod(e_numerator(k, j, c), (j + 1) * (2 * k - j + 1))
    assert rest == 0, (k, j, c)
    return e


def _binom(n, m):
    return comb(n, m) if 0 <= m <= n else 0


def _ballot(n, r):
    return _binom(n, r) - _binom(n, r - 1)


def test_e_numerator_is_its_denominator_times_two_ballot_numbers():
    # so e_{j,c} is an integer, the product of the two ballot numbers
    for k in range(1, 41):
        for j in range(1, k + 1):
            for c in range(j // 2 + 1):
                first = _ballot(j, c)
                second = _binom(2 * k - j, k - c) - _binom(2 * k - j, k + 1 - c)
                full = (j + 1) * (2 * k - j + 1)
                assert e_numerator(k, j, c) == full * first * second


def test_e_family_matches_its_definitions_up_to_k_100():
    # the table that p_* reads holds e_{j,c} itself, the ballot product
    # B(j, c) B(2k-j, k-j+c); the kernel builds both factors by Pascal's
    # rule, whose windows differ with the parity of j, and the benchmark
    # emits classes at k = 86..90
    for k in range(1, 101):
        flat, offsets = trace_mod.jc_family(k, "e"), ejc_offsets(k)
        assert len(flat) == offsets[-1], k
        for j in range(1, k + 1):
            row = list(flat[offsets[j] : offsets[j + 1]])
            cs = range(j // 2 + 1)
            assert row == [_ballot(j, c) * _ballot(2 * k - j, k - j + c) for c in cs], (k, j)
            assert row == [_e_entry(k, j, c) for c in cs], (k, j)


def test_e_family_calls_no_comb_and_divides_nothing(monkeypatch):
    import ast
    import inspect

    expected = [_e_entry(60, j, c) for j in range(1, 61) for c in range(j // 2 + 1)]

    def refused(*args):
        raise AssertionError(f"comb{args} called")

    monkeypatch.setattr(trace_mod, "comb", refused)
    trace_mod.jc_family.cache_clear()
    assert list(trace_mod.jc_family(60, "e")) == expected
    # no / or // in the kernel (n % 2 reads the parity of a row number)
    for fn in (trace_mod._e_family, trace_mod._ballot_step):
        tree = ast.parse(inspect.getsource(fn))
        divisions = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Div, ast.FloorDiv))
        ]
        assert divisions == [], fn.__name__


# The E_(j,c) families: each is built once per k as a flat tuple and
# read by every builder, so each entry must equal its per-coefficient
# function.

_JC_ENTRIES = {
    "e": _e_entry,
    "d": trace_mod._d_int,
    "a": trace_mod._a_numerator,
    "s": trace_mod._s_int,
    "t": trace_mod.t_numerator,
    "u": trace_mod.u_numerator,
}


def test_jc_family_matches_the_per_coefficient_functions():
    assert set(trace_mod.JC_FAMILIES) == set(_JC_ENTRIES)
    for k in range(1, 41):
        offsets = ejc_offsets(k)
        flats = {family: trace_mod.jc_family(k, family) for family in trace_mod.JC_FAMILIES}
        for family, flat in flats.items():
            assert type(flat) is tuple and len(flat) == offsets[-1], (k, family)
        for j in range(1, k + 1):
            rows = {
                family: list(flat[offsets[j] : offsets[j + 1]]) for family, flat in flats.items()
            }
            for family, entry in _JC_ENTRIES.items():
                expected = [entry(k, j, c) for c in range(j // 2 + 1)]
                assert rows[family] == expected, (k, j, family)


def test_node_count_families_match_their_definitions_up_to_k_100():
    # the d and s families are cubic rows carried on from three values of
    # _d_int/_s_int; the benchmark emits classes at k = 86..90
    for k in range(1, 101):
        for family, entry in (("d", trace_mod._d_int), ("s", trace_mod._s_int)):
            expected = [entry(k, j, c) for j in range(1, k + 1) for c in range(j // 2 + 1)]
            assert list(trace_mod.jc_family(k, family)) == expected, (k, family)


def test_node_count_families_at_small_k():
    # k = 1 is the one exception of _s_int (1, not the general 2), and
    # every row of k <= 3 is shorter than three entries
    assert trace_mod.jc_family(1, "d") == (1,)
    assert trace_mod.jc_family(1, "s") == (1,)
    assert trace_mod.jc_family(2, "d") == (3, 2, 6)
    assert trace_mod.jc_family(2, "s") == (3, 1, 3)
    assert trace_mod.jc_family(3, "d") == (7, 4, 11, 3, 7)
    assert trace_mod.jc_family(3, "s") == (6, 2, 6, 3, 5)


@pytest.mark.parametrize("entry", [trace_mod._d_int, trace_mod._s_int])
def test_cubic_rows_read_the_definition_where_they_must(entry):
    # the rows j = 1, 2, 3 (floor(j/2) < 2) are read entry by entry; a
    # longer row only at c = 0, 1, 2
    k = 9
    read = []

    def recorded(k, j, c):
        read.append((j, c))
        return entry(k, j, c)

    flat = trace_mod._cubic_rows(k, recorded)
    short = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)]
    assert read == short + [(j, c) for j in range(4, k + 1) for c in range(3)]
    assert flat == [entry(k, j, c) for j in range(1, k + 1) for c in range(j // 2 + 1)]


def test_jc_family_refuses_unknown_input():
    with pytest.raises(ValueError, match="unknown"):
        trace_mod.jc_family(3, "x")
    with pytest.raises(IndexRangeError):
        trace_mod.jc_family(0, "d")


def test_pulled_psi_is_shared_by_its_two_consumers():
    k = 4
    pulled = trace_mod.pulled_psi(k)
    assert pulled == q_pullback(k).apply(psi_restricted(k))
    assert grr_pieces(k).cross == pulled * (k - 1)
    assert s_omega_sq(k) == Fraction(1, 2) * omega_tau_sq(k) - Fraction(3, 4) * pulled


@pytest.mark.parametrize("k", range(1, 16))
def test_boundary_sums_are_the_sums_of_the_pullbacks(k):
    # the one-class sums over j = 1..k that slope_target pushes, against
    # the sums of the per-j pullbacks
    basis = hurwitz_basis(k)
    phi = linear_combination(basis, [(1, phi_pull_boundary(k, j)) for j in range(1, k + 1)])
    assert phi_pull_boundary_sum(k) == phi
    if k == 1:
        # the reduced trace curve has genus 0: delta-hat_1 does not exist
        with pytest.raises(IndexRangeError, match=r"boundary index 1 out of range 0\.\.0"):
            phihat_pull_boundary_sum(k)
        with pytest.raises(IndexRangeError, match=r"boundary index 1 out of range 0\.\.0"):
            phihat_pull_boundary(k, 1)
        return
    hat = linear_combination(
        basis, [(1, phihat_pull_boundary(k, j)) for j in range(1, k + 1)]
    )
    assert phihat_pull_boundary_sum(k) == hat
