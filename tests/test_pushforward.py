import re
from fractions import Fraction
from math import comb

import pytest

from hurwitzdiv.bases import (
    B_WEIGHT,
    C_WEIGHT,
    DivisorClass,
    E0,
    E2,
    E3,
    Ejc,
    LAMBDA,
    T2,
    T3j,
    delta,
    delta_names,
    genus_reduced_trace,
    genus_trace,
    hurwitz_basis,
    linear_combination,
    mg_basis,
)
from hurwitzdiv import bases as bases_mod
from hurwitzdiv import pushforward as pushforward_mod
from hurwitzdiv import trace as trace_mod
from hurwitzdiv.core import AffineExpr, ExtSymbol, b_sym, c_sym, clear_caches
from hurwitzdiv.pushforward import (
    ExternalCoeffs,
    eh_closed_coeffs,
    eh_divisor,
    factorial_b,
    mg_canonical_class,
    p_phi_delta,
    p_phi_delta0_closed_coeffs,
    p_phi_lambda,
    p_phi_lambda_closed_coeffs,
    p_phi_lambda_expected,
    p_phihat_delta,
    p_phihat_delta0_closed_coeffs,
    p_phihat_lambda,
    p_phihat_lambda_closed_coeffs,
    p_phihat_lambda_expected,
    p_push,
    p_q_kappa,
    p_q_kappa_closed_coeffs,
    p_q_map,
    prym_boundary_class,
    prym_hodge_class,
)
from hurwitzdiv.trace import (
    alpha_table,
    catalan_number,
    delta_s,
    delta_tau,
    e_coeff,
    jc_family,
    omega_tau_sq,
    phi_pull_boundary,
    phi_pull_lambda,
    phihat_pull_boundary,
    phihat_pull_lambda,
    pulled_psi,
    q_pullback,
)
from test_bases import assert_apply_is_substitute, assert_canonical, images, record_substituted


def mclass(k, coeffs):
    return DivisorClass(mg_basis(k), coeffs)


def lam_d0(d):
    return (
        d.coefficient(LAMBDA).constant_value(),
        d.coefficient(delta(0)).constant_value(),
    )


def test_p_push_rows_k1():
    push = p_push(1)
    assert push.row(E0) == mclass(1, {delta(0): Fraction(1, 2)})
    assert push.row(Ejc(1, 0)) == mclass(1, {delta(1): 1})


def test_p_push_ejc_row_k3():
    assert e_coeff(3, 2, 1) == 2
    assert p_push(3).row(Ejc(2, 1)) == mclass(3, {delta(2): 2})


def test_p_push_symbol_rows_structure():
    push = p_push(3)
    e2_row = push.row(E2)
    assert e2_row.coefficient(delta(1)) == AffineExpr(0, {c_sym(1): Fraction(1, 2)})
    e3_row = push.row(E3)
    # weight 3N/(2(2k-1)) = 3/2 at k = 3 (N = 5)
    assert e3_row.coefficient(delta(2)) == AffineExpr(0, {b_sym(2): Fraction(-3, 2)})
    assert e3_row.coefficient(LAMBDA).constant_value() == Fraction(3 * 5, 2 * 5) * 238


def pencil_count(k):
    """N(k) = C(2k, k)/(k + 1) as a Fraction, independent of
    :func:`catalan_number`."""
    return Fraction(comb(2 * k, k), k + 1)


def p_push_by_rows(k):
    """:func:`p_push` row by row, one Fraction per coefficient: e_{j,c}
    on delta_j, and the E2/E3 weights on lambda, delta_0 and the c_j/b_j
    of every delta_j."""
    n = pencil_count(k)
    rows = {E0: mclass(k, {delta(0): n / 2})}
    if k >= 3:
        lead = Fraction(k - 2, 2 * k - 1) * n
        coeffs = {
            delta(j): AffineExpr(0, {c_sym(j): Fraction(1, 2)}) for j in range(1, k + 1)
        }
        coeffs[LAMBDA] = lead * (18 * k * k + 51 * k - 9)
        coeffs[delta(0)] = -lead * (3 * k * k + 4 * k - 1)
        rows[E2] = mclass(k, coeffs)
    if k >= 2:
        lead = Fraction(3, 2 * (2 * k - 1)) * n
        coeffs = {delta(j): AffineExpr(0, {b_sym(j): -lead}) for j in range(1, k + 1)}
        coeffs[LAMBDA] = lead * (12 * k * k + 46 * k - 8)
        coeffs[delta(0)] = -lead * (2 * k * k + 4 * k - 1)
        rows[E3] = mclass(k, coeffs)
    for j in range(1, k + 1):
        for c in range(j // 2 + 1):
            rows[Ejc(j, c)] = mclass(k, {delta(j): e_coeff(k, j, c)})
    return rows


def p_q_map_by_rows(k):
    """:func:`p_q_map` row by row, one Fraction per coefficient: the T2
    weights and alpha_j on T3j."""
    n = pencil_count(k)
    lead = Fraction(k * (6 * k - 1), 2 * k - 1) * n
    b3_weight = Fraction(9, 4 * k - 2) * n
    coeffs = {
        delta(j): AffineExpr(0, {c_sym(j): 1, b_sym(j): -b3_weight})
        for j in range(1, k + 1)
    }
    coeffs[LAMBDA] = 3 * (2 * k + 5) * lead
    coeffs[delta(0)] = -(k + 1) * lead
    rows = {T2: mclass(k, coeffs)}
    for j in range(1, k + 1):
        rows[T3j(j)] = mclass(k, {delta(j): alpha_table(k)[j]})
    return rows


def q_pullback_by_rows(k):
    """:func:`q_pullback` row by row: E0 + 2 E2 + 3 E3 on T2 and
    (j + 1 - 2c) E_{j,c} on T3j."""
    hur = hurwitz_basis(k)
    t2 = {E0: 1}
    if k >= 3:
        t2[E2] = 2
    if k >= 2:
        t2[E3] = 3
    rows = {T2: DivisorClass(hur, t2)}
    for j in range(1, k + 1):
        rows[T3j(j)] = DivisorClass(
            hur, {Ejc(j, c): j + 1 - 2 * c for c in range(j // 2 + 1)}
        )
    return rows


@pytest.mark.parametrize("k", range(1, 31))
def test_column_maps_equal_their_row_definitions(k):
    # p_push and p_q_map write their columns as integers over 2(2k - 1)
    for built, expected in (
        (p_push(k), p_push_by_rows(k)),
        (p_q_map(k), p_q_map_by_rows(k)),
        (q_pullback(k), q_pullback_by_rows(k)),
    ):
        assert images(built) == expected
        for name in built.source.generators():
            row = built.row(name)
            assert_canonical(row)
            assert row == expected.get(name, DivisorClass(built.target))


@pytest.mark.parametrize("k", range(1, 9))
def test_numerators_are_the_rows_as_integers(k):
    for built in (p_push(k), p_q_map(k)):
        for name in built.source.generators():
            nums, den = built.numerators(name)
            # the weight keys hold the coefficient of c_j or b_j, one value
            # for every delta_j
            values = {key: Fraction(n, den) for key, n in nums.items()}
            expected = {}
            for target, value in built.row(name).items():
                if value.const:
                    expected[target] = value.const
                for sym, t in value.terms.items():
                    assert expected.setdefault(sym.family, t) == t
            assert values == expected
    with pytest.raises(ValueError, match="E_"):
        q_pullback(k).numerators(T2)


@pytest.mark.parametrize("k", range(1, 13))
def test_p_push_blocks_are_delta_j_and_the_e_row(k):
    # p_* sends E_{j,c} to e_{j,c} delta_j only, read from the e family:
    # each E_{j,c} image is the family's entry times the denominator
    # 2(2k - 1), over that denominator
    push = p_push(k)
    family = iter(jc_family(k, "e"))
    for j in range(1, k + 1):
        for c in range(j // 2 + 1):
            nums, den = push.numerators(Ejc(j, c))
            assert den == 2 * (2 * k - 1)
            assert nums == {delta(j): next(family) * den}
            assert Fraction(nums[delta(j)], den) == e_coeff(k, j, c) > 0
    assert next(family, None) is None


def eh_divisor_fraction_assembly(k):
    """:func:`eh_divisor` per factorial b, assembled in Fraction
    arithmetic coefficient by coefficient from the weights written out:
    -2/(b - 1) q^*T2 with q^*T2 = E0 + 2 E2 + 3 E3, plus -E0 + E3, plus
    (w_j (j + 1 - 2c) - 1) E_{j,c} with w_j = 3j(b - 3j)/(b - 1) - 1,
    pushed, minus N K_{M_g} with K_{M_g} = 13 lambda - 2 delta_0
    - 3 delta_1 - 2 (delta_2 + ... + delta_k)."""
    b = 6 * k
    t2 = Fraction(-2, b - 1)
    coeffs = {E0: t2 - 1}
    if k >= 3:
        coeffs[E2] = 2 * t2
    if k >= 2:
        coeffs[E3] = 3 * t2 + 1
    for j in range(1, k + 1):
        weight = Fraction(3 * j * (b - 3 * j), b - 1) - 1
        for c in range(j // 2 + 1):
            coeffs[Ejc(j, c)] = weight * (j + 1 - 2 * c) - 1
    pushed = p_push(k).apply(DivisorClass(hurwitz_basis(k), coeffs))
    canonical = {LAMBDA: 13, delta(0): -2, delta(1): -3}
    canonical.update((delta(j), -2) for j in range(2, k + 1))
    return pushed - mclass(k, canonical) * catalan_number(k)


# k = 1..40 pins the delta_j part between the golden outputs (k <= 8) and
# the k = 86..90 of perfbench's emit-large-k workload
@pytest.mark.parametrize("k", range(1, 41))
def test_eh_divisor_equals_fraction_assembly(k):
    assert eh_divisor(k) == eh_divisor_fraction_assembly(k)


def test_pushed_t3j_matches_alpha_display():
    for k in range(1, 31):
        push = p_push(k)
        q = q_pullback(k)
        for j in range(1, k + 1):
            assert push.apply(q.row(T3j(j))) == mclass(
                k, {delta(j): alpha_table(k)[j]}
            )


def test_p_phi_lambda_k3_closed_form():
    assert lam_d0(p_phi_lambda(3)) == (569, -67)
    assert p_phi_lambda_closed_coeffs(3) == (569, -67)


def test_p_phi_lambda_k1_assembly_value():
    # no E2/E3 at k = 1, so the pushed class has no lambda part and the
    # k >= 3 closed form does not apply
    assert p_phi_lambda(1) == mclass(
        1, {delta(0): Fraction(1, 10), delta(1): Fraction(1, 5)}
    )
    lam, d0 = p_phi_lambda_closed_coeffs(1)
    assert lam == -9 and d0 == 1


def test_p_phi_lambda_closed_form_range():
    for k in range(3, 21):
        assert lam_d0(p_phi_lambda(k)) == p_phi_lambda_closed_coeffs(k)


def test_p_phihat_lambda_k3_closed_form():
    assert lam_d0(p_phihat_lambda(3)) == (163, -19)
    assert p_phihat_lambda_closed_coeffs(3) == (163, -19)


def test_p_phihat_lambda_k2_assembly_value():
    expected = mclass(
        2,
        {
            LAMBDA: 2,
            delta(1): AffineExpr(Fraction(8, 11), {b_sym(1): Fraction(-1, 66)}),
            delta(2): AffineExpr(Fraction(32, 33), {b_sym(2): Fraction(-1, 66)}),
        },
    )
    assert p_phihat_lambda(2) == expected
    # the stated closed form happens to extend to k = 2 because the
    # missing E2 row carries a k-2 factor
    assert lam_d0(p_phihat_lambda(2)) == p_phihat_lambda_closed_coeffs(2)


def test_delta_j_coefficients_match_row_structure():
    # from k = 3 the whole class is predicted; below, only the lambda and
    # delta_0 closed forms may miss, as E2 (and at k = 1 E3) is missing
    for k in range(1, 9):
        for pushed, expected in (
            (p_phi_lambda(k), p_phi_lambda_expected(k)),
            (p_phihat_lambda(k), p_phihat_lambda_expected(k)),
        ):
            if k >= 3:
                assert pushed == expected
            else:
                assert set((pushed - expected).support()) <= {LAMBDA, delta(0)}


def test_pushed_boundary_closed_forms_k3():
    assert lam_d0(p_phi_delta(3, 0)) == (1938, -214)
    assert p_phi_delta0_closed_coeffs(3) == (1938, -214)
    assert lam_d0(p_phihat_delta(3, 0)) == (612, -66)
    assert p_phihat_delta0_closed_coeffs(3) == (612, -66)
    raw = p_phi_delta(3, 0) * factorial_b(3)
    raw_lam = raw.coefficient(LAMBDA).constant_value()
    assert raw_lam == 1938 * factorial_b(3)


def test_pushed_boundary_closed_forms_range():
    for k in range(2, 13):
        assert lam_d0(p_phi_delta(k, 0)) == p_phi_delta0_closed_coeffs(k)
        assert lam_d0(p_phihat_delta(k, 0)) == p_phihat_delta0_closed_coeffs(k)


def test_pushed_boundary_higher_indices():
    # delta'_1 pushes to (2k-1) e_{1,0} delta_1
    assert p_phi_delta(3, 1) == mclass(
        3, {delta(1): 5 * e_coeff(3, 1, 0)}
    )
    # the reduced boundary class of index k pushes to zero
    assert p_phihat_delta(3, 3).is_zero()
    assert p_phi_delta(3, 9).is_zero()


def test_p_q_map_matches_composition_for_k3_and_up():
    for k in (3, 4, 7):
        direct = p_q_map(k)
        composed = p_push(k).compose(q_pullback(k))
        assert direct.row(T2) == composed.row(T2)
        for j in range(1, k + 1):
            assert direct.row(T3j(j)) == composed.row(T3j(j))


def test_p_q_map_k2_lambda_delta0_agree():
    direct = p_q_map(2).row(T2)
    composed = p_push(2).compose(q_pullback(2)).row(T2)
    assert lam_d0(direct) == lam_d0(composed)
    # the dropped E2 generator removes the c_j terms from the composition
    assert composed.coefficient(delta(1)).coefficient(c_sym(1)) == 0
    assert direct.coefficient(delta(1)).coefficient(c_sym(1)) == 1


def test_p_q_map_k1_keeps_generic_rows():
    # composing through the k = 1 Hurwitz basis would lose the E3
    # content; the generic rows keep the closed-form lambda/delta_0 values
    direct = p_q_map(1).row(T2)
    assert lam_d0(direct) == (105, -10)
    composed = p_push(1).compose(q_pullback(1)).row(T2)
    assert lam_d0(composed) == (0, Fraction(1, 2))


def test_p_q_kappa_values():
    pushed = p_q_kappa(1)
    assert lam_d0(pushed) == (63, -6)
    assert p_q_kappa_closed_coeffs(1) == (63, -6)
    assert pushed.coefficient(delta(1)) == AffineExpr(
        Fraction(8, 5), {c_sym(1): Fraction(3, 5), b_sym(1): Fraction(-27, 10)}
    )
    for k in range(1, 21):
        assert lam_d0(p_q_kappa(k)) == p_q_kappa_closed_coeffs(k)


def test_mg_canonical_class():
    assert mg_canonical_class(3) == mclass(
        3, {LAMBDA: 13, delta(0): -2, delta(1): -3, delta(2): -2, delta(3): -2}
    )


def mg_canonical_by_name(k):
    """:func:`mg_canonical_class` as it was built before it was written
    in integers: one Fraction per coefficient, by generator name."""
    coeffs = {LAMBDA: Fraction(13), delta(0): Fraction(-2), delta(1): Fraction(-3)}
    for j in range(2, k + 1):
        coeffs[delta(j)] = Fraction(-2)
    return DivisorClass(mg_basis(k), coeffs)


@pytest.mark.parametrize("k", range(1, 41))
def test_mg_canonical_class_equals_its_definition_by_name(k):
    built, expected = mg_canonical_class(k), mg_canonical_by_name(k)
    assert_canonical(built)
    assert built == expected and hash(built) == hash(expected)


@pytest.mark.parametrize("k", (1, 2, 7, 40))
def test_delta_names_are_the_boundary_generators_of_mg(k):
    # the one per-k table of the names delta_0 .. delta_k that the
    # builders, the accessors and the substitution kernel read
    names = delta_names(k)
    assert names == tuple(delta(j) for j in range(k + 1))
    assert names == tuple(mg_basis(k).generators())[1:]
    assert delta_names(k) is names


def test_catalan_number_is_an_int():
    for k in range(1, 41):
        n = catalan_number(k)
        assert type(n) is int and n == pencil_count(k)


def test_eh_divisor_closed_form():
    assert lam_d0(eh_divisor(3)) == (94, -12)
    assert eh_closed_coeffs(3) == (94, -12)
    for k in range(3, 13):
        assert lam_d0(eh_divisor(k)) == eh_closed_coeffs(k)


def test_eh_divisor_small_k_assembly_only():
    assert eh_divisor(1) == mclass(
        1, {LAMBDA: -13, delta(0): Fraction(13, 10), delta(1): Fraction(18, 5)}
    )
    assert lam_d0(eh_divisor(2)) == (34, -4)


def test_prym_pullbacks():
    # one combination of the terms of both Hodge pullbacks
    for k in range(1, 41):
        assert prym_hodge_class(k) == phi_pull_lambda(k) - phihat_pull_lambda(k), k
    boundary = prym_boundary_class(3)
    assert boundary == phi_pull_boundary(3, 0) - phihat_pull_boundary(3, 0)
    assert boundary.coefficient(E0).constant_value() == 6
    assert prym_boundary_class(1) == DivisorClass(hurwitz_basis(1), {E0: 2})


@pytest.mark.parametrize("build", [phihat_pull_lambda, prym_hodge_class])
def test_hodge_classes_are_one_combination_of_their_inputs(monkeypatch, build):
    # once the node classes, the pushed dualizing square and the pulled
    # cotangent class are cached, each class is one linear_combination,
    # the binary operators of a class included
    k = 9
    clear_caches()
    for built in (omega_tau_sq, delta_tau, delta_s, pulled_psi):
        built(k)
    calls = []

    def counted(basis, terms):
        calls.append(basis)
        return linear_combination(basis, terms)

    for module in (bases_mod, trace_mod, pushforward_mod):
        monkeypatch.setattr(module, "linear_combination", counted)
    build(k)
    assert calls == [hurwitz_basis(k)]


def test_symbol_hygiene_lambda_delta0_constant():
    for k in (1, 2, 3, 6):
        for d in (
            p_phi_lambda(k),
            p_phihat_lambda(k),
            p_phi_delta(k, 0),
            p_phihat_delta(k, 0),
            p_q_kappa(k),
            eh_divisor(k),
        ):
            assert d.coefficient(LAMBDA).is_constant()
            assert d.coefficient(delta(0)).is_constant()


def test_normalization_round_trip():
    # the raw class is the per-factorial-b class times (6k)!, exactly
    for k in (1, 4):
        d = p_phi_lambda(k)
        raw = d * factorial_b(k)
        assert raw / factorial_b(k) == d
        assert raw.coefficient(LAMBDA).constant_value() == (
            d.coefficient(LAMBDA).constant_value() * factorial_b(k)
        )


def test_external_coeffs_validation():
    good = ExternalCoeffs(
        2,
        {1: Fraction(1), 2: Fraction(2)},
        {1: Fraction(0), 2: Fraction(-1, 3)},
    )
    assert good.c[2] == 2 and good.b[2] == Fraction(-1, 3)
    with pytest.raises(ValueError):
        ExternalCoeffs(2, {1: Fraction(1)}, {1: Fraction(0), 2: Fraction(1)})
    with pytest.raises(ValueError):
        ExternalCoeffs(1, {1: Fraction(1), 2: Fraction(1)}, {1: Fraction(0)})
    # k keys, but not the indices 1..k, which are ints and not bools; the
    # first key that is not an int is named with its type
    for c, got in (
        ({1: 1, 3: 1}, "indices [1, 3]"),
        ({1: 1, Fraction(3, 2): 1}, "index Fraction(3, 2) (Fraction)"),
        ({0: 1, 1: 1}, "indices [0, 1]"),
        ({True: 1, 2: 1}, "index True (bool)"),
        ({1: 1, "x": 1}, "index 'x' (str)"),
    ):
        text = f"'c' must cover exactly 1..2, got {got}"
        with pytest.raises(ValueError, match=re.escape(text)):
            ExternalCoeffs(2, c, {1: 0, 2: 0})
    with pytest.raises(ValueError, match=r"'c' must cover exactly 1\.\.1"):
        ExternalCoeffs(1, {True: 1}, {True: 0})


def test_inexact_values_are_refused_by_tables_and_classes(monkeypatch):
    # a float would be stored as its binary value (0.1 as
    # 3602879701896397/36028797018963968) and a str parsed on the way;
    # a table takes only int and Fraction, as the DivisorClass
    # constructor does
    for value, kind in ((0.1, "float"), ("1/3", "str")):
        text = f"external table 'b': cannot interpret {kind} as a coefficient"
        with pytest.raises(TypeError, match=f"^{re.escape(text)}$"):
            ExternalCoeffs(2, {1: 1, 2: Fraction(1, 2)}, {1: value, 2: 0})
        text = f"cannot interpret {kind} as a coefficient"
        with pytest.raises(TypeError, match=f"^{text}$"):
            mclass(2, {LAMBDA: value})
    # int, bool (an int) and Fraction stay exact
    ext = ExternalCoeffs(1, {1: True}, {1: Fraction(1, 3)})
    assert (ext.c, ext.b) == ({1: 1}, {1: Fraction(1, 3)})
    calls = record_substituted(monkeypatch)
    assert_apply_is_substitute(ext, p_q_kappa(1))
    assert calls == [((3,), (1,), 3)]
    assert all(type(n) is int for n in (*calls[0][0], *calls[0][1]))


@pytest.mark.parametrize("k", range(1, 13))
def test_symbols_occur_only_over_mg_on_every_package_path(k):
    # the constructor refuses a symbol off Mg(k), and no package map
    # starts from Mg(k); every class of the class table and every column
    # of the package maps keeps its symbols over Mg(k), so the refusal
    # cannot fire on a package path and no map meets a symbolic class
    from hurwitzdiv.bases import IndexRangeError, MG, UnknownGeneratorError
    from hurwitzdiv.cli import _CLASSES
    from hurwitzdiv.pushforward import p_q_composed

    classes = []
    for name, (builder, indexed, _) in _CLASSES.items():
        if not indexed:
            classes.append(builder(k))
            continue
        for j in range(k + 2):
            try:
                classes.append(builder(k, j))
            except (IndexRangeError, UnknownGeneratorError):
                pass  # an index that the basis lacks
    maps = (p_push(k), q_pullback(k), p_q_map(k), p_q_composed(k))
    for m in maps:
        classes.extend(images(m).values())
    symbolic = [d for d in classes if {C_WEIGHT, B_WEIGHT} & set(d._nums)]
    assert symbolic and all(d.basis.kind == MG for d in symbolic)


def test_external_coeffs_refuse_a_huge_declared_k_at_once():
    # coverage is checked without building range(1, k + 1)
    with pytest.raises(ValueError, match=r"'c' must cover exactly 1\.\.10{18}, got indices \[1\]"):
        ExternalCoeffs(10**18, {1: 1}, {1: 1})


def test_external_coeffs_views_are_fresh_and_the_integers_built_once(monkeypatch):
    ext = ExternalCoeffs(
        2, {1: Fraction(1), 2: Fraction(2)}, {1: Fraction(3), 2: Fraction(-1, 3)}
    )
    first = ext.c
    assert (first, ext.b) == ({1: 1, 2: 2}, {1: 3, 2: Fraction(-1, 3)})
    assert ext.c is not first
    # changing a handed-out dict leaves the table alone
    first[1] = Fraction(99)
    assert ext.c[1] == 1
    # the kernel gets the c and b numerators by j over the lcm 3, the
    # same integers on every apply
    calls = record_substituted(monkeypatch)
    assert_apply_is_substitute(ext, p_phi_lambda(2))
    assert_apply_is_substitute(ext, p_phi_lambda(2))
    assert calls == [((3, 6), (9, -1), 3)] * 2
    assert all(second is first for first, second in zip(*calls))


def test_an_external_coeffs_apply_builds_no_symbol(monkeypatch):
    # the kernel reads the table by j, with no symbol; a table keyed out
    # of order lands on the right j

    d = p_q_kappa(3)
    ext = ExternalCoeffs(
        3,
        {3: Fraction(5), 1: Fraction(1, 2), 2: Fraction(-2)},
        {2: Fraction(7, 3), 3: Fraction(0), 1: Fraction(4)},
    )
    real = ExtSymbol.__new__
    built = []

    def counted(cls, family, index):
        built.append((family, index))
        return real(cls, family, index)

    monkeypatch.setattr(ExtSymbol, "__new__", staticmethod(counted))
    applied = ext.apply(d)
    assert built == []
    monkeypatch.undo()
    assert applied == assert_apply_is_substitute(ext, d)


def test_external_coeffs_substitution_eliminates_symbols():
    ext = ExternalCoeffs(
        2,
        {1: Fraction(3, 2), 2: Fraction(-1)},
        {1: Fraction(5), 2: Fraction(1, 7)},
    )
    for d in (p_phihat_lambda(2), p_q_kappa(2), eh_divisor(2)):
        numeric = ext.apply(d)
        assert all(value.is_constant() for _, value in numeric.items())
    # spot value: delta_1 of the reduced Hodge push-forward
    assert ext.apply(p_phihat_lambda(2)).coefficient(delta(1)).constant_value() == (
        Fraction(8, 11) - Fraction(5, 66)
    )


def _pushed_builder_values(k):
    """Every (k[, j]) value of the push-forward builders, as the one
    positional call shape."""
    per_k = [(k,)]
    return {
        p_push: per_k,
        p_q_map: per_k,
        p_phi_lambda: per_k,
        p_phihat_lambda: per_k,
        p_q_kappa: per_k,
        eh_divisor: per_k,
        p_phi_delta: [(k, j) for j in range(genus_trace(k) // 2 + 1)],
        p_phihat_delta: [(k, j) for j in range(genus_reduced_trace(k) // 2 + 1)],
    }


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["slope", "--k", "3", "--variant", "kappa"],
        ["slope", "--k", "3", "--s-prime", "12", "--variant", "trace"],
        ["slope", "--k", "3", "--s-prime", "12", "--variant", "reduced"],
    ],
)
def test_pushed_builders_hold_one_entry_per_value(argv, capsys):
    # every internal call passes its arguments in the same shape, so after
    # asking for every value in that shape, each value is one entry
    from hurwitzdiv.checks import run_checks
    from hurwitzdiv.cli import main

    k = 3
    values = _pushed_builder_values(k)
    for builder in values:
        builder.cache_clear()
    if argv is None:
        run_checks(k, k)
    else:
        assert main(argv) == 0
        capsys.readouterr()
    for builder, keys in values.items():
        for key in keys:
            builder(*key)
        assert builder.cache_info().currsize == len(keys), builder.__name__
