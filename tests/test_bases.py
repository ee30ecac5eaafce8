import json
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hurwitzdiv.bases import (
    B_WEIGHT,
    C_WEIGHT,
    Basis,
    BasisMismatchError,
    ClassGroupError,
    ClassMap,
    DivisorClass,
    E0,
    E2,
    E3,
    Ejc,
    HURWITZ,
    LAMBDA,
    MG,
    T2,
    T3j,
    UnknownGeneratorError,
    delta,
    ejc_names,
    ejc_offsets,
    hurwitz_basis,
    linear_combination,
    mg_basis,
    m0b_sym_basis,
    row_sums,
    zero_class,
)
from affine_model import (
    add,
    apply_model,
    class_model as model,
    scale,
    stored_model,
    substitute,
)
from hurwitzdiv.core import AffineExpr, ExtSymbol, b_sym, c_sym, clear_caches
from hurwitzdiv.pushforward import RAW, ExternalCoeffs, p_push, p_q_composed, p_q_map
from hurwitzdiv.serialize import class_to_csv, class_to_json, class_to_md
from hurwitzdiv.trace import q_pullback

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


def test_basis_membership_small_k_rule():
    assert hurwitz_basis(3).contains(E2)
    assert not hurwitz_basis(2).contains(E2)
    assert hurwitz_basis(2).contains(E3)
    assert not hurwitz_basis(1).contains(E3)
    assert hurwitz_basis(2).contains(Ejc(2, 1))
    assert not hurwitz_basis(2).contains(Ejc(2, 2))
    assert not hurwitz_basis(2).contains(Ejc(3, 0))
    with pytest.raises(UnknownGeneratorError):
        DivisorClass(hurwitz_basis(2), {E2: 1})
    with pytest.raises(UnknownGeneratorError):
        DivisorClass(hurwitz_basis(1), {E3: 1})


def test_mg_basis_ends_at_delta_k():
    assert mg_basis(3).contains(delta(3))
    assert not mg_basis(3).contains(delta(4))


def test_generator_enumeration_order():
    assert list(hurwitz_basis(2).generators()) == [
        E0,
        E3,
        Ejc(1, 0),
        Ejc(2, 0),
        Ejc(2, 1),
    ]
    assert list(m0b_sym_basis(2).generators()) == [T2, "T3j_1", "T3j_2"]


def test_coefficient_lookup():
    d = DivisorClass(hurwitz_basis(2), {E0: 2, Ejc(1, 0): 1})
    assert d.coefficient(E0) == AffineExpr(2)
    assert d.coefficient(E3) == AffineExpr(0)
    with pytest.raises(UnknownGeneratorError):
        d.coefficient(E2)


def test_zero_coefficients_not_stored():
    d = DivisorClass(hurwitz_basis(1), {E0: 0, Ejc(1, 0): 1})
    assert d.support() == [Ejc(1, 0)]
    assert (d - d).is_zero()


def test_addition_requires_same_basis():
    with pytest.raises(BasisMismatchError):
        DivisorClass(hurwitz_basis(1), {E0: 1}) + DivisorClass(
            hurwitz_basis(2), {E0: 1}
        )


def test_apply_q_star_at_k1():
    q = q_pullback(1)
    t2 = DivisorClass(m0b_sym_basis(1), {T2: 1})
    assert q.apply(t2) == DivisorClass(hurwitz_basis(1), {E0: 1})


def test_apply_basis_mismatch():
    q = q_pullback(2)
    with pytest.raises(BasisMismatchError):
        q.apply(DivisorClass(m0b_sym_basis(3), {T2: 1}))


def test_compose_requires_matching_bases():
    q = q_pullback(2)
    with pytest.raises(BasisMismatchError):
        q.compose(q)


def test_symbolic_coefficients_supported():
    d = DivisorClass(mg_basis(1), {delta(1): AffineExpr(0, {c_sym(1): 1})})
    doubled = d * 2
    assert doubled.coefficient(delta(1)) == AffineExpr(0, {c_sym(1): 2})


@pytest.mark.parametrize(
    "basis, name",
    [
        (hurwitz_basis(3), E0),
        (hurwitz_basis(3), Ejc(2, 1)),
        (m0b_sym_basis(3), T2),
    ],
)
def test_symbols_are_refused_off_mg(basis, name):
    text = (
        f"generator '{name}' of {basis.kind}(k={basis.k}) cannot carry an "
        "external symbol; symbols live only over Mg"
    )
    for value in (AffineExpr(0, {c_sym(1): 1}), AffineExpr(2, {b_sym(3): Fraction(1, 2)})):
        with pytest.raises(ClassGroupError, match=f"^{re.escape(text)}$"):
            DivisorClass(basis, {name: value})
    # a constant AffineExpr is a plain value there
    assert DivisorClass(basis, {name: AffineExpr(2)}) == DivisorClass(basis, {name: 2})


# The two-weight shape: over Mg(k) the store holds the symbols only as
# gamma_c c_j + gamma_b b_j on every delta_j, j >= 1, one pair per class.
# Every other symbolic shape is refused by the constructor, with one text
# that names the generator.


def assert_shape_refused(k, coeffs, name):
    text = (
        f"generator '{name}' of Mg(k={k}) breaks the shape of the external "
        "symbols: every delta_j, j >= 1, carries the same gamma_c*c_j + "
        "gamma_b*b_j, and lambda and delta_0 carry none"
    )
    with pytest.raises(ClassGroupError, match=f"^{re.escape(text)}$"):
        DivisorClass(mg_basis(k), coeffs)


def test_a_symbol_on_one_delta_j_alone_is_refused():
    # delta_2 carries no weight where delta_1 carries c_1
    assert_shape_refused(2, {delta(1): AffineExpr(0, {c_sym(1): 1})}, delta(2))
    assert_shape_refused(3, {delta(3): AffineExpr(4, {b_sym(3): 1})}, delta(3))


def test_a_symbol_of_another_index_is_refused():
    # c_2 on delta_1, even where every delta_j carries one weight
    coeffs = {delta(1): AffineExpr(0, {c_sym(2): 1}), delta(2): AffineExpr(0, {c_sym(2): 1})}
    assert_shape_refused(2, coeffs, delta(1))
    coeffs = with_weights(2, {}, 1, 1)
    coeffs[delta(2)] = AffineExpr(0, {c_sym(2): 1, b_sym(1): 1})
    assert_shape_refused(2, coeffs, delta(2))


def test_unequal_weights_across_j_are_refused():
    coeffs = with_weights(3, {}, 1, Fraction(1, 2))
    coeffs[delta(3)] = AffineExpr(0, {c_sym(3): 2, b_sym(3): Fraction(1, 2)})
    assert_shape_refused(3, coeffs, delta(3))
    coeffs[delta(3)] = AffineExpr(0, {c_sym(3): 1})
    assert_shape_refused(3, coeffs, delta(3))


@pytest.mark.parametrize("name", [LAMBDA, delta(0)])
def test_a_symbol_on_lambda_or_delta_0_is_refused(name):
    assert_shape_refused(1, {name: AffineExpr(1, {c_sym(1): 1})}, name)
    # even beside a valid pair of weights
    coeffs = with_weights(2, {}, 1, 2)
    coeffs[name] = AffineExpr(0, {b_sym(1): 3})
    assert_shape_refused(2, coeffs, name)


def test_the_two_weight_shape_is_accepted_and_read_back():
    from hurwitzdiv.serialize import class_to_obj, dumps_canonical

    for coeffs in (
        with_weights(3, {LAMBDA: 2, delta(2): Fraction(1, 3)}, Fraction(3, 4), -5),
        with_weights(3, {}, 0, 1),
        # a zero weight may be given or left out
        {delta(j): AffineExpr(0, {c_sym(j): 2, b_sym(j): 0}) for j in (1, 2, 3)},
    ):
        d = DivisorClass(mg_basis(3), coeffs)
        assert dict(d.items()) == {g: v for g, v in coeffs.items() if v}
        # the JSON text reads back as the class's object and as its bytes
        text = class_to_json(d)
        assert json.loads(text) == class_to_obj(d, RAW)
        assert dumps_canonical(json.loads(text)) == text


def test_basis_validation():
    with pytest.raises(ValueError):
        Basis("Nope", 1)
    with pytest.raises(ValueError):
        Basis(HURWITZ, 0)


@pytest.mark.parametrize("k", [2.5, 2.0, True, Decimal(3)])
def test_every_k_check_refuses_a_k_that_is_not_an_int(k):
    # one rule for the bases and the builders that check k; a float, a
    # bool or a Decimal would otherwise build Mg(k=2.0), genus 5.0 or
    # Hurwitz(k=True)
    from hurwitzdiv import pushforward, trace
    from hurwitzdiv.bases import IndexRangeError

    builders = (
        mg_basis,
        hurwitz_basis,
        trace.genus_data,
        trace.catalan_number,
        lambda k: trace.jc_family(k, "e"),
        trace.delta_tau,
        lambda k: trace.phi_pull_boundary(k, 1),
        lambda k: trace.phihat_pull_boundary(k, 0),
        lambda k: pushforward.p_phi_delta(k, 0),
    )
    for build in builders:
        # warm: a bool, a float or a Decimal equal to a cached int k must
        # still be refused, not answered from that int's entry
        if k == int(k):
            build(int(k))
        with pytest.raises(IndexRangeError) as exc:
            build(k)
        assert str(exc.value) == f"k must be an int, got {k!r} ({type(k).__name__})"
        with pytest.raises(IndexRangeError) as exc:
            build(0)
        assert str(exc.value) == "k must be >= 1, got 0"


# the arguments after k, valid at k = 3, of each public callable whose
# first parameter is k and that takes more
_LATER_ARGS = {
    "GenusData": (1, 1, 1, 1, 1, 1),
    "e_coeff": (1, 0),
    "ExternalCoeffs": (dict.fromkeys((1, 2, 3), 0), dict.fromkeys((1, 2, 3), 0)),
    "phi_pull_boundary": (1,),
    "phihat_pull_boundary": (1,),
    "p_phi_delta": (1,),
    "p_phihat_delta": (1,),
    "induced_slope": (Fraction(23, 2), "trace"),
    "slope_target": (Fraction(23, 2), "trace"),
}


def test_every_public_callable_of_k_refuses_a_bad_k():
    import inspect

    import hurwitzdiv

    takes_k = {}
    for name in hurwitzdiv.__all__:
        value = getattr(hurwitzdiv, name)
        if callable(value):
            parameters = list(inspect.signature(value).parameters.values())
            if parameters and parameters[0].name == "k":
                takes_k[name] = (value, sum(p.default is p.empty for p in parameters) - 1)
    assert {name for name, (_, more) in takes_k.items() if more} == set(_LATER_ARGS)
    for name, (build, _) in takes_k.items():
        later = _LATER_ARGS.get(name, ())
        build(3, *later)
        for k in (True, 2.0, Decimal(2), Fraction(2), 0, -1):
            with pytest.raises((ValueError, TypeError)):
                build(k, *later)


def test_builtin_pushforward_map_linearity():
    push = p_push(3)
    d1 = DivisorClass(hurwitz_basis(3), {E0: Fraction(1, 2), Ejc(2, 1): 3})
    d2 = DivisorClass(hurwitz_basis(3), {E2: 1, Ejc(3, 0): Fraction(-7, 5)})
    a = Fraction(-4, 9)
    assert push.apply(d1 * a + d2) == push.apply(d1) * a + push.apply(d2)


def images(m):
    """The nonzero images of the map ``m``, by source generator, each
    read through ``m.row``."""
    return {g: row for g in m.source.generators() if not (row := m.row(g)).is_zero()}


def test_q_pullback_row_structure():
    # images exist exactly for the generators that survive the branch
    # map, so any class supported elsewhere is annihilated structurally
    q = q_pullback(4)
    assert set(images(q)) == {T2, *(f"T3j_{j}" for j in range(1, 5))}
    assert set(images(p_push(4))) == set(hurwitz_basis(4).generators())


# Mixed representation: every coefficient is an integer numerator over
# one common denominator, and an Mg(k) class carries the symbols in the
# one shape the store holds: gamma_c c_j + gamma_b b_j on every delta_j,
# j >= 1, one pair per class.  Every operation must agree with the same
# operation done coefficient by coefficient in the affine reference
# model of tests/affine_model.py.

constant_affines = rationals.map(AffineExpr)
plain_values = st.one_of(rationals, st.integers(-9, 9), constant_affines)
scalars = st.one_of(rationals, st.integers(-9, 9))
plain_weights = st.one_of(st.just(0), rationals)
plain_pairs = st.tuples(plain_weights, plain_weights)


def with_weights(k, coeffs, gc, gb):
    """``coeffs`` over Mg(k) with gamma_c c_j + gamma_b b_j added to
    every delta_j, j >= 1: the two-weight shape of a symbolic class."""
    out = dict(coeffs)
    for j in range(1, k + 1):
        const = out.get(delta(j), 0)
        const = const.const if isinstance(const, AffineExpr) else const
        out[delta(j)] = AffineExpr(const, {c_sym(j): gc, b_sym(j): gb})
    return out


def class_maps(basis, constants, pairs, max_size=4):
    """Coefficient maps over ``basis``: ``constants`` on up to
    ``max_size`` generators and, over Mg(k), one pair of weights drawn
    from ``pairs`` (zeros among them) on every delta_j, j >= 1."""
    gens = list(basis.generators())
    coeffs = st.dictionaries(st.sampled_from(gens), constants, max_size=max_size)
    if basis.kind != MG:
        return coeffs
    return st.builds(lambda c, pair: with_weights(basis.k, c, *pair), coeffs, pairs)


def mg_classes(constants=plain_values, pairs=plain_pairs, k=2):
    return class_maps(mg_basis(k), constants, pairs).map(
        lambda coeffs: DivisorClass(mg_basis(k), coeffs)
    )


def assert_stored_key(basis, key):
    """A stored key: a generator of ``basis`` for a constant part, or
    over Mg(k) one of the two weight keys."""
    if key in (C_WEIGHT, B_WEIGHT):
        assert basis.kind == MG, f"weight key {key!r} off Mg"
        return
    assert type(key) is str and basis.contains(key), f"bad key {key!r}"


def external_tables(k, values):
    """Complete tables c_1..c_k, b_1..b_k of values drawn from ``values``."""
    return st.lists(values, min_size=2 * k, max_size=2 * k).map(
        lambda t: ExternalCoeffs(k, dict(enumerate(t[:k], 1)), dict(enumerate(t[k:], 1)))
    )


def table_values(ext):
    """The table of ``ext`` as symbol -> value, for the oracle
    ``AffineExpr.substitute``."""
    values = {c_sym(j): v for j, v in ext.c.items()}
    values.update((b_sym(j), v) for j, v in ext.b.items())
    return values


def assert_apply_is_substitute(ext, d):
    """``ext.apply(d)`` is canonical and holds, generator by generator,
    ``AffineExpr.substitute`` of each coefficient of ``d.items()``."""
    applied = ext.apply(d)
    assert_canonical(applied)
    values = table_values(ext)
    expected = {name: value.substitute(values) for name, value in d.items()}
    assert dict(applied.items()) == {name: v for name, v in expected.items() if v}
    return applied


def assert_canonical_rows(basis, flat):
    """The E_{j,c} part of the stored form: on Hurwitz(k), a tuple of
    exactly one int per E_{j,c} generator of the basis, a zero one as 0;
    () on the other kinds."""
    count = sum(1 for g in basis.generators() if g.startswith("E_"))
    assert type(flat) is tuple and len(flat) == count, (len(flat), count)
    assert all(type(n) is int for n in flat)


def assert_canonical(d):
    """The unique stored form: integer numerators over one positive
    denominator in lowest terms (1 for the zero class), in a head map
    keyed by generator for the constant parts and, over Mg(k), by
    C_WEIGHT/B_WEIGHT for the two weights, with no zero numerator, and
    on a Hurwitz basis the E_{j,c} constant parts in rows, never in the
    head map; the stored parts read back as the accessors' values."""
    assert type(d._den) is int and d._den > 0
    for key, n in d._nums.items():
        assert_stored_key(d.basis, key)
        assert type(n) is int and n, f"non-canonical numerator {n!r}"
        if d.basis.kind == HURWITZ and type(key) is str:
            assert key in (E0, E2, E3), f"E_(j,c) constant {key!r} outside the rows"
    assert_canonical_rows(d.basis, d._flat)
    entries = [*d._nums.values(), *d._flat]
    assert math.gcd(d._den, *entries) == 1
    assert any(entries) or d._den == 1
    assert stored_model(d) == model(d)


@given(mg_classes(), mg_classes(), scalars)
def test_mixed_arithmetic_matches_affine_model(d1, d2, a):
    m1, m2 = model(d1), model(d2)
    for result, expected in (
        (d1 + d2, {g: add(m1[g], m2[g]) for g in m1}),
        (d1 - d2, {g: add(m1[g], scale(m2[g], -1)) for g in m1}),
        (-d1, {g: scale(m1[g], -1) for g in m1}),
        (d1 * a, {g: scale(m1[g], a) for g in m1}),
        (a * d1, {g: scale(m1[g], a) for g in m1}),
    ):
        assert_canonical(result)
        assert model(result) == expected
    if a:
        quotient = d1 / a
        assert_canonical(quotient)
        assert model(quotient) == {g: scale(m1[g], 1 / Fraction(a)) for g in m1}
    # an AffineExpr scalar, constant or not, is refused on either side
    for scalar in (AffineExpr(a), AffineExpr(a, {c_sym(1): 1})):
        for op in (lambda: d1 * scalar, lambda: scalar * d1, lambda: d1 / scalar):
            with pytest.raises(TypeError):
                op()


@given(mg_classes(), external_tables(2, rationals))
def test_mixed_apply_matches_affine_substitute(d, ext):
    applied = assert_apply_is_substitute(ext, d)
    values = table_values(ext)
    assert model(applied) == {g: substitute(e, values) for g, e in model(d).items()}


@given(st.lists(rationals, min_size=6, max_size=6))
def test_full_substitution_stores_only_fractions(table):
    from hurwitzdiv.pushforward import ExternalCoeffs, p_phi_lambda, p_q_kappa

    ext = ExternalCoeffs(3, dict(zip((1, 2, 3), table[:3])), dict(zip((1, 2, 3), table[3:])))
    for d in (p_phi_lambda(3), p_q_kappa(3)):
        # the symbols are the two weights, beside the delta_j constants
        assert {C_WEIGHT, B_WEIGHT, delta(1), delta(2), delta(3)} <= set(d._nums)
        numeric = assert_apply_is_substitute(ext, d)
        assert not {C_WEIGHT, B_WEIGHT} & set(numeric._nums)
        values = table_values(ext)
        assert model(numeric) == {g: substitute(e, values) for g, e in model(d).items()}


def test_constant_affine_and_fraction_classes_are_identical():
    basis = hurwitz_basis(2)
    plain = DivisorClass(basis, {E0: 3})
    wrapped = DivisorClass(basis, {E0: AffineExpr(3)})
    assert plain == wrapped
    assert hash(plain) == hash(wrapped)
    assert (wrapped._den, wrapped._nums) == (1, {E0: 3})
    assert wrapped.coefficient(E0) == AffineExpr(3)
    # a symbolic sum that cancels is stored as its constant
    sym = DivisorClass(mg_basis(1), {delta(1): AffineExpr(1, {c_sym(1): 1})})
    cancelled = sym - DivisorClass(mg_basis(1), {delta(1): AffineExpr(0, {c_sym(1): 1})})
    assert (cancelled._den, cancelled._nums) == (1, {delta(1): 1})
    # constant and symbol parts of one coefficient share the denominator
    mixed = DivisorClass(
        mg_basis(1),
        {delta(1): AffineExpr(Fraction(1, 2), {c_sym(1): Fraction(1, 3)}), LAMBDA: 5},
    )
    stored = (mixed._den, mixed._nums)
    assert stored == (6, {delta(1): 3, C_WEIGHT: 2, LAMBDA: 30})
    # a weight key is the family letter of its symbols
    assert (C_WEIGHT, B_WEIGHT) == ("c", "b")
    # on a Hurwitz basis E0/E2/E3 stay in the head map and the E_{j,c}
    # constants go to the flat tuple E_1_0, E_2_0, E_2_1, E_3_0, E_3_1, a
    # constant AffineExpr among them; an untouched entry is 0
    hur = DivisorClass(
        hurwitz_basis(3),
        {E2: Fraction(1, 2), Ejc(2, 1): AffineExpr(Fraction(1, 3)), Ejc(3, 0): 4},
    )
    assert hur._den == 6
    assert hur._nums == {E2: 3}
    assert hur._flat == (0, 0, 2, 24, 0)
    assert hur == DivisorClass(hurwitz_basis(3), dict(hur.items()))
    # a symbol term, symbol-only or beside a constant, is refused there
    for value in (AffineExpr(0, {b_sym(2): 3}), AffineExpr(1, {c_sym(1): Fraction(1, 6)})):
        with pytest.raises(ClassGroupError, match="symbols live only over Mg"):
            DivisorClass(hurwitz_basis(2), {Ejc(1, 0): value})


# Values over pairwise different denominators, some of the size of
# (6k)!, which the integer kernel must handle exactly.

FACTORIAL_SIZED = math.factorial(6 * 20)
row_denominators = st.one_of(
    st.integers(1, 90), st.sampled_from([FACTORIAL_SIZED, FACTORIAL_SIZED + 1])
)
big_rationals = st.one_of(
    rationals,
    st.integers(-(10**40), 10**40).map(lambda n: Fraction(n, FACTORIAL_SIZED)),
)


def test_generator_order_is_cached_and_shared_by_all_kinds():
    for basis in (hurwitz_basis(5), mg_basis(4), m0b_sym_basis(4)):
        gens = list(basis.generators())
        # a class lists its generators in basis order, whatever the
        # order it was given them in
        assert DivisorClass(basis, {g: 1 for g in reversed(gens)}).support() == gens
        assert all(basis.contains(g) for g in gens)
        with pytest.raises(UnknownGeneratorError):
            basis.check("E_99_0")
    assert not hurwitz_basis(2).contains("E_2_2")
    assert not mg_basis(2).contains("delta_x")


# Symbolic kernel: the two weights are integer numerators over the same
# common denominator as the constants.  Classes whose constants and
# weights have pairwise different denominators, some of the size of
# (6k)!, must agree with the affine model under every operation.


@st.composite
def spread_pairs(draw):
    """(gamma_c, gamma_b) over two different denominators, either one
    possibly zero."""
    dens = draw(st.lists(row_denominators, min_size=2, max_size=2, unique=True))
    nums = draw(st.lists(st.integers(-50, 50), min_size=2, max_size=2))
    return Fraction(nums[0], dens[0]), Fraction(nums[1], dens[1])


spread_rationals = st.builds(Fraction, st.integers(-50, 50), row_denominators)
spread_constants = st.one_of(spread_rationals, big_rationals)


@given(
    mg_classes(spread_constants, spread_pairs(), k=3),
    mg_classes(spread_constants, spread_pairs(), k=3),
    big_rationals,
)
def test_symbolic_kernel_arithmetic_matches_affine_model(d1, d2, a):
    m1, m2 = model(d1), model(d2)
    for result, expected in (
        (d1 + d2, {g: add(m1[g], m2[g]) for g in m1}),
        (d1 - d2, {g: add(m1[g], scale(m2[g], -1)) for g in m1}),
        (-d1, {g: scale(m1[g], -1) for g in m1}),
        (d1 * a, {g: scale(m1[g], a) for g in m1}),
    ):
        assert_canonical(result)
        assert model(result) == expected
    if a:
        quotient = d1 / a
        assert_canonical(quotient)
        assert model(quotient) == {g: scale(m1[g], 1 / a) for g in m1}


@given(mg_classes(spread_constants, spread_pairs(), k=3), external_tables(3, spread_rationals))
def test_symbolic_kernel_apply_matches_affine_model(d, ext):
    applied = assert_apply_is_substitute(ext, d)
    values = table_values(ext)
    assert model(applied) == {g: substitute(e, values) for g, e in model(d).items()}
    assert not {C_WEIGHT, B_WEIGHT} & set(applied._nums)


@given(mg_classes(spread_constants, spread_pairs(), k=3), st.sampled_from([1, 2, 4]))
def test_a_table_of_another_k_is_refused_by_a_symbolic_class(d, k):
    # the two-weight store has no partial substitution: a table either
    # covers c_1..c_k and b_1..b_k of the class or is refused
    ext = ExternalCoeffs(k, dict.fromkeys(range(1, k + 1), 1), dict.fromkeys(range(1, k + 1), 2))
    if d._weighted():
        with pytest.raises(ValueError, match=f"^external table is for k={k}, not k=3$"):
            ext.apply(d)
    else:
        assert ext.apply(d) is d


# Index grammar of the indexed generators: a delta_j of Mg(k) or a T3j_j
# of M0bSym(k) has one name, its index spelled in ASCII digits without a
# leading zero.


@pytest.mark.parametrize("basis", [mg_basis(3), m0b_sym_basis(3)])
@pytest.mark.parametrize(
    "digits", ["01", "\u0661", "\u00b2", "00", "+1", "-1", " 1", ""]
)
def test_boundary_index_has_one_spelling(basis, digits):
    prefix = "delta_" if basis.kind == MG else "T3j_"
    name = prefix + digits
    assert not basis.contains(name)
    with pytest.raises(UnknownGeneratorError):
        basis.check(name)
    # so one class cannot hold delta_1 a second time as delta_01
    with pytest.raises(UnknownGeneratorError):
        DivisorClass(basis, {prefix + "1": 1, name: 1})


# The n-ary kernel: linear_combination sums x * d over its terms in one
# pass.  Over every kind of basis, with symbolic terms on Mg, zero and
# negative scalars, (6k)!-sized and pairwise different denominators and a
# class repeated among the terms, it must agree with the affine model and
# with the chained binary operators.

KERNEL_BASES = (hurwitz_basis(3), mg_basis(3), m0b_sym_basis(3))
kernel_scalars = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    big_rationals,
    st.builds(Fraction, st.integers(-50, 50), row_denominators),
)


@given(st.data())
def test_linear_combination_matches_affine_model(data):
    basis = data.draw(st.sampled_from(KERNEL_BASES))
    gens = list(basis.generators())
    pool = data.draw(
        st.lists(
            class_maps(basis, spread_constants, spread_pairs()).map(
                lambda coeffs: DivisorClass(basis, coeffs)
            ),
            min_size=1,
            max_size=4,
        )
    )
    # indices into the pool, so one class may occur in several terms
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=6))
    terms = [(data.draw(kernel_scalars), pool[i]) for i in picks]
    result = linear_combination(basis, terms)
    assert_canonical(result)
    expected = {g: {} for g in gens}
    for x, d in terms:
        for g, v in model(d).items():
            expected[g] = add(expected[g], scale(v, x))
    assert model(result) == expected
    chained = zero_class(basis)
    for x, d in terms:
        chained = chained + d * x
    assert result == chained
    # a generator given once: the kernel accepts any iterable
    assert linear_combination(basis, iter(terms)) == result


@pytest.mark.parametrize("basis", [hurwitz_basis(4), mg_basis(3)])
def test_linear_combination_of_one_class_given_twice(basis):
    # the kernel adds the scalars of a class object given more than once
    # before its pass; the result is the sum over every term all the same
    gens = list(basis.generators())
    coeffs = {gens[0]: Fraction(5, 6), gens[-1]: -3}
    if basis.kind == MG:
        coeffs = with_weights(3, coeffs, Fraction(2, 7), -1)
    d = DivisorClass(basis, coeffs)
    other = DivisorClass(basis, {gens[1]: Fraction(1, 4), gens[-1]: 2})
    cases = [
        [(Fraction(1, 24), d), (1, other), (Fraction(-1, 16), d)],
        [(Fraction(1, 12), d), (Fraction(-1, 12), d), (3, other)],
        [(2, d), (Fraction(-1, 3), other), (-2, d), (Fraction(1, 3), other)],
    ]
    for terms in cases:
        result = linear_combination(basis, terms)
        assert_canonical(result)
        expected = {g: {} for g in gens}
        for x, term in terms:
            for g, v in model(term).items():
                expected[g] = add(expected[g], scale(v, x))
        assert model(result) == expected
    assert linear_combination(basis, cases[2]).is_zero()


def test_linear_combination_edge_cases():
    basis = mg_basis(2)
    d = DivisorClass(basis, with_weights(2, {LAMBDA: Fraction(1, 3)}, 2, 0))
    empty = linear_combination(basis, [])
    assert empty.is_zero() and (empty._den, empty._nums) == (1, {})
    assert linear_combination(basis, [(0, d), (Fraction(0), d)]).is_zero()
    assert linear_combination(basis, [(1, d), (-1, d)]).is_zero()
    halves = [(Fraction(3, 2), d), (Fraction(1, 2), d)]
    assert linear_combination(basis, halves) == d * 2
    other = DivisorClass(mg_basis(3), {LAMBDA: 1})
    for x in (1, 0):
        # a term over another basis is refused even with a zero scalar
        with pytest.raises(BasisMismatchError):
            linear_combination(basis, [(1, d), (x, other)])
    with pytest.raises(BasisMismatchError):
        linear_combination(basis, [(1, other)])
    with pytest.raises(TypeError):
        linear_combination(basis, [(0.5, d)])


def test_flat_layout_follows_the_basis_order():
    # built from one "E_j_" prefix per row and a shared index table, the
    # names must be those of Ejc(j, c) in the order of generators(), and
    # row j must run from offsets[j] to offsets[j + 1]
    for k in range(1, 61):
        ejc = [g for g in Basis(HURWITZ, k).generators() if g.startswith("E_")]
        assert ejc_names(k) == tuple(ejc)
        offsets = ejc_offsets(k)
        assert len(offsets) == k + 2 and offsets[:2] == (0, 0) and offsets[-1] == len(ejc)
        for j in range(1, k + 1):
            row = ejc[offsets[j] : offsets[j + 1]]
            assert row == [Ejc(j, c) for c in range(j // 2 + 1)], (k, j)
        # the per-row sums of a flat sequence are its row slices summed
        values = [3**i - 40 for i in range(len(ejc))]
        assert row_sums(k, values) == [
            sum(values[offsets[j] : offsets[j + 1]]) for j in range(1, k + 1)
        ]


@pytest.mark.parametrize("ks", [range(1, 21), range(21, 41), range(41, 61)])
def test_every_hurwitz_class_stores_one_entry_per_ejc(ks):
    from test_two_weights import _hurwitz_classes

    for k in ks:
        count = len(ejc_names(k))
        for name, d in _hurwitz_classes(k):
            assert type(d._flat) is tuple and len(d._flat) == count, (k, name)
        clear_caches()


# Scaled emission: the writers of serialize render self * scale without
# building it, through one exact decimal conversion of the scale.  They
# must give the text of the materialized product, over every kind of
# basis, for constant coefficients and, on Mg, for symbol-only and mixed
# ones whose parts have pairwise different denominators, and for (6k)!
# as for any positive scale.

EMISSION_BASES = (hurwitz_basis(4), mg_basis(3), m0b_sym_basis(3))
emitted_constants = st.one_of(big_rationals, st.integers(-50, 50))
big_weights = st.one_of(st.just(0), big_rationals)
emitted_pairs = st.one_of(spread_pairs(), st.tuples(big_weights, big_weights))
emission_scales = st.one_of(
    st.integers(1, 60).map(lambda k: math.factorial(6 * k)),
    st.integers(min_value=1),
)


def csv_rows(d, scale=1):
    """(generator, coefficient) of each line of ``class_to_csv(d, scale)``,
    split at its one comma."""
    return [tuple(line.split(",")) for line in class_to_csv(d, scale).splitlines()]


@st.composite
def emitted_classes(draw):
    basis = draw(st.sampled_from(EMISSION_BASES))
    return DivisorClass(basis, draw(class_maps(basis, emitted_constants, emitted_pairs, 5)))


@given(emitted_classes(), emission_scales)
def test_scaled_emission_matches_the_materialized_product(d, scale):
    assert csv_rows(d, scale) == csv_rows(d * scale)
    assert class_to_json(d, RAW, scale) == class_to_json(d * scale)


def test_scaled_emission_edge_cases():
    basis = mg_basis(2)
    d = DivisorClass(
        basis,
        with_weights(
            2,
            {LAMBDA: Fraction(-7, 12), delta(1): Fraction(1, 9)},
            Fraction(5, 8),
            Fraction(-1, 16),
        ),
    )
    # 12 = 4 * 3 absorbs 12 and 4 of 8 and 3 of 9 and 4 of 16; the weights
    # sit on every delta_j, j >= 1, a symbol-only delta_2 among them
    assert csv_rows(d, 12) == [
        (LAMBDA, "-7/1"),
        (delta(1), "4/3 + 15/2*c_1 - 3/4*b_1"),
        (delta(2), "15/2*c_2 - 3/4*b_2"),
    ]
    assert csv_rows(d, 12) == csv_rows(d * 12)
    assert class_to_json(d, RAW, 12) == class_to_json(d * 12)
    # one weight alone
    only_b = DivisorClass(basis, with_weights(2, {delta(0): 3}, 0, -3))
    assert csv_rows(only_b, 2) == [
        (delta(0), "6/1"),
        (delta(1), "-6/1*b_1"),
        (delta(2), "-6/1*b_2"),
    ]
    assert csv_rows(zero_class(basis), 10**50) == []
    for scale in (0, -6, Fraction(1), 1.0):
        for write in (class_to_csv, class_to_md):
            with pytest.raises(ValueError):
                write(d, scale)
        with pytest.raises(ValueError):
            class_to_json(d, RAW, scale)


# Composition sums the inner map's integer images through the outer
# map: one denominator, the product of the two, zero entries dropped,
# and no image built as a class on the way.


def test_compose_runs_on_integer_columns(monkeypatch):
    maps = {k: (p_push(k), q_pullback(k)) for k in (1, 2, 3, 7)}
    expected = {
        k: {g: outer.apply(inner.row(g)) for g in inner.source.generators()}
        for k, (outer, inner) in maps.items()
    }

    def refuse(*args, **kwargs):
        raise AssertionError("compose built a class or called apply")

    monkeypatch.setattr(ClassMap, "apply", refuse)
    monkeypatch.setattr(DivisorClass, "__init__", refuse)
    monkeypatch.setattr(DivisorClass, "_raw", classmethod(refuse))
    composed = {k: outer.compose(inner) for k, (outer, inner) in maps.items()}
    monkeypatch.undo()
    for k, (outer, inner) in maps.items():
        result = composed[k]
        # every image of the composite is nonzero, as int numerators on
        # stored keys over the product of the two denominators
        for g, row in expected[k].items():
            assert result.row(g) == row
            nums, den = result.numerators(g)
            assert nums and all(nums.values()) and den == outer._den * inner._den
            for key, n in nums.items():
                assert_stored_key(result.target, key)
                assert type(n) is int
        # E3 (k >= 2) carries the weight of b_j and E2 (k >= 3) that of
        # c_j, so the T2 image does too
        t2_weights = {C_WEIGHT, B_WEIGHT} & set(result.numerators(T2)[0])
        assert t2_weights == {1: set(), 2: {B_WEIGHT}}.get(k, {C_WEIGHT, B_WEIGHT})
        # q^*T3j is the one weight row j + 1 - 2c, and p_push sends row j
        # to delta_j alone: the composite's T3j image is one entry
        hur = hurwitz_basis(k)
        for j in range(1, k + 1):
            weights = {Ejc(j, c): j + 1 - 2 * c for c in range(j // 2 + 1)}
            assert inner.row(T3j(j)) == DivisorClass(hur, weights)
            assert set(result.numerators(T3j(j))[0]) == {delta(j)}


# Flat layout: a Hurwitz(k) class keeps E0/E2/E3 in its head map and the
# E_{j,c} constants in one flat tuple, and carries no symbol.  For k =
# 1..6, with zero, one-entry and dense classes, every operation must
# agree with the affine model, and every result must be in the canonical
# stored form.

HURWITZ_KS = st.integers(1, 6)


def hurwitz_row_classes(k, values):
    """Hurwitz(k) classes: zero, one entry, a few entries (mostly zero)
    or every generator."""
    return basis_classes(hurwitz_basis(k), values)


def basis_classes(basis, values):
    """Classes over ``basis``: zero, one entry, a few entries or every
    generator."""
    gens = list(basis.generators())
    return st.one_of(
        st.just(zero_class(basis)),
        st.builds(lambda g, v: DivisorClass(basis, {g: v}), st.sampled_from(gens), values),
        st.dictionaries(st.sampled_from(gens), values, max_size=6).map(
            lambda coeffs: DivisorClass(basis, coeffs)
        ),
        st.lists(values, min_size=len(gens), max_size=len(gens)).map(
            lambda vals: DivisorClass(basis, dict(zip(gens, vals)))
        ),
    )


@given(st.data())
def test_hurwitz_rows_match_affine_model(data):
    k = data.draw(HURWITZ_KS)
    basis = hurwitz_basis(k)
    d1 = data.draw(hurwitz_row_classes(k, spread_constants))
    d2 = data.draw(hurwitz_row_classes(k, plain_values))
    a = data.draw(kernel_scalars)
    m1, m2 = model(d1), model(d2)
    for result, expected in (
        (d1 + d2, {g: add(m1[g], m2[g]) for g in m1}),
        (d1 - d2, {g: add(m1[g], scale(m2[g], -1)) for g in m1}),
        (-d1, {g: scale(m1[g], -1) for g in m1}),
        (d1 * a, {g: scale(m1[g], a) for g in m1}),
        (linear_combination(basis, [(a, d1), (1, d2), (-a, d1)]), m2),
    ):
        assert_canonical(result)
        assert model(result) == expected
    if a:
        assert model(d1 / a) == {g: scale(m1[g], 1 / Fraction(a)) for g in m1}
    # a class without symbols is its own substitution, for any table
    assert data.draw(external_tables(2, spread_rationals)).apply(d1) is d1
    # the same class built again by name is equal and hashes alike
    rebuilt = DivisorClass(basis, dict(d1.items()))
    assert rebuilt == d1 and hash(rebuilt) == hash(d1)
    assert (d1 == d2) == (m1 == m2)
    assert d1.support() == [g for g in basis.generators() if m1[g]]
    assert d1.is_zero() == (not any(m1.values()))


# The substitution kernel: ExternalCoeffs.apply hands its table, built
# once as integers by j over one common denominator, to
# DivisorClass._substituted, which adds gamma_c c_j + gamma_b b_j to each
# delta_j in one pass.  On symbolic Mg(k) classes and constant Hurwitz
# classes, and tables whose values have pairwise different
# denominators, it must agree with AffineExpr.substitute of each
# coefficient and with the affine model.


@given(st.data())
def test_external_table_apply_matches_affine_substitute(data):
    k = data.draw(HURWITZ_KS)
    d = data.draw(
        st.one_of(
            hurwitz_row_classes(k, spread_constants),
            mg_classes(spread_constants, spread_pairs(), k=k),
            mg_classes(k=k),
        )
    )
    ext = data.draw(external_tables(k, spread_rationals))
    applied = assert_apply_is_substitute(ext, d)
    values = table_values(ext)
    assert model(applied) == {g: substitute(e, values) for g, e in model(d).items()}
    # the table covers every symbol, so none is left
    assert not {C_WEIGHT, B_WEIGHT} & set(applied._nums)


def record_substituted(monkeypatch):
    """A list that gains the arguments (c, b, den) of every call of
    ``DivisorClass._substituted``: the integer table that
    ``ExternalCoeffs.apply`` hands to the kernel."""
    real = DivisorClass._substituted
    calls = []

    def counted(self, c, b, den):
        calls.append((c, b, den))
        return real(self, c, b, den)

    monkeypatch.setattr(DivisorClass, "_substituted", counted)
    return calls


def test_apply_hands_the_integer_table_to_the_kernel(monkeypatch):
    # ExternalCoeffs.apply ends in DivisorClass._substituted, with the
    # table's integers by j, built once
    calls = record_substituted(monkeypatch)
    ext = ExternalCoeffs(
        2, {2: Fraction(-3, 4), 1: Fraction(1, 6)}, {1: Fraction(5), 2: Fraction(2, 9)}
    )
    d = DivisorClass(
        mg_basis(2),
        with_weights(2, {LAMBDA: 1, delta(1): Fraction(2, 3)}, Fraction(1, 5), 7),
    )
    assert_apply_is_substitute(ext, d)
    # the table over lcm(6, 4, 1, 9) = 36, in index order whatever the
    # order of the given dict
    assert calls == [((6, -27), (180, 8), 36)]
    # a second apply hands over the same integers, not rebuilt ones
    ext.apply(d)
    assert all(second is first for first, second in zip(*calls))
    # a class without weights is returned as it is, over any k, a
    # Hurwitz class too
    plain = DivisorClass(mg_basis(3), {LAMBDA: 1})
    hur = DivisorClass(hurwitz_basis(4), {E0: 1, Ejc(3, 1): Fraction(2, 3)})
    assert ext.apply(plain) is plain and ext.apply(hur) is hur


def test_row_builders_equal_the_classes_built_by_name():
    from hurwitzdiv import trace

    for k in range(1, 9):
        hur = hurwitz_basis(k)

        def by_name(head, entry, den=1, rows=range(1, k + 1)):
            coeffs = {g: Fraction(v, den) for g, v in head.items() if hur.contains(g)}
            for j in rows:
                for c in range(j // 2 + 1):
                    coeffs[Ejc(j, c)] = Fraction(entry(j, c), den)
            return DivisorClass(hur, coeffs)

        def phi_boundary(j, c):
            return j if c == 0 else 2 * (k - j + c) * (c + 1) + j

        def phihat_boundary(j, c):
            eps = -1 if (j, c) == (2, 1) else j % 2
            if c == 0:
                return 0 if j < 3 else (j + 1) // 2 + eps
            return (k - j + c) * (c + 1) + (j + 1) // 2 + eps

        w = 2 * (6 * k - 1)
        lead = 2 * (-6 * k**3 + 31 * k * k - 29 * k + 6)
        cases = [
            (
                trace.delta_tau(k),
                by_name(
                    {E0: k * k + k, E2: 2 * k * k - 10 * k + 18, E3: 3 * k * k - 13 * k + 16},
                    lambda j, c: trace._d_int(k, j, c),
                ),
            ),
            (
                trace.omega_tau_sq(k),
                by_name(
                    {E0: lead, E2: 2 * lead, E3: 3 * lead},
                    lambda j, c: trace._a_numerator(k, j, c),
                    w,
                ),
            ),
            (
                trace.twelve_lambda_trace_closed(k),
                by_name(
                    {
                        E0: 4 * (18 * k * k - 15 * k + 3),
                        E2: 4 * (30 * k - 3),
                        E3: 4 * (6 * k * k + 11 * k + 1),
                    },
                    lambda j, c: trace.t_numerator(k, j, c),
                    w,
                ),
            ),
            (
                trace.twelve_lambda_reduced_closed(k),
                by_name(
                    {
                        E0: 4 * (9 * k * k - 12 * k + 3),
                        E2: 4 * 15 * k,
                        E3: 4 * (3 * k * k - 8 * k + 5),
                    },
                    lambda j, c: trace.u_numerator(k, j, c),
                    w,
                ),
            ),
            (
                trace.phi_pull_boundary(k, 0),
                by_name({E0: 4 * k - 2, E2: 4, E3: 2}, phi_boundary, rows=range(2, k + 1)),
            ),
            (
                trace.phihat_pull_boundary(k, 0),
                by_name({E0: 2 * k - 2, E2: 2}, phihat_boundary, rows=range(2, k + 1)),
            ),
            (trace.phi_pull_boundary(k, 1), DivisorClass(hur, {Ejc(1, 0): 2 * k - 1})),
            (trace.q_pullback(k).row(T2), by_name({E0: 1, E2: 2, E3: 3}, None, rows=())),
        ]
        for j in range(2, k + 1):
            cases.append(
                (trace.phi_pull_boundary(k, j), DivisorClass(hur, {Ejc(j, 0): 2 * k - 2 * j}))
            )
            value = k - 1 if j == 2 else k - j
            cases.append((trace.phihat_pull_boundary(k, j), DivisorClass(hur, {Ejc(j, 0): value})))
        for j in range(1, k + 1):
            cases.append(
                (trace.q_pullback(k).row(T3j(j)), by_name({}, lambda jj, c: jj + 1 - 2 * c, rows=[j]))
            )
        for built, named in cases:
            assert_canonical(built)
            assert built == named and hash(built) == hash(named), (k, named)


@given(mg_classes())
def test_numerators_view_reads_the_stored_class(d):
    # the stored map itself, not a copy, and the same values as the
    # accessors: the constants by generator, the weights by their keys
    nums, den = d.numerators_view()
    assert nums is d._nums and den == d._den
    gc, gb = (Fraction(nums.get(key, 0), den) for key in (C_WEIGHT, B_WEIGHT))
    for name, value in d.items():
        assert Fraction(nums.get(name, 0), den) == value.const
        if name in (LAMBDA, delta(0)):
            assert value.is_constant()
        else:
            j = int(name.split("_")[1])
            assert value.coefficient(c_sym(j)) == gc and value.coefficient(b_sym(j)) == gb


def test_numerators_view_refuses_a_class_with_rows():
    with pytest.raises(ValueError, match="E_"):
        zero_class(hurwitz_basis(2)).numerators_view()


# The package's maps: q^* (M0bSym(k) -> Hurwitz(k)), p_* (Hurwitz(k) ->
# Mg(k), its E_{j,c} columns blocked by row), the correspondence action
# p_q_map (M0bSym(k) -> Mg(k)) and the composite p_* o q^*.  A ClassMap
# has no public constructor, so these are all the maps there are.  For
# k = 1..6 and plain, spread and (6k)!-sized values, applying and
# composing them must agree with the affine model, and every image must
# be in the canonical stored form.


def package_maps(k):
    return {
        "q_pullback": q_pullback(k),
        "p_push": p_push(k),
        "p_q_map": p_q_map(k),
        "p_q_composed": p_q_composed(k),
    }


def assert_apply_matches_model(m, d):
    applied = m.apply(d)
    assert_canonical(applied)
    assert model(applied) == apply_model(m, d)


# an example at k = 6 reads every column of p_push through the model,
# which can outrun the default per-example deadline
@settings(deadline=None)
@given(st.data())
def test_package_maps_apply_matches_affine_model(data):
    k = data.draw(HURWITZ_KS)
    values = data.draw(st.sampled_from((plain_values, spread_constants, big_rationals)))
    a = data.draw(kernel_scalars)
    for m in (p_push(k), q_pullback(k), p_q_map(k)):
        d1 = data.draw(basis_classes(m.source, values))
        d2 = data.draw(basis_classes(m.source, spread_constants))
        assert_apply_matches_model(m, d1)
        assert_apply_matches_model(m, d2)
        combined = linear_combination(m.source, [(a, d1), (1, d2)])
        assert m.apply(combined) == linear_combination(
            m.target, [(a, m.apply(d1)), (1, m.apply(d2))]
        )
    # the composite applies as q^* and then p_*
    d = data.draw(basis_classes(m0b_sym_basis(k), values))
    assert p_q_composed(k).apply(d) == p_push(k).apply(q_pullback(k).apply(d))


@pytest.mark.parametrize("k", range(1, 9))
def test_package_compose_matches_affine_model(k):
    push, pull = p_push(k), q_pullback(k)
    composed = push.compose(pull)
    assert (composed.source, composed.target) == (pull.source, push.target)
    cached = p_q_composed(k)
    for g in pull.source.generators():
        row = composed.row(g)
        assert_canonical(row)
        assert model(row) == apply_model(push, pull.row(g))
        assert row == cached.row(g)
    assert images(composed) == images(cached)
    if k >= 3:
        assert images(composed) == images(p_q_map(k))


@pytest.mark.parametrize("k", range(1, 9))
def test_package_map_readers_agree(k):
    for m in package_maps(k).values():
        for g in m.source.generators():
            row = m.row(g)
            assert_canonical(row)
            assert row == m.apply(DivisorClass(m.source, {g: 1}))
            if m.target.kind == HURWITZ:
                with pytest.raises(ValueError, match="E_"):
                    m.numerators(g)
                continue
            nums, den = m.numerators(g)
            values = {t: {} for t in m.target.generators()}
            for key, n in nums.items():
                if key in (C_WEIGHT, B_WEIGHT):
                    # a weight: c_j or b_j on every delta_j, j >= 1
                    for j in range(1, k + 1):
                        values[delta(j)][ExtSymbol(key, j)] = Fraction(n, den)
                else:
                    values[key][None] = Fraction(n, den)
            assert values == model(row)
        with pytest.raises(UnknownGeneratorError):
            m.row("E_99_0")
        with pytest.raises(UnknownGeneratorError):
            m.numerators("E_99_0")
        # the E_{j,c} block: p_* sends each E_{j,c} of row j to delta_j
        # alone, and q^* sends T3j to all of row j
        for j in range(1, k + 1):
            row_j = [Ejc(j, c) for c in range(j // 2 + 1)]
            if m.source.kind == HURWITZ:
                for g in row_j:
                    assert set(m.numerators(g)[0]) == {delta(j)}, g
            if m.target.kind == HURWITZ:
                assert m.row(T3j(j)).support() == row_j


@pytest.mark.parametrize("k", range(1, 6))
def test_package_maps_refuse_what_they_cannot_map(k):
    # no map starts from Mg(k), so an Mg(k) class, with or without a
    # symbol, meets every map as a basis mismatch
    mg = mg_basis(k)
    mg_classes = (
        DivisorClass(mg, {LAMBDA: 1}),
        DivisorClass(mg, with_weights(k, {delta(k): 1}, 2, -1)),
    )
    maps = package_maps(k)
    for m in maps.values():
        for d in mg_classes:
            with pytest.raises(BasisMismatchError, match="cannot be fed to a map from"):
                m.apply(d)
    # p_* o q^* is the one composite whose bases meet
    for outer_name, outer in maps.items():
        for inner_name, inner in maps.items():
            if (outer_name, inner_name) != ("p_push", "q_pullback"):
                with pytest.raises(BasisMismatchError, match="cannot compose"):
                    outer.compose(inner)
    with pytest.raises(BasisMismatchError):
        p_push(k + 1).compose(q_pullback(k))
    # and there is no constructor to build another map
    with pytest.raises(TypeError):
        ClassMap(m0b_sym_basis(k), hurwitz_basis(k), {})
