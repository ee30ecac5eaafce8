from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from hurwitzdiv.bases import DivisorClass, T2, T3j, m0b_sym_basis
from hurwitzdiv.cli import MAX_MARKED_POINTS
from hurwitzdiv.m0b import (
    MarkedSet,
    MarkedSetError,
    count_boundary,
    delta_restricted,
    enumerate_boundary,
    forgetful_pullback,
    intersect_nonempty,
    kappa_class,
    normalize,
    psi_restricted,
)
from test_bases import assert_canonical


def all_labels(b):
    """Every admissible subset, normalized or not."""
    for size in range(2, b - 1):
        for combo in combinations(range(1, b + 1), size):
            yield frozenset(combo)


def crossing_oracle(b, sa, sb):
    """Two boundary divisors meet unless the four mutual corners of the
    two partitions are all nonempty."""
    full = frozenset(range(1, b + 1))
    return not (sa & sb and sa - sb and sb - sa and full - (sa | sb))


def test_normalize_examples():
    assert normalize(6, {1, 2}).members == frozenset({3, 4, 5, 6})
    assert normalize(6, {4, 5}).members == frozenset({4, 5})
    assert normalize(6, {1, 2, 3}).members == frozenset({4, 5, 6})


def test_normalize_rejects_bad_sizes():
    with pytest.raises(MarkedSetError):
        normalize(6, {1})
    with pytest.raises(MarkedSetError):
        normalize(6, {1, 2, 3, 4, 5})
    with pytest.raises(MarkedSetError):
        normalize(6, {1, 9})
    with pytest.raises(MarkedSetError):
        MarkedSet(6, frozenset({1, 2}))  # not normalized


@pytest.mark.parametrize(
    "members, text",
    [
        ({2.0, 5}, "marked points must be int, got 2.0 (float)"),
        ({True, 5}, "marked points must be int, got True (bool)"),
    ],
)
def test_non_int_members_are_refused(members, text):
    # a float or a bool would hash as the point and print as 2.0 or True
    with pytest.raises(MarkedSetError) as exc:
        normalize(6, members)
    assert str(exc.value) == text
    with pytest.raises(MarkedSetError) as exc:
        MarkedSet(6, frozenset(members))
    assert str(exc.value) == text


def test_marked_set_mask_holds_the_members():
    label = normalize(8, {1, 2})
    assert label.mask == sum(1 << i for i in label.members) == 0b111111000
    # the mask is derived: equality, hash and repr read (b, members) only
    assert label == MarkedSet(8, frozenset(range(3, 9)))
    assert "mask" not in repr(label)


def test_normalize_idempotent_and_complement_invariant():
    for b in (6, 7, 8):
        full = frozenset(range(1, b + 1))
        for s in all_labels(b):
            n = normalize(b, s)
            assert normalize(b, n.members) == n
            assert normalize(b, full - s) == n


@pytest.mark.parametrize("b", range(4, 10))
def test_normalized_labels_equal_the_validated_ones(b):
    # normalize builds its label from the mask it computed; mask is
    # compare=False, so it is compared on its own
    for n in range(2, b - 1):
        for s in combinations(range(1, b + 1), n):
            label = normalize(b, s)
            checked = MarkedSet(b, label.members)
            assert label == checked and label.mask == checked.mask
            assert label.members in (frozenset(s), frozenset(range(1, b + 1)) - set(s))


def test_intersect_examples():
    assert intersect_nonempty(normalize(8, {4, 5}), normalize(8, {4, 5, 6}))
    assert intersect_nonempty(normalize(8, {4, 5}), normalize(8, {6, 7}))
    assert not intersect_nonempty(normalize(8, {4, 5}), normalize(8, {5, 6}))
    with pytest.raises(MarkedSetError):
        intersect_nonempty(normalize(6, {4, 5}), normalize(8, {4, 5}))


def test_intersect_matches_union_size_criterion():
    for b in (6, 8):
        for sa in all_labels(b):
            for sb in all_labels(b):
                expected = len(sa | sb) in {len(sa), len(sb), len(sa) + len(sb), b}
                got = intersect_nonempty(normalize(b, sa), normalize(b, sb))
                assert got == expected


def test_intersect_matches_crossing_oracle():
    for b in (6, 8):
        labels = list(enumerate_boundary(b))
        for x in labels:
            for y in labels:
                assert intersect_nonempty(x, y) == crossing_oracle(b, x.members, y.members)


@st.composite
def label_pairs(draw):
    b = draw(st.integers(4, 14))
    label = st.frozensets(st.integers(1, b), min_size=2, max_size=b - 2)
    return b, draw(label), draw(label)


@given(label_pairs())
def test_mask_intersection_matches_crossing_oracle_on_random_labels(case):
    b, sa, sb = case
    x, y = normalize(b, sa), normalize(b, sb)
    assert intersect_nonempty(x, y) == crossing_oracle(b, x.members, y.members)
    assert intersect_nonempty(x, y) == crossing_oracle(b, sa, sb)


def test_mask_intersection_at_the_marked_point_cap():
    # the largest b that m0n accepts: two labels that cross
    b = MAX_MARKED_POINTS
    x = normalize(b, range(4, b // 2 + 4))
    y = normalize(b, range(b // 2, b - 1000))
    assert crossing_oracle(b, x.members, y.members) is False
    assert intersect_nonempty(x, y) is False
    assert intersect_nonempty(x, x) is True


def test_intersect_representative_independent():
    b = 8
    full = frozenset(range(1, b + 1))
    labels = list(all_labels(b))[::7]  # thinned grid, still hundreds of pairs
    for sa in labels:
        for sb in labels:
            base = intersect_nonempty(normalize(b, sa), normalize(b, sb))
            assert base == intersect_nonempty(normalize(b, full - sa), normalize(b, sb))
            assert base == intersect_nonempty(normalize(b, sa), normalize(b, full - sb))


def test_forgetful_examples():
    first, second = forgetful_pullback(normalize(6, {4, 5}))
    assert first.members == frozenset({4, 5})
    assert second.members == frozenset({4, 5, 7})
    assert first.b == second.b == 7
    pair = forgetful_pullback(normalize(6, {3, 4, 5, 6}))
    assert pair[0].members == frozenset({3, 4, 5, 6})
    assert pair[1].members == frozenset({3, 4, 5, 6, 7})


def test_forgetful_images_cover_boundary_except_sections():
    images = set()
    for label in enumerate_boundary(6):
        images.update(forgetful_pullback(label))
    assert len(images) == 2 * count_boundary(6)
    sections = {normalize(7, {j, 7}) for j in range(1, 7)}
    assert not images & sections
    assert len(images | sections) == count_boundary(7)


def test_count_boundary_small_values():
    assert count_boundary(4) == 3
    assert count_boundary(5) == 10
    assert count_boundary(6) == 25


def test_count_boundary_matches_enumeration():
    for b in range(4, 13):
        assert count_boundary(b) == sum(1 for _ in enumerate_boundary(b))


def test_psi_restricted_examples():
    basis = m0b_sym_basis(1)
    assert psi_restricted(1) == DivisorClass(
        basis, {T2: Fraction(8, 5), T3j(1): Fraction(9, 5)}
    )
    assert psi_restricted(2).coefficient(T3j(2)).constant_value() == Fraction(36, 11)


def test_psi_restricted_is_projection_of_psi_full():
    # on the full symmetric boundary basis of b points, psi has the
    # coefficient j(b - j)/(b - 1) on the class of the j-point labels,
    # 2 <= j <= b/2; T2 is j = 2 and T3j_j is 3j, with b = 6k
    for k in range(1, 21):
        b = 6 * k
        full = {j: Fraction((b - j) * j, b - 1) for j in range(2, b // 2 + 1)}
        restricted = psi_restricted(k)
        assert restricted.coefficient(T2).constant_value() == full[2]
        for j in range(1, k + 1):
            assert restricted.coefficient(T3j(j)).constant_value() == full[3 * j]


def test_psi_minus_two_delta_examples():
    # the canonical class of the b-pointed moduli space is psi - 2 delta;
    # on T2 and T3j_j its coefficient is j(b - j)/(b - 1) - 2, here at
    # j = 2, 3 with b = 6 and j = 6 with b = 12
    k1 = psi_restricted(1) - delta_restricted(1) * 2
    assert k1 == DivisorClass(
        m0b_sym_basis(1), {T2: Fraction(-2, 5), T3j(1): Fraction(-1, 5)}
    )
    k2 = psi_restricted(2) - delta_restricted(2) * 2
    assert k2.coefficient(T3j(2)).constant_value() == Fraction(14, 11)


def test_kappa_examples():
    k1 = kappa_class(1)
    assert k1.coefficient(T2).constant_value() == Fraction(3, 5)
    assert k1.coefficient(T3j(1)).constant_value() == Fraction(4, 5)
    assert kappa_class(3).coefficient(T2).constant_value() == Fraction(15, 17)


def test_kappa_plus_delta_is_psi():
    for k in range(1, 51):
        assert kappa_class(k) + delta_restricted(k) == psi_restricted(k)


def test_kappa_coefficient_identity_per_generator():
    # (j(b-j)/(b-1)) - 1 == (j-1)(b-j-1)/(b-1) for the surviving generators
    for k in range(1, 21):
        b = 6 * k
        for j in [2] + [3 * i for i in range(1, k + 1)]:
            assert Fraction(j * (b - j), b - 1) - 1 == Fraction(
                (j - 1) * (b - j - 1), b - 1
            )


def test_marked_set_str():
    assert str(normalize(6, {1, 2})) == "{3,4,5,6}"


# The restricted classes as they were built before they were written in
# integers: one Fraction per coefficient, by generator name, through the
# validating DivisorClass constructor.  The builders are held to them.


def psi_by_name(k):
    b = 6 * k
    coeffs = {T2: Fraction(2 * (b - 2), b - 1)}
    for j in range(1, k + 1):
        coeffs[T3j(j)] = Fraction(3 * j * (b - 3 * j), b - 1)
    return DivisorClass(m0b_sym_basis(k), coeffs)


def delta_by_name(k):
    coeffs = {T2: Fraction(1)}
    for j in range(1, k + 1):
        coeffs[T3j(j)] = Fraction(1)
    return DivisorClass(m0b_sym_basis(k), coeffs)


def kappa_by_name(k):
    b = 6 * k
    coeffs = {T2: Fraction(b - 3, b - 1)}
    for j in range(1, k + 1):
        coeffs[T3j(j)] = Fraction((3 * j - 1) * (b - 3 * j - 1), b - 1)
    return DivisorClass(m0b_sym_basis(k), coeffs)


@pytest.mark.parametrize("k", range(1, 41))
def test_restricted_classes_equal_their_definitions_by_name(k):
    for built, expected in (
        (psi_restricted(k), psi_by_name(k)),
        (delta_restricted(k), delta_by_name(k)),
        (kappa_class(k), kappa_by_name(k)),
    ):
        assert_canonical(built)
        assert built == expected and hash(built) == hash(expected)


@pytest.mark.parametrize("b", range(4, 13))
def test_enumerated_labels_equal_the_validated_ones(b):
    # mask is compare=False, so equality alone would miss a wrong mask
    for label in enumerate_boundary(b):
        checked = MarkedSet(b, label.members)
        assert type(label) is MarkedSet and type(label.members) is frozenset
        assert label == checked and hash(label) == hash(checked)
        assert label.mask == checked.mask
        assert repr(label) == repr(checked) and str(label) == str(checked)


@pytest.mark.parametrize("b", [3, 2, 0])
def test_every_label_function_refuses_b_below_four_alike(b):
    # normalize refuses b before it reads the label, with the text of
    # count_boundary and enumerate_boundary
    text = f"need b >= 4, got {b}"
    for call in (
        lambda: count_boundary(b),
        lambda: list(enumerate_boundary(b)),
        lambda: normalize(b, {1, 2}),
        lambda: normalize(b, {1}),
        lambda: normalize(b, {"x"}),
    ):
        with pytest.raises(MarkedSetError) as exc:
            call()
        assert str(exc.value) == text


@pytest.mark.parametrize(
    "b, members, text",
    [
        (3, {1, 2}, "need b >= 4, got 3"),
        (6, {4, 9}, "members {9, 4} not within 1..6"),
        (6, {0, 4}, "members {0, 4} not within 1..6"),
        (6, {4}, "label size must satisfy 2 <= size <= b-2, got 1 with b=6"),
        (6, {2, 4, 5, 6, 1}, "label size must satisfy 2 <= size <= b-2, got 5 with b=6"),
        (
            6,
            {1, 2},
            "label {1, 2} is not normalized; use normalize() to build MarkedSets",
        ),
    ],
)
def test_the_public_constructor_still_refuses_bad_labels(b, members, text):
    with pytest.raises(MarkedSetError) as exc:
        MarkedSet(b, frozenset(members))
    assert str(exc.value) == text
