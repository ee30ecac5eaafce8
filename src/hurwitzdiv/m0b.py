"""Boundary combinatorics of the moduli space of b-pointed rational
curves, and the symmetric divisor classes psi, delta and kappa = psi -
delta restricted to the generators that matter for branch divisors of
the covers studied here (T2 and the T3j).  :func:`kappa_class` is the
class that ``pushforward.eh_divisor`` pulls back.

A boundary divisor is labelled by a subset L of {1..b} with
2 <= #L <= b-2; L and {1..b} - L label the same divisor.  The normal
form keeps the representative meeting {1, 2, 3} in at most one point;
exactly one of L, {1..b} - L satisfies this.  A label also carries its members as
one int bitmask, bit i for point i, built once when the label is made:
validation and the intersection test run on it in integers.
:func:`enumerate_boundary` makes its labels without a re-check, as
each combination it keeps is valid and normalized by construction; the
public constructor ``MarkedSet(b, members)`` validates every label.

The restricted classes are written as integer numerators over one
denominator straight into the stored form (``DivisorClass._raw``), named
by the generators of ``M0bSym(k)`` without a re-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .bases import DivisorClass, m0b_sym_basis
from .core import per_k_cache


class MarkedSetError(ValueError):
    """Invalid boundary label data (member type, size range or
    mismatched b)."""


# points 1, 2 and 3 as a mask; a normalized label holds at most one
_FIRST_THREE = 0b1110


def _mask(b: int, members: frozenset) -> int:
    """The members as a bitmask, bit i for point i; a member that is not
    an int in 1..b is a :class:`MarkedSetError`."""
    mask = 0
    for point in members:
        # a bool or a float would hash and print as a point
        if type(point) is not int:
            raise MarkedSetError(
                f"marked points must be int, got {point!r} ({type(point).__name__})"
            )
        if not 1 <= point <= b:
            raise MarkedSetError(f"members {set(members)} not within 1..{b}")
        mask |= 1 << point
    return mask


def _check_points(b: int) -> None:
    if b < 4:
        raise MarkedSetError(f"need b >= 4, got {b}")


def _check_size(b: int, n: int) -> None:
    if not 2 <= n <= b - 2:
        raise MarkedSetError(
            f"label size must satisfy 2 <= size <= b-2, got {n} with b={b}"
        )


@dataclass(frozen=True)
class MarkedSet:
    """A normalized boundary-divisor label for b-pointed rational curves;
    ``mask`` holds its members, bit i for point i."""

    b: int
    members: frozenset[int]
    mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        _check_points(self.b)
        mask = _mask(self.b, self.members)
        _check_size(self.b, len(self.members))
        if (mask & _FIRST_THREE).bit_count() > 1:
            raise MarkedSetError(
                f"label {set(self.members)} is not normalized; "
                "use normalize() to build MarkedSets"
            )
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _make(cls, b: int, members: frozenset[int], mask: int) -> "MarkedSet":
        # internal: a normalized label whose ``mask`` holds ``members``,
        # made without the checks of __post_init__
        label = cls.__new__(cls)
        label.__dict__.update(b=b, members=members, mask=mask)
        return label

    def __str__(self) -> str:
        return "{" + ",".join(str(i) for i in sorted(self.members)) + "}"


def normalize(b: int, s: Iterable[int]) -> MarkedSet:
    """Return the normalized representative of the label s (or of
    {1..b} - s), the one meeting {1,2,3} in at most one point.  A b
    below 4 is refused before the label is read."""
    _check_points(b)
    members = frozenset(s)
    _check_size(b, len(members))
    mask = _mask(b, members)
    if (mask & _FIRST_THREE).bit_count() > 1:
        # the complement is a valid label too
        members = frozenset(range(1, b + 1)) - members
        mask ^= (1 << (b + 1)) - 2
    return MarkedSet._make(b, members, mask)


def intersect_nonempty(a: MarkedSet, b: MarkedSet) -> bool:
    """Whether the two labelled boundary divisors have nonempty
    intersection: true exactly when the labels are nested, disjoint, or
    jointly exhaustive (equivalently, when the size of their union lies
    in {#A, #B, #A + #B, b}).  The answer does not depend on which
    representative of either label is used."""
    if a.b != b.b:
        raise MarkedSetError(f"mismatched number of marked points: {a.b} != {b.b}")
    na, nb = len(a.members), len(b.members)
    return (a.mask | b.mask).bit_count() in (na, nb, na + nb, a.b)


def forgetful_pullback(s: MarkedSet) -> tuple[MarkedSet, MarkedSet]:
    """The two boundary labels over b+1 points lying over s under the
    map that forgets the last point."""
    b1 = s.b + 1
    return normalize(b1, s.members), normalize(b1, s.members | {b1})


def count_boundary(b: int) -> int:
    """Number of boundary divisors, 2^(b-1) - b - 1."""
    _check_points(b)
    return 2 ** (b - 1) - b - 1


def enumerate_boundary(b: int) -> Iterator[MarkedSet]:
    """All normalized boundary labels, by exhaustive enumeration.  Each
    combination of sizes 2 .. b-2 is valid and, once its second point
    lies above 3, normalized, so its label is made with its mask and
    without a re-check."""
    _check_points(b)
    points = range(1, b + 1)
    bits = [1 << point for point in points]
    make = MarkedSet._make
    for size in range(2, b - 1):
        # the two runs list the same combinations in the same order, as
        # points and as their bits
        for combo, combo_bits in zip(combinations(points, size), combinations(bits, size)):
            # a sorted combination meets {1, 2, 3} at most once exactly
            # when its second point lies above 3
            if combo[1] > 3:
                yield make(b, frozenset(combo), sum(combo_bits))


@per_k_cache
def _sym_names(k: int) -> tuple[str, ...]:
    """The generators T2, T3j_1 .. T3j_k of ``M0bSym(k)``, in basis
    order."""
    return tuple(m0b_sym_basis(k).generators())


def _restricted(k: int, den: int, t2: int, t3j: list[int]) -> DivisorClass:
    """The class with the nonzero integer numerators ``t2`` on T2 and
    ``t3j[j - 1]`` on T3j_j over ``den``, built from the basis names
    without a re-check."""
    nums = dict(zip(_sym_names(k), [t2, *t3j]))
    return DivisorClass._raw(m0b_sym_basis(k), den, nums)


@per_k_cache
def psi_restricted(k: int) -> DivisorClass:
    """The total cotangent class restricted to {T2, T3j}, with b = 6k:
    2(b-2)/(b-1) on T2 and 3j(b-3j)/(b-1) on T3j."""
    b = 6 * k
    t3j = [3 * j * (b - 3 * j) for j in range(1, k + 1)]
    return _restricted(k, b - 1, 2 * (b - 2), t3j)


@per_k_cache
def delta_restricted(k: int) -> DivisorClass:
    """The total boundary class restricted to {T2, T3j}."""
    return _restricted(k, 1, 1, [1] * k)


@per_k_cache
def kappa_class(k: int) -> DivisorClass:
    """The ample class psi - delta on the restricted basis: the T2
    coefficient is (b-3)/(b-1) and the T3j coefficient is
    (3j-1)(b-3j-1)/(b-1), with b = 6k."""
    b = 6 * k
    t3j = [(3 * j - 1) * (b - 3 * j - 1) for j in range(1, k + 1)]
    return _restricted(k, b - 1, b - 3, t3j)
