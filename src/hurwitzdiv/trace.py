"""Divisor classes on the Hurwitz basis for covers of even genus g = 2k
and degree d = k+1: the node classes and dualizing-sheaf push-forwards
of the trace-curve and reduced-trace-curve families, the resulting
Hodge-class pullbacks, the branch-point pullback map q*, and the
boundary pullbacks from the two target moduli spaces.

Every evaluator is a total function of k.  The generators E2 and E3 do
not exist for small k (E2 needs k >= 3, E3 needs k >= 2) and their terms
are dropped uniformly; the only further small-k adjustment is the
reduced-trace node coefficient at k = 1, see :func:`_s_int`.

The integer families over E_{j,c} (the push-forward multiplicities e,
the node counts d and s, the dualizing terms a and the closed-form
numerators t and u) are each built once per k straight into the flat
layout in which a Hurwitz class stores its E_{j,c} part, and read
through :func:`jc_family`.  The class builders hand those tuples to the
class as they are, the boundary pullbacks build theirs in the same
layout and q* writes each T3j column into the slice of row j, so no
builder forms an E_{j,c} name; :func:`alpha_table` and the delta_j
predictions of ``pushforward`` take ``bases.row_sums`` of a product of
two families; the "e" family holds the integers e_{j,c} themselves, so
no reader divides.  A family is built only when asked for.  The e
family is the product of two ballot numbers per entry, both factors
built as rows of ballot numbers by Pascal's rule (:func:`_e_family`):
additions and multiplications, with no ``comb`` and no division.  The
node counts d and s are built from their definitions :func:`_d_int` and
:func:`_s_int`, which hold their formulas alone: each row is a cubic in
c with third difference -12, read at c = 0, 1, 2 and carried on by
running sums (:func:`_cubic_rows`).  The other per-coefficient
functions (:func:`e_numerator`, :func:`e_coeff`, :func:`t_numerator`,
...) stay as the definitions that the tests hold the families to.

Each Hodge assembly is written once, as the (scalar, class) terms of one
``bases.linear_combination``: :func:`phi_lambda_terms` (omega_tau^2 and
delta_tau, each over 12), the terms of :func:`s_omega_sq` (half of
omega_tau^2, minus three quarters of the pulled cotangent class) and
:func:`phihat_lambda_terms` (those terms and delta_s, each over 12).
So phi-hat^*lambda is one combination of the cached inputs, and
``pushforward.prym_hodge_class`` one more of both term lists.  The
pulled-back cotangent class :func:`pulled_psi` is built once and shared
by :func:`grr_pieces` and :func:`s_omega_sq`.  The
boundary pullbacks of index j = 1..k are one entry on E_{j,0}, given by
one function per correspondence, which also builds their sum over j as
one class (:func:`phi_pull_boundary_sum`) for ``slopes.slope_target``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from math import comb
from operator import add, mul, sub
from typing import Callable, Iterable, NamedTuple

from .bases import (
    ClassMap,
    DivisorClass,
    IndexRangeError,
    T2,
    T3j,
    ejc_offsets,
    genus_reduced_trace,
    genus_trace,
    hurwitz_basis,
    hurwitz_head,
    linear_combination,
    m0b_sym_basis,
    require_k,
    row_sums,
    zero_class,
)
from .core import per_k_cache
from .m0b import delta_restricted, psi_restricted

# (scalar, class) pairs, the terms of one ``bases.linear_combination``
Terms = tuple[tuple[Fraction, DivisorClass], ...]


@dataclass(frozen=True)
class GenusData:
    """The numerical invariants attached to one value of k."""

    k: int
    g: int
    d: int
    b: int
    g_prime: int
    g_hat: int
    prym_dim: int

    def __post_init__(self) -> None:
        require_k(self.k)


@per_k_cache
def genus_data(k: int) -> GenusData:
    """Genus bookkeeping for covers of genus 2k and degree k+1: g' is
    :func:`genus_trace`, the Prym dimension g' - g-hat.  The ``genus``
    check compares g' with (g - 1)(2d - 3) + (d - 1)^2."""
    require_k(k)
    g_prime, g_hat = genus_trace(k), genus_reduced_trace(k)
    return GenusData(k, 2 * k, k + 1, 6 * k, g_prime, g_hat, g_prime - g_hat)


@per_k_cache
def catalan_number(k: int) -> int:
    """N(k) = C(2k, k)/(k+1), the number of degree-(k+1) pencils on a
    general curve of genus 2k, as an int: k + 1 divides C(2k, k).  The
    ``catalan`` check compares k N(k) with C(2k, k+1)."""
    require_k(k)
    return comb(2 * k, k) // (k + 1)


def _check_jc(k: int, j: int, c: int) -> None:
    require_k(k)
    if not (1 <= j <= k and 0 <= c <= j // 2):
        raise IndexRangeError(f"(j, c) = ({j}, {c}) out of range for k = {k}")


# The coefficient families below are evaluated in integers, each over a
# single denominator.  The class builders pass those integers to the
# divisor class as they are; only :func:`e_coeff` turns its value into
# one Fraction at the end.


def e_numerator(k: int, j: int, c: int) -> int:
    """e_{j,c} times its denominator (j+1)(2k-j+1), which divides it:
    with m = j+1-2c, m C(j+1, c)/(j+1) = C(j, c) - C(j, c-1) and
    m C(2k-j+1, k+1-c)/(2k-j+1) = C(2k-j, k-c) - C(2k-j, k+1-c), so
    e_{j,c} is a product of two ballot numbers, an integer."""
    m = j + 1 - 2 * c
    return m * m * comb(j + 1, c) * comb(2 * k - j + 1, k + 1 - c)


def _ballot_step(row: list[int], n: int) -> list[int]:
    """The ballot numbers B(n, r) = C(n, r) - C(n, r-1) of row n over
    r = a+1 .. floor(n/2), from ``row``, those of row n-1 over r = a ..
    floor((n-1)/2), by Pascal's rule B(n, r) = B(n-1, r) + B(n-1, r-1):
    one C-level ``map(add, ...)``.  For even n the last entry is the last
    of ``row``, since B(n-1, n/2) = 0."""
    step = [*map(add, row, row[1:])]
    if n % 2 == 0:
        step.append(row[-1])
    return step


def _e_family(k: int) -> Iterable[int]:
    """The integers e_{j,c} over every E_{j,c}, in the flat layout:
    :func:`e_numerator` over (j+1)(2k-j+1) is the ballot product
    B(j, c) B(2k-j, k-j+c) (the second factor is C(2k-j, k-c) -
    C(2k-j, k+1-c), by the symmetry C(m, r) = C(m, m-r)), built by
    additions and multiplications alone.  The low factors are the rows
    n = 0..k of B(n, r), r = 0..floor(n/2), each a :func:`_ballot_step`
    of the one before with B(n, 0) = 1 put in front.  The high factors
    of row j are the window r = m-k .. floor(m/2) of row m = 2k-j; the
    window of m = k is the low row k, and each next window, one step up
    in r, is a :func:`_ballot_step` of the last.  Low row j and the
    window of row 2k-j both hold floor(j/2) + 1 entries, so the family
    is one C-level product pass over the low rows j = 1..k and the
    windows in the reverse of the order they were built."""
    lows = list(
        accumulate(range(1, k + 1), lambda row, n: [1, *_ballot_step(row, n)], initial=[1])
    )
    highs = list(accumulate(range(k + 1, 2 * k), _ballot_step, initial=lows[k]))
    return map(mul, chain.from_iterable(lows[1:]), chain.from_iterable(reversed(highs)))


def e_coeff(k: int, j: int, c: int) -> Fraction:
    """Multiplicity of delta_j in the push-forward of E_{j,c}."""
    _check_jc(k, j, c)
    return Fraction(e_numerator(k, j, c), (j + 1) * (2 * k - j + 1))


def t3j_weights(j: int) -> tuple[int, ...]:
    """The multiplicities j+1-2c, c = 0 .. floor(j/2), of E_{j,c} in the
    pullback q^*T3j: the E_{j,c} row j of that class."""
    return tuple(range(j + 1, 0, -2))


@per_k_cache
def alpha_table(k: int) -> tuple[int, ...]:
    """The total weights alpha(k, j) = sum((j+1-2c) e_{j,c}) of the
    pushed symmetric boundary classes T3j, indexed by j = 1 .. k (entry
    0 is 0: there is no T3j_0)."""
    weights = chain.from_iterable(map(t3j_weights, range(1, k + 1)))
    return (0,) + tuple(row_sums(k, map(mul, jc_family(k, "e"), weights)))


def _d_int(k: int, j: int, c: int) -> int:
    """d_{j,c}, the node count over E_{j,c} of the trace-curve family."""
    return (
        (comb(c, 2) + comb(k - j + c, 2)) * (j + 1 - 2 * c)
        + 2 * (c + 1) * (k - j + c)
        + j
    )


def _a_lead(k: int, j: int) -> int:
    # the part of a_{j,c} that is not (j + 1 - 2c)
    return 27 * j * (2 * k - 1) * (2 * k - j) - 2 * k * (k + 1) * (6 * k - 1)


def _a_numerator(k: int, j: int, c: int) -> int:
    """a_{j,c}, the E_{j,c} coefficient of the pushed square of the
    relative dualizing sheaf of the trace-curve family, times 2(6k-1)."""
    return (j + 1 - 2 * c) * _a_lead(k, j)


def t_numerator(k: int, j: int, c: int) -> int:
    """t_{j,c} = a_{j,c} + d_{j,c} times its denominator 2(6k-1)."""
    return _a_numerator(k, j, c) + 2 * (6 * k - 1) * _d_int(k, j, c)


def _s_int(k: int, j: int, c: int) -> int:
    """s_{j,c}, the node count over E_{j,c} of the reduced-trace-curve
    family.

    For k = 1 the single coefficient is 1, not the value 2 of the
    general expression: the reduced trace curve of a genus-2 cover is
    the base line itself and its family acquires exactly one node over
    E_{1,0}.
    """
    if k == 1:
        return 1
    return (
        (k - j + c) * (c + 1)
        + (comb(k - j + c, 2) + comb(c, 2)) * (j + 1 - 2 * c)
        + (j + 1) // 2
        + (1 if j % 2 == 1 else 0)
    )


def _u_correction(k: int, j: int) -> int:
    # the part of 2(6k-1) s_{j,c} - u_{j,c} that is not (j + 1 - 2c)
    return (27 * k - 27) * j * j - 54 * (k * k - k) * j + (k * k + k) * (6 * k - 1)


def u_numerator(k: int, j: int, c: int) -> int:
    """u_{j,c} times its denominator 2(6k-1)."""
    correction = (j + 1 - 2 * c) * _u_correction(k, j)
    return 2 * (6 * k - 1) * _s_int(k, j, c) - correction


def _cubic_rows(k: int, entry: Callable[[int, int, int], int]) -> list[int]:
    """``entry(k, j, c)`` over every E_{j,c}, for the node counts
    :func:`_d_int` and :func:`_s_int`: each row j is a cubic in c whose
    third difference is -12 (the c^3 coefficient of both is -2), so a
    row of three or more entries is its values at c = 0, 1, 2 carried on
    by three C-level running sums, of the second differences, the first
    differences and the values.  The shorter rows j = 1, 2, 3, and so
    the one entry of k = 1, read ``entry`` itself."""
    flat = []
    for j in range(1, k + 1):
        n = j // 2 + 1
        if n < 3:
            flat += [entry(k, j, c) for c in range(n)]
            continue
        v0, v1, v2 = entry(k, j, 0), entry(k, j, 1), entry(k, j, 2)
        second = accumulate(repeat(-12, n - 3), initial=v2 - 2 * v1 + v0)
        flat += accumulate(accumulate(second, initial=v1 - v0), initial=v0)
    return flat


def _t3j_multiples(k: int, per_row: Callable[[int, int], int]) -> list[int]:
    """(j + 1 - 2c) per_row(k, j) over every E_{j,c}."""
    flat = []
    for j in range(1, k + 1):
        x = per_row(k, j)
        flat += [m * x for m in t3j_weights(j)]
    return flat


# t = a + 2(6k - 1) d and u = 2(6k - 1) s - (j + 1 - 2c) _u_correction
_FAMILIES: dict[str, Callable[[int], Iterable[int]]] = {
    "e": _e_family,
    "d": lambda k: _cubic_rows(k, _d_int),
    "a": lambda k: _t3j_multiples(k, _a_lead),
    "s": lambda k: _cubic_rows(k, _s_int),
    "t": lambda k: map(
        add, jc_family(k, "a"), map((2 * (6 * k - 1)).__mul__, jc_family(k, "d"))
    ),
    "u": lambda k: map(
        sub, map((2 * (6 * k - 1)).__mul__, jc_family(k, "s")), _t3j_multiples(k, _u_correction)
    ),
}

JC_FAMILIES = tuple(_FAMILIES)


@per_k_cache
def jc_family(k: int, family: str) -> tuple[int, ...]:
    """One integer family over E_{j,c}, as a flat tuple laid out like
    ``bases.ejc_names``: row j, the values for c = 0 .. floor(j/2), runs
    from ``bases.ejc_offsets(k)[j]`` to ``[j + 1]``.

    The families are the push-forward multiplicities e_{j,c}
    themselves, integers (:func:`_e_family`, ``"e"``), the node counts
    :func:`_d_int` (``"d"``) and :func:`_s_int` (``"s"``), and the
    numerators over 2(6k-1) given by :func:`_a_numerator` (``"a"``),
    :func:`t_numerator` (``"t"``) and :func:`u_numerator` (``"u"``); the
    last two are derived from the cached ``"a"``, ``"d"`` and ``"s"``
    families.  Each (k, family) is built on first use, so a caller that
    needs one family pays for that one alone."""
    require_k(k)
    if family not in _FAMILIES:
        raise ValueError(f"unknown E_(j,c) family {family!r}; known: {JC_FAMILIES}")
    return tuple(_FAMILIES[family](k))


def _build(k: int, den: int, e0: int, e2: int, e3: int, flat: tuple) -> DivisorClass:
    """A Hurwitz class from integer numerators over ``den``: the E0,
    E2 and E3 values (dropped when zero or when the generator does not
    exist) and the flat E_{j,c} tuple in the :func:`jc_family` layout,
    handed over as it is."""
    return DivisorClass._raw(
        hurwitz_basis(k),
        den,
        {name: n for name, n in hurwitz_head(k, e0, e2, e3).items() if n},
        flat,
    )


def _ej0_class(k: int, entries) -> DivisorClass:
    """The class sum n E_{j,0} over the (j, n) pairs ``entries``."""
    offsets = ejc_offsets(k)
    flat = [0] * offsets[-1]
    for j, n in entries:
        flat[offsets[j]] = n
    return _build(k, 1, 0, 0, 0, tuple(flat))


@per_k_cache
def delta_tau(k: int) -> DivisorClass:
    """Push-forward of the singular locus of the trace-curve family."""
    return _build(
        k,
        1,
        k * k + k,
        2 * k * k - 10 * k + 18,
        3 * k * k - 13 * k + 16,
        jc_family(k, "d"),
    )


@per_k_cache
def omega_tau_sq(k: int) -> DivisorClass:
    """Pushed square of the relative dualizing sheaf of the trace-curve
    family, in closed form."""
    # the E0/E2/E3 lead (-6k^3 + 31k^2 - 29k + 6)/(6k - 1) times 1, 2, 3
    lead = 2 * (-6 * k**3 + 31 * k * k - 29 * k + 6)
    return _build(k, 2 * (6 * k - 1), lead, 2 * lead, 3 * lead, jc_family(k, "a"))


@per_k_cache
def q_pullback(k: int) -> ClassMap:
    """The pullback map along q from the symmetric boundary classes of
    the space of 6k-pointed rational curves to the Hurwitz basis."""
    cols = {T2: (hurwitz_head(k, 1, 2, 3), ())}
    for j in range(1, k + 1):
        # q^*T3j is the one E_{j,c} row j, of weights j + 1 - 2c
        cols[T3j(j)] = ({}, (j, t3j_weights(j)))
    return ClassMap._raw(m0b_sym_basis(k), hurwitz_basis(k), 1, cols)


class GrrPieces(NamedTuple):
    """The three summands of the pushed dualizing-sheaf square of the
    trace family: the pulled-back square from the universal cover, the
    mixed term with the ramification divisor, and the square of the
    ramification divisor."""

    omega_sq: DivisorClass
    cross: DivisorClass
    ram_sq: DivisorClass

    def assembled(self) -> DivisorClass:
        return linear_combination(
            self.omega_sq.basis, ((1, self.omega_sq), (2, self.cross), (1, self.ram_sq))
        )


@per_k_cache
def pulled_psi(k: int) -> DivisorClass:
    """The total cotangent class pulled back along q, shared by the GRR
    pieces and the reduced-trace dualizing square."""
    return q_pullback(k).apply(psi_restricted(k))


@per_k_cache
def grr_pieces(k: int) -> GrrPieces:
    psi = psi_restricted(k)
    boundary_sum = delta_restricted(k)
    omega_sq = q_pullback(k).apply(
        linear_combination(
            psi.basis, ((Fraction(3 * k, 2), psi), (-k * (k + 1), boundary_sum))
        )
    )
    pulled = pulled_psi(k)
    cross = pulled * (k - 1)
    ram_sq = pulled * Fraction(-(k - 1), 2)
    return GrrPieces(omega_sq, cross, ram_sq)


def phi_lambda_terms(k: int) -> Terms:
    """:func:`phi_pull_lambda` as the terms of one
    ``bases.linear_combination``: one twelfth of the pushed dualizing
    square plus one twelfth of the node class."""
    twelfth = Fraction(1, 12)
    return ((twelfth, omega_tau_sq(k)), (twelfth, delta_tau(k)))


@per_k_cache
def phi_pull_lambda(k: int) -> DivisorClass:
    """Pullback of the Hodge class of the trace-curve moduli space,
    one twelfth of node class plus pushed dualizing square."""
    return linear_combination(hurwitz_basis(k), phi_lambda_terms(k))


@per_k_cache
def twelve_lambda_trace_closed(k: int) -> DivisorClass:
    """Closed form of twelve times :func:`phi_pull_lambda`."""
    # E0/E2/E3 are 2/(6k - 1) times t0, t2, t3
    t0 = 18 * k * k - 15 * k + 3
    t2 = 30 * k - 3
    t3 = 6 * k * k + 11 * k + 1
    return _build(k, 2 * (6 * k - 1), 4 * t0, 4 * t2, 4 * t3, jc_family(k, "t"))


@per_k_cache
def delta_s(k: int) -> DivisorClass:
    """Push-forward of the singular locus of the reduced-trace family."""
    # E0 and E3 carry (k^2 + k)/2 and (3k^2 - 13k + 16)/2, both integers
    return _build(
        k,
        1,
        (k * k + k) // 2,
        k * k - 5 * k + 12,
        (3 * k * k - 13 * k + 16) // 2,
        jc_family(k, "s"),
    )


def _s_omega_terms(k: int) -> Terms:
    """:func:`s_omega_sq` as terms: half the trace value minus three
    quarters of the pulled-back cotangent class."""
    return ((Fraction(1, 2), omega_tau_sq(k)), (Fraction(-3, 4), pulled_psi(k)))


@per_k_cache
def s_omega_sq(k: int) -> DivisorClass:
    """Pushed dualizing square of the reduced-trace family: half the
    trace value minus three quarters of the pulled-back cotangent
    class."""
    return linear_combination(hurwitz_basis(k), _s_omega_terms(k))


def phihat_lambda_terms(k: int) -> Terms:
    """:func:`phihat_pull_lambda` as terms: those of :func:`s_omega_sq`
    and the node class ``delta_s``, each over 12, so the reduced Hodge
    class is one combination of the cached inputs, with no
    ``s_omega_sq`` built on the way."""
    twelfth = Fraction(1, 12)
    return (*((x * twelfth, d) for x, d in _s_omega_terms(k)), (twelfth, delta_s(k)))


@per_k_cache
def phihat_pull_lambda(k: int) -> DivisorClass:
    """Pullback of the Hodge class of the reduced-trace moduli space."""
    return linear_combination(hurwitz_basis(k), phihat_lambda_terms(k))


@per_k_cache
def twelve_lambda_reduced_closed(k: int) -> DivisorClass:
    """Closed form of twelve times :func:`phihat_pull_lambda`."""
    # E0/E2/E3 are 2/(6k - 1) times u0, u2, u3
    u0 = 9 * k * k - 12 * k + 3
    u2 = 15 * k
    u3 = 3 * k * k - 8 * k + 5
    return _build(k, 2 * (6 * k - 1), 4 * u0, 4 * u2, 4 * u3, jc_family(k, "u"))


def _check_boundary_index(k: int, j: int, genus: Callable[[int], int]) -> None:
    """Refuse a bad k, then an index j outside 0..floor(g/2), g = genus(k)."""
    require_k(k)
    if not 0 <= j <= genus(k) // 2:
        raise IndexRangeError(f"boundary index {j} out of range 0..{genus(k) // 2}")


def _phi_boundary_entry(k: int, j: int) -> int:
    """The one entry, on E_{j,0}, of phi^*delta'_j for 1 <= j <= k."""
    return 2 * k - 1 if j == 1 else 2 * k - 2 * j


def _phihat_boundary_entry(k: int, j: int) -> int:
    """The one entry, on E_{j,0}, of phi-hat^*delta-hat_j for 1 <= j <= k."""
    return k - 1 if j <= 2 else k - j


def _boundary_sum(k: int, entry, genus: Callable[[int], int]) -> DivisorClass:
    """The sum over j = 1..k of the one-entry boundary pullbacks
    ``entry(k, j)`` E_{j,0}, as one class; the index k must exist in a
    moduli space of curves of genus ``genus(k)``."""
    _check_boundary_index(k, k, genus)
    return _ej0_class(k, [(j, entry(k, j)) for j in range(1, k + 1)])


@per_k_cache
def phi_pull_boundary(k: int, j_prime: int) -> DivisorClass:
    """Pullback of the boundary class delta'_{j'} of the trace-curve
    moduli space; zero for j' > k."""
    _check_boundary_index(k, j_prime, genus_trace)
    if j_prime == 0:
        # E_{1,0} is not in the class; entry (j, c) is j on E_{j,0} and
        # 2(k - j + c)(c + 1) + j for c >= 1
        flat = [
            2 * (k - j + c) * (c + 1) + j if c else j if j > 1 else 0
            for j in range(1, k + 1)
            for c in range(j // 2 + 1)
        ]
        return _build(k, 1, 4 * k - 2, 4, 2, tuple(flat))
    if j_prime <= k:
        return _ej0_class(k, [(j_prime, _phi_boundary_entry(k, j_prime))])
    return zero_class(hurwitz_basis(k))


def phi_pull_boundary_sum(k: int) -> DivisorClass:
    """The sum of :func:`phi_pull_boundary` over j' = 1..k (the higher
    ones are zero), built as one class."""
    return _boundary_sum(k, _phi_boundary_entry, genus_trace)


@per_k_cache
def phihat_pull_boundary(k: int, j_hat: int) -> DivisorClass:
    """Pullback of the boundary class of the reduced-trace moduli
    space; zero for indices above k."""
    _check_boundary_index(k, j_hat, genus_reduced_trace)
    if j_hat == 0:
        # entry (j, c) is (k - j + c)(c + 1) + tail_j, tail_j = (j + 1)//2
        # + (j mod 2), for c >= 1, and tail_j on E_{j,0}; rows 1 and 2 are
        # the exception: E_{1,0} and E_{2,0} are not in the class, and the
        # (j, c) = (2, 1) entry is one below the rule, 2k - 2
        flat = [0, 0, 2 * k - 2][: ejc_offsets(k)[-1]]
        for j in range(3, k + 1):
            tail = (j + 1) // 2 + j % 2
            flat += [tail, *[(k - j + c) * (c + 1) + tail for c in range(1, j // 2 + 1)]]
        return _build(k, 1, 2 * k - 2, 2, 0, tuple(flat))
    if j_hat <= k:
        return _ej0_class(k, [(j_hat, _phihat_boundary_entry(k, j_hat))])
    return zero_class(hurwitz_basis(k))


def phihat_pull_boundary_sum(k: int) -> DivisorClass:
    """The sum of :func:`phihat_pull_boundary` over j = 1..k, built as
    one class."""
    return _boundary_sum(k, _phihat_boundary_entry, genus_reduced_trace)
