"""Push-forward of Hurwitz classes to the moduli space of genus-2k
curves, the composite correspondence actions, the branch divisor of the
covering map, and the Prym pullback classes.

Every push-forward builder returns its class per factorial b: the
(6k)! factor that the labelling of the branch points contributes to the
degree of the covering-space map is divided out, so tables stay
readable.  The ``raw`` normalization, which carries that factor, is a
way of rendering, not a second build path: the raw class is the
per-factorial-b class times :func:`factorial_b`, and the writers render
it from the stored integers and that scale.  The
coefficients of delta_j for j >= 1 involve the external symbols c_j and
b_j, which stay symbolic unless an :class:`ExternalCoeffs` table is
supplied; the lambda and delta_0 coefficients are always symbol-free.
The symbols enter only through the E2/E3 columns of :func:`p_push` and
the T2 column of :func:`p_q_map`, each of which writes one weight of
c_j or b_j that every delta_j carries, so a pushed class stores its
symbols as two weights (``bases.C_WEIGHT``/``B_WEIGHT``), and
:meth:`ExternalCoeffs.apply` substitutes a table in one pass over j.

:func:`p_push` sends E_{j,c} to e_{j,c} delta_j only, with e_{j,c}
the flat family ``trace.jc_family(k, "e")``, which it stores as it is:
applying it to a Hurwitz class, stored in the same flat layout, is one
product pass and one prefix-sum difference per j, and each T3j column
of :func:`p_q_composed` one slice dot product.  The expected Hodge
classes :func:`p_phi_lambda_expected`/:func:`p_phihat_lambda_expected`
take the row sums of e times t and u, and the R of :func:`eh_divisor`
is a flat tuple of ones; no builder here forms an E_{j,c} name.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Mapping

from .bases import (
    B_WEIGHT,
    C_WEIGHT,
    ClassMap,
    DivisorClass,
    E2,
    E3,
    LAMBDA,
    T3j,
    T2,
    delta_names,
    ejc_offsets,
    hurwitz_basis,
    hurwitz_head,
    linear_combination,
    mg_basis,
    numerator_over,
    row_sums,
)
from .core import per_k_cache
from .m0b import kappa_class
from .trace import (
    alpha_table,
    catalan_number,
    jc_family,
    phi_pull_boundary,
    phi_pull_lambda,
    phihat_pull_boundary,
    phihat_pull_lambda,
    q_pullback,
)

RAW = "raw"
PER_FACTORIAL_B = "per-factorial-b"

NORMALIZATIONS = (RAW, PER_FACTORIAL_B)


def factorial_b(k: int) -> int:
    """(6k)!, the branch-point labelling factor."""
    return factorial(6 * k)


def _check_indices(k: int, label: str, table: Mapping) -> None:
    """Refuse a table whose keys are not exactly the ints 1..k."""
    # k distinct keys, each an int (no bool) in 1..k, are exactly 1..k;
    # no range(1, k + 1) is built, so a huge k costs nothing
    odd = [j for j in table if type(j) is not int]
    if odd:
        # the first one, named with its type: mixed keys do not sort
        got = f"index {odd[0]!r} ({type(odd[0]).__name__})"
    elif len(table) != k or not all(1 <= j <= k for j in table):
        got = f"indices {sorted(table)}"
    else:
        return
    raise ValueError(f"external table {label!r} must cover exactly 1..{k}, got {got}")


class ExternalCoeffs:
    """A complete table of the external coefficients c_1..c_k and
    b_1..b_k for one value of k.  Partial tables are rejected, and so is
    a value that is not an ``int`` or a ``Fraction``.

    The table is stored once, when it is made, as the c and b numerators
    by j over the lcm of the denominators: the integers that
    :meth:`apply` hands to the substitution kernel of ``DivisorClass``.
    Both constructors build them in :meth:`_store`; :meth:`_from_ratios`
    takes the int pairs that ``serialize`` reads straight from "p/q"
    text, with no reduced ``Fraction`` per value.  ``k`` and the
    ``Fraction`` views :attr:`c` and :attr:`b`, built when read, are
    read-only."""

    def __init__(self, k: int, c: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> None:
        pairs = []
        for label, table in (("c", c), ("b", b)):
            odd = [v for v in table.values() if not isinstance(v, (int, Fraction))]
            if odd:
                raise TypeError(
                    f"external table {label!r}: cannot interpret "
                    f"{type(odd[0]).__name__} as a coefficient"
                )
            pairs.append({j: (v.numerator, v.denominator) for j, v in table.items()})
        self._store(k, *pairs)

    @classmethod
    def _from_ratios(
        cls, k: int, c: dict[int, tuple[int, int]], b: dict[int, tuple[int, int]]
    ) -> "ExternalCoeffs":
        """The table of the int pairs (p, q), q > 0, for p/q by index."""
        ext = cls.__new__(cls)
        ext._store(k, c, b)
        return ext

    def _store(self, k: int, c: Mapping, b: Mapping) -> None:
        # the pairs of c_1..c_k and b_1..b_k over the lcm of their
        # denominators, in index order whatever the order of the tables
        _check_indices(k, "c", c)
        _check_indices(k, "b", b)
        den = lcm(*(q for _, q in c.values()), *(q for _, q in b.values()))
        self._k, self._den = k, den
        self._c_nums, self._b_nums = (
            tuple([p * (den // q) for p, q in map(table.__getitem__, range(1, k + 1))])
            for table in (c, b)
        )

    @property
    def k(self) -> int:
        return self._k

    @property
    def c(self) -> dict[int, Fraction]:
        """c_j by index j, a fresh dict on every read."""
        return {j: Fraction(n, self._den) for j, n in enumerate(self._c_nums, 1)}

    @property
    def b(self) -> dict[int, Fraction]:
        """b_j by index j, a fresh dict on every read."""
        return {j: Fraction(n, self._den) for j, n in enumerate(self._b_nums, 1)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExternalCoeffs):
            return NotImplemented
        return (self.k, self.c, self.b) == (other.k, other.c, other.b)

    def __repr__(self) -> str:
        return f"ExternalCoeffs(k={self.k!r}, c={self.c!r}, b={self.b!r})"

    def apply(self, d: DivisorClass) -> DivisorClass:
        """``d`` with c_j and b_j replaced by the table's values, from
        the integer table; a class that carries symbols must lie over
        ``Mg(k)`` of the table's k."""
        return d._substituted(self._c_nums, self._b_nums, self._den)


@per_k_cache
def p_push(k: int) -> ClassMap:
    """The push-forward map from the Hurwitz basis to the genus-2k
    moduli basis, row by generator, per factorial b.  Every column is
    written in integers over the one denominator 2(2k-1): E0 sends
    N/2 to delta_0, and with the leads (k-2)N/(2k-1) of E2 and
    3N/(2(2k-1)) of E3 the E2/E3 columns reach lambda, delta_0 and the
    weight 1/2 of c_j or -lead_3 of b_j, which every delta_j carries."""
    n = catalan_number(k)
    den = 2 * (2 * k - 1)
    lead2, lead3 = 2 * (k - 2) * n, 3 * n  # the two leads over den
    deltas = delta_names(k)
    e0 = {deltas[0]: (2 * k - 1) * n}
    e2 = {
        LAMBDA: lead2 * (18 * k * k + 51 * k - 9),
        deltas[0]: -lead2 * (3 * k * k + 4 * k - 1),
        C_WEIGHT: 2 * k - 1,
    }
    e3 = {
        LAMBDA: lead3 * (12 * k * k + 46 * k - 8),
        deltas[0]: -lead3 * (2 * k * k + 4 * k - 1),
        B_WEIGHT: -lead3,
    }
    heads = hurwitz_head(k, e0, e2, e3)
    cols = {name: (head, ()) for name, head in heads.items()}
    # E_{j,c} goes to e_{j,c} delta_j, all positive integers
    # (trace.e_numerator): the e family itself, over 1
    block = (deltas[1:], jc_family(k, "e"))
    return ClassMap._raw(hurwitz_basis(k), mg_basis(k), den, cols, block)


@per_k_cache
def p_phi_lambda(k: int) -> DivisorClass:
    """Push-forward of the pulled-back Hodge class of the trace-curve
    moduli space."""
    return p_push(k).apply(phi_pull_lambda(k))


@per_k_cache
def p_phihat_lambda(k: int) -> DivisorClass:
    """Push-forward of the pulled-back Hodge class of the reduced-trace
    moduli space."""
    return p_push(k).apply(phihat_pull_lambda(k))


@per_k_cache
def p_phi_delta(k: int, j_prime: int) -> DivisorClass:
    """Correspondence action on the boundary class delta'_{j'}."""
    return p_push(k).apply(phi_pull_boundary(k, j_prime))


@per_k_cache
def p_phihat_delta(k: int, j_hat: int) -> DivisorClass:
    """Correspondence action on the reduced-trace boundary class."""
    return p_push(k).apply(phihat_pull_boundary(k, j_hat))


def p_phi_lambda_closed_coeffs(k: int) -> tuple[Fraction, Fraction]:
    """Closed-form (lambda, delta_0) coefficients of
    :func:`p_phi_lambda` in per-factorial-b normalization; valid for
    k >= 3 (below that the E2/E3 generators are missing)."""
    n = catalan_number(k)
    lam = Fraction(n * (18 * k**3 + 31 * k * k - 69 * k + 11), 2 * k - 1)
    d0 = Fraction(-n * (3 * k**3 - 5 * k + 1), 2 * k - 1)
    return lam, d0


def p_phihat_lambda_closed_coeffs(k: int) -> tuple[Fraction, Fraction]:
    """Closed-form (lambda, delta_0) coefficients of
    :func:`p_phihat_lambda`, stated for k >= 3."""
    n = catalan_number(k)
    lam = Fraction(n * (18 * k**3 + 19 * k * k - 117 * k + 20), 2 * (2 * k - 1))
    d0 = Fraction(-n * (k - 2) * (3 * k * k + 4 * k - 1), 2 * (2 * k - 1))
    return lam, d0


def p_phi_delta0_closed_coeffs(k: int) -> tuple[Fraction, Fraction]:
    """Closed-form (lambda, delta_0) coefficients of the pushed
    boundary class delta'_0, per-factorial-b."""
    n = catalan_number(k)
    lam = Fraction(6 * n * (6 * k - 1) * (2 * k * k + 3 * k - 8), 2 * k - 1)
    d0 = Fraction(-2 * n * (6 * k**3 - 3 * k * k - 10 * k + 2), 2 * k - 1)
    return lam, d0


def p_phihat_delta0_closed_coeffs(k: int) -> tuple[Fraction, Fraction]:
    """Closed-form (lambda, delta_0) coefficients of the pushed
    reduced-trace boundary class, per-factorial-b."""
    n = catalan_number(k)
    lam = Fraction(6 * n * (6 * k - 1) * (k + 3) * (k - 2), 2 * k - 1)
    d0 = Fraction(-n * (6 * k**3 - 6 * k * k - 15 * k + 3), 2 * k - 1)
    return lam, d0


def _hodge_expected(k: int, closed, family: str, c_weight, b_weight) -> DivisorClass:
    """A pushed Hodge class as predicted: lambda and delta_0 from
    ``closed(k)``; on delta_j one twelfth of sum_c e_{j,c} w_{j,c}, the
    weights w given by their :func:`~hurwitzdiv.trace.jc_family` numerators
    over 2(6k-1) and summed in integers, plus ``c_weight`` c_j (from E2)
    and -N ``b_weight`` b_j (from E3), each where ``Hurwitz(k)`` has the
    generator."""
    lam, d0 = closed(k)
    b_weight = -catalan_number(k) * b_weight
    # delta_j: the e.w dot product over 24(6k-1)
    w_den = 24 * (6 * k - 1)
    den = lcm(*(x.denominator for x in (lam, d0, c_weight, b_weight)), w_den)
    head = hurwitz_head(k, None, c_weight, b_weight)
    c, b = (numerator_over(head.get(name, 0), den) for name in (E2, E3))
    names = delta_names(k)
    nums = {LAMBDA: numerator_over(lam, den), names[0]: numerator_over(d0, den)}
    dots = row_sums(k, map(mul, jc_family(k, "e"), jc_family(k, family)))
    nums.update(zip(names[1:], map((den // w_den).__mul__, dots)))
    nums[C_WEIGHT], nums[B_WEIGHT] = c, b
    return DivisorClass._raw(mg_basis(k), den, {key: n for key, n in nums.items() if n})


def p_phi_lambda_expected(k: int) -> DivisorClass:
    """:func:`p_phi_lambda` as predicted by the closed forms and the row
    structure of the push-forward: c_j carries (10k-1)/(4(6k-1)), b_j the
    E3 weight, the constant one twelfth of sum e_{j,c} (a_{j,c} + d_{j,c})."""
    c_weight = Fraction(10 * k - 1, 4 * (6 * k - 1))
    b_weight = Fraction(6 * k * k + 11 * k + 1, 4 * (12 * k * k - 8 * k + 1))
    return _hodge_expected(k, p_phi_lambda_closed_coeffs, "t", c_weight, b_weight)


def p_phihat_lambda_expected(k: int) -> DivisorClass:
    """:func:`p_phihat_lambda` as predicted, with the weights u_{j,c}."""
    c_weight = Fraction(5 * k, 4 * (6 * k - 1))
    b_weight = Fraction(3 * k * k - 8 * k + 5, 4 * (6 * k - 1) * (2 * k - 1))
    return _hodge_expected(k, p_phihat_lambda_closed_coeffs, "u", c_weight, b_weight)


@per_k_cache
def p_q_map(k: int) -> ClassMap:
    """The composite correspondence action on the symmetric boundary
    classes of the 6k-pointed rational moduli space, by the generic-k
    rows, per factorial b.

    For k >= 3 this equals composing :func:`q_pullback` with
    :func:`p_push`.  The generic rows keep the E2/E3 content that the
    small-k Hurwitz bases drop (it only cancels for k >= 2 in the
    lambda/delta_0 part), so the closed-form slope bound of the ample
    boundary class holds for every k.
    """
    n = catalan_number(k)
    # over den = 2(2k-1): the lead k(6k-1)N/(2k-1) and the b_j weight
    # 9N/(2(2k-1))
    den = 2 * (2 * k - 1)
    lead = 2 * k * (6 * k - 1) * n
    # the T2 column carries c_j and b_j on each delta_j: weights 1 and
    # -9N/(2(2k-1))
    names = delta_names(k)
    t2 = {
        LAMBDA: 3 * (2 * k + 5) * lead,
        names[0]: -(k + 1) * lead,
        C_WEIGHT: den,
        B_WEIGHT: -9 * n,
    }
    cols = {T2: (t2, ())}
    alphas = alpha_table(k)
    for j in range(1, k + 1):
        cols[T3j(j)] = ({names[j]: alphas[j] * den}, ())
    return ClassMap._raw(q_pullback(k).source, mg_basis(k), den, cols)


@per_k_cache
def p_q_composed(k: int) -> ClassMap:
    """:func:`p_push` composed with :func:`q_pullback`, on columns.  Its
    T3j rows are alpha(k, j) delta_j, and for k >= 3 it equals
    :func:`p_q_map`."""
    return p_push(k).compose(q_pullback(k))


@per_k_cache
def p_q_kappa(k: int) -> DivisorClass:
    """The correspondence action applied to the ample class
    psi - delta of the pointed rational moduli space."""
    return p_q_map(k).apply(kappa_class(k))


def p_q_kappa_closed_coeffs(k: int) -> tuple[Fraction, Fraction]:
    """Closed-form (lambda, delta_0) coefficients of :func:`p_q_kappa`,
    per-factorial-b."""
    n = catalan_number(k)
    return 9 * k * n * (2 * k + 5), Fraction(-3 * k * (k + 1)) * n


@per_k_cache
def mg_canonical_class(k: int) -> DivisorClass:
    """The canonical class 13 lambda - 2 delta_0 - 3 delta_1 - 2 delta_2
    - ... - 2 delta_k of the genus-2k moduli space on the truncated basis
    lambda, delta_0..delta_k."""
    names = delta_names(k)
    nums = {LAMBDA: 13, **dict.fromkeys(names, -2)}
    nums[names[1]] = -3
    return DivisorClass._raw(mg_basis(k), 1, nums)


@per_k_cache
def eh_divisor(k: int) -> DivisorClass:
    """The pushed branch divisor of the covering-space map (the divisor
    of curves with fewer pencils than the generic count), computed from
    the two expressions for the canonical class of the Hurwitz space.

    The Hurwitz-side class is q^*kappa - R, with kappa the ample class
    :func:`~hurwitzdiv.m0b.kappa_class` and R = 2(E0 + E2 + E3) + sum
    E_{j,c}; it is pushed by :func:`p_push`, and N K_{M_g} is subtracted.
    This is the canonical class of the pointed rational moduli space
    pulled back, plus ramification, minus the non-branch components
    E0 + E2 + E3 of the p-side ramification: on {T2, T3j}, kappa = K +
    delta, and q^*T2 = E0 + 2 E2 + 3 E3, so -2/(b - 1) q^*T2 + (-E0 + E3)
    + sum (w_j (j + 1 - 2c) - 1) E_{j,c}, w_j = 3j(b - 3j)/(b - 1) - 1,
    equals q^*kappa - R.

    The closed-form lambda and delta_0 coefficients are meaningful for
    k >= 3; for smaller k the assembled value is returned as-is.
    """
    ones = (1,) * ejc_offsets(k)[-1]
    r = DivisorClass._raw(hurwitz_basis(k), 1, hurwitz_head(k, 2, 2, 2), ones)
    assembly = q_pullback(k).apply(kappa_class(k)) - r
    pushed = p_push(k).apply(assembly)
    return linear_combination(
        pushed.basis, ((1, pushed), (-catalan_number(k), mg_canonical_class(k)))
    )


def eh_closed_coeffs(k: int) -> tuple[Fraction, Fraction]:
    """Closed-form (lambda, delta_0) coefficients of :func:`eh_divisor`
    in per-factorial-b normalization, stated for k >= 3."""
    n = catalan_number(k)
    lam = n * Fraction(6 * k * k + 13 * k + 1, 2 * k - 1)
    d0 = -n * Fraction(k * (k + 1), 2 * k - 1)
    return lam, d0


def prym_hodge_class(k: int) -> DivisorClass:
    """Pullback of the Hodge class of a toroidal compactification
    receiving the Prym variety of the trace curve over the reduced trace
    curve: phi^*lambda - phi-hat^*lambda on the Hurwitz basis."""
    return phi_pull_lambda(k) - phihat_pull_lambda(k)


def prym_boundary_class(k: int) -> DivisorClass:
    """Pullback of the degenerate-boundary class of the same toroidal
    compactification: phi^*delta'_0 - phi-hat^*delta-hat_0."""
    return phi_pull_boundary(k, 0) - phihat_pull_boundary(k, 0)
