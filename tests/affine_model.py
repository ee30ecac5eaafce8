"""An exact reference model of affine values for the property tests.

An affine value ``const + sum coef_s * s`` over the external symbols is
modelled as a dict ``{None: const, s: coef_s, ...}`` of rationals with
no zero entry, so two values are equal exactly when their dicts are.
The model is independent of the package's integer kernel and of
``AffineExpr``, which is a read-only value without arithmetic; every
operation of a divisor class or a class map is checked against the same
operation done here, coefficient by coefficient.

A class is read into the model two ways: through its public accessor
(:func:`class_model`) and straight from its stored form
(:func:`stored_model`), whose two weights and flat E_{j,c} tuple are
read here by their layout alone, so the two agree only if the accessors and the
layout do.
"""

from fractions import Fraction

from hurwitzdiv.bases import B_WEIGHT, C_WEIGHT
from hurwitzdiv.core import AffineExpr, ExtSymbol


def _nonzero(parts):
    return {key: v for key, v in parts.items() if v}


def affine(value):
    """The model of an ``int``, a ``Fraction`` or an ``AffineExpr``."""
    if isinstance(value, AffineExpr):
        return _nonzero({None: value.const, **value.terms})
    return _nonzero({None: Fraction(value)})


def expr(m):
    """The ``AffineExpr`` of a model value."""
    return AffineExpr(m.get(None, 0), {s: v for s, v in m.items() if s is not None})


def combine(terms):
    """The sum of ``x * m`` over the (rational ``x``, model ``m``) terms."""
    out = {}
    for x, m in terms:
        for key, v in m.items():
            out[key] = out.get(key, 0) + x * v
    return _nonzero(out)


def add(m1, m2):
    return combine([(1, m1), (1, m2)])


def scale(m, x):
    return combine([(x, m)])


def substitute(m, values):
    """Replace every symbol present in ``values``; others stay symbolic."""
    out = {}
    for key, v in m.items():
        if key is not None and key in values:
            key, v = None, v * Fraction(values[key])
        out[key] = out.get(key, 0) + v
    return _nonzero(out)


def class_model(d):
    """A divisor class as generator -> model value over its whole basis,
    read through the public accessor ``coefficient``."""
    return {g: affine(d.coefficient(g)) for g in d.basis.generators()}


def stored_model(d):
    """A divisor class as generator -> model value, read from its stored
    parts: the numerators over ``d._den`` of the head map, keyed by
    generator for a constant part and by ``C_WEIGHT``/``B_WEIGHT`` (over
    Mg(k)) for the weight of c_j or b_j on every delta_j, j >= 1, and
    on a Hurwitz basis entry i of the flat tuple ``d._flat`` as the
    constant part of the i-th E_j_c of ``d.basis.generators()``."""
    parts = {g: {} for g in d.basis.generators()}
    cells = []
    for key, n in d._nums.items():
        if key in (C_WEIGHT, B_WEIGHT):
            cells += [(f"delta_{j}", ExtSymbol(key, j), n) for j in range(1, d.basis.k + 1)]
        else:
            cells.append((key, None, n))
    ejc = [g for g in d.basis.generators() if g.startswith("E_")]
    # a flat tuple of another length is refused, not read in part
    assert len(d._flat) == len(ejc), (len(d._flat), len(ejc))
    cells += [(name, None, n) for name, n in zip(ejc, d._flat)]
    for name, sym, n in cells:
        part = parts[name]  # a KeyError names a key outside the basis
        part[sym] = part.get(sym, 0) + Fraction(n, d._den)
    return {g: _nonzero(part) for g, part in parts.items()}


def apply_model(m, d):
    """The image of class ``d`` under map ``m`` as a model over the
    target, from the images ``m.row(g)`` of the source generators.  The
    maps are the package's, and none starts from ``Mg(k)``, the one
    basis whose classes carry symbols, so ``d`` is constant; a symbolic
    coefficient is outside the model and raises ``ValueError``."""
    source = class_model(d)
    if any(set(coef) - {None} for coef in source.values()):
        raise ValueError("the model maps only classes without symbols")
    out = {g: {} for g in m.target.generators()}
    for g, coef in source.items():
        for t, row_coef in class_model(m.row(g)).items():
            out[t] = add(out[t], scale(row_coef, coef.get(None, 0)))
    return out
