"""An exact reference model of affine values for the property tests.

An affine value ``const + sum coef_s * s`` over the external symbols is
modelled as a dict ``{None: const, s: coef_s, ...}`` of rationals with
no zero entry, so two values are equal exactly when their dicts are.
The model is independent of the package's integer kernel and of
``AffineExpr``, which is a read-only value without arithmetic; every
operation of a divisor class or a class map is checked against the same
operation done here, coefficient by coefficient.
"""

from fractions import Fraction

from hurwitzdiv.core import AffineExpr


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


def product(m1, m2):
    """The product of two model values, one of them constant: the
    symbols occur linearly."""
    if set(m1) - {None}:
        m1, m2 = m2, m1
    if set(m1) - {None}:
        raise ValueError("product of two non-constant affine values is not affine")
    return scale(m2, m1.get(None, 0))


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
