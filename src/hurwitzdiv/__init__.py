"""Exact divisor-class calculus for the correspondences that trace
curves of pencils induce between Hurwitz spaces of even-genus covers and
moduli spaces of curves.
"""

from types import ModuleType as _ModuleType

from .core import (
    AffineExpr,
    ExtSymbol,
    b_sym,
    c_sym,
    format_rational,
    parse_rational,
)
from .bases import (
    Basis,
    ClassMap,
    DivisorClass,
    E0,
    E2,
    E3,
    Ejc,
    LAMBDA,
    T2,
    T3j,
    delta,
    hurwitz_basis,
    m0b_sym_basis,
    mg_basis,
    zero_class,
)
from .m0b import (
    MarkedSet,
    count_boundary,
    delta_restricted,
    enumerate_boundary,
    forgetful_pullback,
    intersect_nonempty,
    kappa_class,
    normalize,
    psi_restricted,
)
from .trace import (
    GenusData,
    GrrPieces,
    catalan_number,
    delta_s,
    delta_tau,
    e_coeff,
    genus_data,
    grr_pieces,
    omega_tau_sq,
    phi_pull_boundary,
    phi_pull_lambda,
    phihat_pull_boundary,
    phihat_pull_lambda,
    q_pullback,
    s_omega_sq,
)
from .pushforward import (
    PER_FACTORIAL_B,
    RAW,
    ExternalCoeffs,
    eh_divisor,
    factorial_b,
    mg_canonical_class,
    p_phi_delta,
    p_phi_lambda,
    p_phihat_delta,
    p_phihat_lambda,
    p_push,
    p_q_kappa,
    p_q_map,
    prym_boundary_class,
    prym_hodge_class,
)
from .slopes import (
    FAILS,
    HOLDS,
    UNKNOWN,
    SlopeReport,
    induced_slope,
    kappa_slope_bound,
    slope_of,
    slope_target,
)
from .checks import CHECKS, CheckResult, run_checks

# the public names bound above; the submodules that the imports bind as
# attributes of the package stay out, so ``import *`` binds no module
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]

__version__ = "0.1.0"
