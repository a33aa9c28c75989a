"""fracstab: stability of 2D linear multi-order fractional systems.

Decides asymptotic stability and instability of

    cD^{q1} x = a11*x + a12*y
    cD^{q2} y = a21*x + a22*y,       q1, q2 in (0, 1]  (Caputo),

by exact region tests and the critical-curve margin a22 - phi(a11), with
independent numerical corroboration: argument-principle root counting inside
explicit modulus bounds, companion-matrix reduction for rational orders, and
trajectory simulation with algebraic decay-slope estimation.
"""

from .chareq import (
    CharParams,
    SystemSpec,
    conjugate_symmetry_check,
    delta_eval,
    delta_rounding_bound,
    principal_power,
    term_majorant,
)
from .classify import (
    Reason,
    RegionMembership,
    Verdict,
    VerdictKind,
    a2_inequality_check,
    classify,
    classify_order_independent,
    qscan,
    qscan_verdicts,
    region_membership,
    tie_tolerance,
)
from .curve import (
    EPS_COMM,
    CurveParams,
    CurvePoint,
    curve_point,
    h_func,
    phi,
    phi_terms,
    rho,
    sample_curve,
    solve_omega_star,
    u_max,
)
from .errors import (
    AnnulusOutOfRange,
    BracketFailure,
    CommensurateOrders,
    ContourThroughRoot,
    DeltaNotPositive,
    DeltaZeroUnclassified,
    DimensionCap,
    DomainError,
    FracstabError,
    NotDecaying,
    NotRational,
    RefinementLimit,
    SingularStep,
    StepCap,
)
from .roots import (
    CompanionSystem,
    RootBounds,
    RootCountReport,
    commensurate_reduce,
    count_unstable_roots,
    matignon_stable,
    polish_unstable_roots,
    positive_real_roots,
    unstable_root_bounds,
)
from .simulate import DecayEstimate, Trajectory, estimate_decay, integrate

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # chareq
    "SystemSpec",
    "CharParams",
    "principal_power",
    "delta_eval",
    "term_majorant",
    "delta_rounding_bound",
    "conjugate_symmetry_check",
    # curve
    "EPS_COMM",
    "CurveParams",
    "CurvePoint",
    "rho",
    "h_func",
    "curve_point",
    "solve_omega_star",
    "phi",
    "phi_terms",
    "sample_curve",
    "u_max",
    # classify
    "VerdictKind",
    "Reason",
    "Verdict",
    "RegionMembership",
    "region_membership",
    "classify_order_independent",
    "classify",
    "qscan",
    "qscan_verdicts",
    "a2_inequality_check",
    "tie_tolerance",
    # roots
    "RootBounds",
    "RootCountReport",
    "CompanionSystem",
    "unstable_root_bounds",
    "count_unstable_roots",
    "positive_real_roots",
    "polish_unstable_roots",
    "commensurate_reduce",
    "matignon_stable",
    # simulate
    "Trajectory",
    "DecayEstimate",
    "integrate",
    "estimate_decay",
    # errors
    "FracstabError",
    "CommensurateOrders",
    "BracketFailure",
    "DeltaNotPositive",
    "DeltaZeroUnclassified",
    "DomainError",
    "ContourThroughRoot",
    "AnnulusOutOfRange",
    "RefinementLimit",
    "NotRational",
    "DimensionCap",
    "StepCap",
    "SingularStep",
    "NotDecaying",
]
