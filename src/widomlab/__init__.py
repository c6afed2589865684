"""widomlab: weighted Chebyshev polynomials and Widom factors for Jacobi weights.

The package solves the weighted minimax problem

    minimize  sup over [-1, 1] of (1-x)^rho_a (1+x)^rho_b |P(x)|

over monic polynomials P of a given degree, studies the Widom factors
W_n = 2^n times the minimax norm, and verifies the closed-form bounds,
circle correspondences, and monotonicity phenomena that govern them.
"""

from widomlab.bounds import (
    BoundReport,
    PropertyViolation,
    asymptote,
    c_coeffs,
    cgw_rhs,
    m_bound,
    m_ratio,
    verify_coeff_lemma,
    verify_m_monotone,
    weight_sup_bound,
    weighted_monic_jacobi_sup,
)
from widomlab.circle import (
    CircleFunction,
    RealPolynomial,
    circle_minimizer_from_interval,
    circle_sup,
    erdos_lax_check,
    polya_szego_roots,
    verify_cn_relation,
)
from widomlab.minimax import (
    ChebyshevSolution,
    ConvergenceError,
    DegeneracyError,
    ExchangeError,
    MonicPolynomial,
    solve,
)
from widomlab.oracle import brute_minimax
from widomlab.special import (
    JacobiParams,
    WeightParams,
    jacobi_eval,
    monic_scale,
    param_to_weight,
    weight_to_param,
)
from widomlab.widom import (
    ScanCell,
    ScanResult,
    WidomSequence,
    classify,
    conjecture_region,
    continuity_probe,
    scan,
    widom_factor,
    widom_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "ChebyshevSolution",
    "CircleFunction",
    "ConvergenceError",
    "DegeneracyError",
    "ExchangeError",
    "JacobiParams",
    "MonicPolynomial",
    "PropertyViolation",
    "RealPolynomial",
    "ScanCell",
    "ScanResult",
    "WeightParams",
    "WidomSequence",
    "asymptote",
    "brute_minimax",
    "c_coeffs",
    "cgw_rhs",
    "circle_minimizer_from_interval",
    "circle_sup",
    "classify",
    "conjecture_region",
    "continuity_probe",
    "erdos_lax_check",
    "jacobi_eval",
    "m_bound",
    "m_ratio",
    "monic_scale",
    "param_to_weight",
    "polya_szego_roots",
    "scan",
    "solve",
    "verify_cn_relation",
    "verify_coeff_lemma",
    "verify_m_monotone",
    "weight_sup_bound",
    "weight_to_param",
    "weighted_monic_jacobi_sup",
    "widom_factor",
    "widom_sequence",
    "__version__",
]
