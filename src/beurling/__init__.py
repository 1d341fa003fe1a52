"""Numerics for Beurling approximations f_N(x) = sum_k a_k rho(theta_k / x) to -1.

Public surface re-exported here; see README for the module map.
"""
from __future__ import annotations

from .errors import (
    ConstraintError,
    DomainError,
    HypothesisError,
    SingularSystemError,
    ToleranceNotMet,
)
from .numerics import (
    PrecisionComplex,
    PrecisionReal,
    Rational,
    bernoulli,
    zeta_complex,
    zeta_even,
)
from .functions import (
    BeurlingSpec,
    eval_F,
    eval_f,
    frac,
    mellin_numeric,
    norm_numeric,
)
from .mellin import (
    MellinValue,
    mellin_closed,
    mellin_even,
    mellin_even_bound,
    power_sum,
    power_sum_exact,
)
from .fourier import (
    FourierCoefficient,
    batch_cosine_f64,
    c_batch,
    c_cosine_series,
    c_direct,
    c_even_mellin_exact_L,
    c_even_mellin_limit,
    coefficients_csv,
    cosine_coeffs,
    remainder_bound,
    telescope_partial,
)
from .parseval import norm_crosscheck, norm_via_parseval
from .reconstruct import (
    convergence_csv,
    mellin_reconstruct,
    mellin_reconstruct_report,
    sine_moment,
    sine_moment_with_cert,
    sine_moments_with_cert,
)
from .optimizer import (
    GramSystem,
    build_gram,
    optimize_coeffs,
    residual_report,
    spec_from_solution,
    sweep,
    unit_thetas,
)

__version__ = "0.1.0"

__all__ = [
    "BeurlingSpec",
    "ConstraintError",
    "DomainError",
    "FourierCoefficient",
    "GramSystem",
    "HypothesisError",
    "MellinValue",
    "PrecisionComplex",
    "PrecisionReal",
    "Rational",
    "SingularSystemError",
    "ToleranceNotMet",
    "batch_cosine_f64",
    "bernoulli",
    "build_gram",
    "c_batch",
    "c_cosine_series",
    "c_direct",
    "coefficients_csv",
    "cosine_coeffs",
    "convergence_csv",
    "c_even_mellin_exact_L",
    "c_even_mellin_limit",
    "eval_F",
    "eval_f",
    "frac",
    "mellin_closed",
    "mellin_even",
    "mellin_even_bound",
    "mellin_numeric",
    "mellin_reconstruct",
    "mellin_reconstruct_report",
    "norm_crosscheck",
    "norm_numeric",
    "norm_via_parseval",
    "optimize_coeffs",
    "power_sum",
    "power_sum_exact",
    "remainder_bound",
    "residual_report",
    "sine_moment",
    "sine_moment_with_cert",
    "sine_moments_with_cert",
    "spec_from_solution",
    "sweep",
    "telescope_partial",
    "unit_thetas",
    "zeta_complex",
    "zeta_even",
]
