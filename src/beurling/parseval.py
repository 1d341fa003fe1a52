"""Norm of F_N from its Fourier sine coefficients.

Convention: with c(n) = 2 int_0^1 F(x) sin(n pi x) dx (coefficients of the
odd extension to [-1, 1] against unit-norm sines), the L2(0,1) norm obeys

    ||F||^2 = (1/2) sum_{n>=1} |c(n)|^2,

pinned numerically by the square wave F = 1 (classical (8/pi^2) sum 1/n^2
over odd n = 1). The n > n_max tail is ESTIMATED from the jump-driven decay
c(n) = Theta(1/n): tail ~ A^2/n_max with A = max n|c(n)| over the top half
of the computed range. The estimate is reported as such, never folded into
a certified bound; Bessel (partial <= ||F||^2) gives the one-sided truth.

The coefficients c(1..n_max) come from `fourier.cosine_coeffs`, each
certified to coeff_tol: the float64 batch where its certificate meets it,
the mp cosine series for the other rows.
"""
from __future__ import annotations

import math

import numpy as np

from .fourier import cosine_coeffs
from .functions import BeurlingSpec, _norm_oracle
from .numerics import check_count, check_tol


def norm_via_parseval(spec: BeurlingSpec, n_max: int = 10_000, coeff_tol: float = 1e-10) -> dict:
    """Parseval partial sum, tail estimate, and bracketing norm values.

    Returns a dict of n_max and these floats:
      partial_norm_sq  (1/2) sum_{n<=n_max} |c(n)|^2
      tail_estimate    A^2 / n_max, A = max n|c(n)| over n in [n_max/2, n_max]
      norm             sqrt(partial + tail_estimate/2)  (point estimate)
      norm_lo          sqrt(partial)        (Bessel-certain lower bracket)
      norm_hi          sqrt(partial + tail_estimate)
    plus coeff_cert_total, the summed effect of coefficient certificates on
    partial_norm_sq.
    """
    n_max = check_count(n_max, "n_max", 8)
    spec.require_admissible("norm_via_parseval")
    c, cert = cosine_coeffs(spec, n_max, coeff_tol)
    mags = np.abs(c)
    partial = 0.5 * float(np.sum(mags**2))
    # d(|c|^2) <= 2|c| cert + cert^2, halved by the convention factor
    cert_total = 0.5 * float(np.sum(2.0 * mags * cert + cert**2))
    n = np.arange(1, n_max + 1, dtype=np.float64)
    top = slice(n_max // 2 - 1, n_max)
    a_coef = float(np.max(n[top] * mags[top]))
    tail_est = a_coef * a_coef / n_max
    return {
        "n_max": int(n_max),
        "partial_norm_sq": partial,
        "tail_estimate": tail_est,
        "norm": math.sqrt(partial + 0.5 * tail_est),
        "norm_lo": math.sqrt(partial),
        "norm_hi": math.sqrt(partial + tail_est),
        "coeff_cert_total": cert_total,
    }


def norm_crosscheck(
    spec: BeurlingSpec,
    n_max: int = 10_000,
    tol: float = 1e-10,
    coeff_tol: float = 1e-10,
) -> dict:
    """Compare norm_via_parseval against norm_numeric.

    Returns a JSON-ready dict {n_max, partial, tail_estimate, norm_lo,
    norm_hi, oracle, gap, gap_rel}; oracle is the quadrature norm at tol, or
    at 1e-6 when tol cannot be certified (null when neither can, e.g. for
    astronomically long periods), gap is |point estimate^2 - oracle^2| with
    the squared-norm convention.
    """
    check_tol(tol)
    rec = norm_via_parseval(spec, n_max, coeff_tol)
    oracle, _ = _norm_oracle(spec, tol)
    partial = rec["partial_norm_sq"]
    tail = rec["tail_estimate"]
    out = {
        "n_max": int(n_max),
        "partial": partial,
        "tail_estimate": tail,
        "norm_lo": rec["norm_lo"],
        "norm_hi": rec["norm_hi"],
        "coeff_cert_total": rec["coeff_cert_total"],
        "oracle": oracle,
        "gap": None,
        "gap_rel": None,
    }
    if oracle is not None:
        est = partial + 0.5 * tail
        gap = abs(est - oracle**2)
        out["gap"] = gap
        out["gap_rel"] = gap / max(oracle**2, 1e-300)
    return out
