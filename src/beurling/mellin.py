"""Closed-form Mellin transforms M_{F_N}(s) = int_0^1 F_N(x) x^{s-1} dx.

For Re(s) > 0 the transform reduces to

    M(s) = (sum_k a_k theta_k) / (s - 1) + (1/s) (1 - zeta(s) * P(s)),

with P(s) = sum_k a_k theta_k^s the power sum. Admissible specs drop the
pole term identically (its numerator is the exact rational 0, not a small
float), so M extends across s = 1 apart from the zeta pole itself; we keep
the exclusion disk |s - 1| <= 1e-6 rather than implement the limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .errors import DomainError
from .numerics import (
    _POLE_EXCLUSION,
    PrecisionComplex,
    PrecisionReal,
    as_complex,
    bits_for_tol,
    check_count,
    to_mp,
    workprec,
    zeta_complex,
    zeta_even,
)

_PROVENANCES = ("closed_form", "quadrature", "reconstructed")


@dataclass(frozen=True)
class MellinValue:
    """A value of M_{F_N}(s) together with how it was obtained."""

    s: PrecisionComplex
    value: PrecisionComplex
    provenance: str
    error_bound: PrecisionReal

    def __post_init__(self):
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"provenance must be one of {_PROVENANCES}")
        if float(self.error_bound) < 0:
            raise ValueError("error_bound must be >= 0")


def power_sum_exact(spec, n: int) -> tuple[Fraction, Fraction]:
    """Exact rational P(n) = sum_k a_k theta_k^n for integer n (re, im); n may
    be 0 or negative."""
    n = check_count(n, "n", None)
    re = Fraction(0)
    im = Fraction(0)
    for t in spec.terms:
        w = t.theta**n
        re += t.a_re * w
        im += t.a_im * w
    return re, im


def power_sum(spec, s, tol: float = 1e-16) -> PrecisionComplex:
    """P(s) = sum_k a_k theta_k^s, theta^s = exp(s log theta) with real log.

    Integer s is evaluated in exact rational arithmetic and then rounded;
    otherwise each term is computed by mpmath at a precision comfortably
    below tol (the sum has N terms of magnitude <= max|a_k|, so roundoff
    is the only error source and sits far under the working ulp).
    """
    bits = bits_for_tol(tol) + 16
    z = as_complex(s)
    if z.imag == 0 and float(z.real).is_integer():
        with workprec(bits):
            val = to_mp(power_sum_exact(spec, int(z.real)))
            return PrecisionComplex.from_mpc(val, bits)
    with workprec(bits):
        s_mpc = s.to_mpc() if isinstance(s, PrecisionComplex) else mpmath.mpc(z)
        acc = mpmath.mpc(0)
        for t in spec.terms:
            acc += to_mp((t.a_re, t.a_im)) * mpmath.exp(s_mpc * mpmath.log(to_mp(t.theta)))
        return PrecisionComplex.from_mpc(acc, bits)


def mellin_closed(spec, s, tol: float = 1e-12) -> MellinValue:
    """M(s) by the closed form; provenance "closed_form".

    Requires Re(s) > 0 and |s - 1| > 1e-6 (at s = 1 the zeta pole cancels
    against the power sum for admissible specs, but we exclude the disk
    instead of implementing the limit; non-admissible specs genuinely blow
    up there through the pole term).
    """
    bits = bits_for_tol(tol) + 32
    z = as_complex(s)
    if z.real <= 0:
        raise DomainError(f"mellin_closed requires Re(s) > 0, got Re(s) = {z.real}")
    if math.hypot(z.real - 1.0, z.imag) <= _POLE_EXCLUSION:
        raise DomainError("|s - 1| <= 1e-6 is excluded (zeta/pole exclusion disk)")

    # rough magnitudes to split the tolerance between zeta and the power sum
    p_rough = abs(complex(power_sum(spec, z, 1e-6)))
    zeta_rough = abs(complex(zeta_complex(z, 1e-6)))
    s_abs = abs(z)
    tol_p = tol * s_abs / (4.0 * (zeta_rough + 1.0))
    tol_z = tol * s_abs / (4.0 * (p_rough + 1.0))
    p_val = power_sum(spec, z, tol_p)
    z_val = zeta_complex(z, tol_z)

    res_re, res_im = spec.residual_exact
    with workprec(bits):
        s_mpc = mpmath.mpc(z)
        acc = (1 - z_val.to_mpc() * p_val.to_mpc()) / s_mpc
        if (res_re, res_im) != (0, 0):
            acc += to_mp((res_re, res_im)) / (s_mpc - 1)
        value = PrecisionComplex.from_mpc(acc, bits)
        s_out = PrecisionComplex.from_mpc(s_mpc, bits)
    return MellinValue(
        s=s_out,
        value=value,
        provenance="closed_form",
        error_bound=PrecisionReal.from_float(tol, 64),
    )


def mellin_even(spec, l: int, tol: float = 1e-12) -> MellinValue:
    """M(2l) = (1/(2l)) (1 - zeta(2l) P(2l)) for admissible specs.

    P(2l) is exact rational; zeta(2l) comes from zeta_even. This is the
    input feed for the even-Mellin Fourier routes and for reconstruction.
    """
    l = check_count(l, "l")
    tol_bits = bits_for_tol(tol)
    spec.require_admissible("mellin_even")
    p_re, p_im = power_sum_exact(spec, 2 * l)
    extra = max(0, int(math.log2(1.0 + abs(float(p_re)) + abs(float(p_im)))) + 2)
    bits = tol_bits + 32 + extra
    zv = zeta_even(l, bits)
    with workprec(bits):
        val = (1 - zv.value * to_mp((p_re, p_im))) / (2 * l)
        value = PrecisionComplex.from_mpc(val, bits)
        s_out = PrecisionComplex.from_mpc(mpmath.mpc(2 * l), bits)
    # only rounding error remains: ~2^{extra+8} ulps at `bits` working bits
    return MellinValue(
        s=s_out,
        value=value,
        provenance="closed_form",
        error_bound=PrecisionReal.from_float(2.0 ** (extra + 8 - bits), 64),
    )


def mellin_even_bound(l: int, out_precision: int = 64) -> PrecisionReal:
    """(1 + zeta(2l)^2) / (2l), the paper's bound on |M(2l)|.

    It holds for admissible specs whose thetas are unit fractions 1/b_k
    with distinct denominators b_k and whose coefficients have |a_k| <= 1;
    it depends on l alone and reads no spec. The `satisfied` column of the
    `mellin-even` subcommand compares |M(2l)| against it for any spec; a
    spec outside these hypotheses may read "false" there.
    """
    l = check_count(l, "l")
    zv = zeta_even(l, out_precision + 16)
    with workprec(out_precision + 16):
        return PrecisionReal((1 + zv.value**2) / (2 * l), out_precision)
