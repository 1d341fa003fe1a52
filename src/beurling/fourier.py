"""Fourier sine coefficients c(N, n) = 2 int_0^1 F_N(x) sin(n pi x) dx.

Three independent routes:

* ``c_direct``            -- the definition, integrated on the u = 1/x side
                             (exact heads, one Hurwitz-kernel tail); it
                             refuses a spec past the period caps with
                             ToleranceNotMet.
* ``c_cosine_series``     -- the cosine telescoping series over j, summed
                             to its limit.
* ``c_even_mellin_*``     -- the even-Mellin series in M(2l), either cut at an
                             explicit L with its truncation certificate, or
                             summed to the limit.

Notation used throughout: A1 = (2 / n pi)(1 - cos n pi) and alpha_k = n pi
theta_k.

Tail of the cosine route (not from the source material): the telescoped
series is rewritten as sum_j (cos(a/j) - 1), and its j > J tail is evaluated
analytically: sum_{j>J} (cos(a/j) - 1) = sum_{m>=1} (-1)^m a^{2m}/(2m)!
zeta(2m, J+1), whose terms shrink by > 24x per step once J >= 2a (certified
by twice the first omitted term, plus the absolute error of each
zeta(2m, J+1), which `hurwitz_zeta_row` bounds by 2^-bits over its
coefficient). Every term with the same a = J + 1 reads one Hurwitz row,
planned for the largest alpha with that a (`_cosine_weights`).

The float64 batch ``batch_cosine_f64`` evaluates the same limit form for
n = 1..n_max at once, in two parts split at n0 = 256:

* Rows n <= n0 sum their own head j <= J(n) = max(64, ceil(2 alpha)) directly,
  as one dense rows x max(J) block, exactly as ``c_cosine_series`` does in mp.
  Their certificate is twice the first omitted tail term plus roundoff:
  4 eps times the summed |terms|, and gamma_5 alpha (1 + ln J) for the
  rounded arguments alpha/(2j).
* Rows n > n0 share one cutoff J* = J(n_max) per term, so the head
  sum_{j<=J*} cos(n x_j), x_j = pi theta / j, is a type-1 nonuniform DFT. The
  Taylor NUFFT (Anderson & Dahleh, SIAM J. Sci. Comput. 17, 1996) snaps each
  x_j to the nearest point l_j h of a grid of M = 2^ceil(log2(4 n_max + 1))
  points, h = 2 pi / M, bins the powers d_j^q of the offsets d_j = x_j - l_j h
  with ``np.bincount`` and applies one real FFT per order q < Q = 22:
  sum_j e^{-i n x_j} = sum_q (-i n)^q / q! sum_l w_q[l] e^{-i n l h}. J* is
  then subtracted and the analytic tail at J* added. The certificate is
  twice the first omitted tail term, the Taylor remainder
  J* (n max|d|)^Q / Q! (max|d| <= h/2, so n max|d| <= pi/4), and a priori
  roundoff bounds for the offsets, the binning, the FFT (the componentwise
  radix-2 bound gamma_{8 log2 M} ||w_q||_1, Higham, Accuracy and Stability
  of Numerical Algorithms, ch. 24) and the subtraction of J*. These are
  derived next to the code in ``_nufft_head``.

Every batch certificate also carries the roundoff of the final assembly,
gamma_{K+6} (|A1| + sum_k |a_k contrib_k|) for K terms. The roundoff bounds
take libm's sin, scipy's Hurwitz zeta and numpy's FFT twiddle factors as
accurate to a few ulps (4 eps relative for the summed terms, 4u for the
twiddles); everything else follows from the IEEE rounding model.

The split keeps the cancellation in sum cos - J* harmless: its roundoff is
about eps J*, which the factor 2/(n pi) turns into at most ~1e-11 for
n > n0 and n_max <= 10^4, while the rows below n0, where that factor is
largest, never cancel against J*. The cost is O(n_max log n_max + J*) per
term instead of O(n_max J*).

``cosine_coeffs`` is the batch's one caller: it keeps each row whose
certificate meets the caller's tolerance and takes the others from
``c_cosine_series``; Parseval and the reconstruction both read it.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import zeta as _hurwitz_f64

from . import _periodic
from .errors import ConstraintError, DomainError, HypothesisError, ToleranceNotMet
from .functions import BeurlingSpec
from .mellin import power_sum_exact
from .numerics import (
    PrecisionComplex,
    PrecisionReal,
    bits_for_tol,
    check_count,
    check_tol,
    float_up,
    hurwitz_zeta_row,
    to_double,
    to_mp,
    workprec,
    zeta_even,
)

_METHODS = ("direct", "cosine_series", "even_mellin_exact_L", "even_mellin_limit")

_F64_EPS = float(np.finfo(np.float64).eps)

# Rows n <= _N0 of batch_cosine_f64 sum their own head directly; rows above
# share one cutoff and take the head from a Taylor NUFFT of order _TAYLOR_Q
_N0 = 256
_TAYLOR_Q = 22
# cosine_coeffs refuses mp rows past this n: c_cosine_series costs O(n) there
_MP_ROW_CAP = 2048

# zeta(2l) values at the highest precision requested so far, keyed by l
_ZETA_CACHE: dict[int, tuple] = {}


@dataclass(frozen=True)
class FourierCoefficient:
    """One coefficient c(N, n) with its route and truncation certificate."""

    n: int
    value: PrecisionComplex
    method: str
    truncation_order: int | None
    error_certificate: PrecisionReal

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        check_count(self.n, "n")
        if float(self.error_certificate) < 0:
            raise ValueError("error_certificate must be >= 0")


def _zeta_even_cached(l: int, bits: int):
    """mpf zeta(2l) at >= bits working precision (monotone-growing cache).

    Reached only inside a workprec section, whose lock also guards the cache.
    """
    hit = _ZETA_CACHE.get(l)
    if hit is not None and hit[1] >= bits:
        return hit[0]
    val = zeta_even(l, bits).value
    _ZETA_CACHE[l] = (val, bits)
    return val


def _a1_mp(n: int):
    """A1 = (2/(n pi)) (1 - cos n pi) at current mpmath precision."""
    return mpmath.mpf(0) if n % 2 == 0 else 4 / (n * mpmath.pi)


def _route_c_bits(n: int, tol: float) -> int:
    """Working bits for the even-Mellin sums, whose terms peak near e^{n pi}."""
    return bits_for_tol(tol) + int(math.ceil(1.4427 * n * math.pi)) + 64


def _require_even_mellin_hypotheses(spec: BeurlingSpec, who: str):
    if not spec.admissible:
        raise ConstraintError(
            f"{who} requires an admissible spec (sum a_k theta_k = 0); "
            f"residual {spec.constraint_residual:.3g}"
        )
    if not spec.unit_fraction:
        raise HypothesisError(f"{who} requires unit-fraction thetas (theta_k = 1/b_k)")
    if not spec.coeffs_le_1:
        raise HypothesisError(f"{who} requires |a_k| <= 1 for every term")


def _result(spec, n, value, method, order, cert, tol=None) -> FourierCoefficient:
    """Every route's epilogue: round the certificate (a float or an mpf) up
    to the double it is stored as, refuse it above tol (no check when tol is
    None), then zero the imaginary part of a real spec's value."""
    cert = float_up(cert)
    if tol is not None and cert > tol:
        raise ToleranceNotMet(f"certified error {cert:.3g} exceeds tol {tol:.3g}")
    if spec.is_real:
        value = PrecisionComplex(value.re, PrecisionReal.from_float(0.0, value.precision_bits))
    return FourierCoefficient(n, value, method, order, PrecisionReal.from_float(cert, 64))


# ---------------------------------------------------------------------------
# Route A: direct quadrature
# ---------------------------------------------------------------------------


def c_direct(spec: BeurlingSpec, n, tol: float = 1e-10) -> FourierCoefficient:
    """c(N, n) = 2 int_0^1 F_N(x) sin(n pi x) dx; admissibility not required.

    Integrated on the u = 1/x side by the periodic engine
    (`_periodic.sine_integral_mp`: exact cosine and sine integral heads, one
    Hurwitz-kernel tail), which reaches arbitrary tolerances; the
    certificate also covers rounding the value to its output precision.
    ToleranceNotMet when the thetas have no period within the caps of
    `_periodic`.
    """
    return _direct_rows(spec, [n], tol)[0]


def _direct_rows(spec: BeurlingSpec, ns, tol: float) -> list[FourierCoefficient]:
    """c_direct for each n in ns, in the order given, from one
    `sine_integral_mp` call: rows that share the end U of the exact head
    share its tail table, and each row's value and certificate are those of
    its single call."""
    ns = [check_count(n, "n") for n in ns]
    if not ns:
        return []
    bits = bits_for_tol(tol) + 32
    rows = _periodic.sine_integral_mp(spec.linear_pieces, spec.decomposition.period, ns, bits)
    out = []
    for n, (val, err) in zip(ns, rows):
        with workprec(bits):
            # rounding 2 val to the output bits moves it by at most |2 val| 2^-bits
            value = PrecisionComplex.from_mpc(2 * val, bits)
            cert = 2 * err + abs(2 * val) * mpmath.mpf(2) ** -bits
        out.append(_result(spec, n, value, "direct", None, cert, tol))
    return out


# ---------------------------------------------------------------------------
# Route B: cosine telescoping series
# ---------------------------------------------------------------------------


def c_cosine_series(spec: BeurlingSpec, n, tol: float = 1e-10) -> FourierCoefficient:
    """c(N, n) = A1 + (2/(n pi)) sum_k a_k sum_j j [cos(alpha_k/j) - cos(alpha_k/(j+1))].

    Requires admissibility (the telescoped form already cancelled the sine
    integral against the constraint). The telescoped series is evaluated to
    its limit: heads sum_{j<=J_k} (cos(alpha_k/j) - 1) with
    J_k = max(64, ceil(2 alpha_k)), plus the analytic Hurwitz-zeta tail (see
    module docstring), certified by twice the first omitted term. The
    one-row case of `_cosine_rows`.
    """
    return _cosine_rows(spec, [n], tol)[0]


def _cosine_weights(a: int, bits: int, floor) -> dict:
    """{2m: alpha^(2m)/(2m)!}, the weights of the Hurwitz row zeta(2m, a)
    that every term of a `_cosine_rows` call with J_k + 1 = a reads.

    The plan takes alpha = (a - 1)/2 (1 + 2^-20), above every alpha_k with
    J_k >= ceil(2 float(alpha_k)), so each weight bounds the term's own
    coefficient and the guard bits keep coef * err <= 2^-bits. The row ends
    at the first m where coef (zeta + err) is below floor by the bound
    zeta(2m, a) <= a^-2m (1 + a/(2m-1)), with a margin for its rounding, so
    every term's loop stops within it.
    """
    alpha = mpmath.mpf(a - 1) / 2 * (1 + mpmath.mpf(2) ** -20)
    coefs = [alpha * alpha / 2]
    while len(coefs) <= 200:
        m = len(coefs)
        coefs.append(coefs[-1] * (alpha * alpha / ((2 * m + 1) * (2 * m + 2))))
        bound = mpmath.power(a, -2 * m - 2) * (1 + mpmath.mpf(a) / (2 * m + 1))
        if coefs[-1] * bound * (1 + 2**-20) + 2 * mpmath.mpf(2) ** -bits < floor:
            break
    return {2 * m: cf for m, cf in enumerate(coefs, 1)}


def _cosine_rows(spec: BeurlingSpec, ns, tol: float) -> list[FourierCoefficient]:
    """c_cosine_series for each n in ns, in the order given. Every term
    reads its tail zeta(2m, J_k + 1) from one `hurwitz_zeta_row` per distinct
    a = J_k + 1 among the rows, planned by `_cosine_weights` for the largest
    alpha with that a and built before the rows, so each row's value and
    certificate depend only on (spec, n, tol)."""
    ns = [check_count(n, "n") for n in ns]
    if not ns:
        return []
    check_tol(tol)
    if not spec.admissible:
        raise ConstraintError(
            "c_cosine_series requires an admissible spec; "
            f"residual {spec.constraint_residual:.3g}"
        )
    terms = [t for t in spec.terms if abs(t.a) != 0]
    bits = bits_for_tol(tol) + 48
    with workprec(bits):
        floor = mpmath.mpf(2) ** (-bits + 8)
        rows = []  # (n, n pi, [(alpha_k, J_k)])
        for n in ns:
            npi = n * mpmath.pi
            alphas = [npi * to_mp(t.theta) for t in terms]
            rows.append((n, npi, [(al, max(64, math.ceil(2.0 * float(al)))) for al in alphas]))
        tables = {
            a: hurwitz_zeta_row(_cosine_weights(a, bits, floor), a)
            for a in sorted({Jk + 1 for _, _, row in rows for _, Jk in row})
        }
        out = []
        for n, npi, row in rows:
            acc, cert, absacc = mpmath.mpc(0), mpmath.mpf(0), mpmath.mpf(0)
            for t, (alpha, Jk) in zip(terms, row):
                a_mag = abs(t.a)
                head = mpmath.mpf(0)
                for j in range(1, Jk + 1):
                    term = -2 * mpmath.sin(alpha / (2 * j)) ** 2
                    head += term
                    absacc += abs(term)
                # analytic tail over j > Jk (module docstring); ratio <= 1/24
                zetas = tables[Jk + 1]
                tail = mpmath.mpf(0)
                coef = alpha * alpha / 2  # alpha^{2m} / (2m)!
                m = 1
                while True:
                    z, err = zetas[2 * m]
                    term = coef * z
                    tail += -term if m % 2 else term
                    absacc += abs(term)
                    cert += a_mag * coef * err
                    coef = coef * (alpha * alpha / ((2 * m + 1) * (2 * m + 2)))
                    z, err = zetas[2 * m + 2]
                    nxt = coef * (z + err)
                    if nxt < floor or m >= 200:
                        cert += a_mag * 2 * nxt
                        break
                    m += 1
                acc += to_mp((t.a_re, t.a_im)) * (head + tail)
            value_mp = _a1_mp(n) + (2 / npi) * acc
            roundoff = (absacc + abs(value_mp) + 1) * mpmath.mpf(2) ** (8 - bits)
            value = PrecisionComplex.from_mpc(value_mp, bits)
            cert_total = (2 / npi) * cert + roundoff
            j_max = max((Jk for _, Jk in row), default=0)
            out.append(_result(spec, n, value, "cosine_series", j_max, cert_total, tol))
    return out


# ---------------------------------------------------------------------------
# Routes C: even-Mellin series
# ---------------------------------------------------------------------------


def remainder_bound(spec: BeurlingSpec, n, L: int) -> PrecisionReal:
    """((n pi)^{L+1} / (L+1)!) zeta(L+1) sum_k theta_k^{L+1}.

    Bounds the unevaluated remainder of the even-Mellin exact-L form. Needs
    |a_k| <= 1 (HypothesisError otherwise); the theta-power form is the
    sharper one available when the thetas are known, below the generic
    zeta^2(L+1) variant for unit fractions with distinct denominators.
    The value is stored as the least double above the bound, so callers
    read it with float() and lose nothing.
    """
    n = check_count(n, "n")
    L = check_count(L, "L")
    if not spec.coeffs_le_1:
        raise HypothesisError("remainder_bound requires |a_k| <= 1 for every term")
    theta_pow = Fraction(0)
    for t in spec.terms:
        theta_pow += t.theta ** (L + 1)
    if theta_pow == 0:
        return PrecisionReal.from_float(0.0, 64)
    with workprec(96):
        npi = n * mpmath.pi
        val = (
            mpmath.power(npi, L + 1)
            / mpmath.factorial(L + 1)
            * mpmath.zeta(L + 1)
            * to_mp(theta_pow)
        )
        # n pi is off by 2^-95 relative and raised to L+1 (with at most
        # 2 log2(L+1) roundings), and the other factors add a few roundings,
        # so val is within (L + 2 log2(L+1) + 16) 2^-95 relative of the
        # bound: inside this widening, made before rounding up to a double
        val *= 1 + (L + 16) * mpmath.mpf(2) ** -90
    return PrecisionReal.from_float(float_up(val), 64)


def _m2l_mp(spec: BeurlingSpec, l: int, bits: int):
    """M(2l) = (1 - zeta(2l) P(2l)) / (2l) as an mpc at current precision."""
    zl = _zeta_even_cached(l, bits)
    return (1 - zl * to_mp(power_sum_exact(spec, 2 * l))) / (2 * l)


def _m2l_table(spec: BeurlingSpec, ns, tol: float):
    """m2l(l) -> M(2l) for the rows ns of one call: one table, built on first
    use at the working bits of the largest n and dropped with m2l. A row
    reading an entry held at more bits than its own only gets rounded
    products closer to the exact ones."""
    top = max(_route_c_bits(n, tol) for n in ns)
    table = []

    def m2l(l: int):
        while len(table) < l:
            with workprec(top):
                table.append(_m2l_mp(spec, len(table) + 1, top))
        return table[l - 1]

    return m2l


def c_even_mellin_exact_L(
    spec: BeurlingSpec, n, L: int, tol: float = 1e-10
) -> FourierCoefficient:
    """Finite even-Mellin form, exact for every L:

        c = A1 + (2/(n pi)) sum_{l<=L} (-1)^l (n pi)^{2l} / (2l)!
               + 2 sum_{l<=L} (-1)^{l-1} (n pi)^{2l-1} / (2l-1)! M(2l)
               + (remainder, NOT computed).

    The returned certificate is remainder_bound(spec, n, L) plus summation
    roundoff. Terms grow to ~e^{n pi} before cancelling, so the working
    precision adds ceil(1.443 n pi) + 64 bits over the output precision.
    A term with theta = 1 is a HypothesisError: there theta^{L+1} does not
    decay and the remainder can exceed remainder_bound (THETA1_B at n = 9,
    L = 8 is off by 2.1e8 against a bound of 3.2e7).
    """
    return _exact_L_rows(spec, [n], L, tol)[0]


def _exact_L_rows(spec: BeurlingSpec, ns, L: int, tol: float) -> list[FourierCoefficient]:
    """c_even_mellin_exact_L for each n in ns, in the order given, reading
    M(2l) from one `_m2l_table`; each row keeps its own bits and roundoff
    certificate."""
    ns = [check_count(n, "n") for n in ns]
    L = check_count(L, "L")
    if not ns:
        return []
    m2l = _m2l_table(spec, ns, tol)
    _require_even_mellin_hypotheses(spec, "c_even_mellin_exact_L")
    if any(t.theta == 1 for t in spec.terms):
        raise HypothesisError("c_even_mellin_exact_L cannot bound its remainder at theta = 1")
    return [_exact_L_row(spec, n, L, tol, m2l) for n in ns]


def _exact_L_row(spec: BeurlingSpec, n: int, L: int, tol: float, m2l) -> FourierCoefficient:
    """One row of _exact_L_rows."""
    bits = _route_c_bits(n, tol)
    rb = remainder_bound(spec, n, L)
    with workprec(bits):
        npi = n * mpmath.pi
        npi2 = npi * npi
        acc = mpmath.mpc(_a1_mp(n))
        absacc = abs(acc)
        p2 = mpmath.mpf(1)  # (n pi)^{2l} / (2l)!     (updated in loop)
        p3 = mpmath.mpf(0)  # (n pi)^{2l-1} / (2l-1)! (updated in loop)
        for l in range(1, L + 1):
            p2 *= npi2 / ((2 * l - 1) * (2 * l))
            p3 = npi if l == 1 else p3 * npi2 / ((2 * l - 1) * (2 * l - 2))
            t2 = (2 / npi) * p2
            t3 = 2 * p3 * m2l(l)
            if l % 2 == 1:
                acc += -t2 + t3
            else:
                acc += t2 - t3
            absacc += abs(t2) + abs(t3)
        roundoff = (absacc + 1) * mpmath.mpf(2) ** (8 - bits)
        cert = rb.value + roundoff
        value = PrecisionComplex.from_mpc(acc, bits)
    return _result(spec, n, value, "even_mellin_exact_L", L, cert)


def _limit_L_for(n: int, tol: float, spec: BeurlingSpec) -> int:
    """Smallest L making both certificate pieces of the limit route <= tol/4."""
    npi = n * math.pi
    log_npi = math.log(npi)
    theta_pow_log = {}

    def log_rb(L: int) -> float:
        # log of (n pi)^{L+1}/(L+1)! * zeta(L+1) * sum theta^{L+1}
        if L not in theta_pow_log:
            s = sum(float(t.theta) ** (L + 1) for t in spec.terms)
            theta_pow_log[L] = math.log(s) if s > 0 else -math.inf
        return (
            (L + 1) * log_npi
            - math.lgamma(L + 2)
            + math.log(2.0)  # zeta(L+1) <= 2 for L >= 1
            + theta_pow_log[L]
        )

    def log_costail(L: int) -> float:
        # log of (2/(n pi)) (n pi)^{2L+2} / (2L+2)!
        return math.log(2.0) - log_npi + (2 * L + 2) * log_npi - math.lgamma(2 * L + 3)

    target = math.log(tol / 4.0)
    L = max(1, int(math.ceil(1.36 * npi / 2.0)))  # e*npi for the 2L+2 index
    while L < 200_000 and (log_rb(L) > target or log_costail(L) > target):
        L += 1 + L // 16
    while L > 1 and log_rb(L - 1) <= target and log_costail(L - 1) <= target:
        L -= 1
    if log_rb(L) > target or log_costail(L) > target:
        raise ToleranceNotMet(
            f"even-Mellin limit route cannot certify tol {tol:.3g} at n = {n}"
        )
    return L


def c_even_mellin_limit(spec: BeurlingSpec, n, tol: float = 1e-10) -> FourierCoefficient:
    """The limit form c(N, n) = 2 sum_{l>=1} (-1)^{l-1} (n pi)^{2l-1}/(2l-1)! M(2l).

    Truncation L is chosen so the remainder certificate <= tol/2 (its two
    parts: the exact-L remainder bound, and the first omitted term of the
    cancelling cosine pair A1 + sum (-1)^l (n pi)^{2l}/(2l)!, each <= tol/4)
    and additionally the next series term is <= tol/10.
    """
    return _limit_rows(spec, [n], tol)[0]


def _limit_rows(spec: BeurlingSpec, ns, tol: float) -> list[FourierCoefficient]:
    """c_even_mellin_limit for each n in ns, in the order given, reading
    M(2l) from one `_m2l_table`; each row keeps its own bits, L, cosine tail
    and roundoff certificate."""
    ns = [check_count(n, "n") for n in ns]
    if not ns:
        return []
    m2l = _m2l_table(spec, ns, tol)
    _require_even_mellin_hypotheses(spec, "c_even_mellin_limit")
    return [_limit_row(spec, n, tol, m2l) for n in ns]


def _limit_row(spec: BeurlingSpec, n: int, tol: float, m2l) -> FourierCoefficient:
    """One row of _limit_rows, reading M(2l) from m2l(l)."""
    bits = _route_c_bits(n, tol)
    L = _limit_L_for(n, tol, spec)
    rb = remainder_bound(spec, n, L)
    with workprec(bits):
        npi = n * mpmath.pi
        npi2 = npi * npi
        acc = mpmath.mpc(0)
        absacc = mpmath.mpf(0)
        p3 = mpmath.mpf(0)
        l = 1
        while True:
            p3 = npi if l == 1 else p3 * npi2 / ((2 * l - 1) * (2 * l - 2))
            t3 = 2 * p3 * m2l(l)
            acc += t3 if l % 2 == 1 else -t3
            absacc += abs(t3)
            if l >= L:
                # contract guard: extend while the next term is still > tol/10
                nxt_p3 = p3 * npi2 / ((2 * l + 1) * (2 * l))
                nxt = 2 * nxt_p3 * abs(m2l(l + 1))
                if nxt <= mpmath.mpf(tol) / 10 or l > L + 1000:
                    break
            l += 1
        L_used = l
        costail = (2 / npi) * mpmath.power(npi, 2 * L_used + 2) / mpmath.factorial(
            2 * L_used + 2
        )
        roundoff = (absacc + 1) * mpmath.mpf(2) ** (8 - bits)
        cert = rb.value + costail + roundoff
        value = PrecisionComplex.from_mpc(acc, bits)
    return _result(spec, n, value, "even_mellin_limit", L_used, cert, tol)


# ---------------------------------------------------------------------------
# Telescoping partial sums
# ---------------------------------------------------------------------------


def telescope_partial(l: int, J: int, out_precision: int = 128) -> PrecisionReal:
    """sum_{j=1}^{J} j [j^{-2l} - (j+1)^{-2l}], via the closed partial form

        1 - (J+1)^{1-2l} + sum_{j=2}^{J+1} j^{-2l};

    increases to zeta(2l) as J grows.
    """
    l = check_count(l, "l")
    J = check_count(J, "J")
    with workprec(out_precision + 32):
        acc = mpmath.mpf(1) - mpmath.power(J + 1, 1 - 2 * l)
        acc += mpmath.nsum(lambda j: mpmath.power(j, -2 * l), [2, J + 1], method="direct")
        return PrecisionReal(acc, out_precision)


# ---------------------------------------------------------------------------
# Batches
# ---------------------------------------------------------------------------


def c_batch(
    spec: BeurlingSpec,
    ns,
    method: str = "direct",
    tol: float = 1e-10,
    L: int | None = None,
) -> list[FourierCoefficient]:
    """Coefficients for each n in ns (any iterable of ints), in the order given.

    Rows are computed one after another: every mp route holds the package's
    single mpmath lock, so concurrent rows would only wait on each other.
    The rows of both even-Mellin routes share one M(2l) table (`_m2l_table`),
    the direct rows share one Hurwitz-kernel tail table per end U of the
    exact head (`_direct_rows`; the table is planned for n pi = U/2, so it
    serves every row with that U), and the cosine rows share one Hurwitz row
    zeta(2m, a) per a = J_k + 1 (`_cosine_rows`; planned for
    alpha = (a - 1)/2, so it serves every term with that a). Each row equals
    its single call.
    """
    if method == "direct":
        return _direct_rows(spec, ns, tol)
    if method == "even_mellin_limit":
        return _limit_rows(spec, ns, tol)
    if method == "even_mellin_exact_L":
        if L is None:
            raise DomainError("method even_mellin_exact_L needs L")
        return _exact_L_rows(spec, ns, L, tol)
    if method == "cosine_series":
        return _cosine_rows(spec, ns, tol)
    raise DomainError(f"unknown method {method!r}")


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53 the float64 unit roundoff."""
    ku = k * (_F64_EPS / 2.0)
    return ku / (1.0 - ku)


def _cos_tail(alpha, J):
    """sum_{j>J} (cos(alpha/j) - 1) per row by its zeta series (module docstring).

    Needs J >= 2 alpha. Returns (tail, sum of |series terms|, first omitted
    term).
    """
    q = (J + 1).astype(np.float64)
    tail = np.zeros_like(alpha)
    absacc = np.zeros_like(alpha)
    coef = alpha * alpha / 2.0
    term = coef * _hurwitz_f64(2, q)
    m = 1
    while True:
        tail += -term if m % 2 else term
        absacc += np.abs(term)
        coef = coef * alpha * alpha / ((2 * m + 1) * (2 * m + 2))
        # the first omitted term is the next step's term
        trunc = coef * _hurwitz_f64(2 * m + 2, q)
        if float(trunc.max()) < 1e-19 or m >= 64:
            return tail, absacc, trunc
        term = trunc
        m += 1


def _direct_head(alpha, J):
    """sum_{j<=J(n)} (cos(alpha/j) - 1) per row, as one dense rows x max(J) block.

    Returns (head, err): err bounds the roundoff (module docstring).
    """
    j = np.arange(1, int(J.max()) + 1, dtype=np.float64)[None, :]
    terms = -2.0 * np.sin(alpha[:, None] / (2.0 * j)) ** 2
    terms[j > J[:, None]] = 0.0
    head = np.sum(terms, axis=1)
    # y = alpha / (2j) carries relative error gamma_5 and |d(2 sin^2 y)/dy| <= 2,
    # so the arguments cost gamma_5 alpha H_J <= gamma_5 alpha (1 + ln J)
    err = 4.0 * _F64_EPS * np.sum(np.abs(terms), axis=1) + _gamma(5) * alpha * (
        1.0 + np.log(J)
    )
    return head, err


def _nufft_head(theta: float, J: int, n_lo: int, n_max: int):
    """sum_{j<=J} (cos(n pi theta/j) - 1) for n = n_lo..n_max by a Taylor NUFFT.

    Returns (head, err): err is a proven bound on |head - exact| made of the
    Taylor remainder and the roundoff of every step (module docstring).
    """
    Q = _TAYLOR_Q
    M = 1 << (4 * n_max).bit_length()  # 2^ceil(log2(4 n_max + 1))
    h = 2.0 * math.pi / M
    x = (math.pi * theta) / np.arange(1, J + 1, dtype=np.float64)
    l = np.rint(x / h).astype(np.int64)
    d = x - l * h  # |d| <= h/2 up to rounding
    counts = np.bincount(l, minlength=M)
    n = np.arange(n_lo, n_max + 1, dtype=np.float64)
    s = np.zeros_like(n)
    w_norm = np.zeros_like(n)  # sum_q n^q/q! ||w_q||_1
    coef = np.ones_like(n)  # n^q / q!
    p = np.ones_like(x)  # d^q
    for q in range(Q):
        w = np.bincount(l, weights=p, minlength=M)
        # rfft gives sum_l w_l e^{-i n l h}; Re((-i)^q rfft) is the q-th term
        # of Re sum_j e^{-i n x_j} = sum_j cos(n x_j)
        f = np.fft.rfft(w)[n_lo : n_max + 1]
        s += coef * (f.real, f.imag, -f.real, -f.imag)[q % 4]
        w_norm += coef * float(np.sum(np.abs(w)))
        coef = coef * n / (q + 1)
        p = p * d
    head = s - J
    dmax = float(np.max(np.abs(d)))
    L = math.log2(M)
    # Error terms, each summed over the J points:
    # * Taylor: |e^{iy} - sum_{q<Q} (iy)^q/q!| <= |y|^Q/Q! for real y, y = n d.
    # * Arguments: x = fl(fl(pi theta)/j) has relative error gamma_4 and
    #   fl(l h) adds gamma_2 (x + h), the subtraction u h, so the computed d is
    #   within gamma_6 (x + h) of the exact x - 2 pi l/M, and cos moves by at
    #   most n times that; sum_j x_j <= pi theta (1 + ln J).
    # * Binning: w_q[l] (q >= 1) is a recursive sum of counts[l] powers d^q,
    #   each from q - 1 products, so it is off by <= gamma_{counts[l]+Q}
    #   sum |d|^q (Higham, Accuracy and Stability, 3.1 and 4.2); summed over
    #   q >= 1 with weights n^q/q! that is <= gamma |d| n e^{n dmax}.
    # * FFT: in a radix-2 FFT every output is a sum over inputs along paths of
    #   log2 M butterflies. One butterfly rounds by at most
    #   (1 + u)(1 + sqrt(2) gamma_2)(1 + mu) - 1 <= 8u (complex product,
    #   Higham lemma 3.5; twiddles accurate to mu <= 4u; one addition), so
    #   output n is within ((1 + 8u)^L - 1) ||w||_1 <= gamma_{8L} ||w||_1 of
    #   the exact DFT (Higham ch. 24, taken componentwise). A radix-4 pass
    #   rounds no more than two radix-2 levels. Forming n^q/q! (2q roundings),
    #   the product and the sum over q add gamma_{3Q+2} relative to w_norm.
    # * Subtracting J rounds by gamma_1 |head|.
    err = (
        J * coef * dmax**Q
        + _gamma(6) * n * (math.pi * theta * (1.0 + math.log(J)) + J * h)
        + float(np.sum(_gamma(counts[l] + Q) * np.abs(d))) * n * np.exp(n * dmax)
        + _gamma(8 * L + 3 * Q + 2) * w_norm
        + _gamma(1) * np.abs(head)
    )
    return head, err


def batch_cosine_f64(spec: BeurlingSpec, n_max: int):
    """Route-B coefficients for n = 1..n_max, vectorized in float64.

    Returns (c, cert): complex128 and float64 arrays of length n_max. Each
    cert[n-1] bounds |c - c(N, n)| by twice the first omitted Hurwitz-tail
    term, the Taylor remainder of the head (rows n > 256) and a priori
    roundoff bounds (module docstring). Requires an admissible spec. Rows
    n <= 256 sum their own head j <= J(n) = max(64, ceil(2 alpha))
    directly; rows above share the cutoff J* = J(n_max) and take the head
    from a Taylor NUFFT, so the cost is O(n_max log n_max + J*) per term
    instead of O(n_max J*).
    """
    if not spec.admissible:
        raise ConstraintError("batch route B requires an admissible spec")
    n_max = check_count(n_max, "n_max")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    npi = n * math.pi
    a1 = np.where(np.arange(1, n_max + 1) % 2 == 1, 4.0 / npi, 0.0)
    c = a1.astype(np.complex128)
    cert = np.zeros(n_max)
    mag = np.abs(a1)  # |a1| + sum_k |a_k contrib_k|
    n0 = min(_N0, n_max)
    for t in spec.terms:
        theta = float(t.theta)
        if t.a == 0:
            continue
        alpha = npi * theta  # per-n
        J = np.maximum(64, np.ceil(2.0 * alpha)).astype(np.int64)
        J[n0:] = J[-1]
        head = np.empty(n_max)
        err = np.empty(n_max)
        head[:n0], err[:n0] = _direct_head(alpha[:n0], J[:n0])
        if n_max > n0:
            head[n0:], err[n0:] = _nufft_head(theta, int(J[-1]), n0 + 1, n_max)
        tail, absacc, trunc = _cos_tail(alpha, J)
        # alpha carries relative error gamma_4 and |d tail/d alpha| <= alpha/J
        err += 2.0 * trunc + 4.0 * _F64_EPS * absacc + _gamma(4) * alpha * alpha / J
        contrib = (head + tail) * (2.0 / npi)
        c += t.a * contrib
        cert += abs(t.a) * (2.0 / npi) * err
        mag += abs(t.a) * np.abs(contrib)
    # a1 and each a_k contrib_k are formed with <= 6 roundings, then summed
    return c, cert + _gamma(len(spec.terms) + 6) * mag


def cosine_coeffs(spec: BeurlingSpec, n_max: int, tol: float, n_min: int = 1):
    """(c, cert) for n = n_min..n_max, 1 <= n_min <= n_max, with every
    cert[n-n_min] <= tol.

    One `batch_cosine_f64` call gives every row; each row from n_min on
    whose certificate misses tol is replaced by `c_cosine_series` at tol,
    its certificate widened by the rounding of the value to the stored
    double and rounded up (`to_double`). ToleranceNotMet, before any mp work, when such a row lies past
    n = _MP_ROW_CAP, and when tol is below that rounding. The rows depend
    only on (spec, n_max, tol).
    """
    tol = check_tol(tol)
    n_min = check_count(n_min, "n_min")
    n_max = check_count(n_max, "n_max", n_min)
    c, cert = batch_cosine_f64(spec, n_max)
    c, cert = c[n_min - 1 :], cert[n_min - 1 :]
    missing = np.flatnonzero(~(cert <= tol)) + n_min
    if missing.size and missing[-1] > _MP_ROW_CAP:
        raise ToleranceNotMet(
            f"per-coefficient tol {tol:.3g} needs the mpmath route, "
            f"which is not practical beyond n = {_MP_ROW_CAP}"
        )
    for n in missing.tolist():
        i = n - n_min
        fc = c_cosine_series(spec, n, tol)
        c[i], cert[i] = to_double(fc.value, float(fc.error_certificate))
        if cert[i] > tol:
            raise ToleranceNotMet(
                f"c({n}) stored as a double is off by up to {cert[i]:.3g}, above tol {tol:.3g}"
            )
    return c, cert


def coefficients_csv(coeffs: list[FourierCoefficient]) -> str:
    """CSV with columns n, re(c), im(c), method, L_or_J, certificate."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n", "re(c)", "im(c)", "method", "L_or_J", "certificate"])
    for fc in coeffs:
        w.writerow(
            [
                fc.n,
                format(float(fc.value.re), ".17g"),
                format(float(fc.value.im), ".17g"),
                fc.method,
                "" if fc.truncation_order is None else fc.truncation_order,
                format(float(fc.error_certificate), ".17g"),
            ]
        )
    return buf.getvalue()
