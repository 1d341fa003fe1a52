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
zeta(2m, J+1), whose terms shrink by > 48x per step once J >= 2a, certified
by twice the first omitted term and the bounds of `hurwitz_zeta_row` (mp)
or of its float64 twin `hurwitz_zeta_f64` (the batch's `_cos_tail`).

The float64 batch ``batch_cosine_f64`` evaluates the same limit form for
n = 1..n_max at once. Rows n <= n0 = 256 sum their own head
j <= J(n) = max(64, ceil(2 alpha)) directly (`_direct_head`), exactly as
``c_cosine_series`` does in mp. Rows above share one cutoff J*_k = J(n_max)
per term, so their head sum_k a_k sum_{j<=J*_k} (cos(alpha_k/j) - 1) is a
type-1 nonuniform DFT over the union of all terms' points, each weighted by
its a_k, taken by one Taylor NUFFT per call (`_nufft_head`) in
O(n_max log n_max + sum_k J*_k) instead of O(n_max sum_k J*_k). The split
keeps the cancellation against sum_k a_k J*_k harmless: its roundoff is
about eps sum_k |a_k| J*_k, which 2/(n pi) turns into at most ~1e-11 for
n > n0 and n_max <= 10^4, while the rows below n0 never cancel against J*.
Every batch certificate is proven from the IEEE rounding model next to the
code, taking libm's sin and numpy's FFT twiddles as accurate to a few ulps
(4 eps relative for the summed head terms, 4u for the twiddles); the test
suite checks both against mp on the running platform.

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

from . import _periodic
from .errors import ConstraintError, DomainError, HypothesisError, ToleranceNotMet
from .functions import BeurlingSpec
from .mellin import power_sum_exact
from .numerics import (
    PrecisionComplex,
    PrecisionReal,
    _gamma,
    _series_bits,
    bits_for_tol,
    check_cert,
    check_count,
    check_tol,
    float_up,
    hurwitz_zeta_f64,
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


def _a1_mp(n: int):
    """A1 = (2/(n pi)) (1 - cos n pi) at current mpmath precision."""
    return mpmath.mpf(0) if n % 2 == 0 else 4 / (n * mpmath.pi)


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
    to the double it is stored as, refused above tol by `check_cert` (kept as
    information when tol is None), then zero the imaginary part of a real
    spec's value."""
    cert = float_up(cert) if tol is None else check_cert(cert, tol, f"c({n}) ({method})")
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
    certificate depend only on (spec, n, tol). A term's head sums
    sin^2(alpha_k/2j) over j <= J_k and scales the sum by -2 once, which is
    exact in binary, so it has the bits of the sum of the scaled terms; its
    magnitude enters the roundoff sum once, as 2 sum sin^2."""
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
                # the head is -2 sum_j sin^2(alpha/2j), scaled once (exact)
                sines = mpmath.mpf(0)
                for j in range(1, Jk + 1):
                    sines += mpmath.sin(alpha / (2 * j)) ** 2
                head = -2 * sines
                absacc += 2 * sines
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
    zl = zeta_even(l, bits).value
    return (1 - zl * to_mp(power_sum_exact(spec, 2 * l))) / (2 * l)


def _m2l_table(spec: BeurlingSpec, ns, tol: float):
    """m2l(l) -> M(2l) for the rows ns of one call: one table, built on first
    use at the working bits of the largest n and dropped with m2l. A row
    reading an entry held at more bits than its own only gets rounded
    products closer to the exact ones."""
    top = max(_series_bits(n, tol) for n in ns)
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
    bits = _series_bits(n, tol)
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
    bits = _series_bits(n, tol)
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
    The rows share their route's per-call tables (`_direct_rows`,
    `_cosine_rows`, `_m2l_table`), and each row equals its single call.
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


def _cos_tail(alpha, J):
    """(tail, err): sum_{j>J} (cos(alpha/j) - 1) per row by its zeta series
    for J >= 2 alpha, err a proven bound on its error at the given alpha.

    The terms x_m = coef_m zeta(2m, q), coef_m = alpha^2m/(2m)!, q = J + 1,
    enter with sign (-1)^m and shrink by more than 48x per step (coef by
    alpha^2/12, zeta(2m, q) by q^-2 < 1/(4 alpha^2)). err takes the first
    omitted one twice, sum coef_m e_m for the bounds e_m of `hurwitz_zeta_f64`
    and 2 eps sum x_m for the tail's own roundings: x_m is off by
    gamma_(3m-1) x_m, and summed smallest first each partial sum
    x_k - x_(k+1) + ... is at most 47/46 x_k and rounds by u times that, so
    by the decay they come to (2.12 + 1.05) u x_1 <= 1.6 eps sum x_m.
    """
    q = (J + 1).astype(np.float64)
    terms = []
    err = np.zeros_like(alpha)
    coef = alpha * alpha / 2.0
    for m in range(1, 66):
        z, z_err = hurwitz_zeta_f64(2 * m, q)
        term = coef * z
        if m > 1 and (float(term.max()) < 1e-19 or m > 64):
            break
        terms.append(term)
        err += coef * z_err
        coef = coef * alpha * alpha / ((2 * m + 1) * (2 * m + 2))
    tail = np.zeros_like(alpha)
    for m in range(len(terms), 0, -1):
        tail += -terms[m - 1] if m % 2 else terms[m - 1]
    return tail, err + 2.0 * term + 2.0 * _F64_EPS * sum(terms)


def _direct_head(alpha, J):
    """sum_{j<=J(n)} (cos(alpha/j) - 1) per row, as one dense rows x max(J) block.

    Returns (head, err): err bounds the roundoff (derived below).
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


def _nufft_head(terms, weights, n_lo: int, n_max: int):
    """sum_k w_k sum_{j<=J_k} (cos(n pi theta_k/j) - 1) for n = n_lo..n_max
    and each weight set w in weights (real K-vectors), for terms
    [(theta_k, J_k)], by one Taylor NUFFT over the union of the terms'
    points (Anderson & Dahleh, SIAM J. Sci. Comput. 17, 1996): each
    x = pi theta_k/j is snapped to a grid point l h, h = 2 pi / M, and
    e^{-i n x} is expanded to order Q in the offset d = x - l h. For each
    order q, each term's powers d^q are binned on their own, the binned array
    is scaled by w_k and added to one shared array per weight set, and one
    real FFT of that array gives its order-q term. Returns [(head, err)], one
    per weight set: err is a proven bound on |head - exact| made of the
    Taylor remainder and the roundoff of every step, derived below."""
    Q = _TAYLOR_Q
    K = len(terms)
    M = 1 << (4 * n_max).bit_length()  # 2^ceil(log2(4 n_max + 1))
    h = 2.0 * math.pi / M
    n = np.arange(n_lo, n_max + 1, dtype=np.float64)
    points = []  # (l, d) per term
    for theta, J in terms:
        x = (math.pi * theta) / np.arange(1, J + 1, dtype=np.float64)
        l = np.rint(x / h).astype(np.int64)
        points.append((l, x - l * h))  # |d| <= h/2 up to rounding
    s = [np.zeros_like(n) for _ in weights]
    w_norm = [np.zeros_like(n) for _ in weights]  # sum_q n^q/q! ||W_q||_1
    coef = np.ones_like(n)  # n^q / q!
    powers = [np.ones_like(d) for _, d in points]  # d^q per term
    for q in range(Q):
        shared = [np.zeros(M) for _ in weights]
        for k, (l, d) in enumerate(points):
            w = np.bincount(l, weights=powers[k])  # l[0] = max l: bins past it are empty
            for W, wk in zip(shared, weights):
                if wk[k]:
                    W[: w.size] += wk[k] * w
            powers[k] *= d
        for i, W in enumerate(shared):
            # rfft gives sum_l W_l e^{-i n l h}; Re((-i)^q rfft) is the q-th
            # term of Re sum_k w_k sum_j e^{-i n x_kj} = sum_k w_k sum_j cos(n x_kj)
            f = np.fft.rfft(W)[n_lo : n_max + 1]
            s[i] += coef * (f.real, f.imag, -f.real, -f.imag)[q % 4]
            w_norm[i] += coef * float(np.sum(np.abs(W)))
        coef = coef * n / (q + 1)
    # Error terms. Those of one term's J points are weighted by |w_k|:
    # * Taylor: |e^{iy} - sum_{q<Q} (iy)^q/q!| <= |y|^Q/Q! for real y, y = n d.
    # * Arguments: x = fl(fl(pi theta)/j) has relative error gamma_4 and
    #   fl(l h) adds gamma_2 (x + h), the subtraction u h, so the computed d is
    #   within gamma_6 (x + h) of the exact x - 2 pi l/M, and cos moves by at
    #   most n times that; sum_j x_j <= pi theta (1 + ln J).
    # * Binning, q >= 1: a term's w_q[l] is a recursive sum of counts[l]
    #   powers d^q, each from q - 1 products, so it is off by
    #   <= gamma_{counts[l]+Q} sum |d|^q (Higham, Accuracy and Stability, 3.1
    #   and 4.2). Scaling by w_k and adding K arrays into W_q rounds K more
    #   times, so W_q[l] is within gamma_{counts+Q+K+1} sum_k |w_k| sum |d|^q
    #   of sum_k w_k w_q[l] (one spare unit), where counts is the term's own
    #   bin count: binning w_k d^q instead would sum w_k counts[l] times.
    #   Summed over q >= 1 with weights n^q/q! that is
    #   <= gamma |d| n e^{n dmax} per point.
    # * Binning, q = 0: W_0[l] = sum_k w_k counts[l] is one product and K - 1
    #   additions, off by gamma_K sum_k |w_k| counts[l]; over l, gamma_K J.
    # Those of the shared arrays:
    # * FFT: in a radix-2 FFT every output is a sum over inputs along paths of
    #   log2 M butterflies. One butterfly rounds by at most
    #   (1 + u)(1 + sqrt(2) gamma_2)(1 + mu) - 1 <= 8u (complex product,
    #   Higham lemma 3.5; twiddles accurate to mu <= 4u; one addition), so
    #   output n is within ((1 + 8u)^L - 1) ||W||_1 <= gamma_{8L} ||W||_1 of
    #   the exact DFT of W (Higham ch. 24, taken componentwise). A radix-4
    #   pass rounds no more than two radix-2 levels. Forming n^q/q! (2q
    #   roundings), the product and the sum over q add gamma_{3Q+2} relative
    #   to w_norm.
    # * Subtracting sum_k w_k J_k, rounded once from its exact value, costs
    #   gamma_1 (|head| + |that sum|).
    L = math.log2(M)
    per_term = []
    for (theta, J), (l, d) in zip(terms, points):
        counts = np.bincount(l)
        dmax = float(np.max(np.abs(d)))
        binned = float(np.sum(_gamma(counts[l] + Q + K + 1) * np.abs(d)))
        per_term.append(
            J * coef * dmax**Q
            + _gamma(6) * n * (math.pi * theta * (1.0 + math.log(J)) + J * h)
            + binned * n * np.exp(n * dmax)
            + _gamma(K) * J
        )
    out = []
    for i, wk in enumerate(weights):
        j_sum = float(sum(Fraction(w) * J for w, (_, J) in zip(wk, terms)))
        head = s[i] - j_sum
        err = (
            sum(abs(w) * e for w, e in zip(wk, per_term))
            + _gamma(8 * L + 3 * Q + 2) * w_norm[i]
            + _gamma(1) * (np.abs(head) + abs(j_sum))
        )
        out.append((head, err))
    return out


def batch_cosine_f64(spec: BeurlingSpec, n_max: int):
    """Route-B coefficients for n = 1..n_max, vectorized in float64.

    Returns (c, cert): complex128 and float64 arrays of length n_max, each
    cert[n-1] a proven bound on |c - c(N, n)| from the head's and the tail's
    bounds and the roundoff of the assembly (module docstring). Requires an
    admissible spec.
    """
    if not spec.admissible:
        raise ConstraintError("batch route B requires an admissible spec")
    n_max = check_count(n_max, "n_max")
    n = np.arange(1, n_max + 1, dtype=np.float64)
    npi = n * math.pi
    a1 = np.where(np.arange(1, n_max + 1) % 2 == 1, 4.0 / npi, 0.0)
    c = a1.astype(np.complex128)
    cert = np.zeros(n_max)
    mag = np.abs(a1)  # |a1| + the magnitudes of the other summands of c
    n0 = min(_N0, n_max)
    lo, hi = slice(None, n0), slice(n0, None)
    shared = []  # (a_k, theta_k, J*_k) for the rows above n0
    for t in spec.terms:
        theta = float(t.theta)
        if t.a == 0:
            continue
        alpha = npi * theta  # per-n
        J = np.maximum(64, np.ceil(2.0 * alpha)).astype(np.int64)
        J[n0:] = J[-1]
        tail, tail_err = _cos_tail(alpha, J)
        # alpha carries relative error gamma_4 and |d tail/d alpha| <= alpha/J
        tail_err = tail_err + _gamma(4) * alpha * alpha / J
        head, err = _direct_head(alpha[lo], J[lo])
        contrib = (head + tail[lo]) * (2.0 / npi[lo])
        c[lo] += t.a * contrib
        cert[lo] += abs(t.a) * (2.0 / npi[lo]) * (err + tail_err[lo])
        mag[lo] += abs(t.a) * np.abs(contrib)
        if n_max > n0:
            contrib = tail[hi] * (2.0 / npi[hi])
            c[hi] += t.a * contrib
            # the head of this term enters through the shared NUFFT with the
            # double t.a; |a_k - t.a| <= u |a_k|, and the exact head has
            # |sum_j (cos(alpha/j) - 1)| <= sum_j min(2, alpha^2/2j^2)
            # <= 2 alpha + 2, which 2/(n pi) turns into 4 theta + 4/(n pi)
            cert[hi] += abs(t.a) * (
                (2.0 / npi[hi]) * tail_err[hi] + _F64_EPS * (4.0 * theta + 4.0 / npi[hi])
            )
            mag[hi] += abs(t.a) * np.abs(contrib)
            shared.append((t.a, theta, int(J[-1])))
    gamma = np.full(n_max, _gamma(len(spec.terms) + 6))
    if shared:
        # one NUFFT for sum_k a_k head_k: Re a_k, and Im a_k for a complex spec
        weights = [[a.real for a, _, _ in shared]]
        if any(a.imag for a, _, _ in shared):
            weights.append([a.imag for a, _, _ in shared])
        parts = _nufft_head([(theta, J) for _, theta, J in shared], weights, n0 + 1, n_max)
        head, err = parts[0]
        if len(parts) == 2:
            # |e_re + i e_im| <= hypot of their bounds
            head, err = head + 1j * parts[1][0], np.hypot(err, parts[1][1])
        contrib = head * (2.0 / npi[hi])
        c[hi] += contrib
        cert[hi] += (2.0 / npi[hi]) * err
        mag[hi] += np.abs(contrib)
        # above n0, c = a1 + sum_k a_k tail_k 2/(n pi) + head 2/(n pi): one
        # more summand than below, so one more rounding
        gamma[hi] = _gamma(len(spec.terms) + 7)
    # a1 and each a_k contrib_k are formed with <= 6 roundings, then summed
    return c, cert + gamma * mag


def cosine_coeffs(spec: BeurlingSpec, n_max: int, tol: float):
    """(c, cert) for n = 1..n_max, with every cert[n-1] <= tol.

    One `batch_cosine_f64` call gives every row; each row whose certificate
    misses tol is replaced by `c_cosine_series` at tol, its certificate
    widened by the rounding of the value to the stored double and rounded
    up (`to_double`). ToleranceNotMet, before any mp work, when such a row
    lies past n = _MP_ROW_CAP, and when the widened certificate exceeds tol
    (`check_cert`). The rows depend only on (spec, n_max, tol).
    """
    tol = check_tol(tol)
    n_max = check_count(n_max, "n_max")
    c, cert = batch_cosine_f64(spec, n_max)
    missing = np.flatnonzero(~(cert <= tol)) + 1
    if missing.size and missing[-1] > _MP_ROW_CAP:
        raise ToleranceNotMet(
            f"per-coefficient tol {tol:.3g} needs the mpmath route, "
            f"which is not practical beyond n = {_MP_ROW_CAP}"
        )
    for n in missing.tolist():
        fc = c_cosine_series(spec, n, tol)
        c[n - 1], err = to_double(fc.value, float(fc.error_certificate))
        cert[n - 1] = check_cert(err, tol, f"c({n}) stored as a double")
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
