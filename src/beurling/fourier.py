"""Fourier sine coefficients c(N, n) = 2 int_0^1 F_N(x) sin(n pi x) dx.

Three independent routes:

* ``c_direct``            -- the definition, integrated on the u = 1/x side
                             by the periodic engine, in float64 where its
                             proven bound meets tol and in mp otherwise.
* ``c_cosine_series``     -- the cosine telescoping series over j, summed
                             to its limit.
* ``c_even_mellin_*``     -- the even-Mellin series in M(2l), cut at an
                             explicit L, or at the L planned to meet tol
                             (the limit route); both run one row, certified
                             by a proven bound on the whole remainder.

Notation used throughout: A1 = (2 / n pi)(1 - cos n pi) and alpha_k = n pi
theta_k.

Tail of the cosine route (not from the source material): the telescoped
series is rewritten as sum_j (cos(a/j) - 1), and its j > J tail is evaluated
analytically: sum_{j>J} (cos(a/j) - 1) = sum_{m>=1} (-1)^m a^{2m}/(2m)!
zeta(2m, J+1), whose terms shrink by > 48x per step once J >= 2a, certified
by twice the first omitted term and the bounds of `hurwitz_zeta_row` (mp)
or of its float64 twin `hurwitz_zeta_f64` (the batch's `_cos_tail`).
In mp its head -2 sum_{j<=J} sin^2(n y_j), y_j = pi theta/(2j), trusts no
mp sine per row: `_cosine_rows` takes one mp cos_sin per (theta, j),
rounded to fixed point at scale 2^P, and builds e^(i n y_j) from it by
exact integer squaring and products over the binary digits of n
(`numerics.fixed_mul`). Its lemma puts each sine within 3n units of 2^-P,
so each sin^2 within 7n 2^-P, and the certificate adds 2 |a| J 7n 2^-P per
term; the heads are exact integer sums of squares, rounded to mp once.

The float64 batch ``batch_cosine_f64`` evaluates the same limit form for
n = 1..n_max at once. Rows n <= n0 = 64 sum their own head j <= J(n) =
max(64, ceil(2 alpha)) (`_cosine_head_block`). Rows above share one cutoff
J*_k = J(n_max), so their head sum_k a_k sum_{j<=J*_k} (cos(alpha_k/j) - 1)
is one type-1 nonuniform DFT, taken by a Taylor NUFFT on
M = 2^ceil(log2(4 n_max)) points (`_nufft_head`) in O(n_max log n_max +
sum_k J*_k). It cancels against sum_k a_k J*_k: its FFT roundoff,
gamma_(8 log2 M + 3Q + 2) e^(pi/4) sum_k |a_k| J*_k, is about
2e-13 (n_max/n) sum_k |a_k| theta_k on c(n) for n_max <= 16384
(1.1e-11 sum_k |a_k| theta_k at n = 65, n_max = 4096). Every certificate
is proven from the IEEE rounding model next to the code, taking libm's sin
and numpy's FFT twiddles as accurate to a few ulps (4 eps relative for the
summed head terms, 4u for the twiddles); the tests check both against mp.

``cosine_coeffs`` is the batch's one caller: it keeps each row that meets
the caller's tolerance, recomputes each NUFFT row that misses it with its
own head (`_f64_rows`) and takes the rows that still miss from
``c_cosine_series``; Parseval, the reconstruction and routes-check read it.
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
from .errors import DomainError, HypothesisError, ToleranceNotMet
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
    fixed_cis,
    fixed_mul,
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

# Rows n <= _N0 of batch_cosine_f64 sum their own head; rows above
# share one cutoff and take the head from a Taylor NUFFT of order _TAYLOR_Q
_N0 = 64
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

    Integrated on the u = 1/x side by the periodic engine. A spec with
    sum a_k theta_k = 0 has pieces of degree 0, and its row is taken in
    float64 (`_periodic.sine_integral_f64`: a head of exact antiderivative
    differences in doubles, a tail by two integrations by parts) when that
    tier's proven bound meets tol. Every other row, and every row of any
    other spec, comes from `_periodic.sine_integral_mp` (exact cosine and
    sine integral heads, one Hurwitz-kernel tail), which reaches arbitrary
    tolerances; its certificate also covers rounding the value to its
    output precision. ToleranceNotMet when the thetas have no period within
    the caps of `_periodic`.
    """
    return _direct_rows(spec, [n], tol)[0]


def _direct_rows(spec: BeurlingSpec, ns, tol: float) -> list[FourierCoefficient]:
    """c_direct for each n in ns, in the order given. Every row whose
    float64 bound meets tol comes from one `sine_integral_f64` call, at
    tol/2 for the integral, doubled exactly; the tier decides which before
    it sums any row. The other rows go to one `sine_integral_mp` call:
    rows that share the end U of the exact head share its tail table. Each
    row's value and certificate are those of its single call."""
    ns = [check_count(n, "n") for n in ns]
    if not ns:
        return []
    bits = bits_for_tol(tol) + 32
    pieces, B = spec.linear_pieces, spec.decomposition.period
    fast = _periodic.sine_integral_f64(pieces, B, ns, tol / 2)
    slow_ns = [n for n, row in zip(ns, fast) if row is None]
    slow = iter(_periodic.sine_integral_mp(pieces, B, slow_ns, bits) if slow_ns else ())
    out = []
    for n, row in zip(ns, fast):
        if row is None:
            val, err = next(slow)
            with workprec(bits):
                # rounding 2 val to the output bits moves it by at most |2 val| 2^-bits
                value = PrecisionComplex.from_mpc(2 * val, bits)
                cert = 2 * err + abs(2 * val) * mpmath.mpf(2) ** -bits
        else:
            value, cert = PrecisionComplex.from_complex(2 * row[0]), 2 * row[1]
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
    alpha with that a and built before the rows.

    A term's head -2 sum_{j<=J_k} sin^2(n y_j), y_j = pi theta_k/(2j), takes
    no mp sine per row. Each (term, j) up to the call's largest J_k takes one
    `fixed_cis` (C, S) within sqrt2 of 2^P e^(i y_j), P = bits + 64, squared
    by `fixed_mul` to e^(i 2^b y_j); a row forms e^(i n y_j) as the product
    of the squares for the binary digits of n, lowest first. That is a
    product of n factors, so by the lemma of `fixed_mul` its S is within 3n
    of 2^P sin(n y_j) while 9 n^2 2^-P <= 0.16 (every n < 2^80, as P >=
    176), and S^2 2^-2P is within 3n 2^-P (2 + 3n 2^-P) <= 7n 2^-P of
    sin^2(n y_j). The head is the exact integer sum of the S^2, rounded to
    mp once and scaled by -2^(1-2P), exact in binary; the certificate takes
    2 |a_k| J_k 7n 2^-P for the powering, inside the factor 2/(n pi), and the
    head's magnitude enters the roundoff sum once. The integers of a row do
    not depend on the other rows, so each row's value and certificate depend
    only on (spec, n, tol)."""
    ns = [check_count(n, "n") for n in ns]
    if not ns:
        return []
    check_tol(tol)
    spec.require_admissible("c_cosine_series")
    terms = [t for t in spec.terms if abs(t.a) != 0]
    bits = bits_for_tol(tol) + 48
    P = bits + 64
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
    # heads[i][k] = sum_{j<=J_k} S^2 of row i, exact
    heads = [[0] * len(terms) for _ in rows]
    digits = [[b for b in range(n.bit_length()) if n >> b & 1] for n in ns]
    squarings = max(ns).bit_length() - 1
    for k, t in enumerate(terms):
        p, q = t.theta.numerator, t.theta.denominator
        for j in range(1, max(row[k][1] for _, _, row in rows) + 1):
            powers = [fixed_cis(p, 2 * j * q, P)]  # e^(i 2^b y_j)
            for _ in range(squarings):
                powers.append(fixed_mul(powers[-1], powers[-1], P))
            for i, (_, _, row) in enumerate(rows):
                if j <= row[k][1]:
                    bs = digits[i]
                    z = powers[bs[0]]
                    for b in bs[1:]:
                        z = fixed_mul(z, powers[b], P)
                    heads[i][k] += z[1] * z[1]
    with workprec(bits):
        out = []
        for (n, npi, row), sums in zip(rows, heads):
            acc, cert, absacc = mpmath.mpc(0), mpmath.mpf(0), mpmath.mpf(0)
            for t, (alpha, Jk), s2 in zip(terms, row, sums):
                a_mag = abs(t.a)
                sines = mpmath.ldexp(mpmath.mpf(s2), -2 * P)
                head = -2 * sines
                absacc += 2 * sines
                cert += a_mag * mpmath.ldexp(14 * Jk * n, -P)
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

    The paper's bound on the unevaluated remainder of the even-Mellin
    exact-L form. Needs |a_k| <= 1 (HypothesisError otherwise); the
    theta-power form is the sharper one available when the thetas are known,
    below the generic zeta^2(L+1) variant for unit fractions with distinct
    denominators. The value is stored as the least double above the bound,
    so callers read it with float() and lose nothing. It bounds the
    remainder only once the omitted terms fall: SPEC_A at n = 13, L = 5 is
    off by 1.36e5 against 1.12e5, and THETA1_B at n = 9, L = 8 by 2.1e8
    against 3.2e7. No route reads it: both even-Mellin routes certify with
    the proven tail bound of `_exact_L_tail`.
    """
    n = check_count(n, "n")
    L = check_count(L, "L")
    if any(t.a_re * t.a_re + t.a_im * t.a_im > 1 for t in spec.terms):
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
               + (remainder R, NOT computed).

    Needs only an admissible spec (ConstraintError otherwise), for M(2l).
    The certificate, not refused above tol, is the bound T >= |R| of
    `_exact_L_tail` plus summation roundoff. Terms grow to ~e^{n pi} before
    cancelling, so the working precision adds ceil(1.443 n pi) + 64 bits
    over the output precision. T holds for any theta_k and a_k:

        R = sum_{l>L} 2 (-1)^l (n pi)^{2l-1} / (2l)! zeta(2l) P(2l)

    (the two sums' terms l > L, paired by M(2l) - 1/(2l) = -zeta(2l) P(2l)
    / (2l) and A1 = -(2/(n pi)) sum_{l>=1} (-1)^l (n pi)^{2l} / (2l)!).
    With P(2l) = sum_k a_k theta_k^{2l} and zeta(2l) = sum_j j^{-2l}, and
    x_k = n pi theta_k, the double sum converges absolutely, so

        R = (2 / (n pi)) sum_k a_k sum_{j>=1} E(x_k / j),
        E(y) = cos y - sum_{0<=l<=L} (-1)^l y^{2l} / (2l)!.

    Taylor's theorem bounds |E(y)| by y^{2L+2} / (2L+2)!, the first omitted
    term, for every y. When y^2 >= 2L (2L-1) the terms y^{2l} / (2l)! do not
    fall up to l = L, so their alternating sum is at most its last term in
    modulus and |E(y)| <= 1 + y^{2L} / (2L)!. T takes the lesser bound
    for each j < J while the second applies and the first for all j >= J,
    whose sum is x^m / m! zeta(m, J) <= (x / J)^m / m! (1 + J / (m - 1)),
    m = 2L + 2 (sum_{j>J} j^-m <= int_J^inf t^-m dt).
    """
    return _even_mellin_rows(spec, [n], L, tol)[0]


def _exact_L_tail(spec: BeurlingSpec, n: int, L: int):
    """T >= |R|, the proven bound of c_even_mellin_exact_L's docstring on
    its remainder, as an mpf at 64 bits.

    It is a sum and products of positive numbers, each within a few units
    of 2^-63 relative, with fewer than 2^20 roundings, so the widening by
    1 + 2^-40 keeps it above the exact T. The second bound on E is taken
    only where the computed y^2 clears 2L (2L-1) by that factor, so the
    exact y^2 does too; any cut j is valid for the first.
    """
    m = 2 * L + 2
    with workprec(64):
        npi = n * mpmath.pi
        f_hi, f_lo = mpmath.factorial(m), mpmath.factorial(2 * L)
        edge = 2 * L * (2 * L - 1) * (1 + mpmath.ldexp(1, -40))
        total = mpmath.mpf(0)
        for t in spec.terms:
            x = npi * to_mp(t.theta)
            acc, j = mpmath.mpf(0), 1
            while (x / j) ** 2 > edge:
                y = x / j
                acc += min(y**m / f_hi, 1 + y ** (2 * L) / f_lo)
                j += 1
            acc += (x / j) ** m / f_hi * (1 + mpmath.mpf(j) / (m - 1))
            total += abs(to_mp((t.a_re, t.a_im))) * acc
        return 2 * total / npi * (1 + mpmath.ldexp(1, -40))


def _planned_L(spec: BeurlingSpec, n: int, tol: float) -> int:
    """The smallest L at which a float estimate of

        U(L) = (2 / (n pi)) (1 + 1/(m-1)) sum_k |a_k| x_k^m / m!,

    m = 2L + 2, x_k = n pi theta_k, is at most tol/4. U >= T, the bound of
    `_exact_L_tail`, for every L: T's terms j < J are at most the first
    bound, and sum_{j<J} j^-m + J^-m (1 + J/(m-1)) <= 1 + 1/(m-1). The row
    certifies with T itself, so an error in this estimate can only refuse
    it. ToleranceNotMet past L = 200,000.
    """
    npi = n * math.pi

    def log(q: Fraction) -> float:  # float(q) may underflow to 0
        return math.log(q.numerator) - math.log(q.denominator)

    logs = [(log(t.a_re**2 + t.a_im**2) / 2, math.log(npi) + log(t.theta))
            for t in spec.terms if t.a_re or t.a_im]
    target = math.log(tol / 4 * npi / 2)

    def fits(L: int) -> bool:
        m = 2 * L + 2
        v = [la + m * lx - math.lgamma(m + 1) for la, lx in logs]
        if not v:
            return True
        top = max(v)
        return top + math.log(math.fsum(math.exp(x - top) for x in v) * (1 + 1 / (m - 1))) <= target

    L = 1
    while not fits(L):
        if L >= 200_000:
            raise ToleranceNotMet(f"even-Mellin limit route cannot certify tol {tol:.3g} at n = {n}")
        L += 1
    return L


def c_even_mellin_limit(spec: BeurlingSpec, n, tol: float = 1e-10) -> FourierCoefficient:
    """The row of c_even_mellin_exact_L at the L that `_planned_L` takes
    for tol, so that its tail bound T is at most tol/4: the even-Mellin
    series summed to its limit within tol. Needs only an admissible spec
    (ConstraintError otherwise). The certificate is T plus summation
    roundoff, refused above tol (ToleranceNotMet).
    """
    return _even_mellin_rows(spec, [n], None, tol)[0]


def _even_mellin_rows(spec: BeurlingSpec, ns, L: int | None, tol: float) -> list[FourierCoefficient]:
    """c_even_mellin_exact_L at L, or c_even_mellin_limit when L is None,
    for each n in ns, in the order given, reading M(2l) from one
    `_m2l_table`; each row keeps its own bits, L, tail bound and roundoff
    certificate."""
    ns = [check_count(n, "n") for n in ns]
    if L is not None:
        L = check_count(L, "L")
    if not ns:
        return []
    m2l = _m2l_table(spec, ns, tol)
    spec.require_admissible("c_even_mellin_limit" if L is None else "c_even_mellin_exact_L")
    return [_even_mellin_row(spec, n, L, tol, m2l) for n in ns]


def _even_mellin_row(spec: BeurlingSpec, n: int, L: int | None, tol: float, m2l) -> FourierCoefficient:
    """One row of _even_mellin_rows. A planned row (L None) refuses a
    certificate above tol; a fixed-L row reports it whatever tol."""
    bits = _series_bits(n, tol)
    planned = L is None
    if planned:
        L = _planned_L(spec, n, tol)
    tail = _exact_L_tail(spec, n, L)
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
        cert = tail + (absacc + 1) * mpmath.mpf(2) ** (8 - bits)  # T + roundoff
        value = PrecisionComplex.from_mpc(acc, bits)
    if planned:
        return _result(spec, n, value, "even_mellin_limit", L, cert, tol)
    return _result(spec, n, value, "even_mellin_exact_L", L, cert)


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
    L, the truncation order of even_mellin_exact_L, is required by that
    method and refused (DomainError) by every other.

    Rows are computed one after another: every mp route holds the package's
    single mpmath lock, so concurrent rows would only wait on each other.
    The rows share their route's per-call tables (`_direct_rows`,
    `_cosine_rows`, `_m2l_table`), and each row equals its single call.
    """
    if (L is None) == (method == "even_mellin_exact_L"):
        raise DomainError(
            "method even_mellin_exact_L needs L" if L is None else f"method {method!r} takes no L"
        )
    if method == "direct":
        return _direct_rows(spec, ns, tol)
    if method in ("even_mellin_exact_L", "even_mellin_limit"):
        return _even_mellin_rows(spec, ns, L, tol)
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
    # one zeta per distinct q (the NUFFT rows share one)
    q, inv = np.unique((J + 1).astype(np.float64), return_inverse=True)
    terms = []
    err = np.zeros_like(alpha)
    coef = alpha * alpha / 2.0
    for m in range(1, 66):
        z, z_err = (x[inv] for x in hurwitz_zeta_f64(2 * m, q))
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


def _cosine_head_block(alpha, J):
    """(head, err): sum_{j<=J(n)} (cos(alpha/j) - 1) per row and a bound on
    its roundoff (below), in dense blocks of consecutive rows of at most 2^19
    terms (J grows with n); a block's width sets the order of its sums."""
    head, err, i = np.empty_like(alpha), np.empty_like(alpha), 0
    while i < alpha.size:
        k = max(1, np.count_nonzero(np.arange(1, alpha.size - i + 1) * J[i:] <= 1 << 19))
        b, i = slice(i, i + k), i + k
        j = np.arange(1, int(J[b].max()) + 1, dtype=np.float64)[None, :]
        terms = -2.0 * np.sin(alpha[b, None] / (2.0 * j)) ** 2
        terms[j > J[b, None]] = 0.0
        head[b] = np.sum(terms, axis=1)
        # y = alpha / (2j) carries relative error gamma_5 and |d(2 sin^2 y)/dy| <= 2,
        # so the arguments cost gamma_5 alpha H_J <= gamma_5 alpha (1 + ln J)
        err[b] = 4.0 * _F64_EPS * np.sum(np.abs(terms), axis=1) + _gamma(5) * alpha[b] * (1.0 + np.log(J[b]))
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
    M = 1 << (4 * n_max - 1).bit_length()  # 2^ceil(log2(4 n_max))
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


def _f64_rows(spec: BeurlingSpec, ns, n_max: int | None = None):
    """(c, cert) in float64 for the ascending rows ns: each row's own head
    j <= J(n) (`_cosine_head_block`), or with n_max the cutoff J(n_max) and
    one `_nufft_head` (ns then ends at n_max), plus each term's `_cos_tail`;
    cert bounds every error (module docstring)."""
    ns = np.asarray(ns)
    npi = ns * math.pi
    a1 = np.where(ns % 2 == 1, 4.0 / npi, 0.0)
    c = a1.astype(np.complex128)
    cert = np.zeros(ns.size)
    mag = np.abs(a1)  # |a1| + the magnitudes of the other summands of c
    shared = []  # (a_k, theta_k, J*_k) for the NUFFT
    for t in spec.terms:
        if t.a == 0:
            continue
        theta = float(t.theta)
        alpha = npi * theta  # per-n
        top = alpha if n_max is None else np.full_like(alpha, n_max * math.pi * theta)
        J = np.maximum(64, np.ceil(2.0 * top)).astype(np.int64)
        tail, tail_err = _cos_tail(alpha, J)
        # alpha carries relative error gamma_4 and |d tail/d alpha| <= alpha/J
        tail_err = tail_err + _gamma(4) * alpha * alpha / J
        if n_max is None:
            head, err = _cosine_head_block(alpha, J)
        else:
            # the head of this term enters through the shared NUFFT with the
            # double t.a; |a_k - t.a| <= u |a_k|, and the exact head has
            # |sum_j (cos(alpha/j) - 1)| <= sum_j min(2, alpha^2/2j^2) <= 2 alpha + 2
            head, err = 0.0, _F64_EPS * (2.0 * alpha + 2.0)
            shared.append((t.a, theta, int(J[0])))
        contrib = (head + tail) * (2.0 / npi)
        c += t.a * contrib
        cert += abs(t.a) * (2.0 / npi) * (err + tail_err)
        mag += abs(t.a) * np.abs(contrib)
    if shared:
        # one NUFFT for sum_k a_k head_k: Re a_k, and Im a_k for a complex spec
        coefs = [a for a, _, _ in shared]
        weights = [[a.real for a in coefs]] + ([] if spec.is_real else [[a.imag for a in coefs]])
        parts = _nufft_head([(theta, J) for _, theta, J in shared], weights, int(ns[0]), n_max)
        head, err = parts[0]
        if len(parts) == 2:
            # |e_re + i e_im| <= hypot of their bounds
            head, err = head + 1j * parts[1][0], np.hypot(err, parts[1][1])
        contrib = head * (2.0 / npi)
        c += contrib
        cert += (2.0 / npi) * err
        mag += np.abs(contrib)
    # a1 and each a_k contrib_k are formed with <= 6 roundings, then summed,
    # with the shared head 2/(n pi) one more summand
    return c, cert + _gamma(len(spec.terms) + 6 + bool(shared)) * mag


def batch_cosine_f64(spec: BeurlingSpec, n_max: int):
    """Route-B coefficients for n = 1..n_max, vectorized in float64.

    Returns (c, cert): complex128 and float64 arrays of length n_max, each
    cert[n-1] a proven bound on |c - c(N, n)| from the head's and the tail's
    bounds and the roundoff of the assembly (module docstring). Rows
    n <= _N0 sum their own heads, rows above share one NUFFT. Requires an
    admissible spec.
    """
    spec.require_admissible("batch_cosine_f64")
    n = np.arange(1, check_count(n_max, "n_max") + 1)
    parts = [_f64_rows(spec, n[:_N0])] + ([_f64_rows(spec, n[_N0:], n_max)] if n_max > _N0 else [])
    return tuple(np.concatenate(x) for x in zip(*parts))


def cosine_coeffs(spec: BeurlingSpec, n_max: int, tol: float):
    """(c, cert) for n = 1..n_max, with every cert[n-1] <= tol.

    Three tiers: one `batch_cosine_f64` call gives every row; each NUFFT row
    whose certificate misses tol is recomputed with its own float64 head
    (`_f64_rows`), which cancels nothing against J*; the rows that still
    miss come from one `_cosine_rows` call at tol, each certificate widened
    by the rounding of the value to the stored double and rounded up
    (`to_double`). ToleranceNotMet, before any mp work, when such a row lies
    past n = _MP_ROW_CAP, and when the widened certificate exceeds tol
    (`check_cert`). The rows depend only on (spec, n_max, tol).
    """
    tol = check_tol(tol)
    n_max = check_count(n_max, "n_max")
    c, cert = batch_cosine_f64(spec, n_max)
    redo = np.flatnonzero(~(cert[_N0:] <= tol)) + _N0
    if redo.size:
        c[redo], cert[redo] = _f64_rows(spec, redo + 1)
    missing = np.flatnonzero(~(cert <= tol)) + 1
    if missing.size and missing[-1] > _MP_ROW_CAP:
        raise ToleranceNotMet(
            f"per-coefficient tol {tol:.3g} needs the mpmath route, "
            f"which is not practical beyond n = {_MP_ROW_CAP}"
        )
    for fc in _cosine_rows(spec, missing.tolist(), tol) if missing.size else ():
        c[fc.n - 1], err = to_double(fc.value, float(fc.error_certificate))
        cert[fc.n - 1] = check_cert(err, tol, f"c({fc.n}) stored as a double")
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
