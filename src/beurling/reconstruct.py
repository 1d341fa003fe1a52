"""Recovering M(s) from its even-integer values through the Fourier basis.

The double sum M(s) = sum_n S(n, s) c(n), S(n, s) = int_0^1 sin(n pi x)
x^{s-1} dx and c(n) the Fourier coefficients of F_N, is Parseval's identity
in L^2(0, 1) for Re s > 1/2 (x^{s-1} is in L^2, sqrt2 sin(n pi x) is an
orthonormal basis) and formal for Re s <= 1/2. Results carry an empirical
convergence estimate (last-decade partial-sum spread), no certified bound.

Sine moments: two formulas, three evaluations
---------------------------------------------
The Taylor series S(n, s) = n pi sum_m a_m X^m, with
a_m = (-1)^m / ((2m+1)! (s+2m+1)) and X = (n pi)^2, holds for every n. Its
terms reach e^{n pi} / (2 n pi) before they fall, so it runs with
E = ceil(1.4427 n pi) >= log2 e^{n pi} extra bits: bits = bits_for_tol(tol)
+ E + 64. It keeps the terms m <= M, for the first M with 2M+3 > 1.5 n pi at
which the next coefficient c = (n pi)^{2M+3} / (2M+3)! has c and 2c / sigma
below the floor 2^{8 - bits}, sigma = Re s. Past M the coefficients fall by
at least 1/2 a step and |s+2m+1| > sigma, so the tail is at most 2c / sigma.

The same integral is the incomplete-gamma closed form, run at
bits = bits_for_tol(tol) + 48,

    S(n, s) = (n pi)^{-s} Gamma(s) sin(pi s / 2)
              - (-1)^n / (n pi) * (Sigma+ + Sigma-) / 2,

where Sigma+- = sum_{k<K} P_k / z^k, P_k = (s-1)...(s-k), z = +-i n pi, is
the expansion of z^{1-s} e^z Gamma(s, z) = int_0^inf e^{-u} (1 + u/z)^{s-1}
du cut after K terms. Its remainder is proven, not estimated. Taylor's
theorem writes (1 + u/z)^{s-1} as its first K terms plus

    C(s-1, K) (u/z)^K K int_0^1 (1-t)^{K-1} (1 + t u/z)^{s-1-K} dt.

For u >= 0 the point 1 + t u/z has modulus >= 1 and argument within pi/2,
so once K >= Re s - 1 the last power is at most e^{pi |Im s| / 2} in
modulus. Integrating u^K e^{-u} gives K!, so each of Sigma+- is within
e^{pi |Im s| / 2} |P_K| / (n pi)^K: its first omitted term times that
factor. The odd-k terms of Sigma+ and Sigma- cancel and the even ones
agree, so Sigma+ + Sigma- = 2 H + R with H = sum_{j<=J} Q_j y^j,
Q_j = (-1)^j P_{2j}, y = (n pi)^{-2}, J = floor((K-1)/2), and R within twice
that bound. The front is C n^{-s} with C = pi^{-s} Gamma(s) sin(pi s / 2).
Both sums are taken by Horner's rule in a real argument: X or y. The
closed form runs in IEEE doubles first (the float64 tier below), and in mp
where the doubles cannot certify tol.

Dispatch: n <= 31 always takes the series. A row 31 < n < 2^26 takes the
closed form in doubles when its remainder bound is proven (K >= Re s - 1
and rho < 1, see the plans below), falls below 2^-70 / (n pi), and the row's float64
certificate is at most tol. Any other n > 31 takes the closed form in mp
when that remainder bound, evaluated in mp, is proven and below its floor
2^{8 - bits}, and the series otherwise: when the terms grow from the first
(n pi < |s - 1|) or before 2J (rho >= 1), or e^{pi |Im s| / 2} swamps the
smallest term, or K < Re s - 1. At tol 1e-20 no double certifies a row, so
every n > 31 runs in mp. The series and the closed form share no
code but Horner's rule; tests cross-check them across the switchover and
all three against 1F1 at three times the bits.

Shared tables and plans
-----------------------
What depends on (s, tol) alone is built once per call. The closed form's
table (_AsymptoticTerms) holds C, the factor e^{pi |Im s| / 2}, the products
P_k in mp and log2 |P_k| in floats, and the doubles of the float64 tier.
The series' table (_SeriesTable) holds the parts of a_m and 1/(2m+1)!, out
to the M of n = 31 at that row's bits: a row n <= 31 needs no more terms,
since its coefficients are no larger and its floor, at its own bits, no
smaller. A row n > 31 that falls back builds its own table, planned for its
own n. The rows of one table run at its bits p, at least their own, in one
workprec section, and each row's value and certificate depend only on
(n, s, tol).

Each row plans its stop index in floats: the series its M by the rule
above, the closed form its K as the first k at which |P_k| (n pi)^{-k} stops
falling, or falls below 2^{-20} under floor / e^{pi |Im s| / 2} in log2, or
k > 4n; the floor is 2^{8 - bits} in mp and 2^-70 in doubles, so a row that
leaves the float64 tier plans again for mp. A float plan only chooses where
to stop. Each bound is evaluated at the chosen index, in mp or, in the
float64 tier, in doubles under the proof below, and only that bound
decides whether the closed form reached its floor. The terms up to 2J fall when
rho = max(|s-1|, |s-2J|) / (n pi) < 1, since |s - t| is convex in t; rho^2 is
checked below 1 - 2^{-20} in floats, whose few roundings that margin
absorbs.

Roundoff (Higham, Accuracy and Stability, 2nd ed., Lemma 3.1 and 5.1)
--------------------------------------------------------------------
mpmath rounds each +, -, *, / of mpf once at the working precision p, with
relative error below u = 2^{1-p} in any rounding mode (pi at p bits too).
A sum of two mpc, or an mpc times or over an mpf, rounds each part once, so
it errs by less than u in modulus as well; k such roundings compound to
gamma_k = k u / (1 - k u). Horner's rule of degree d at a real x, run on
the real and the imaginary parts apart, leaves each part within
gamma_{2d} sum_j |a_j| x^j of its value at the computed coefficients and x
(Higham (5.3)).

* Series: n pi carries gamma_2 (the rounding of pi, then of n pi), X
  gamma_5, X^m gamma_{5m}. 1/(2m+1)! takes m divisions, and the parts
  q d and -q Im s of a_m, q = 1/(2m+1)! / (d^2 + (Im s)^2), d = sigma+2m+1,
  carry gamma_{m+7}. With A = sum |a_m| X^m <= sinh(n pi) / (n pi)
  (|s+2m+1| >= 1) the computed sum errs by at most
  gamma_{6M+7} A + 2 gamma_{2M} (1 + gamma_{6M+7}) A, and the product by
  n pi adds gamma_3: at most 11 (M+1) u sinh(n pi) <= (M+1) 2^{E+4-p}.
* Closed form: y = (1/pi^2) / n^2 carries gamma_5 and P_{2j} gamma_{4j}, so
  with A = sum |P_{2j}| y^j the computed H errs by at most
  gamma_{9J} A + 2 gamma_{2J} (1 + gamma_{9J}) A <= 14 J u A, and
  H / (n pi) by (14 J + 4) u A / (n pi). Its terms fall by rho or more a
  step, so A <= 1 / (1 - rho^2). The front C n^{-s} and the final
  difference are allowed 2^{8-p} (|front| + |value|), resting, as before,
  on mpmath's gamma, sin, exp and power being within a few units in the
  last place.
* Each branch's certificate is (truncation bound + roundoff bound) times
  1 + (8 L + 4 |Im s| + 32) u, L = M or K. That covers the roundings of
  the bound's inputs (|P_K|, (n pi)^K and the factor, whose argument
  pi |Im s| / 2 carries gamma_2; (n pi)^{2M+3} and 1/(2M+3)!) and of its
  own evaluation.

The stored certificate adds |value| 2^{-bits} for the rounding of the value
to its output bits = bits_for_tol(tol), widens the sum by 1 + 2^{3-p} for
its three roundings, and rounds it up to a double.

Float64 tier (the IEEE model of Higham, ch. 2-3, with u = 2^-53)
----------------------------------------------------------------
The closed form in doubles uses only +, -, *, / and no libm. Each
operation rounds by 1 + delta, |delta| <= u, and gamma_k = k u / (1 - k u).
Its inputs are rounded to nearest once from mp: C, 1/pi, 1/pi^2, |P_K|,
the factor e^{pi |Im s| / 2} and the parts of each Q_j from the table at
p >= 112 bits, where each carries at most gamma_{4j+2} at p (far below u),
and n^{-s} as mpmath's power gives it at 64 bits, within 2^-56 relative
(the mp branch's reliance on mpmath's power). So 1/pi, 1/pi^2, |P_K|, the
factor and N' = n^{-s} are within 2u relative, each part of Q'_j is within
2u |Q_j|, and C' is within u |C_mp|. With n < 2^26, n^2 is exact, so
y' = fl(fl(1/pi^2) / n^2) = y (1 + theta_3) and w' = fl(fl(1/pi) / n) =
(1 + theta_3) / (n pi). Write ||z|| = |Re z| + |Im z| >= |z|.

* H: Horner's rule on each part leaves it within gamma_{2J} sum |Q'_j| y'^j
  <= gamma_{2J} (1 + gamma_{3J+2}) A of its polynomial at Q' and y'
  (Higham (5.3)), with A = sum |Q_j| y^j <= 1 / (1 - rho^2) as above, and
  that polynomial is within gamma_{3J+2} A of H's part: gamma_{8J+4} A in
  all. The product with w' rounds once more, so t' = +-H' w' has
  ||t' - H / (n pi)|| <= 2 gamma_{8J+8} A / (n pi).
* Front: F' = C' N' by four products and two sums is within
  gamma_2 ||C'|| ||N'|| of the exact product C' N', which is within
  sqrt 2 (3u + 3u^2) |C'| |N'| / (1 - 2u)^2 of C_mp n^{-s}: gamma_8
  ||C'|| ||N'|| in all. C_mp n^{-s} is within 2^{8-p} (|front| + |value|)
  <= 2^-104 (2 |front| + A / (n pi) + trunc) of the front (the mp branch's
  reliance on mpmath's gamma and sin), below 2^-40 of the other terms.
* The value is F' + t', each part one sum: within u (||F'|| + ||t'||).
* Truncation: trunc = growth |P_K| / (n pi)^{K+1}, the remainder's bound,
  is growth |P_K| y^{J+1}, times w if K is even: J + 3 products.
* Underflow adds at most 2^-1075 to a product, and a row has fewer than
  4J + 16 of them, each carried to the value by factors below 2: under
  2^-1000 in all, against a certificate of at least 2 gamma_8 w' > 2^-80.

The certificate, trunc + gamma_8 ||C'|| ||N'|| + 2 gamma_{8J+8} w' / (1 -
rho^2) + u (||F'|| + ||t'||), is evaluated in doubles from nonnegative
inputs with fewer than 4J + 40 roundings, those of y' and w' counted (J <=
2n < 2^27), and 1 / (1 - rho^2) within 2^-28 relative (from a rho^2 <= 1 -
2^-20 off by a few roundings): within 1 +- 2^-22 of the sum of the bounds,
so the factor 1 + 2^-20 makes it an upper bound. Past the double range it
is inf or nan, which no tol accepts. The row plans K against the floor
2^-70, checks the premises of the remainder bound (K >= Re s - 1, rho^2 <=
1 - 2^-20) as the mp branch does, and keeps its doubles when trunc is below
2^-70 w' and the certificate is at most tol; otherwise it runs in mp.
The double is stored exactly at bits >= 64; the stored certificate
adds |value| 2^{-bits}, as every row's does, and rounds that one sum up to
the next double.

Coefficients
------------
Every c(n), n = 1..n_max, comes from one `fourier.cosine_coeffs` call: the
float64 batch where its certificate meets tol_per_coeff, the mp cosine
series for the other rows, each stored as a double with its certificate
widened by that rounding and refused above tol_per_coeff. The spec need
only be admissible (ConstraintError otherwise), as `cosine_coeffs` is:
neither the coefficients nor the double sum use unit fractions or
|a_k| <= 1. The coefficients are computed afresh on every call, so a
result depends only on its arguments; only the sine moments, which depend
on (n, s, tol) alone, are cached across calls.
"""
from __future__ import annotations

import csv
import io
import math

import mpmath
from mpmath.libmp import from_int, fzero, mpc_pow, mpf_pow, round_nearest, to_float

from .errors import DomainError
from .fourier import cosine_coeffs
from .functions import BeurlingSpec
from .mellin import MellinValue
from .numerics import (
    PrecisionComplex,
    PrecisionReal,
    _gamma,
    _series_bits,
    _series_extra,
    as_complex,
    bits_for_tol,
    check_count,
    check_tol,
    float_up,
    workprec,
)

_SERIES_N_MAX = 31
# no row takes the even-Mellin route; read by perfbench/spans.py when traced
_COEFF_SWITCH_N = 0
# log2 margin by which a float plan clears its floor, and the relative slack
# of a float64 certificate (see the module docstring)
_PLAN_MARGIN = 2.0**-20
# rows n < 2^26 may take the float64 tier: n^2 is exact and (n pi)^-2 normal
_F64_N_MAX = 2**26
# log2 of the float64 tier's floor for |P_K| (n pi)^{-K} e^{pi |Im s| / 2}
_F64_FLOOR = -70

# (n, s, tol) -> (value, certificate); a dict get or set is atomic, and two
# threads racing on one key store the same row
_SINE_CACHE: dict = {}


def _horner(coeffs: list, d: int, x):
    """sum_{j<=d} coeffs[j] x^j by Horner's rule, at the working precision."""
    acc = coeffs[d]
    for j in range(d - 1, -1, -1):
        acc = acc * x + coeffs[j]
    return acc


def _series_plan(n: int, sigma: float, bits: int) -> int:
    """M: the first m with 2m+3 > 1.5 n pi at which c = (n pi)^{2m+3} /
    (2m+3)! has c and 2c / sigma below 2^{8-bits} (2^-20 under it in log2),
    or 100,001; in floats."""
    npi = n * math.pi
    x = math.log2(npi)
    level = 8 - bits + min(0.0, math.log2(sigma / 2)) - _PLAN_MARGIN
    lc = 3 * x - math.log2(6)  # log2 of (n pi)^3 / 3!, the c of m = 0
    m = 0
    while not (lc < level and 2 * m + 3 > 1.5 * npi) and m <= 100_000:
        lc += 2 * x - math.log2((2 * m + 4) * (2 * m + 5))
        m += 1
    return m


class _SeriesTable:
    """The series' coefficients for one (s, tol), planned for n_plan at its
    bits: the real and imaginary parts of a_m = (-1)^m / ((2m+1)!
    (s+2m+1)) for m <= M and 1/(2m+1)! for m <= M + 1. Rows n <= n_plan
    read it at those bits."""

    def __init__(self, s: complex, tol: float, n_plan: int):
        self.sigma, self.tau = s.real, s.imag
        self.tol = tol
        self.bits = _series_bits(n_plan, tol)
        self.m_max = _series_plan(n_plan, self.sigma, self.bits)
        with workprec(self.bits):
            self.pi = +mpmath.pi
            sigma, tau = mpmath.mpf(self.sigma), mpmath.mpf(self.tau)
            f = mpmath.mpf(1)  # 1/(2m+1)!
            self.inv_fact, self.a_re, self.a_im = [f], [], []
            for m in range(self.m_max + 1):
                d = sigma + (2 * m + 1)
                if self.tau:
                    q = f / (d * d + tau * tau)
                    re, im = q * d, -q * tau
                else:
                    re, im = f / d, mpmath.mpf(0)
                self.a_re.append(-re if m % 2 else re)
                self.a_im.append(-im if m % 2 else im)
                f = f / ((2 * m + 2) * (2 * m + 3))
                self.inv_fact.append(f)

    def moment(self, n: int) -> tuple:
        """(value mpc, certificate mpf) of S(n, s) for n <= n_plan; call
        inside workprec(self.bits)."""
        p = self.bits
        m = min(_series_plan(n, self.sigma, _series_bits(n, self.tol)), self.m_max)
        v = n * self.pi
        x = v * v
        h = mpmath.mpc(_horner(self.a_re, m, x), _horner(self.a_im, m, x) if self.tau else 0)
        tail = 2 * v ** (2 * m + 3) * self.inv_fact[m + 1] / self.sigma
        roundoff = mpmath.ldexp(m + 1, _series_extra(n) + 4 - p)
        cert = (tail + roundoff) * (1 + mpmath.ldexp(8 * m + 4 * abs(self.tau) + 32, 1 - p))
        return v * h, cert


class _AsymptoticTerms:
    """The closed form's table for one (s, tol): C = pi^{-s} Gamma(s)
    sin(pi s / 2), the remainder factor e^{pi |Im s| / 2}, 1/pi^2, and the
    products P_k = (s-1)...(s-k) in mp, their signed even ones Q_j split into
    parts, and log2 |P_k| in floats; beside them the float64 tier's doubles
    of C, the factor, 1/pi, 1/pi^2, |P_k| and Q_j, each rounded once. The
    products grow on first use by the same recurrence at the same bits, so
    a row computed from them depends on (n, s, tol) alone."""

    def __init__(self, s: complex, tol: float):
        self.bits = bits_for_tol(tol) + 48
        self.sigma, self.tau = s.real, s.imag
        # log2 of floor / factor, less the plan's margin, for the mp floor
        # 2^{8-bits} and the float64 floor 2^-70
        log2_growth = math.pi * abs(self.tau) / (2 * math.log(2))
        self.level = 8 - self.bits - log2_growth - _PLAN_MARGIN
        self.level_f64 = _F64_FLOOR - log2_growth - _PLAN_MARGIN
        with workprec(self.bits):
            self.s = mpmath.mpc(s)
            self.pi = +mpmath.pi
            self.inv_pi_sq = 1 / (self.pi * self.pi)
            self.front = (mpmath.power(self.pi, -self.s) * mpmath.gamma(self.s)
                          * mpmath.sin(self.pi * self.s / 2))
            self.growth = mpmath.exp(self.pi * abs(self.s.imag) / 2)
            self.f64 = (complex(self.front), float(self.growth), float(1 / self.pi),
                        float(self.inv_pi_sq))
        self.neg_s = mpmath.mpc(-s)._mpc_ if self.tau else mpmath.mpf(-self.sigma)._mpf_
        self.u = mpmath.ldexp(1, 1 - self.bits)
        self.floor = mpmath.ldexp(1, 8 - self.bits)
        self.p, self.abs_p = [mpmath.mpc(1)], [mpmath.mpf(1)]
        self.log2_p = [0.0]
        self.q_re, self.q_im = [mpmath.mpf(1)], [mpmath.mpf(0)]
        self.abs_p_f, self.q_re_f, self.q_im_f = [1.0], [1.0], [0.0]

    def _grow(self, k: int) -> None:
        if len(self.p) > k:
            return
        with workprec(self.bits):
            while len(self.p) <= k:
                j = len(self.p)
                self.p.append(self.p[-1] * (self.s - j))
                self.abs_p.append(abs(self.p[-1]))
                self.abs_p_f.append(float(self.abs_p[-1]))
                sq = (self.sigma - j) ** 2 + self.tau**2
                self.log2_p.append(self.log2_p[-1] + (0.5 * math.log2(sq) if sq else -math.inf))
                if j % 2 == 0:
                    sign = -1 if j % 4 else 1
                    self.q_re.append(sign * self.p[-1].real)
                    self.q_im.append(sign * self.p[-1].imag)
                    self.q_re_f.append(float(self.q_re[-1]))
                    self.q_im_f.append(float(self.q_im[-1]))

    def _plan(self, n: int, level: float) -> tuple:
        """(K, J, rho^2, proven) in floats: K the first k at which |P_k|
        (n pi)^{-k} stops falling, or falls below 2^level, or k > 4n;
        rho^2 = max(|s-1|, |s-2J|)^2 / (n pi)^2; `proven` whether the
        remainder bound holds, with K >= Re s - 1 and the terms up to 2J
        falling."""
        x = math.log2(n * math.pi)
        prev, k = math.inf, 1
        while True:
            self._grow(k)
            lm = self.log2_p[k] - k * x
            if lm >= prev or lm < level or k > 4 * n:
                break
            prev, k = lm, k + 1
        j_max = (k - 1) // 2
        top = max(1, 2 * j_max)
        rho_sq = max((self.sigma - 1) ** 2, (self.sigma - top) ** 2) + self.tau**2
        rho_sq /= (n * math.pi) ** 2
        return k, j_max, rho_sq, k >= self.sigma - 1 and rho_sq <= 1 - _PLAN_MARGIN

    def moment_f64(self, n: int) -> tuple:
        """(value complex, certificate float, reached) of S(n, s) in doubles
        (the module docstring's float64 tier); `reached` says whether n <
        2^26, the remainder bound is proven and it is below 2^-70 / (n pi).
        Without those the certificate is inf; past the double range it is
        inf or nan."""
        k, j_max, rho_sq, proven = self._plan(n, self.level_f64)
        if not (proven and n < _F64_N_MAX):
            return None, math.inf, False
        front, growth, inv_pi, inv_pi_sq = self.f64
        y = inv_pi_sq / (n * n)
        w = inv_pi / n
        t_re = _horner(self.q_re_f, j_max, y) * w
        t_im = _horner(self.q_im_f, j_max, y) * w if self.tau else 0.0
        if n % 2 == 0:
            t_re, t_im = -t_re, -t_im
        # n^{-s} at 64 bits, as mpmath.power computes it there, rounded to nearest
        if self.tau:
            n_re, n_im = (to_float(x, rnd=round_nearest)
                          for x in mpc_pow((from_int(n), fzero), self.neg_s, 64, round_nearest))
        else:
            n_re = to_float(mpf_pow(from_int(n), self.neg_s, 64, round_nearest), rnd=round_nearest)
            n_im = 0.0
        c_re, c_im = front.real, front.imag
        f_re = c_re * n_re - c_im * n_im
        f_im = c_re * n_im + c_im * n_re
        # the remainder growth |P_K| / (n pi)^{K+1} = growth |P_K| y^{J+1} (w if K is even)
        trunc = growth * self.abs_p_f[k] * y
        for _ in range(j_max):
            trunc *= y
        if k % 2 == 0:
            trunc *= w
        cert = (trunc
                + _gamma(8) * (abs(c_re) + abs(c_im)) * (abs(n_re) + abs(n_im))
                + 2 * _gamma(8 * j_max + 8) * w / (1 - rho_sq)
                + 2.0**-53 * (abs(f_re) + abs(f_im) + abs(t_re) + abs(t_im)))
        return (complex(f_re + t_re, f_im + t_im), cert * (1 + _PLAN_MARGIN),
                trunc < 2.0**_F64_FLOOR * w)

    def moment(self, n: int) -> tuple:
        """(value mpc, certificate mpf, reached) of S(n, s); `reached` says
        whether the mp remainder bound is below the floor with K >= Re s - 1
        and the terms up to 2J falling. Without those the bound is not
        proven and the certificate is inf. Call inside workprec(self.bits)."""
        k, j_max, rho_sq, proven = self._plan(n, self.level)
        v = n * self.pi
        y = self.inv_pi_sq / (n * n)
        h = mpmath.mpc(_horner(self.q_re, j_max, y),
                       _horner(self.q_im, j_max, y) if self.tau else 0)
        front = self.front * mpmath.power(n, -self.s)
        value = front + h / v if n % 2 else front - h / v
        if not proven:
            return value, mpmath.inf, False
        widen = 1 + (8 * k + 4 * abs(self.tau) + 32) * self.u
        bound = self.growth * self.abs_p[k] / v**k
        a_bound = (14 * j_max + 4) / (1 - rho_sq) * (1 + _PLAN_MARGIN)
        roundoff = ((abs(front.real) + abs(front.imag) + abs(value.real) + abs(value.imag))
                    * self.floor + a_bound * self.u / v)
        return value, (bound / v + roundoff) * widen, bound * widen < self.floor


def sine_moment(n, s, tol: float = 1e-12) -> PrecisionComplex:
    """S(n, s) = int_0^1 sin(n pi x) x^{s-1} dx for Re(s) > 0, n >= 1."""
    val, _ = sine_moment_with_cert(n, s, tol)
    return val


def sine_moment_with_cert(n, s, tol: float = 1e-12) -> tuple:
    """(S(n, s), certificate); the one-row case of sine_moments_with_cert."""
    return sine_moments_with_cert([n], s, tol)[0]


def sine_moments_with_cert(ns, s, tol: float = 1e-12) -> list:
    """[(S(n, s), certificate)] for each n in ns, in the order given; the
    certificate is a float, the bound rounded up.

    Rows n > 31 not in the cache share one _AsymptoticTerms. Each first
    runs the closed form in doubles and is done when that reaches its floor
    with a certificate at most tol; the others run in one workprec section,
    and those whose mp closed form reaches its floor are done. Rows n <= 31
    share one _SeriesTable planned for n = 31, and each row that fell back
    takes a table planned for itself (see the module docstring). Each row is
    computed once per call and cached under (n, s, tol).
    """
    ns = [check_count(n, "n") for n in ns]
    z = as_complex(s)
    if z.real <= 0:
        raise DomainError(f"sine_moment requires Re(s) > 0, got {z.real}")
    tol = check_tol(tol)
    out_bits = bits_for_tol(tol)
    out_ulp = mpmath.ldexp(1, -out_bits)
    out_ulp_f64 = 2.0**-out_bits
    rows = {n: _SINE_CACHE.get((n, z, tol)) for n in ns}
    todo = sorted(n for n, hit in rows.items() if hit is None)

    def store(n, row, widen):
        # rounding the value to out_bits moves it by at most |value| 2^-out_bits;
        # widen = 1 + 2^{3-p} covers the three roundings of the sum at p bits
        value, cert = row
        rows[n] = _SINE_CACHE[(n, z, tol)] = (
            PrecisionComplex.from_mpc(value, out_bits),
            float_up((cert + abs(value) * out_ulp) * widen),
        )

    fallback = []
    far = [n for n in todo if n > _SERIES_N_MAX]
    if far:
        terms = _AsymptoticTerms(z, tol)
        closed = []
        for n in far:
            value, cert, reached = terms.moment_f64(n)
            if reached and cert <= tol:
                # the double is exact at out_bits >= 64, and rounding the
                # stored sum up to the next double keeps it above the exact one
                rows[n] = _SINE_CACHE[(n, z, tol)] = (
                    PrecisionComplex(PrecisionReal(value.real, out_bits),
                                     PrecisionReal(value.imag, out_bits)),
                    math.nextafter(cert + abs(value) * out_ulp_f64, math.inf))
            else:
                closed.append(n)
        with workprec(terms.bits):
            widen = 1 + mpmath.ldexp(1, 3 - terms.bits)
            for n in closed:
                value, cert, reached = terms.moment(n)
                if reached:
                    store(n, (value, cert), widen)
                else:
                    fallback.append(n)
    near = [n for n in todo if n <= _SERIES_N_MAX]
    for n_plan, group in ([(_SERIES_N_MAX, near)] if near else []) + [(n, [n]) for n in fallback]:
        table = _SeriesTable(z, tol, n_plan)
        with workprec(table.bits):
            widen = 1 + mpmath.ldexp(1, 3 - table.bits)
            for n in group:
                store(n, table.moment(n), widen)
    return [rows[n] for n in ns]


def mellin_reconstruct_report(
    spec: BeurlingSpec, s, n_max: int = 1000, tol_per_coeff: float = 1e-9
) -> tuple:
    """(MellinValue, report dict) for M(s) ~ sum_{n<=n_max} S(n,s) c(n),
    with every c(n) from one `cosine_coeffs(spec, n_max, tol_per_coeff)`.

    The report carries the ascending-n partial sums, the spread of the
    partial sums over the last decade [0.9 n_max, n_max] (the empirical
    convergence measure), the accumulated per-term certificate budget
    (widened by its own roundoff, so it covers the exact sum of its terms),
    and a `warned` flag set when the spread exceeds 10x the certificate
    budget scale -- i.e. when the n-sum, not the per-term accuracy,
    dominates.
    """
    n_max = check_count(n_max, "n_max")
    z = as_complex(s)
    if z.real <= 0:
        raise DomainError(f"mellin_reconstruct requires Re(s) > 0, got {z.real}")
    check_tol(tol_per_coeff, "tol_per_coeff")
    spec.require_admissible("mellin_reconstruct")

    # (c(n), certificate), built afresh so that no call sees another's rows
    c, cert = cosine_coeffs(spec, n_max, tol_per_coeff)
    acc = 0.0 + 0.0j
    cert_budget = 0.0
    rows = []  # (n, term, partial)
    moments = sine_moments_with_cert(range(1, n_max + 1), z, tol_per_coeff)
    for n, (cv, c_cert, (sv, s_cert)) in enumerate(zip(c.tolist(), cert.tolist(), moments), 1):
        sv_c = complex(sv)
        term = sv_c * cv
        acc += term
        cert_budget += abs(sv_c) * c_cert + abs(cv) * s_cert
        rows.append((n, term, acc))
    # a term is within gamma_4 of exact (a modulus by hypot, within an ulp,
    # then a product and a sum) and the running sum adds gamma_(N-1) over N
    # rows (Higham, Accuracy and Stability, 4.2), so the exact sum of the
    # terms is at most cert_budget / (1 - gamma_(N+3)) <= cert_budget
    # (1 + 2 gamma_(N+3)); gamma_(N+8) also covers rounding the widening
    cert_budget = math.nextafter(cert_budget * (1 + 2 * _gamma(n_max + 8)), math.inf)
    lo = max(0, int(0.9 * n_max) - 1)
    window = [p for _, _, p in rows[lo:]]
    spread_re = max(p.real for p in window) - min(p.real for p in window)
    spread_im = max(p.imag for p in window) - min(p.imag for p in window)
    spread = math.hypot(spread_re, spread_im)
    # For a C/n-type monotone tail the last-decade drift is (1/0.9 - 1) = 1/9
    # of the remaining error, so extrapolate with a margin over that factor.
    err_est = 12.0 * spread + cert_budget
    value = PrecisionComplex.from_complex(acc, 64)
    mv = MellinValue(
        s=PrecisionComplex.from_complex(z, 64),
        value=value,
        provenance="reconstructed",
        error_bound=PrecisionReal.from_float(err_est, 64),
    )
    report = {
        "n_max": n_max,
        "s_re": z.real,
        "s_im": z.imag,
        "value_re": acc.real,
        "value_im": acc.imag,
        "last_decade_spread": spread,
        "coeff_cert_budget": cert_budget,
        "warned": spread > 10.0 * max(cert_budget, 1e-15),
        "rows": rows,
    }
    return mv, report


def mellin_reconstruct(
    spec: BeurlingSpec, s, n_max: int = 1000, tol_per_coeff: float = 1e-9
) -> MellinValue:
    """M(s) by the double sum; provenance "reconstructed".

    error_bound on the result is a decade-extrapolated empirical tail
    estimate plus the per-term certificate budget: an estimate, though for
    Re s > 1/2 the sum is Parseval's identity (module docstring), whose
    tail a certified norm of F_N would bound by Cauchy-Schwarz.
    """
    mv, _ = mellin_reconstruct_report(spec, s, n_max, tol_per_coeff)
    return mv


def convergence_csv(report: dict) -> str:
    """CSV of the reconstruction run: n, term_value, partial_sum.

    Imaginary columns are appended only when the run is genuinely complex.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    complex_run = any(
        term.imag != 0.0 or partial.imag != 0.0 for _, term, partial in report["rows"]
    )
    w.writerow(["n", "term_value", "partial_sum"]
               + (["term_value_im", "partial_sum_im"] if complex_run else []))
    for n, term, partial in report["rows"]:
        cols = [term.real, partial.real] + ([term.imag, partial.imag] if complex_run else [])
        w.writerow([n] + [format(x, ".17g") for x in cols])
    return buf.getvalue()
