"""Arbitrary-precision scalars, exact Bernoulli numbers, and Riemann zeta.

Four zeta entry points with different contracts:

* ``zeta_even(l)``        -- exact ``zeta(2l)`` through Bernoulli numbers (or a
                             certified p-series once the Bernoulli route stops
                             paying for itself).
* ``zeta_complex(s, tol)`` -- the alternating eta series on ``Re(s) > 0`` with
                             Borwein's Chebyshev acceleration and its a priori
                             error bound.
* ``hurwitz_zeta_row(weights, a)`` -- Hurwitz zeta(s, a) at exponents an
                             integer apart, from one Euler-Maclaurin pass with
                             its a priori remainder bound; each value gets guard
                             bits for the coefficient that multiplies it and a
                             proven bound on its absolute error.
* ``hurwitz_zeta_f64(s, q)`` -- its float64 twin at one even s for an array
                             of integers q, with a proven bound per value.

Beside them, `fixed_cis` and `fixed_mul` form products of unit complex
numbers in fixed-point integers at scale 2^P, with the proven error bound of
`fixed_mul`'s lemma: the cotangent tables of the optimizer and the cosine
route's heads share one mp cos_sin per angle through them.

Working precision is always chosen internally from the requested absolute
tolerance; callers never touch the mpmath context.

Every public entry of the package checks its arguments here and nowhere
else, so that a bad one raises DomainError and never turns into a number:
`check_tol` (0 < tol < inf), `check_count` (an integer, of at least a stated
minimum unless that is None) and `as_complex` (a finite exponent s). Beside
them, `check_cert` is the one refusal of a result whose certificate, rounded
up to the double it is stored as, exceeds tol (ToleranceNotMet).
"""
from __future__ import annotations

import math
import operator
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from mpmath import mp
from mpmath.libmp import (from_int, mpf_cos_sin, mpf_div, mpf_mul, mpf_pi, mpf_shift, round_nearest,
                          to_int)

from .errors import DomainError, ToleranceNotMet

# Exact rational scalar. fractions.Fraction already guarantees the two type
# invariants (lowest terms, positive denominator), so we do not wrap it.
Rational = Fraction

MIN_PRECISION_BITS = 64

# mpmath's default context is process-global; mutating its precision from two
# threads at once is a race. The package runs serially, but library callers
# may call in from their own threads, so every mpmath section enters through
# `workprec`, which holds this lock for the whole section.
_MP_LOCK = threading.RLock()


@contextmanager
def workprec(bits: int):
    """Run the block at `bits` mpmath working bits, holding the mp lock."""
    with _MP_LOCK, mp.workprec(bits):
        yield


def to_mp(x):
    """x as an mpmath number at the current working precision.

    A Fraction becomes mpf(numerator) / denominator, a (re, im) pair of
    Fractions an mpc, and anything else mpf(x).
    """
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    if isinstance(x, tuple):
        return mpmath.mpc(to_mp(x[0]), to_mp(x[1]))
    return mpmath.mpf(x)


def check_tol(tol, what: str = "tol") -> float:
    """tol as a float; DomainError unless it is a number with 0 < tol < inf
    (a bool or a string is refused)."""
    try:
        val = float(tol)
    except (TypeError, ValueError, OverflowError):
        val = math.nan
    if isinstance(tol, (bool, str)) or not 0 < val < math.inf:
        raise DomainError(f"{what} must be positive and finite, got {tol!r}")
    return val


def check_count(x, what: str, minimum: int | None = 1) -> int:
    """x as an int; DomainError unless it is a Python or numpy integer, not a
    bool, and at least `minimum` (any integer when minimum is None)."""
    try:
        val = operator.index(x)
    except TypeError:
        val = None
    if isinstance(x, bool) or val is None or (minimum is not None and val < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise DomainError(f"{what} must be an integer{bound}, got {x!r}")
    return val


def check_cert(err, tol: float, what: str) -> float:
    """err rounded up to a double (`float_up`); ToleranceNotMet naming
    `what` when that exceeds tol."""
    cert = float_up(err)
    if cert > tol:
        raise ToleranceNotMet(f"{what} is off by up to {cert:.3g}, above tol {tol:.3g}")
    return cert


def as_complex(s) -> complex:
    """The exponent s as a complex; DomainError when it is not a number or
    not finite."""
    try:
        z = complex(s)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"s must be a number, got {s!r}") from None
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"s must be finite, got {s!r}")
    return z


def bits_for_tol(tol: float) -> int:
    """Working-precision bits that comfortably resolve absolute error `tol`,
    which `check_tol` validates."""
    return max(MIN_PRECISION_BITS, int(math.ceil(-math.log2(check_tol(tol)))) + 16)


def _series_extra(n: int) -> int:
    """ceil(1.4427 n pi) >= log2 e^{n pi}: extra bits for a series peaking near e^{n pi}."""
    return int(math.ceil(1.4427 * n * math.pi))


def _series_bits(n: int, tol: float) -> int:
    """Row n's bits for the even-Mellin sums and the sine-moment series."""
    return bits_for_tol(tol) + _series_extra(n) + 64


def _dps_for_bits(bits: int) -> int:
    return int(bits / 3.3219280948873626) + 2


@dataclass(frozen=True)
class PrecisionReal:
    """A real mp value rounded to, and tagged with, its precision (>= 64 bits).

    A plain record: it does no arithmetic. Callers compute on `.value` and
    read it back with `float()` or, at full precision, `hi_str()`.
    """

    value: mpmath.mpf
    precision_bits: int = MIN_PRECISION_BITS

    def __post_init__(self):
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ValueError(
                f"precision_bits must be >= {MIN_PRECISION_BITS}, got {self.precision_bits}"
            )
        # mpf(x, prec=bits) rounds x to bits by the context's rounding mode
        # exactly as mpf(x) inside workprec(bits) does, without the lock
        object.__setattr__(self, "value", mpmath.mpf(self.value, prec=self.precision_bits))

    @classmethod
    def from_float(cls, x: float, precision_bits: int = MIN_PRECISION_BITS) -> "PrecisionReal":
        return cls(mpmath.mpf(x), precision_bits)

    @classmethod
    def from_str(cls, s: str, precision_bits: int) -> "PrecisionReal":
        return cls(s, precision_bits)

    def __float__(self):
        return float(self.value)

    def hi_str(self) -> str:
        """Decimal string at full working precision (for 'hi' keys in JSON)."""
        return mpmath.nstr(self.value, _dps_for_bits(self.precision_bits))

    def __repr__(self):
        return f"PrecisionReal('{mpmath.nstr(self.value, 17)}', bits={self.precision_bits})"


@dataclass(frozen=True)
class PrecisionComplex:
    """A complex mp value as two PrecisionReals of equal precision (the max
    of both); a record like PrecisionReal, whose one operator is `abs`."""

    re: PrecisionReal
    im: PrecisionReal

    def __post_init__(self):
        bits = max(self.re.precision_bits, self.im.precision_bits)
        if self.re.precision_bits != bits:
            object.__setattr__(self, "re", PrecisionReal(self.re.value, bits))
        if self.im.precision_bits != bits:
            object.__setattr__(self, "im", PrecisionReal(self.im.value, bits))

    @classmethod
    def from_mpc(cls, z, precision_bits: int) -> "PrecisionComplex":
        """z (an mpc, an mpf or a Python number) with each part rounded to
        precision_bits; reading .real and .imag of an mp value is exact."""
        return cls(PrecisionReal(z.real, precision_bits), PrecisionReal(z.imag, precision_bits))

    @classmethod
    def from_complex(cls, z: complex, precision_bits: int = MIN_PRECISION_BITS) -> "PrecisionComplex":
        z = complex(z)
        return cls(
            PrecisionReal(mpmath.mpf(z.real), precision_bits),
            PrecisionReal(mpmath.mpf(z.imag), precision_bits),
        )

    @property
    def precision_bits(self) -> int:
        return self.re.precision_bits

    def to_mpc(self):
        """The value as an mpc at its own precision, whatever the caller's."""
        with workprec(self.precision_bits):
            return mpmath.mpc(self.re.value, self.im.value)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> PrecisionReal:
        bits = self.precision_bits
        with workprec(bits):
            return PrecisionReal(abs(self.to_mpc()), bits)

    def __repr__(self):
        return (
            f"PrecisionComplex({mpmath.nstr(self.re.value, 17)}, "
            f"{mpmath.nstr(self.im.value, 17)}, bits={self.precision_bits})"
        )


def float_up(x) -> float:
    """The least double >= x, for a float, an mpf or a Fraction x."""
    f = float(x)
    # exact: mpmath and Fraction compare with a float exactly
    return math.nextafter(f, math.inf) if f < x else f


def to_double(value, err):
    """(v, cert): value stored as a double (a complex of two for a complex
    value) and cert >= err plus half an ulp of each stored part, every
    step rounded up. err is a float or an mpf."""
    v = complex(value) if isinstance(value, (complex, mpmath.mpc, PrecisionComplex)) else float(value)
    cert = float_up(err)
    for part in (v.real, v.imag) if isinstance(v, complex) else (v,):
        # half an ulp is exact, but for the least subnormal, whose half rounds to 0
        half = math.ulp(part) / 2 or math.ulp(part)
        total = cert + half
        # Knuth's two-sum: total + lost = cert + half exactly
        back = total - cert
        lost = (cert - (total - back)) + (half - back)
        cert = math.nextafter(total, math.inf) if lost > 0 else total
    return v, cert


# ---------------------------------------------------------------------------
# Fixed-point unit products
# ---------------------------------------------------------------------------


def fixed_cis(num: int, den: int, P: int) -> tuple[int, int]:
    """(C, S): cos(pi num/den) and sin(pi num/den) times 2^P, each rounded
    to the nearest integer, from one mp cos_sin at P + 32 bits, for
    |num/den| <= 1.

    The argument pi num/den takes three roundings and cos_sin is within an
    ulp, all at P + 32 bits, so the scaled parts are off by at most
    2^-32 (3 pi + 2) < 2^-27 before rounding: C and S are within
    1/2 + 2^-27 each, so (C, S) is within sqrt2 (1/2 + 2^-27) < sqrt2 of
    2^P e^(i pi num/den), a factor of the lemma of `fixed_mul`.
    """
    # libmp at an explicit precision, round to nearest: the steps of
    # mpmath.cos_sin(mpmath.pi * num / den) and nint at P + 32 working bits,
    # without the context, so no workprec section is needed
    prec = P + 32
    x = mpf_div(mpf_mul(mpf_pi(prec), from_int(num), prec, round_nearest), from_int(den), prec,
                round_nearest)
    c, s = mpf_cos_sin(x, prec, round_nearest)
    return to_int(mpf_shift(c, P), round_nearest), to_int(mpf_shift(s, P), round_nearest)


def fixed_mul(z: tuple[int, int], w: tuple[int, int], P: int) -> tuple[int, int]:
    """floor(z w / 2^P) in each part, for integer pairs z = (C, S) and w read
    as the complex C + i S: under 1 below the exact product in each part, so
    within sqrt2 of it.

    Lemma (fixed-point products). Let every factor be an integer pair within
    sqrt2 of 2^P e^(i phi) for its own real phi. Any product of m such
    factors formed by fixed_mul, in any bracketing and with factors
    repeated (a squaring is a product of a partial product with itself),
    is within 3m - 3/2 < 3m of 2^P e^(i sum phi) while 9 m^2 2^-P <= 0.16.
    By induction over the bracketing: a lone factor is within sqrt2 <=
    3 - 3/2. Write a product of m1 + m2 = m factors as Z1 Z2 / 2^P with
    Z_i = 2^P u_i + E_i, |u_i| = 1, |E_i| <= 3 m_i - 3/2. Then Z1 Z2 / 2^P
    = 2^P u1 u2 + u1 E2 + u2 E1 + E1 E2 / 2^P, and the floor adds under
    sqrt2, so |E| <= |E1| + |E2| + 9 m1 m2 2^-P + sqrt2 <= 3m - 3 + 0.04 +
    sqrt2 <= 3m - 3/2, as 9 m1 m2 <= 9 m^2 / 4.
    """
    (a, b), (c, d) = z, w
    return (a * c - b * d) >> P, (b * c + a * d) >> P


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_BERN_CACHE: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Exact m-th Bernoulli number, convention B_1 = -1/2.

    Computed by the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 and memoized.
    The cache only ever grows, under the mp lock, so concurrent readers are safe.
    """
    m = check_count(m, "bernoulli index", 0)
    if m < len(_BERN_CACHE):
        return _BERN_CACHE[m]
    with _MP_LOCK:
        while len(_BERN_CACHE) <= m:
            k = len(_BERN_CACHE)
            if k % 2 == 1 and k > 1:
                # odd Bernoulli numbers vanish; skip the O(k) sum
                _BERN_CACHE.append(Fraction(0))
                continue
            acc = Fraction(0)
            for j in range(k):
                bj = _BERN_CACHE[j]
                if bj:
                    acc += math.comb(k + 1, j) * bj
            _BERN_CACHE.append(-acc / (k + 1))
    return _BERN_CACHE[m]


# ---------------------------------------------------------------------------
# zeta at even integers
# ---------------------------------------------------------------------------


def zeta_even(l: int, out_precision: int = MIN_PRECISION_BITS) -> PrecisionReal:
    """zeta(2l) = (-1)^{l+1} B_{2l} (2 pi)^{2l} / (2 (2l)!), to out_precision bits.

    For large 2l the Bernoulli recurrence is the expensive route while the
    defining p-series needs only ~2^{out/(2l-1)} terms, so we switch to direct
    summation (tail bounded by the integral test) once that count is small.
    """
    l = check_count(l, "l")
    out_precision = max(out_precision, MIN_PRECISION_BITS)
    two_l = 2 * l
    series_log2_terms = (out_precision + 2) / (two_l - 1)
    with workprec(out_precision + 32):
        if two_l <= 64 or series_log2_terms > 11:
            b = bernoulli(two_l)
            sign = -1 if l % 2 == 0 else 1
            val = (
                sign
                * to_mp(b)
                * (2 * mpmath.pi) ** two_l
                / (2 * mpmath.factorial(two_l))
            )
        else:
            terms = int(math.ceil(2 ** series_log2_terms)) + 1
            val = mpmath.mpf(1)
            for j in range(2, terms + 1):
                val += mpmath.mpf(j) ** (-two_l)
        return PrecisionReal(val, out_precision)


# ---------------------------------------------------------------------------
# Hurwitz zeta
# ---------------------------------------------------------------------------


# B_2m/(2m)! for m = 1, 2, ..., exact, grown on demand
_EM_COEFFS: list[Fraction] = []
# {(s, M): [d_1..d_M]}, the doubles d_m = B_2m/(2m)! (s)_(2m-1) of hurwitz_zeta_f64
_EM_F64: dict[tuple[int, int], list[float]] = {}
_FOUR_PI_SQ = 4 * math.pi**2


def _em_coeff(m: int) -> Fraction:
    """B_2m/(2m)!, exact; callers hold the mp lock, which orders the growth."""
    while len(_EM_COEFFS) < m:
        k = 2 * len(_EM_COEFFS) + 2
        _EM_COEFFS.append(bernoulli(k) / math.factorial(k))
    return _EM_COEFFS[m - 1]


def _em_plan(sigma: float, tau: float, x: float, bits: float):
    """(M, mag) for the Euler-Maclaurin sum from x at s = sigma + i tau, or
    None when the terms start to grow before they reach 2^-bits.

    M >= 1 is the fewest correction terms whose remainder bound
    4 |(s)_2M| / (2 pi)^2M x^(1-sigma-2M) / (sigma+2M-1) is at most
    2^-bits, and mag x^-sigma bounds the corrections,
    sum_(m<=M) |B_2m/(2m)! (s)_(2m-1)| x^(1-sigma-2m), from
    |B_2m| <= 4 (2m)!/(2 pi)^2m. Both run in floats whose relative error
    stays below 1e-12, which the callers' margin of two bits absorbs.
    """
    e = sigma * math.log2(x) - bits
    if e < -1000:
        return None
    target = 2.0 ** min(e, 1000.0)
    step = _FOUR_PI_SQ * x * x
    corr = 4 * x / step  # 4 |(s)_(2M-1)| / (2 pi)^2M x^(1-2M), before the factor |s+2M-2|
    mag = 0.0
    M = 0
    while True:
        M += 1
        k = sigma + 2 * M - 2
        corr *= math.hypot(k, tau)
        mag += corr
        if corr * math.hypot(k + 1, tau) <= target * (k + 1):
            return M, mag
        if math.hypot(k + 1, tau) * math.hypot(k + 2, tau) >= step:
            return None
        corr *= math.hypot(k + 1, tau) / step


def _guard(weight) -> int:
    """ceil(log2 weight) exactly, the guard bits of a value multiplied by
    weight; 0 for weight <= 1."""
    if weight <= 1:
        return 0
    man, exp = (weight if isinstance(weight, mpmath.mpf) else mpmath.mpf(weight)).man_exp
    return exp + man.bit_length() - (man == 1)


def hurwitz_zeta_row(weights: dict, a) -> dict:
    """{s: (zeta(s, a), err)} for every exponent s of `weights`, |error| <= err,
    at the current working precision p, from one Euler-Maclaurin pass.

    The exponents must differ from the one of least real part, s0 with
    Re s0 > 1, by non-negative integers; a is real and positive. Each value
    gets g = ceil(log2 weight) guard bits (none for weight <= 1) and
    err = 2^-(p+g), so that weight * err <= 2^-p: callers pass as weight
    the size of the coefficient that multiplies the value, in units of the
    error they accept at 2^-p.

    With x = a + N,
        zeta(s, a) = sum_(j<N) (a+j)^-s + x^(1-s)/(s-1) + x^-s/2
                     + sum_(m<=M) B_2m/(2m)! (s)_(2m-1) x^(-s-2m+1) + R,
        |R| <= 4 |(s)_2M| / (2 pi)^2M x^(1-sigma-2M) / (sigma+2M-1)
    (Johansson, Numer. Algorithms 69 (2015), from |B_2M| <= 4 (2M)!/(2 pi)^2M).
    One N serves the row: each head power (a+j)^-s0 is taken once and
    stepped to the next exponent by powers of (a+j)^-1, and so is x^-s.
    Each exponent takes the fewest M that bring |R| to 2^-(p+g+2).

    Roundoff: each operation moves what it forms by at most u = 2^(1-wp)
    relative, and a power (a+j)^-s0 by (8 + |s0| (1 + ln x)) u, for its
    rounded base and its phase. So the value at s = s0 + d is off by at most
    2 (that + N + 3d + 11M + 40) u times the magnitude of what is summed,
    which is at most a^-sigma (3/2 + a/(sigma-1)) for the head and the two
    end terms plus the bound on the corrections. The working precision
    wp >= p + max g keeps that below 2^-(p+g+2).
    """
    p = mp.prec
    keys = list(weights)
    zc = {s: complex(s) for s in keys}
    s0 = min(keys, key=lambda s: zc[s].real)
    sigma0, tau = zc[s0].real, zc[s0].imag
    a_f = float(a)
    if not sigma0 > 1 or not a_f > 0:
        raise DomainError(f"hurwitz_zeta_row needs Re s > 1 and a > 0, got s = {s0}, a = {a}")
    offsets = {}
    for s in keys:
        d = round(zc[s].real - sigma0)
        if zc[s].imag != tau or abs(zc[s].real - sigma0 - d) > 1e-9:
            raise DomainError("hurwitz_zeta_row needs exponents an integer apart")
        offsets[s] = d
    guards = {s: _guard(weights[s]) for s in keys}
    order = sorted(keys, key=offsets.__getitem__)

    # One N for the row, the cheapest on a ladder: a head power costs
    # about 20 multiplications for complex s0 and 2 for real, each head term
    # 2 more per exponent and each correction term 7; the exponents' M is
    # taken as the mean of the first and last. The ladder stops after two
    # candidates in a row cost more than the best.
    def plan(s, x):
        return _em_plan(sigma0 + offsets[s], tau, x, p + guards[s] + 2)

    per_j = (20 if tau else 2) + 3 * len(keys)
    best, worse, N = None, 0, 0
    while worse < 2:
        ends = [plan(s, a_f + N) for s in (order[0], order[-1])]
        if None not in ends:
            cost = N * per_j + 3.5 * len(keys) * (ends[0][0] + ends[1][0])
            if best is None or cost < best[0]:
                best, worse = (cost, N), 0
            else:
                worse += 1
        N = N + 1 if N < 4 else N * 3 // 2
    N = best[1]
    while True:
        x = a_f + N
        plans = {s: plan(s, x) for s in keys}
        if None not in plans.values():
            break
        N = N + 1 if N < 4 else N * 3 // 2
    lx, la = math.log2(x), math.log2(a_f)
    pow_ulps = 8 + abs(zc[s0]) * (1 + math.log(x))
    extra = 0.0
    for s in keys:
        sigma = sigma0 + offsets[s]
        M, mag = plans[s]
        ops = 2 * (pow_ulps + N + 3 * offsets[s] + 11 * M + 40)
        total = 1.5 + a_f / (sigma - 1) + mag * 2.0 ** (sigma * (la - lx))
        extra = max(extra, guards[s] + math.log2(ops * total) - sigma * la + 3)
    G = max(guards.values())
    wp = p + max(G, math.ceil(extra))

    out = {}
    with workprec(wp):
        s0_mp = mpmath.mpc(s0) if tau else mpmath.mpf(mpmath.re(s0))
        ds = [offsets[s] for s in order]
        steps = [d - e for d, e in zip(ds, [0] + ds[:-1])]
        deltas = {dl for dl in steps if dl}

        def powers(base):
            t = mpmath.power(base, -s0_mp)
            inv = 1 / base
            pw = {dl: inv**dl for dl in deltas}
            for dl in steps:
                if dl:
                    t *= pw[dl]
                yield t

        heads = [mpmath.mpf(0)] * len(order)
        for j in range(N):
            for i, t in enumerate(powers(mpmath.mpf(a) + j)):
                heads[i] += t
        x_mp = mpmath.mpf(a) + N
        inv2 = 1 / (x_mp * x_mp)
        M_max = max(M for M, _ in plans.values())
        em = [to_mp(_em_coeff(m)) for m in range(1, M_max + 1)]
        for s, head, t in zip(order, heads, powers(x_mp)):
            sv = s0_mp + offsets[s]
            z = head + t * x_mp / (sv - 1) + t / 2
            P = sv * t / x_mp  # (s)_(2m-1) x^(-s-2m+1)
            M = plans[s][0]
            for m in range(1, M + 1):
                z += em[m - 1] * P
                if m < M:
                    P *= (sv + 2 * m - 1) * (sv + 2 * m) * inv2
            out[s] = (z, mpmath.mpf(2) ** -(p + guards[s]))
    return out


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53 the float64 unit roundoff."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def hurwitz_zeta_f64(s: int, q):
    """(values, errs): zeta(s, q) in float64 for an even integer s >= 2 and
    an array of integers 65 <= q < 2^26, with |value - zeta(s, q)| <= err.

    The Euler-Maclaurin form of `hurwitz_zeta_row` with no head terms:
    zeta(s, q) = t (A + 1/2 + S) + R, t = q^-s, A = q/(s-1),
    S = sum_(m<=M) d_m q^(1-2m), d_m = B_2m/(2m)! (s)_(2m-1) (from `_em_coeff`,
    rounded once, kept per (s, M) in _EM_F64), M planned by `_em_plan` at
    the least q for |R| <= 2^-64 t;
    R/t falls as q^(1-2M), so |R| <= 2^-63 t at every q. u' = fl(1/q^2)
    (q^2 is exact), t' = u'^(s/2) by products, p'_m = fl(p'_(m-1) u') from
    p'_1 = fl(q u'): no libm pow. Proof, in Higham's notation (Accuracy and
    Stability of Numerical Algorithms, 3.1-3.4; each operation rounds by
    1 + delta, |delta| <= u = 2^-53): t' = t (1 + theta_(s-1)); p'_m, the terms
    fl(d'_m p'_m) and their sum S' carry theta_2m, theta_(2m+2), theta_(3M+1)
    against C = sum |d_m| q^(1-2m) <= 2 mag (`_em_plan`'s bound at the least
    q, to 1e-12; C falls in q). So B' = fl(fl(fl(A) + 1/2) + S') =
    A (1 + theta_3) + (1 + theta_2)/2 + S (1 + theta_(3M+2)), z' = fl(t' B')
    = t B' (1 + theta_s) and |z' - t B| <= t (gamma_(s+3) (A + 1/2)
    + gamma_(3M+s+2) C); |R| <= u t (A + 1/2) adds a unit to the first gamma.
    err has one unit more in each, above the gamma_(s+8) relative that its
    own roundings, t' and the computed gammas can take from it, as
    gamma_(k+1) - gamma_k >= gamma_(k+1)/(k+1). No product underflows when
    t' and p'_M are at least 2^-960 (checked; DomainError otherwise): then
    u' >= 2^-52, |d_m| >= 2 (2m)!/(2 pi)^2m >= 2^-6 and B' > 1/4, as
    zeta(s, q) >= t (A + 1/2) by convexity; a sum never rounds on underflow.
    """
    s = check_count(s, "s", 2)
    q = np.asarray(q, dtype=np.float64)
    ok = s % 2 == 0 and q.size and q.min() >= 65 and q.max() < 2**26 and np.all(q == np.rint(q))
    plan = _em_plan(s, 0.0, float(q.min()), s * math.log2(q.min()) + 64) if ok else None
    if plan is None:
        raise DomainError("hurwitz_zeta_f64 needs an even s >= 2 and integers 65 <= q < 2^26")
    M, mag = plan
    d = _EM_F64.get((s, M))
    if d is None:
        with _MP_LOCK:
            d = [float(_em_coeff(m) * math.prod(range(s, s + 2 * m - 1))) for m in range(1, M + 1)]
        _EM_F64[s, M] = d
    u = 1.0 / (q * q)
    t = u
    for _ in range(s // 2 - 1):
        t = t * u
    p, corr = q, 0.0
    for dm in d:
        p = p * u
        corr = corr + dm * p
    if not min(float(t.min()), float(p.min())) >= 2.0**-960:
        raise DomainError(f"zeta({s}, q) leaves the normal range at q = {float(q.max()):g}")
    a_half = q / (s - 1) + 0.5
    return t * (a_half + corr), t * (_gamma(s + 5) * a_half + _gamma(3 * M + s + 3) * (2 * mag))


# ---------------------------------------------------------------------------
# zeta on the half-plane via Borwein's alternating-series acceleration
# ---------------------------------------------------------------------------

_POLE_EXCLUSION = 1e-6
_LOG_3P8 = math.log(3.0 + math.sqrt(8.0))
# Most eta-series terms zeta_complex will take. The Borwein table holds n + 1
# rationals of O(n) digits each, about 0.6 n^2 digits in all (0.6 million at
# n = 1000), and the sum costs about 1.5 s at n = 1000 on a 2-CPU host. The
# cap is reached near |Im s| = 1100 at tol 1e-16.
_BORWEIN_MAX_TERMS = 1000


def _borwein_d(n: int) -> list[Fraction]:
    """d_0..d_n of Borwein's algorithm 2: d_k = n sum_{i<=k} (n+i-1)! 4^i/((n-i)!(2i)!)."""
    d = []
    term = Fraction(1)  # n * T_0 with T_0 = 1/n
    acc = term
    d.append(acc)
    for i in range(n):
        term = term * 4 * (n + i) * (n - i) / ((2 * i + 1) * (2 * i + 2))
        acc += term
        d.append(acc)
    return d


def zeta_complex(s, tol=1e-16) -> PrecisionComplex:
    """zeta(s) for Re(s) > 0, |s-1| > 1e-6, with absolute error <= tol.

    Alternating eta series with Borwein's Chebyshev weights; the number of
    terms n is chosen from the published bound
        |error| <= 3 (1 + 2|t|) e^{pi |t| / 2} / ((3 + sqrt 8)^n |1 - 2^{1-s}|).
    The working precision covers the size ~(3+sqrt 8)^n of the weights.
    Raises ToleranceNotMet, before any table is built, when n would pass
    _BORWEIN_MAX_TERMS (|Im s| beyond about 1100).
    """
    z = as_complex(s)
    sigma, t = z.real, z.imag
    tol = check_tol(tol)
    if sigma <= 0:
        raise DomainError(f"zeta_complex requires Re(s) > 0, got {sigma}")
    if math.hypot(sigma - 1.0, t) <= _POLE_EXCLUSION:
        raise DomainError("s is inside the pole exclusion disk |s-1| <= 1e-6")

    # |1 - 2^{1-s}|: vanishes on the eta zero line s = 1 + 2 pi i k / ln 2
    den = abs(1.0 - 2.0 ** complex(1.0 - sigma, -t))
    if den < 1e-12:
        # exact eta zeros are measure-zero but the bound is useless there
        raise ToleranceNotMet(
            "s is numerically on an eta-series zero (1 - 2^{1-s} ~ 0); "
            "the Borwein bound cannot certify tol here"
        )
    # log of the bound's numerator: e^{pi |t| / 2} overflows past |t| ~ 452
    log_num = math.log(3.0 * (1.0 + 2.0 * abs(t))) + math.pi * abs(t) / 2.0
    n = max(8, int(math.ceil((log_num - math.log(tol) - math.log(den)) / _LOG_3P8)) + 2)
    if n > _BORWEIN_MAX_TERMS:
        raise ToleranceNotMet(
            f"zeta at |Im s| = {abs(t):.6g} needs {n} eta-series terms to certify "
            f"tol {tol:.3g}, above the cap of {_BORWEIN_MAX_TERMS}"
        )

    out_bits = bits_for_tol(tol)
    work_bits = out_bits + int(math.ceil(n * _LOG_3P8 / math.log(2))) + 32
    d = _borwein_d(n)
    dn = d[n]
    with workprec(work_bits):
        s_mpc = mpmath.mpc(sigma, t)
        acc = mpmath.mpc(0)
        for k in range(n):
            coeff = d[k] - dn
            term = to_mp(coeff) * mpmath.power(k + 1, -s_mpc)
            acc = acc - term if k % 2 else acc + term
        eta_factor = 1 - mpmath.power(2, 1 - s_mpc)
        val = -acc / (to_mp(dn) * eta_factor)
        return PrecisionComplex.from_mpc(val, out_bits)
