"""Arbitrary-precision scalars, exact Bernoulli numbers, and Riemann zeta.

Three zeta entry points with different contracts:

* ``zeta_even(l)``        -- exact ``zeta(2l)`` through Bernoulli numbers (or a
                             certified p-series once the Bernoulli route stops
                             paying for itself).
* ``zeta_complex(s, tol)`` -- the alternating eta series on ``Re(s) > 0`` with
                             Borwein's Chebyshev acceleration and its a priori
                             error bound.
* ``hurwitz_zeta(s, a, weight)`` -- mpmath's Hurwitz zeta with guard bits for
                             the coefficient that multiplies it, and a bound on
                             its absolute error.

Working precision is always chosen internally from the requested absolute
tolerance; callers never touch the mpmath context.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp

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


def bits_for_tol(tol: float) -> int:
    """Working-precision bits that comfortably resolve absolute error `tol`."""
    if not 0 < tol < math.inf:
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")
    return max(MIN_PRECISION_BITS, int(math.ceil(-math.log2(tol))) + 16)


def _dps_for_bits(bits: int) -> int:
    return int(bits / 3.3219280948873626) + 2


@dataclass(frozen=True)
class PrecisionReal:
    """A real scalar carrying its own working precision (>= 64 bits).

    Arithmetic between two PrecisionReals is performed at, and tagged with,
    the max of the two precisions.
    """

    value: mpmath.mpf
    precision_bits: int = MIN_PRECISION_BITS

    def __post_init__(self):
        if self.precision_bits < MIN_PRECISION_BITS:
            raise ValueError(
                f"precision_bits must be >= {MIN_PRECISION_BITS}, got {self.precision_bits}"
            )
        with workprec(self.precision_bits):
            object.__setattr__(self, "value", mpmath.mpf(self.value))

    @classmethod
    def from_float(cls, x: float, precision_bits: int = MIN_PRECISION_BITS) -> "PrecisionReal":
        return cls(mpmath.mpf(x), precision_bits)

    @classmethod
    def from_str(cls, s: str, precision_bits: int) -> "PrecisionReal":
        with workprec(precision_bits):
            return cls(mpmath.mpf(s), precision_bits)

    def _coerce(self, other):
        if isinstance(other, PrecisionReal):
            return other.value, other.precision_bits
        if isinstance(other, (int, float, Fraction, mpmath.mpf)):
            return other, self.precision_bits
        return NotImplemented, 0

    def _binop(self, other, op):
        val, bits = self._coerce(other)
        if val is NotImplemented:
            return NotImplemented
        bits = max(self.precision_bits, bits)
        with workprec(bits):
            return PrecisionReal(op(self.value, to_mp(val)), bits)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __neg__(self):
        return PrecisionReal(-self.value, self.precision_bits)

    def __abs__(self):
        return PrecisionReal(abs(self.value), self.precision_bits)

    def __float__(self):
        return float(self.value)

    def _cmp_val(self, other):
        return other.value if isinstance(other, PrecisionReal) else other

    def __lt__(self, other):
        return self.value < self._cmp_val(other)

    def __le__(self, other):
        return self.value <= self._cmp_val(other)

    def __gt__(self, other):
        return self.value > self._cmp_val(other)

    def __ge__(self, other):
        return self.value >= self._cmp_val(other)

    def __eq__(self, other):
        if isinstance(other, (PrecisionReal, int, float, Fraction, mpmath.mpf)):
            return self.value == self._cmp_val(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def hi_str(self) -> str:
        """Decimal string at full working precision (for 'hi' keys in JSON)."""
        return mpmath.nstr(self.value, _dps_for_bits(self.precision_bits))

    def __repr__(self):
        return f"PrecisionReal('{mpmath.nstr(self.value, 17)}', bits={self.precision_bits})"


@dataclass(frozen=True)
class PrecisionComplex:
    """Complex scalar; component precisions are kept equal (the max of both)."""

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
        with workprec(precision_bits):
            z = mpmath.mpc(z)
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

    def conjugate(self) -> "PrecisionComplex":
        return PrecisionComplex(self.re, -self.im)

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> PrecisionReal:
        bits = self.precision_bits
        with workprec(bits):
            return PrecisionReal(abs(self.to_mpc()), bits)

    def _binop(self, other, op):
        if isinstance(other, PrecisionComplex):
            o, bits = other.to_mpc(), other.precision_bits
        elif isinstance(other, PrecisionReal):
            o, bits = other.value, other.precision_bits
        elif isinstance(other, (int, float, complex, mpmath.mpf, mpmath.mpc)):
            o, bits = other, self.precision_bits
        else:
            return NotImplemented
        bits = max(self.precision_bits, bits)
        with workprec(bits):
            return PrecisionComplex.from_mpc(op(self.to_mpc(), o), bits)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __repr__(self):
        return (
            f"PrecisionComplex({mpmath.nstr(self.re.value, 17)}, "
            f"{mpmath.nstr(self.im.value, 17)}, bits={self.precision_bits})"
        )


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

_BERN_LOCK = threading.Lock()
_BERN_CACHE: list[Fraction] = [Fraction(1)]


def bernoulli(m: int) -> Fraction:
    """Exact m-th Bernoulli number, convention B_1 = -1/2.

    Computed by the recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 and memoized.
    The cache only ever grows, under a lock, so concurrent readers are safe.
    """
    if m < 0:
        raise DomainError("bernoulli index must be >= 0")
    if m < len(_BERN_CACHE):
        return _BERN_CACHE[m]
    with _BERN_LOCK:
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
    if l < 1:
        raise DomainError("zeta_even requires l >= 1")
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


def hurwitz_zeta(s, a, weight):
    """(zeta(s, a), err) with |error| <= err, at the current working precision p.

    mpmath's Hurwitz zeta stops its Euler-Maclaurin sum at an absolute 2^-q
    for q working bits, so it is accurate to an absolute, not a relative,
    2^-q: a small value such as zeta(24, 65) ~ 1e-43 keeps only ~34 correct
    bits at q = 112. The call therefore runs with g = ceil(log2 weight)
    guard bits (none for weight <= 1) and err = 2^-(p+g), so that
    weight * err <= 2^-p. Callers pass as weight the size of the coefficient
    that multiplies the value, in units of the error they accept at 2^-p.
    """
    p = mp.prec
    guard = 0 if weight <= 1 else int(mpmath.ceil(mpmath.log(weight, 2)))
    with workprec(p + guard):
        z = mpmath.zeta(s, a)
    return z, mpmath.mpf(2) ** -(p + guard)


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
    if isinstance(s, PrecisionComplex):
        sigma, t = float(s.re), float(s.im)
    else:
        z = complex(s)
        sigma, t = z.real, z.imag
    if not (math.isfinite(sigma) and math.isfinite(t)):
        raise DomainError("zeta_complex requires finite s")
    if sigma <= 0:
        raise DomainError(f"zeta_complex requires Re(s) > 0, got {sigma}")
    if math.hypot(sigma - 1.0, t) <= _POLE_EXCLUSION:
        raise DomainError("s is inside the pole exclusion disk |s-1| <= 1e-6")
    tol = float(tol)
    if tol <= 0:
        raise DomainError("tol must be positive")

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
