"""Recovering M(s) from its even-integer values through the Fourier basis.

The double sum M(s) = sum_n S(n, s) c(n), with S(n, s) the sine moments
int_0^1 sin(n pi x) x^{s-1} dx and c(n) the even-Mellin coefficients, is a
formal determination: the interchange of sum and integral is not justified
here, so results carry empirical convergence diagnostics (last-decade
partial-sum spread), never a certified tail bound.

sine_moment evaluates the Taylor series sum_m (-1)^m (n pi)^{2m+1} /
((2m+1)! (s+2m+1)) with route-C's raised-precision policy while n pi is
moderate; past that (n > 31) the same integral is evaluated by the
incomplete-gamma closed form

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
factor. The sum stops at its smallest term, or once that bound is below its
floor 2^{8 - bits}.

Dispatch: n <= 31 always takes the series. A larger n takes the closed
form when its sum reaches the floor with K >= Re s - 1, and the series,
which holds for every n, otherwise: when the terms grow from the first
(n pi < |s - 1|), or e^{pi |Im s| / 2} swamps the smallest term, or
K < Re s - 1. The two branches share no code; tests cross-check them across
the switchover and against 1F1 at three times the bits.

Coefficients c(n) come from one batch of the even-Mellin limit route for
n <= 32, whose rows share one M(2l) table (fourier._limit_rows); for
larger n that series needs ~1.443 n pi extra working bits and O(e n pi)
terms, so the same number (the routes agree within their certificates for
admissible specs meeting the even-Mellin hypotheses) is taken from
`fourier.cosine_coeffs` instead: the float64 batch where its certificate
meets the tolerance, the mp cosine series for the other rows. The
coefficients are computed afresh on every call, so a result depends only
on its arguments; only the sine moments, which depend on (n, s, tol) alone,
are cached across calls.
"""
from __future__ import annotations

import csv
import io
import math
import threading

import mpmath

from .errors import DomainError
from .fourier import _gamma, _require_even_mellin_hypotheses, c_batch, cosine_coeffs
from .functions import BeurlingSpec
from .mellin import MellinValue
from .numerics import (
    PrecisionComplex,
    PrecisionReal,
    as_complex,
    bits_for_tol,
    check_count,
    check_tol,
    float_up,
    workprec,
)

_SERIES_N_MAX = 31
_COEFF_SWITCH_N = 32

_SINE_CACHE: dict = {}
_CACHE_LOCK = threading.Lock()


def _sine_moment_series(n: int, s: complex, tol: float) -> tuple:
    """(value mpc, cert mpf) by the alternating Taylor series."""
    npi_f = n * math.pi
    bits = bits_for_tol(tol) + int(math.ceil(1.4427 * npi_f)) + 64
    sigma = s.real
    with workprec(bits):
        npi = n * mpmath.pi
        s_mp = mpmath.mpc(s)
        acc = mpmath.mpc(0)
        absacc = mpmath.mpf(0)
        coef = npi  # (n pi)^{2m+1} / (2m+1)!
        m = 0
        floor = mpmath.mpf(2) ** (-bits + 8)
        while True:
            term = coef / (s_mp + 2 * m + 1)
            acc += -term if m % 2 else term
            absacc += abs(term)
            coef *= npi * npi / ((2 * m + 2) * (2 * m + 3))
            # factorial tail bound: sum_{m'>m} coef' / sigma, geometric by 1/2
            # once (n pi)^2 < (2m+4)(2m+5)/2
            tail_bound = 2 * coef / sigma
            if (coef < floor and tail_bound < floor and 2 * m + 3 > 1.5 * npi_f) or m > 100_000:
                break
            m += 1
        roundoff = (absacc + 1) * mpmath.mpf(2) ** (8 - bits)
        return mpmath.mpc(acc), mpmath.mpf(tail_bound + roundoff)


class _AsymptoticTerms:
    """What the incomplete-gamma branch shares across n for one (s, tol):
    Gamma(s), sin(pi s / 2), the remainder factor e^{pi |Im s| / 2} and the
    products P_k = (s-1)...(s-k) with their moduli, each P_k built on first
    use by the same recurrence at the same bits, so a row computed from them
    depends on (n, s, tol) alone."""

    def __init__(self, s: complex, tol: float):
        self.bits = bits_for_tol(tol) + 48
        with workprec(self.bits):
            self.s = mpmath.mpc(s)
            self.gamma = mpmath.gamma(self.s)
            self.sine = mpmath.sin(mpmath.pi * self.s / 2)
            self.growth = mpmath.exp(mpmath.pi * abs(self.s.imag) / 2)
            self.p = [mpmath.mpc(1)]
            self.abs_p = [mpmath.mpf(1)]

    def term(self, k: int) -> tuple:
        """(P_k, |P_k|); call inside a workprec section at self.bits."""
        while len(self.p) <= k:
            self.p.append(self.p[-1] * (self.s - len(self.p)))
            self.abs_p.append(abs(self.p[-1]))
        return self.p[k], self.abs_p[k]


def _sine_moment_asymptotic(n: int, s: complex, tol: float, terms=None) -> tuple:
    """(value mpc, cert mpf, reached) by the incomplete-gamma closed form.

    Sigma+- = sum_k P_k / (+-i n pi)^k: the odd-k terms of the two sums
    cancel and the even ones agree, so Sigma+ + Sigma- = 2 sum_{k even}
    (-1)^{k/2} P_k (n pi)^{-k}, summed in real powers of 1/(n pi). `reached`
    says whether the remainder bound fell below the floor with K >= Re s - 1;
    without K >= Re s - 1 the bound is not proven and cert is inf.
    """
    terms = terms or _AsymptoticTerms(s, tol)
    bits = terms.bits
    with workprec(bits):
        npi = n * mpmath.pi
        inv = 1 / npi
        power = mpmath.mpf(1)  # (n pi)^{-k}
        even_sum = mpmath.mpc(0)  # sum over even k >= 2 of (-1)^{k/2} P_k (n pi)^{-k}
        weighted = mpmath.mpf(0)  # sum of k |term|: term k carries O(k) roundings
        best = mpmath.mpf("inf")
        floor = mpmath.mpf(2) ** (-bits + 8)
        k = 1
        while True:
            power *= inv
            p_k, abs_p_k = terms.term(k)
            mag = abs_p_k * power  # |k-th term| of either sum
            if mag >= best or terms.growth * mag < floor or k > 4 * n:
                break
            if k % 2 == 0:
                even_sum += p_k * power if k % 4 == 0 else -p_k * power
                weighted += k * mag
            best = mag
            k += 1
        proven = k >= s.real - 1
        reached = proven and terms.growth * mag < floor
        sig_sum = 2 + 2 * even_sum  # Sigma+ + Sigma-, k = 0 terms included
        cert_sum = 2 * terms.growth * mag if proven else mpmath.mpf("inf")
        front = mpmath.power(npi, -terms.s) * terms.gamma * terms.sine
        sgn = -1 if n % 2 else 1
        value = front - sgn * sig_sum / (2 * npi)
        roundoff = (abs(front) + abs(value) + weighted / npi + 1) * mpmath.mpf(2) ** (8 - bits)
        cert = cert_sum / (2 * npi) + roundoff
        return mpmath.mpc(value), mpmath.mpf(cert), reached


def sine_moment(n, s, tol: float = 1e-12) -> PrecisionComplex:
    """S(n, s) = int_0^1 sin(n pi x) x^{s-1} dx for Re(s) > 0, n >= 1."""
    val, _ = sine_moment_with_cert(n, s, tol)
    return val


def sine_moment_with_cert(n, s, tol: float = 1e-12) -> tuple:
    """(S(n, s), certificate); the one-row case of sine_moments_with_cert."""
    return sine_moments_with_cert([n], s, tol)[0]


def sine_moments_with_cert(ns, s, tol: float = 1e-12) -> list:
    """[(S(n, s), certificate)] for each n in ns, in the order given; the
    certificate is a float, the mp bound rounded up.

    Rows n > 31 share one _AsymptoticTerms, built when the first of them
    misses the cache; a row whose closed-form sum cannot reach its floor
    takes the series (see the module docstring). Each row is cached under
    (n, s, tol).
    """
    ns = [check_count(n, "n") for n in ns]
    z = as_complex(s)
    if z.real <= 0:
        raise DomainError(f"sine_moment requires Re(s) > 0, got {z.real}")
    tol = check_tol(tol)
    bits = bits_for_tol(tol)
    terms = None
    out = []
    for n in ns:
        key = (n, z, tol)
        with _CACHE_LOCK:
            hit = _SINE_CACHE.get(key)
        if hit is None:
            reached = False
            if n > _SERIES_N_MAX:
                terms = terms or _AsymptoticTerms(z, tol)
                raw, cert, reached = _sine_moment_asymptotic(n, z, tol, terms)
            if not reached:
                raw, cert = _sine_moment_series(n, z, tol)
            with workprec(bits):
                # rounding raw to the output bits moves it by at most |raw| 2^-bits
                cert = cert + abs(raw) * mpmath.mpf(2) ** -bits
            hit = (PrecisionComplex.from_mpc(raw, bits), float_up(cert))
            with _CACHE_LOCK:
                _SINE_CACHE[key] = hit
        out.append(hit)
    return out


def mellin_reconstruct_report(
    spec: BeurlingSpec, s, n_max: int = 1000, tol_per_coeff: float = 1e-9
) -> tuple:
    """(MellinValue, report dict) for M(s) ~ sum_{n<=n_max} S(n,s) c(n).

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
    _require_even_mellin_hypotheses(spec, "mellin_reconstruct")

    # (c(n), certificate), built afresh so that no call sees another's rows
    head = c_batch(spec, range(1, min(n_max, _COEFF_SWITCH_N) + 1), "even_mellin_limit",
                   tol_per_coeff)
    coeffs = [(complex(fc.value), float(fc.error_certificate)) for fc in head]
    if n_max > _COEFF_SWITCH_N:
        c, cert = cosine_coeffs(spec, n_max, tol_per_coeff, _COEFF_SWITCH_N + 1)
        coeffs += zip(c.tolist(), cert.tolist())
    acc = 0.0 + 0.0j
    cert_budget = 0.0
    rows = []  # (n, term, partial)
    partials = []
    moments = sine_moments_with_cert(range(1, n_max + 1), z, tol_per_coeff)
    for n, ((cv, c_cert), (sv, s_cert)) in enumerate(zip(coeffs, moments), 1):
        sv_c = complex(sv)
        term = sv_c * cv
        acc += term
        cert_budget += abs(sv_c) * c_cert + abs(cv) * s_cert
        rows.append((n, term, acc))
        partials.append(acc)
    # a term is within gamma_4 of exact (a modulus by hypot, within an ulp,
    # then a product and a sum) and the running sum adds gamma_(N-1) over N
    # rows (Higham, Accuracy and Stability, 4.2), so the exact sum of the
    # terms is at most cert_budget / (1 - gamma_(N+3)) <= cert_budget
    # (1 + 2 gamma_(N+3)); gamma_(N+8) also covers rounding the widening
    cert_budget = math.nextafter(cert_budget * (1 + 2 * _gamma(n_max + 8)), math.inf)
    lo = max(0, int(0.9 * n_max) - 1)
    window = partials[lo:]
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
    """M(s) by the formal double sum; provenance "reconstructed".

    error_bound on the result is a decade-extrapolated empirical tail
    estimate plus the per-term certificate budget -- an estimate by
    construction: the term-by-term exchange behind the double sum is formal,
    so no closed tail bound is available to certify.
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
    if complex_run:
        w.writerow(["n", "term_value", "partial_sum", "term_value_im", "partial_sum_im"])
        for n, term, partial in report["rows"]:
            w.writerow(
                [
                    n,
                    format(term.real, ".17g"),
                    format(partial.real, ".17g"),
                    format(term.imag, ".17g"),
                    format(partial.imag, ".17g"),
                ]
            )
    else:
        w.writerow(["n", "term_value", "partial_sum"])
        for n, term, partial in report["rows"]:
            w.writerow(
                [n, format(term.real, ".17g"), format(partial.real, ".17g")]
            )
    return buf.getvalue()
