"""Certified integrals of Beurling data on the u = 1/x side.

Substituting u = 1/x turns every integral this package needs into

    int_1^inf  P(u) * u^{-r} du

where P(u) is built from rho(theta_k u) terms and is therefore periodic with
integer period B = lcm of the theta denominators, piecewise polynomial of
degree <= 2 between consecutive points where some theta_k u is an integer.

The head [1, U] (U a multiple of B) is integrated exactly piece by piece.
The infinite tail collapses, by periodicity, to one period weighted by a
Hurwitz zeta kernel:

    int_U^inf P(u) u^{-r} du = sum_pieces int p_i(w) B^{-r} zeta(r, (U+w)/B) dw.

No cutoff-epsilon tail bound is ever needed, which is what makes small
sigma and tight tolerances reachable at all.

Two backends. float64/numpy with scipy's real Hurwitz zeta does bulk work;
its tail is Gauss-Legendre at two orders, and their difference is an
estimate. mpmath handles complex exponents and sub-1e-12 tolerances; its
tail is one Taylor expansion of the kernel about the middle of the period,
shared by every piece, with an a priori bound on truncation and roundoff.

`_period` alone decides whether a theta set is in reach: past PERIOD_CAP or
PIECES_CAP it returns None, and so do `decompose`, `rho_pair_pieces` and
`rho_single_pieces`. A None tells the caller to integrate in x-space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import zeta as _hurwitz_f64

from .errors import DomainError, ToleranceNotMet
from .numerics import to_mp, workprec

_F64_EPS = float(np.finfo(np.float64).eps)

PERIOD_CAP = 100_000
PIECES_CAP = 400_000
# the exact head [1, U] covers at least this much of u before the tail
_U_MIN = 64
# at most this many Taylor orders in the sine tail; the certificate covers
# stopping there
_TAYLOR_TERMS = 60
# at most this many terms of the Hurwitz kernel expansion in the u-tail; a
# tolerance that needs more raises ToleranceNotMet
_KERNEL_TERMS = 200
# head spans (periods x pieces) a large |r| may stretch the head to
_HEAD_SPANS_CAP = 800_000


@dataclass(frozen=True)
class PeriodicDecomposition:
    """One period [0, B] of the breakpoint structure of u -> (theta_k u mod 1)."""

    period: int
    bounds: tuple[Fraction, ...]
    floors: tuple[tuple[int, ...], ...]  # per piece, floor(theta_k * u) for u in the piece

    @property
    def npieces(self) -> int:
        return len(self.floors)


def _breakpoint_pieces(thetas, B: int):
    """Pieces of [0, B] cut where some theta u is an integer.

    Yields (lo, hi, floors) in order, floors[k] = floor(thetas[k] u) for u
    inside the piece.
    """
    pts = {Fraction(0), Fraction(B)}
    for th in thetas:
        step = Fraction(th.denominator, th.numerator)
        u = step
        while u < B:
            pts.add(u)
            u += step
    bounds = sorted(pts)
    for lo, hi in zip(bounds, bounds[1:]):
        mid = (lo + hi) / 2
        yield lo, hi, tuple(int(th * mid) for th in thetas)


def _period(thetas) -> int | None:
    """Joint period B = lcm of the theta denominators, or None past the caps.

    theta = p/q in lowest terms makes rho(theta u) periodic with period q.
    None when B > PERIOD_CAP (as for the float 0.1, denominator 2^55) or one
    period has more than PIECES_CAP pieces; every caller then falls back to
    x-space quadrature. This is the only reader of both caps.
    """
    B = 1
    for th in thetas:
        q = th.denominator
        B = B // math.gcd(B, q) * q
        if B > PERIOD_CAP:
            return None
    if sum(int(B * th) for th in thetas) + 2 > PIECES_CAP:
        return None
    return B


def decompose(spec) -> PeriodicDecomposition | None:
    """Exact one-period piece structure, or None past the caps of `_period`."""
    thetas = [t.theta for t in spec.terms]
    B = _period(thetas)
    if B is None:
        return None
    pieces = list(_breakpoint_pieces(thetas, B))
    bounds = tuple(lo for lo, _, _ in pieces) + (Fraction(B),)
    return PeriodicDecomposition(B, bounds, tuple(fl for _, _, fl in pieces))


# ---------------------------------------------------------------------------
# Piece polynomial builders (coefficients in the period coordinate w)
# ---------------------------------------------------------------------------


def f_piece_constants(spec, dec: PeriodicDecomposition):
    """Pieces of f(1/u) = sum a_k rho(theta_k u) as ([(lo, hi, alpha)], beta):
    f = alpha + beta*w on the piece, beta = sum a_k theta_k shared by all."""
    beta_re = sum((t.a_re * t.theta for t in spec.terms), Fraction(0))
    beta_im = sum((t.a_im * t.theta for t in spec.terms), Fraction(0))
    out = []
    for i in range(dec.npieces):
        ms = dec.floors[i]
        a_re = -sum((t.a_re * m for t, m in zip(spec.terms, ms)), Fraction(0))
        a_im = -sum((t.a_im * m for t, m in zip(spec.terms, ms)), Fraction(0))
        out.append((dec.bounds[i], dec.bounds[i + 1], (a_re, a_im)))
    return out, (beta_re, beta_im)


def f_linear_pieces(spec, dec: PeriodicDecomposition):
    """F(1/u) = 1 + f(1/u) as degree-1 pieces [(lo, hi, (c0, c1))], the
    coefficients (re, im) Fraction pairs; c1 = beta on every piece."""
    consts, beta = f_piece_constants(spec, dec)
    return [(lo, hi, ((a_re + 1, a_im), beta)) for lo, hi, (a_re, a_im) in consts]


def f_abs2_pieces(linear_pieces):
    """|F(1/u)|^2 as degree-2 pieces [(lo, hi, (c0, c1, c2))], real Fractions,
    from the degree-1 pieces of `f_linear_pieces`."""
    out = []
    for lo, hi, ((c0re, c0im), (b_re, b_im)) in linear_pieces:
        c0 = c0re * c0re + c0im * c0im
        c1 = 2 * (c0re * b_re + c0im * b_im)
        c2 = b_re * b_re + b_im * b_im
        out.append((lo, hi, (c0, c1, c2)))
    return out


def rho_pair_pieces(theta_j: Fraction, theta_k: Fraction):
    """Pieces of rho(theta_j u) rho(theta_k u) over one joint period.

    Returns (B, [(lo, hi, (c0, c1, c2))]) with exact Fraction coefficients,
    or None past the caps of `_period`.
    """
    B = _period((theta_j, theta_k))
    if B is None:
        return None
    c2 = theta_j * theta_k
    return B, [
        (lo, hi, (Fraction(mj * mk), -(mj * theta_k + mk * theta_j), c2))
        for lo, hi, (mj, mk) in _breakpoint_pieces((theta_j, theta_k), B)
    ]


def rho_single_pieces(theta: Fraction):
    """Pieces of rho(theta u) over one period, (B, [(lo, hi, (c0, c1, 0))]),
    or None past the caps of `_period`."""
    B = _period((theta,))
    if B is None:
        return None
    return B, [
        (lo, hi, (Fraction(-m), theta, Fraction(0)))
        for lo, hi, (m,) in _breakpoint_pieces((theta,), B)
    ]


# ---------------------------------------------------------------------------
# float64 backend
# ---------------------------------------------------------------------------

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int):
    if order not in _GL_CACHE:
        _GL_CACHE[order] = leggauss(order)
    return _GL_CACHE[order]


def _phi_f64(u: np.ndarray, m: float) -> np.ndarray:
    """Antiderivative of u^m (log branch at m = -1)."""
    if abs(m + 1.0) < 1e-14:
        return np.log(u)
    return u ** (m + 1.0) / (m + 1.0)


def _choose_U(B: int, u_min: int = _U_MIN) -> int:
    """End U of the exact head [1, U]: a multiple of B, at least 2B and u_min."""
    return B * max(2, -(-u_min // B))


def _head_spans(pieces, B: int, U: int):
    """(off, i, lo_u, hi_u) for piece i of each period [off, off + B) in
    [0, U), clamped at u = 1, empty spans skipped, period by period."""
    for off in range(0, U, B):
        for i, (lo, hi, _) in enumerate(pieces):
            lo_u = max(Fraction(off) + lo, Fraction(1))
            hi_u = Fraction(off) + hi
            if hi_u > lo_u:
                yield off, i, lo_u, hi_u


def u_integral_f64(pieces, B: int, r: float):
    """int_1^inf P(u) u^{-r} du for real r > 1, P from degree-2 period pieces.

    pieces: [(lo, hi, (c0, c1, c2))] in period coordinates, floats or Fractions.
    Returns (value, err_bound).
    """
    if r <= 1.0:
        raise DomainError("u-integral needs r > 1 for convergence")
    U = _choose_U(B)
    nper = U // B
    lo_w = np.array([float(p[0]) for p in pieces])
    hi_w = np.array([float(p[1]) for p in pieces])
    c0 = np.array([float(p[2][0]) for p in pieces])
    c1 = np.array([float(p[2][1]) for p in pieces])
    c2 = np.array([float(p[2][2]) for p in pieces])

    offs = (np.arange(nper) * B).astype(float)[:, None]
    lo_u = np.maximum(lo_w[None, :] + offs, 1.0)
    hi_u = np.maximum(hi_w[None, :] + offs, 1.0)
    # expand p(w) = p(u - off) into powers of u
    k0 = c0[None, :] - c1[None, :] * offs + c2[None, :] * offs**2
    k1 = c1[None, :] - 2.0 * c2[None, :] * offs
    k2 = np.broadcast_to(c2[None, :], k0.shape)
    head = 0.0
    absacc = 0.0
    for k, mexp in ((k0, -r), (k1, 1.0 - r), (k2, 2.0 - r)):
        if not np.any(k):
            continue
        dphi = _phi_f64(hi_u, mexp) - _phi_f64(lo_u, mexp)
        head += float(np.sum(k * dphi))
        absacc += float(np.sum(np.abs(k * dphi)))

    def tail_at(order: int) -> float:
        x, wts = _gl(order)
        acc = 0.0
        for lo, hi, (a0, a1, a2) in pieces:
            lo_f, hi_f = float(lo), float(hi)
            half = 0.5 * (hi_f - lo_f)
            midp = 0.5 * (hi_f + lo_f)
            wn = midp + half * x
            pv = float(a0) + float(a1) * wn + float(a2) * wn * wn
            kern = _hurwitz_f64(r, (U + wn) / B) * B ** (-r)
            acc += half * float(np.sum(wts * pv * kern))
        return acc

    t_lo = tail_at(24)
    t_hi = tail_at(32)
    err = abs(t_hi - t_lo) + 8.0 * _F64_EPS * (absacc + abs(t_hi))
    return head + t_hi, err


# ---------------------------------------------------------------------------
# mpmath backend
# ---------------------------------------------------------------------------


def _t_coeffs(cs, B: int):
    """(d0, d1, d2) with c0 + c1 w + c2 w^2 = d0 + d1 t + d2 t^2 at t = w/B - 1/2,
    exactly; missing orders are zero and any c may be an (re, im) pair."""
    cs = tuple(cs) + (Fraction(0),) * (3 - len(cs))
    if any(isinstance(c, tuple) for c in cs):
        re = _t_coeffs([c[0] if isinstance(c, tuple) else c for c in cs], B)
        im = _t_coeffs([c[1] if isinstance(c, tuple) else 0 for c in cs], B)
        return tuple(zip(re, im))
    c0, c1, c2 = cs
    h = Fraction(B, 2)
    return c0 + (c1 + c2 * h) * h, (c1 + 2 * c2 * h) * B, c2 * B * B


def _kernel_order(r_abs, sigma, c, bits: int):
    """(K, q, a): the first K terms of the kernel expansion leave a remainder
    of at most q * e_0 with q <= 2^-bits, and a = max_(k<=K) (|r|)_k/k! 2^-k.

    Term k is at most e_k = (|r|)_k/k! c^(-sigma-k) (1 + c/(sigma+k-1)) 2^-k
    times int |p|, from |zeta(sigma+k+i tau, c)| <= zeta(sigma+k, c) and
    |t| <= 1/2. The ratio e_(k+1)/e_k is at most rho_k = (|r|+k)/(2c(k+1)),
    which decreases in k and is <= 1/2 for c >= |r| >= 1, so the remainder
    after K terms is at most e_K / (1 - rho_K).
    """
    floor = mpmath.mpf(2) ** (-bits)
    e = mpmath.mpf(1)  # e_k / e_0
    a = a_max = mpmath.mpf(1)
    for k in range(_KERNEL_TERMS + 1):
        rho = (r_abs + k) / (2 * c * (k + 1))
        if e <= (1 - rho) * floor:
            return k, e / (1 - rho), a_max
        e *= rho * (1 + c / (sigma + k)) / (1 + c / (sigma + k - 1))
        a *= (r_abs + k) / (2 * (k + 1))
        a_max = max(a_max, a)
    raise ToleranceNotMet(
        f"the Hurwitz kernel expansion needs more than {_KERNEL_TERMS} terms "
        f"for {bits} bits at |r| = {float(r_abs):.6g}"
    )


def u_integral_mp(pieces, B: int, r, prec_bits: int):
    """mpmath version of u_integral_f64; r may be complex (Re r > 1).

    pieces carry exact Fraction bounds/coefficients of degree <= 2 (missing
    orders are zero); coefficients may be (re, im) Fraction pairs for
    complex integrands.

    The head [1, U] is exact. The tail expands the kernel once about the
    middle of the period, c = U/B + 1/2, with t = (U+w)/B - c in [-1/2, 1/2]:

        zeta(r, c + t) = sum_k (-1)^k (r)_k/k! zeta(r+k, c) t^k,

    so it is B^(1-r) sum_k (-1)^k (r)_k/k! zeta(r+k, c) M_k with the exact
    polynomial moments M_k = sum_pieces int p t^k dt. U grows with |r| so
    that c >= |r|; the certificate is the a priori remainder bound of
    `_kernel_order` plus roundoff over the magnitudes of everything summed.
    Raises ToleranceNotMet past _KERNEL_TERMS terms or _HEAD_SPANS_CAP head
    spans.
    Returns (mpc value, mpf err_bound).
    """
    with workprec(prec_bits):
        r_mp = mpmath.mpc(r)
        if mpmath.re(r_mp) <= 1:
            raise DomainError("u-integral needs Re(r) > 1 for convergence")
        if mpmath.im(r_mp) == 0:
            r_mp = mpmath.mpf(mpmath.re(r_mp))
        r_abs, sigma = abs(r_mp), mpmath.re(r_mp)
        U = _choose_U(B, max(_U_MIN, B * int(mpmath.ceil(r_abs))))
        spans = U // B * len(pieces)
        if spans > _HEAD_SPANS_CAP:
            raise ToleranceNotMet(
                f"|r| = {float(r_abs):.6g} needs {spans} head spans, above the cap of {_HEAD_SPANS_CAP}"
            )
        c = mpmath.mpf(U // B) + 0.5
        K, q, a_max = _kernel_order(r_abs, sigma, c, prec_bits)
        # mpmath's Hurwitz zeta stops its Euler-Maclaurin sum at an absolute
        # 2^-prec, so zeta(r+k, c) is called with enough guard bits that this
        # error times |(r)_k/k!| 2^-k stays below the certificate scale e_0
        guard = max(0, int(mpmath.ceil(mpmath.log(a_max * c**sigma / (1 + c / (sigma - 1)), 2))))
        # summands in the longest sum times the relative error of each; the
        # phase of u^(1-r) is good to |r| ln U units in the last place
        ops = (3 * spans + 3 * len(pieces) + 3 * K + 64) * (2 + float(r_abs) * math.log(U))
        wp = prec_bits + max(0, int(ops).bit_length() - 8)

    with workprec(wp):
        coeffs = [
            [to_mp(c) for c in cs] + [mpmath.mpf(0)] * (3 - len(cs)) for _, _, cs in pieces
        ]
        coeffs_abs = [[abs(c) for c in cs] for cs in coeffs]
        # 1/(j+1-r), None where the antiderivative of u^(j-r) is log u
        inv = [None if r_mp == j + 1 else 1 / (j + 1 - r_mp) for j in range(3)]
        inv_abs = [None if iv is None else abs(iv) for iv in inv]

        def phis(u):
            """(value, magnitude) of the antiderivative of u^(j-r) at u >= 1,
            j = 0, 1, 2, from one power u^(1-r)."""
            base = mpmath.power(u, 1 - r_mp)
            base_abs = abs(base)
            out = []
            for j, (iv, iv_abs) in enumerate(zip(inv, inv_abs)):
                if iv is None:
                    out.append((mpmath.log(u),) * 2)
                else:
                    uj = u**j
                    out.append((uj * base * iv, uj * base_abs * iv_abs))
            return out

        head = mpmath.mpc(0)
        absacc = mpmath.mpf(0)
        prev_u = prev = None  # consecutive spans share an end
        for off, i, lo_u, hi_u in _head_spans(pieces, B, U):
            at_lo = prev if lo_u == prev_u else phis(to_mp(lo_u))
            at_hi = phis(to_mp(hi_u))
            prev_u, prev = hi_u, at_hi
            c0, c1, c2 = coeffs[i]
            a0, a1, a2 = coeffs_abs[i]
            ks = (c0 - c1 * off + c2 * off * off, c1 - 2 * c2 * off, c2)
            mags = (a0 + (a1 + a2 * off) * off, a1 + 2 * a2 * off, a2)
            for j in range(3):
                if mags[j] == 0:
                    continue
                head += ks[j] * (at_hi[j][0] - at_lo[j][0])
                absacc += mags[j] * (at_hi[j][1] + at_lo[j][1])

        # moments by running powers of t; int |p| dt <= S over the period,
        # and the terms summed into M_k total at most 2^-k S_B in magnitude
        moments = [mpmath.mpf(0)] * K
        S = mpmath.mpf(0)
        S_B = mpmath.mpf(0)
        half = Fraction(1, 2)
        for lo, hi, cs in pieces:
            ds = [(j, to_mp(d)) for j, d in enumerate(_t_coeffs(cs, B)) if d != 0]
            t_lo, t_hi = to_mp(Fraction(lo) / B - half), to_mp(Fraction(hi) / B - half)
            weight = sum((abs(d) / 2**j for j, d in ds), mpmath.mpf(0))
            S += (t_hi - t_lo) * weight
            S_B += weight
            diffs = []  # (t_hi^m - t_lo^m)/m, m = 1 .. K+2
            p_lo, p_hi = t_lo, t_hi
            for m in range(1, K + 3):
                diffs.append((p_hi - p_lo) / m)
                p_lo *= t_lo
                p_hi *= t_hi
            for k in range(K):
                for j, d in ds:
                    moments[k] += d * diffs[k + j]

        tail = mpmath.mpf(0)
        tail_mag = mpmath.mpf(0)
        coef = mpmath.mpf(1)  # (-1)^k (r)_k / k!
        for k in range(K):
            with workprec(wp + guard):
                z = mpmath.zeta(r_mp + k, c)
            tail += coef * z * moments[k]
            tail_mag += abs(coef) * (abs(z) + mpmath.mpf(2) ** -guard) / mpmath.mpf(2) ** k
            coef *= -(r_mp + k) / (k + 1)
        b_pow = B * mpmath.power(B, -r_mp)
        tail *= b_pow
        b_abs = abs(b_pow)
        e_0 = mpmath.power(c, -sigma) * (1 + c / (sigma - 1)) * S * b_abs
        roundoff = (absacc + tail_mag * S_B * b_abs) * ops * mpmath.mpf(2) ** (-wp)
        return head + tail, q * e_0 + roundoff


def sine_integral_mp(const_pieces, B: int, n: int, prec_bits: int):
    """int_1^inf P(u) sin(n pi / u) u^{-2} du for piecewise-CONSTANT periodic P.

    Head [1, U]: exact, since int sin(n pi/u) u^{-2} du = cos(n pi/u)/(n pi).
    Tail: Taylor of sin(n pi/u) in 1/u; each power integrates over the
    periodic structure to Hurwitz zeta differences. U >= 2 n pi makes the
    Taylor terms alternate with rapidly decreasing magnitude, so the first
    omitted term (doubled) certifies the truncation.

    const_pieces: [(lo: Fraction, hi: Fraction, alpha: (Fr, Fr))].
    Returns (mpc value, mpf err_bound).
    """
    with workprec(prec_bits):
        npi = n * mpmath.pi
        U = _choose_U(B, max(_U_MIN, math.ceil(2 * math.pi * n)))
        alphas = [to_mp(a) for _, _, a in const_pieces]

        head = mpmath.mpc(0)
        absacc = mpmath.mpf(0)
        for _, i, lo_u, hi_u in _head_spans(const_pieces, B, U):
            am = alphas[i]
            if am == 0:
                continue
            lo_m, hi_m = to_mp(lo_u), to_mp(hi_u)
            contrib = am * (mpmath.cos(npi / hi_m) - mpmath.cos(npi / lo_m)) / npi
            head += contrib
            absacc += abs(contrib)

        # tail: sum_m (-1)^m (npi)^{2m+1}/(2m+1)! * sum_pieces alpha * T(m, piece)
        # T(m, piece) = B^{-(2m+2)}/(2m+2) [zeta(2m+2,(U+lo)/B) - zeta(2m+2,(U+hi)/B)]
        # envelope E_m = (npi)^{2m+1}/(2m+1)! * maxP * U^{-(2m+2)}/(2m+2) decays by
        # a factor (npi/U)^2 / ((2m+3)(2m+4)) <= 1/4 per step since U >= 2 n pi,
        # so 2 * E_{m+1} certifies stopping after term m.
        max_p = max((abs(am) for am in alphas), default=mpmath.mpf(0))
        ends = [
            (am, (U + to_mp(lo)) / B, (U + to_mp(hi)) / B)
            for (lo, hi, _), am in zip(const_pieces, alphas)
            if am != 0
        ]
        tail = mpmath.mpc(0)
        coef = npi  # (npi)^{2m+1}/(2m+1)!
        trunc = mpmath.mpf(0)
        floor = mpmath.mpf(2) ** (-prec_bits)
        for m in range(_TAYLOR_TERMS):
            tm = mpmath.mpc(0)
            ex = 2 * m + 2
            for am, alo, ahi in ends:
                t = (mpmath.zeta(ex, alo) - mpmath.zeta(ex, ahi)) / (ex * mpmath.power(B, ex))
                tm += am * t
            tail += coef * tm if m % 2 == 0 else -coef * tm
            coef *= npi * npi / ((2 * m + 2) * (2 * m + 3))
            trunc = coef * max_p / ((2 * m + 4) * mpmath.power(U, 2 * m + 4))
            if trunc < floor and m >= 2:
                break
        roundoff = (absacc + abs(tail) + 1) * mpmath.mpf(2) ** (8 - prec_bits)
        return head + tail, 2 * trunc + roundoff
