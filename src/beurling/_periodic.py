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

The mp engine: `_head` sums the exact head and `_tail_table`
the tail, one Taylor expansion of the kernel about the middle of the
period, shared by every piece and exponent, with an a priori bound on
truncation and roundoff. The head is split in two: `_head_spans` lays out
what does not depend on the kernel (the mp bounds of each span of [1, U]
and its polynomial's coefficients in u, with their magnitudes), and
`_head` walks those spans with the kernel's antiderivatives. The number of
kernel terms is planned in floats and its bound evaluated in mp
(`_kernel_order`). `u_integral_mp` (complex r) is the one-exponent case.
`sine_integral_mp` expands the sine kernel as a series in u^-(2m+3) and
takes many n at once: only the antiderivatives depend on n, so the rows
that share an end U of the head share one span list and one tail table
(`_sine_table`), planned for n pi = U/2, the largest n pi such a row can
have. `u_integral_f64` is a float view of `u_integral_mp`. The Gram
entries of `optimizer` need none of this (they have a closed form);
`rho_pair_pieces` and `rho_single_pieces` give their integrands for
checking that closed form.

`sine_integral_f64` is the float64 tier of the sine integral, for pieces
of degree 0 (an admissible spec: sum a_k theta_k = 0), whose head needs no
Si. Its head is the same antiderivative difference, written as a product
of two sines and summed pairwise in numpy; its tail is two closed-form
terms from the mean of P and of its periodic primitive, found by
integrating by parts twice, and a remainder bounded a priori from the
second primitive. It uses no Hurwitz zeta. U is the least allowed multiple
of B at which that bound is tol/4, and every certificate is proven from
Higham's rounding model (proof in its docstring). A row whose certificate
would miss tol is None, and the caller takes it from `sine_integral_mp`.

`power_integral_f64` is the float64 tier of int_1^inf P(u) u^(-1-s) du
for the same pieces of degree 0: the head is an exact power difference
per span, lo^-s (1 - (1 + len/lo)^-s)/s from libm's log1p, expm1, exp,
log, cos and sin, summed pairwise in numpy in blocks of periods; the tail
is the same two closed-form terms and a priori remainder. Its certificate
is proven in Higham's model as well, and it is None where that misses
tol, in which case the caller takes `u_integral_mp`. Both tiers find
their U with `_least_end`.

`_period` alone decides whether a theta set is in reach: past PERIOD_CAP or
PIECES_CAP it returns None, and `_joint_period`, which `decompose`,
`rho_pair_pieces` and `rho_single_pieces` call, turns that None into
ToleranceNotMet. There is no other integrator, so such a spec has no
certified integral.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import DomainError, ToleranceNotMet
from .numerics import float_up, hurwitz_zeta_row, to_double, to_mp, workprec

PERIOD_CAP = 100_000
PIECES_CAP = 400_000
# the exact head [1, U] covers at least this much of u before the tail
_U_MIN = 64
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
    period has more than PIECES_CAP pieces. This is the only reader of both
    caps.
    """
    B = math.lcm(*(th.denominator for th in thetas))
    if B > PERIOD_CAP or sum(B // th.denominator * th.numerator for th in thetas) + 2 > PIECES_CAP:
        return None
    return B


def _joint_period(thetas) -> int:
    """`_period`, or ToleranceNotMet past its caps."""
    B = _period(thetas)
    if B is None:
        raise ToleranceNotMet(
            "the thetas have no period within the caps (too long, or too many "
            "pieces per period), so no integral can be certified"
        )
    return B


def decompose(spec) -> PeriodicDecomposition:
    """Exact one-period piece structure; ToleranceNotMet past the caps."""
    thetas = [t.theta for t in spec.terms]
    B = _joint_period(thetas)
    pieces = list(_breakpoint_pieces(thetas, B))
    bounds = tuple(lo for lo, _, _ in pieces) + (Fraction(B),)
    return PeriodicDecomposition(B, bounds, tuple(fl for _, _, fl in pieces))


# ---------------------------------------------------------------------------
# Piece polynomial builders (coefficients in the period coordinate w)
# ---------------------------------------------------------------------------


def f_piece_constants(spec, dec: PeriodicDecomposition):
    """Pieces of f(1/u) = sum a_k rho(theta_k u) as ([(lo, hi, alpha)], beta):
    f = alpha + beta*w on the piece, beta = sum a_k theta_k shared by all."""
    out = []
    for i in range(dec.npieces):
        ms = dec.floors[i]
        a_re = -sum((t.a_re * m for t, m in zip(spec.terms, ms)), Fraction(0))
        a_im = -sum((t.a_im * m for t, m in zip(spec.terms, ms)), Fraction(0))
        out.append((dec.bounds[i], dec.bounds[i + 1], (a_re, a_im)))
    return out, spec.residual_exact


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

    Returns (B, [(lo, hi, (c0, c1, c2))]) with exact Fraction coefficients;
    ToleranceNotMet past the caps.
    """
    B = _joint_period((theta_j, theta_k))
    c2 = theta_j * theta_k
    return B, [
        (lo, hi, (Fraction(mj * mk), -(mj * theta_k + mk * theta_j), c2))
        for lo, hi, (mj, mk) in _breakpoint_pieces((theta_j, theta_k), B)
    ]


def rho_single_pieces(theta: Fraction):
    """Pieces of rho(theta u) over one period, (B, [(lo, hi, (c0, c1, 0))]);
    ToleranceNotMet past the caps."""
    B = _joint_period((theta,))
    return B, [
        (lo, hi, (Fraction(-m), theta, Fraction(0)))
        for lo, hi, (m,) in _breakpoint_pieces((theta,), B)
    ]


# ---------------------------------------------------------------------------
# mpmath engine
# ---------------------------------------------------------------------------


def _choose_U(B: int, u_min: int = _U_MIN) -> int:
    """End U of the exact head [1, U]: a multiple of B, at least 2B and u_min."""
    return B * max(2, -(-u_min // B))


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
    """(K, q, weight): the first K terms of the kernel expansion leave a
    remainder of at most q * e_0, and q <= 2^-bits up to the float planning
    below; weight is that of `hurwitz_zeta_row`, which puts each zeta error
    at the scale e_0 2^-prec.

    Term k is at most e_k = (|r|)_k/k! c^(-sigma-k) (1 + c/(sigma+k-1)) 2^-k
    times int |p|, from |zeta(sigma+k+i tau, c)| <= zeta(sigma+k, c) and
    |t| <= 1/2, so
        e_k/e_0 = (|r|)_k / (k! (2c)^k) (1 + c/(sigma+k-1)) / (1 + c/(sigma-1)).
    The ratio e_(k+1)/e_k is at most rho_k = (|r|+k)/(2c(k+1)), as the
    last factor falls in k, and rho_k falls in k too, since |r| > 1. So for
    rho_K < 1 the terms k >= K total at most e_K sum_i rho_K^i =
    e_K/(1 - rho_K), and q = (e_K/e_0)/(1 - rho_K); a K with rho_K >= 1
    bounds nothing and is never taken.

    K is the first k with e_k/e_0 <= (1 - rho_k) 2^-bits, planned in float
    log2 (a sum of at most _KERNEL_TERMS logs, good to about 1e-12
    relative in e_K, as `numerics._em_plan` plans M). q is then evaluated
    in mp at that K, so the remainder it bounds is proven whatever the
    planning error. The coefficient of zeta(r+k, c) is at most
    a_max = max_(k<=K) (|r|)_k/(k! 2^k) times int |p|, from one running
    product, so weight = a_max c^sigma / (1 + c/(sigma-1)).
    """
    r_f, sigma_f, c_f = float(r_abs), float(sigma), float(c)
    lead = float(mpmath.log(1 + c / (sigma - 1), 2))
    log_rhos = log_e = 0.0  # log2 of (|r|)_K / (K! (2c)^K) and of e_K/e_0
    for K in range(_KERNEL_TERMS + 1):
        rho = (r_f + K) / (2 * c_f * (K + 1))
        if rho < 1 and log_e <= math.log2(1 - rho) - bits:
            break
        log_rhos += math.log2(rho)
        log_e = log_rhos + math.log2(1 + c_f / (sigma_f + K)) - lead
    else:
        raise ToleranceNotMet(
            f"the Hurwitz kernel expansion needs more than {_KERNEL_TERMS} terms "
            f"for {bits} bits at |r| = {float(r_abs):.6g}"
        )
    a = a_max = mpmath.mpf(1)  # (|r|)_k / (k! 2^k)
    for k in range(K):
        a *= (r_abs + k) / (2 * (k + 1))
        a_max = max(a_max, a)
    e = a / c**K * (1 + c / (sigma + K - 1)) / (1 + c / (sigma - 1))
    q = e / (1 - (r_abs + K) / (2 * c * (K + 1)))
    return K, q, a_max * c**sigma / (1 + c / (sigma - 1))


def _head_spans(pieces, B: int, U: int):
    """The spans of the exact head [1, U], in order, at the working precision.

    Piece i of the period at offset off, clamped at u = 1, is sum_j k_j u^j
    on (lo, hi), with |k_j| <= mag_j from the |c| of the piece. Each span
    is yielded as (lo, hi, [(j, k_j, mag_j) for each j with mag_j != 0]),
    lo and hi in mp and lo None where it is the previous span's hi; spans
    with every mag_j zero add nothing and are skipped. None of it depends
    on the kernel, so the rows of `sine_integral_mp` that share U share
    one list of it.
    """
    coeffs = [[to_mp(c) for c in cs] + [mpmath.mpf(0)] * (3 - len(cs)) for _, _, cs in pieces]
    coeffs_abs = [[abs(c) for c in cs] for cs in coeffs]
    prev_u = None
    for off in range(0, U, B):
        for (lo, hi, _), (c0, c1, c2), (a0, a1, a2) in zip(pieces, coeffs, coeffs_abs):
            lo_u, hi_u = max(Fraction(off) + lo, Fraction(1)), Fraction(off) + hi
            ks = (c0 - c1 * off + c2 * off * off, c1 - 2 * c2 * off, c2)
            mags = (a0 + (a1 + a2 * off) * off, a1 + 2 * a2 * off, a2)
            if hi_u <= lo_u or not any(mags):
                continue
            orders = [(j, k, mag) for j, (k, mag) in enumerate(zip(ks, mags)) if mag != 0]
            yield (None if lo_u == prev_u else to_mp(lo_u)), to_mp(hi_u), orders
            prev_u = hi_u


def _head(spans, phis):
    """(value, magnitude) of the exact head from its `_head_spans`, at the
    working precision.

    phis(u)[j] is the (value, magnitude) of an antiderivative of u^j g(u)
    for every order j the spans use; the magnitude sums what each
    antiderivative difference adds. Only phis depends on the kernel.
    """
    head = mpmath.mpc(0)
    absacc = mpmath.mpf(0)
    at_hi = None
    for lo, hi, orders in spans:
        at_lo = at_hi if lo is None else phis(lo)
        at_hi = phis(hi)
        for j, k, mag in orders:
            p_hi, p_lo = at_hi[j], at_lo[j]
            head += k * (p_hi[0] - p_lo[0])
            absacc += mag * (p_hi[1] + p_lo[1])
    return head, absacc


def _tail_table(pieces, B: int, U: int, exps, wp: int):
    """[(S, trunc, mag)] per exponent of exps = [(r, K, q, weight)], at wp bits.

    S is int_U^inf P(u) u^(-r) du cut at K kernel terms, r in mp and
    (K, q, weight) from `_kernel_order`. With t = (U+w)/B - c in
    [-1/2, 1/2], c = U/B + 1/2, that is B^(1-r) sum_(k<K) (-1)^k (r)_k/k!
    zeta(r+k, c) M_k with the exact moments M_k = sum_pieces int p t^k dt,
    found once for all exponents. The zeta(s, c) of all exponents come from
    one `hurwitz_zeta_row` pass, each at the largest weight that uses it.
    trunc = q e_0 bounds the omitted kernel terms, and 2^-wp mag times the
    caller's operation count bounds the roundoff, zeta's absolute error
    included.
    """
    K_max = max(K for _, K, _, _ in exps)
    # moments by running powers of t; int |p| dt <= S over the period,
    # and the terms summed into M_k total at most 2^-k S_B in magnitude
    moments = [mpmath.mpf(0)] * K_max
    S = S_B = mpmath.mpf(0)
    half = Fraction(1, 2)
    for lo, hi, cs in pieces:
        ds = [(j, to_mp(d)) for j, d in enumerate(_t_coeffs(cs, B)) if d != 0]
        t_lo, t_hi = to_mp(Fraction(lo) / B - half), to_mp(Fraction(hi) / B - half)
        weight = sum((abs(d) / 2**j for j, d in ds), mpmath.mpf(0))
        S += (t_hi - t_lo) * weight
        S_B += weight
        diffs = []  # (t_hi^m - t_lo^m)/m, m = 1 .. K_max+2
        p_lo, p_hi = t_lo, t_hi
        for m in range(1, K_max + 3):
            diffs.append((p_hi - p_lo) / m)
            p_lo *= t_lo
            p_hi *= t_hi
        for k in range(K_max):
            for j, d in ds:
                moments[k] += d * diffs[k + j]

    c = mpmath.mpf(U // B) + 0.5
    weights = {}
    for r, K, _, wt in exps:
        for k in range(K):
            weights[r + k] = max(weights.get(r + k, 0), wt)
    zetas = hurwitz_zeta_row(weights, c)
    out = []
    for r, K, q, _ in exps:
        sigma = mpmath.re(r)
        part = part_mag = mpmath.mpf(0)
        coef = mpmath.mpf(1)  # (-1)^k (r)_k / k!
        for k in range(K):
            z, err = zetas[r + k]
            part += coef * z * moments[k]
            part_mag += mpmath.ldexp(abs(coef) * (abs(z) + mpmath.ldexp(err, wp)), -k)
            coef *= -(r + k) / (k + 1)
        b_pow = B * mpmath.power(B, -r)
        b_abs = abs(b_pow)
        e_0 = mpmath.power(c, -sigma) * (1 + c / (sigma - 1)) * S * b_abs
        out.append((part * b_pow, q * e_0, part_mag * S_B * b_abs))
    return out


def u_integral_mp(pieces, B: int, r, prec_bits: int):
    """int_1^inf P(u) u^{-r} du for complex r, Re r > 1, P from period pieces.

    pieces carry exact Fraction bounds/coefficients of degree <= 2 (missing
    orders are zero); coefficients may be (re, im) Fraction pairs for
    complex integrands. The head [1, U] is exact (`_head`, walking the
    spans of `_head_spans` as they are made) and the tail is the one row
    of `_tail_table` at the exponent r; U grows with |r| so that c >= |r|.
    The certificate is the a priori remainder bound of `_kernel_order` plus
    roundoff. Raises ToleranceNotMet past _KERNEL_TERMS terms or
    _HEAD_SPANS_CAP head spans. Returns (mpc value, mpf err_bound).
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
        K, q, weight = _kernel_order(r_abs, sigma, mpmath.mpf(U // B) + 0.5, prec_bits)
        # summands in the longest sum times the relative error of each; the
        # phase of u^(1-r) is good to |r| ln U units in the last place
        ops = (3 * spans + 3 * len(pieces) + 3 * K + 64) * (2 + float(r_abs) * math.log(U))
        wp = prec_bits + max(0, int(ops).bit_length() - 8)

    with workprec(wp):
        # 1/(j+1-r), None where the antiderivative of u^(j-r) is log u
        inv = [None if r_mp == j + 1 else 1 / (j + 1 - r_mp) for j in range(3)]
        inv_abs = [None if iv is None else abs(iv) for iv in inv]

        def phis(u):
            # the antiderivatives of u^(j-r), j = 0, 1, 2, from one u^(1-r)
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

        head, absacc = _head(_head_spans(pieces, B, U), phis)
        [(tail, trunc, mag)] = _tail_table(pieces, B, U, [(r_mp, K, q, weight)], wp)
        return head + tail, trunc + (absacc + mag) * ops * mpmath.mpf(2) ** (-wp)


def u_integral_f64(pieces, B: int, r: float):
    """`u_integral_mp` at 64 bits as floats, for real pieces and real r > 1.

    Returns (value, err_bound); err_bound covers the rounding of the value.
    """
    val, err = u_integral_mp(pieces, B, r, 64)
    return to_double(val.real, err)


def _sine_table(pieces, B: int, U: int, prec_bits: int):
    """(wp, ops, [(r, S_m, trunc_m, mag_m)]): the tail shared by every
    row of `sine_integral_mp` whose head ends at U.

    sin(n pi/u) u^-2 = sum_m b_m u^-r, r = 2m+3, b_m = (-1)^m
    (n pi)^(2m+1)/(2m+1)!, so a row's tail is sum_m b_m S_m with S_m the
    `_tail_table` sum at r. The plan is made for n pi = U/2, the largest
    n pi a row with this U has (U >= 2 n pi), so it depends only on
    (B, U, prec_bits) and serves every such row. Term m is at most
    E_m = |b_m| B^(1-r) (U/B)^-r (1 + U/(B(r-1))) int|p|, and
    E_(m+1)/E_m <= x_m = (n pi/U)^2/((r-1) r) <= 1/24, so the terms m >= M
    total at most E_M/(1 - x_M), which is |b_M| trunc_M with the last entry's
    S_M = 0. M is the first m where that is at most 2^-(prec_bits+1) e_0 of
    term 0 at n pi = U/2; term m < M keeps enough kernel terms for
    2^-(prec_bits+m+2) e_0. A row with a smaller n pi meets each of these
    with room, as |b_m| falls faster in m.
    """
    with workprec(prec_bits):
        npi = mpmath.mpf(U) / 2
        per = mpmath.mpf(U // B)
        c = per + 0.5
        lead, e_0, plan = npi, None, []  # lead = |b_m|; e_m and rest over int|p|
        for m in itertools.count():
            r = mpmath.mpf(2 * m + 3)
            e_m = lead * mpmath.power(B, 1 - r) * c**-r * (1 + c / (r - 1))
            e_0 = e_0 or e_m
            x = (npi / U) ** 2 / ((r - 1) * r)
            rest = lead * mpmath.power(B, 1 - r) * per**-r * (1 + per / (r - 1)) / (1 - x)
            if rest <= e_0 * mpmath.mpf(2) ** (-prec_bits - 1):
                plan.append((r, 0, rest / e_m, 0))  # all terms >= m, no kernel terms
                break
            bits = prec_bits + m + 2 + int(mpmath.ceil(mpmath.log(e_m / e_0, 2)))
            K, q, weight = _kernel_order(r, r, c, bits)
            plan.append((r, K, q, weight * mpmath.mpf(2) ** (bits - prec_bits)))
            lead *= npi * npi / ((r - 1) * r)
        ops = 3 * (U // B * len(pieces) + len(pieces) + sum(p[1] for p in plan) + len(plan)) + 64
        wp = prec_bits + max(0, int(ops).bit_length() - 8)
    with workprec(wp):
        tails = _tail_table(pieces, B, U, plan, wp)
    return wp, ops, [(r, *tail) for (r, _, _, _), tail in zip(plan, tails)]


def sine_integral_mp(pieces, B: int, ns, prec_bits: int):
    """[(mpc value, mpf err_bound)] of int_1^inf P(u) sin(n pi/u) u^-2 du for
    each n of ns, in order, for periodic P of degree <= 1 (pieces as for
    `u_integral_mp`).

    The head [1, U], U the least allowed multiple of B with U >= 2 n pi, is
    exact (`_head`): cos(n pi/u)/(n pi) and -Si(n pi/u) are antiderivatives
    of sin(n pi/u) u^-2 and sin(n pi/u) u^-1, and they are the only part
    that depends on n. The tail sum_m b_m S_m and its bound
    sum_m |b_m| trunc_m read a `_sine_table`, and the head the spans of
    `_head_spans` at that table's working precision; both are built once
    per distinct U among the rows and dropped at return (the spans are
    kept as a list only when more than one row has that U). So each row
    makes only its own cos and Si calls and sums, and its value and
    certificate depend only on (pieces, B, n, prec_bits), whatever other
    rows share the call.
    """
    if any(len(cs) > 2 and cs[2] != 0 for _, _, cs in pieces):
        raise DomainError("sine_integral_mp takes pieces of degree <= 1")
    with workprec(prec_bits):
        linear = any(len(cs) > 1 and to_mp(cs[1]) != 0 for _, _, cs in pieces)
    ends = [(n, _choose_U(B, max(_U_MIN, math.ceil(2 * math.pi * n)))) for n in ns]
    rows_per_end = Counter(U for _, U in ends)
    tables = {}
    results = []
    for n, U in ends:
        if U not in tables:
            wp, ops, rows = _sine_table(pieces, B, U, prec_bits)
            spans = _head_spans(pieces, B, U)
            if rows_per_end[U] > 1:
                # kept for the rows that share U; a lone row walks the spans
                # as they are made, so its memory does not grow with U
                with workprec(wp):
                    spans = list(spans)
            tables[U] = wp, ops, rows, spans
        wp, ops, rows, spans = tables[U]
        with workprec(wp):
            npi = n * mpmath.pi

            def phis(u):
                # the rounded x = n pi/u moves cos and Si by at most 4x ulps
                x = npi / u
                out = [(mpmath.cos(x) / npi, (1 + 4 * x) / npi)]
                if linear:
                    out.append((-mpmath.si(x), 2 + 4 * x))
                return out

            head, absacc = _head(spans, phis)
            tail = trunc = mag = mpmath.mpf(0)
            b = npi  # b_m
            for r, S_m, trunc_m, mag_m in rows:
                tail += b * S_m
                trunc += abs(b) * trunc_m
                mag += abs(b) * mag_m
                b *= -npi * npi / ((r - 1) * r)
            results.append((head + tail, trunc + (absacc + mag) * ops * mpmath.mpf(2) ** (-wp)))
    return results


# ---------------------------------------------------------------------------
# float64 tier of the sine integral
# ---------------------------------------------------------------------------

# n * _PI_UP >= n pi exactly: the double above pi
_PI_UP = Fraction(math.nextafter(math.pi, math.inf))


def _gamma_q(k: int) -> Fraction:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53, as an exact Fraction."""
    return Fraction(k, 2**53 - k)


def _degree0(pieces, B: int):
    """(spans, parts, c_mag) for pieces of degree 0 over one period [0, B],
    in order, or None when some piece has degree >= 1.

    spans holds [lo, hi, hi - lo, max(lo, 1), max(hi, 1), max(hi, 1) -
    max(lo, 1), Re c, Im c] for each piece whose constant c is not zero:
    its span in a period, and in the first period, clamped at u = 1. parts
    holds `_period_means` of Re P and of Im P, and c_mag = max |Re c| +
    max |Im c|. All exact.
    """
    widths, res, ims, spans = [], [], [], []
    for lo, hi, coeffs in pieces:
        c, *rest = (x if isinstance(x, tuple) else (x, 0) for x in coeffs)
        if any(x != (0, 0) for x in rest):
            return None
        widths.append(hi - lo)
        res.append(c[0])
        ims.append(c[1])
        if c != (0, 0):
            lo_1, hi_1 = max(lo, 1), max(hi, 1)
            spans.append([lo, hi, hi - lo, lo_1, hi_1, hi_1 - lo_1, *c])
    c_mag = max(map(abs, res)) + max(map(abs, ims))
    return spans, [_period_means(widths, vs, B) for vs in (res, ims)], c_mag


def _period_means(widths, values, B: int):
    """(p_bar, q_bar, r) for a real P that takes each value on a piece of
    that width, the pieces covering [0, B] in order: p_bar is the mean of P,
    Q(w) = int_0^w (P - p_bar) is piecewise linear with Q(0) = Q(B) = 0,
    q_bar is the mean of Q, and r = 1/2 int_0^B |Q - q_bar| >= sup |R| for
    R(w) = int_0^w (Q - q_bar), which vanishes at 0 and B. All exact."""
    p_bar = Fraction(sum(w * v for w, v in zip(widths, values)), B)
    q = [Fraction(0)]  # Q at the end of each piece
    for w, v in zip(widths, values):
        q.append(q[-1] + (v - p_bar) * w)
    q_bar = sum(w * (q0 + q1) for w, q0, q1 in zip(widths, q, q[1:])) / (2 * B)
    r = Fraction(0)
    for w, q0, q1 in zip(widths, q, q[1:]):
        v0, v1 = q0 - q_bar, q1 - q_bar
        # int of |linear| over the piece: a trapezoid, or two triangles
        r += w * (abs(v0 + v1) / 2 if v0 * v1 >= 0 else (v0 * v0 + v1 * v1) / (2 * abs(v0 - v1)))
    return p_bar, q_bar, r / 2


def _least_end(err, err_f, B: int, tol: float, k_cap: int):
    """(U, err(k)): U = k B the least allowed end of the head (`_choose_U`)
    with err(k) <= tol/4, or None when that needs k > k_cap. err(k) is the
    proven bound (exact, or rounded up) on what is left past U = k B and
    falls in k; err_f(k) is a float of about its size. The search runs on
    err_f and err decides the last steps, so U depends only on the inputs.
    Both float64 tiers find their U here."""
    k_min = _choose_U(B) // B
    target = Fraction(tol) / 4
    lo, hi = k_min - 1, k_min  # err_f(hi) <= tol/4 once the doubling ends
    while err_f(hi) > tol / 4:
        if hi > 2 * k_cap:
            return None
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if err_f(mid) <= tol / 4 else (mid, hi)
    k = hi
    while k > k_min and err(k - 1) <= target:
        k -= 1
    while k <= k_cap and err(k) > target:
        k += 1
    return None if k > k_cap else (B * k, err(k))


def _f64_end(r_max, B: int, n: int, tol: float, k_cap: int):
    """`_least_end` of the sine tier: E = r_max (3a/U^4 + a^3/(6 U^6)),
    a = n * _PI_UP >= n pi, exact."""
    a = n * _PI_UP
    r_f, a_f = float(r_max), float(a)

    def err(k):
        U = B * k
        return r_max * (3 * a / U**4 + a**3 / (6 * U**6))

    def err_f(k):
        U = float(B * k)
        return r_f * (3.0 * a_f / U**4 + a_f**3 / (6.0 * U**6))

    return _least_end(err, err_f, B, tol, k_cap)


def _pairwise_sum(x) -> float:
    """Sum of a float64 vector by pairs, level by level: within
    gamma_L sum |x_i| of the exact sum, L = ceil(log2 len(x)) (Higham 4.2)."""
    while x.size > 1:
        if x.size % 2:
            x = np.append(x, 0.0)
        x = x[0::2] + x[1::2]
    return float(x[0]) if x.size else 0.0


def sine_integral_f64(pieces, B: int, ns, tol: float):
    """[(complex value, float err_bound) or None] of
    int_1^inf P(u) sin(n pi/u) u^-2 du for each n of ns, in order, for
    periodic P of degree 0 over [0, B] (pieces as for `sine_integral_mp`,
    in order). A row is None when its proven bound would exceed tol, or
    its head past _HEAD_SPANS_CAP spans; every row is None when some piece
    has degree >= 1, whose head would need Si. Whether a row is None is
    decided from (pieces, B, n, tol) alone, before it is summed.

    With a = n pi and g(u) = sin(a/u) u^-2 the integral is head + tail:

    * Head on [1, U], U = k B from `_f64_end`. cos(a/u)/a is an
      antiderivative of g, so a span (lo, hi) of constant c adds
      (2c/a) sin(A) sin(D), A = a (lo + hi)/(2 lo hi), D = a len/(2 lo hi),
      len = hi - lo from the exact piece. The spans of one row are summed
      in numpy, pairwise, one row at a time.
    * Tail. P = p_bar + P~, Q = int_U^u P~ and R = int_U^u (Q - q_bar),
      both periodic and zero at U (`_period_means` of Re P and Im P; U is
      a multiple of B). Integrating by parts twice,
          tail = p_bar (1 - cos(a/U))/a + q_bar sin(a/U)/U^2 + E,
      E = int_U^inf R g'', and g'' = -a^2 sin(a/u)/u^6 + 6a cos(a/u)/u^5
      + 6 sin(a/u)/u^4 gives |g''| <= a^3/u^7 + 12a/u^5, so
      |E| <= r_max (3a/U^4 + a^3/(6 U^6)), r_max the sum of the r of the
      two parts, and that is at most tol/4 by the choice of U.
      1 - cos(a/U) is formed as 2 sin^2(a/(2U)).

    Roundoff, in Higham's model (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1-3.4: each operation rounds by 1 + delta,
    |delta| <= u = 2^-53), taking libm's sin as within mu = 8u relative
    (the test suite checks it on the running platform) and C = c_mag:
    * a' = fl(n pi_f) is a (1 + theta_2); lo' = fl(off + fl(lo_i)) and hi'
      are within theta_2 (all terms positive; lo = 1 is exact), len'
      theta_1. q = fl(a'/fl(2 lo' hi')) carries theta_8, so A' = fl(q
      fl(lo' + hi')) = A (1 + theta_12) and D' = fl(q len') =
      D (1 + theta_10). As |sin x - sin y| <= |x - y| and |sin D'| <= D',
      a span's W' = fl(fl(sin A' sin D') fl(c)) is within
      |c| D (gamma_22 A + gamma_39) of c sin A sin D, real and imaginary
      parts each with their own |c| (sin errors and three roundings:
      (1 + mu)^2 (1 + gamma_3) <= 1 + gamma_19).
    * The spans are disjoint in [1, U], and D A = (a^2/4)(lo^-2 - hi^-2),
      D = (a/2)(1/lo - 1/hi), so sum D A <= a^2/4 and sum D <= a/2: the
      W' are within C (gamma_22 a^2/4 + gamma_39 a/2) of the exact head
      sum h, and |W'| <= (1 + gamma_29) |c| D. Pairwise summation over
      L = ceil(log2 m) levels of the m spans adds gamma_(L+29) C a/2.
    * t1 = fl(fl(p_bar' s3) s3), s3 = sin of fl(a'/(2U)) = x3 (1 + theta_3),
      is within |p_bar|_1 x3^2 gamma_30 of p_bar sin^2 x3, and
      t2 = fl(fl(q_bar' s4)/U^2), s4 = sin of fl(a'/U) = x4 (1 + theta_3),
      within |q_bar|_1 x4 gamma_15/U^2 of q_bar sin(x4)/U^2 (U^2 and 2U are
      exact for U < 2^26); |p_bar|_1 <= C.
    * value = fl(fl(fl(2/a') fl(h' + t1)) + t2) adds gamma_6 (2/a)
      (|h'| + |t1|) + u |t2|.
    Altogether, with a >= n pi replaced by n * _PI_UP, the roundoff is at most

        C (gamma_22 a/2 + gamma_(2L+104) + gamma_(L+66) a/(2 U^2))
        + gamma_31 |q_bar|_1 a/U^3,

    computed in exact rationals; the certificate is that plus E, rounded
    up to a double. Each row's value and bound depend only on
    (pieces, B, n, tol).
    """
    parts = _degree0(pieces, B)
    if parts is None:
        return [None] * len(ns)
    spans, ((p_re, q_re, r_re), (p_im, q_im, r_im)), c_mag = parts
    r_max, q_mag = r_re + r_im, abs(q_re) + abs(q_im)
    k_cap = min(_HEAD_SPANS_CAP // max(1, len(spans)), (2**26 - 1) // B)
    g = _gamma_q
    lo, hi, width, lo_1, hi_1, width_1, c_re, c_im = np.array(spans, dtype=float).reshape(-1, 8).T
    tails = [(float(p_re), float(q_re), c_re), (float(p_im), float(q_im), c_im)][: 1 + bool(np.any(c_im))]
    out = []
    for n in ns:
        end = _f64_end(r_max, B, n, tol, k_cap)
        if end is not None:
            U, E = end
            a = n * _PI_UP
            L = (U // B * len(spans) - 1).bit_length()
            rnd = (c_mag * (g(22) * a / 2 + g(2 * L + 104) + g(L + 66) * a / (2 * U * U))
                   + g(31) * q_mag * a / U**3)
            cert = float_up(E + rnd)
        if end is None or cert > tol:
            out.append(None)
            continue
        a = n * math.pi
        off = np.arange(0.0, float(U), float(B))[:, None]
        span_lo, span_hi = off + lo, off + hi
        span_len = np.broadcast_to(width, span_lo.shape).copy()
        span_lo[0], span_hi[0], span_len[0] = lo_1, hi_1, width_1  # clamped at u = 1
        q = a / (2.0 * span_lo * span_hi)
        t = np.sin(q * (span_lo + span_hi)) * np.sin(q * span_len)
        s3, s4 = math.sin(a / (2.0 * U)), math.sin(a / U)
        scale = 2.0 / a
        val = [scale * (_pairwise_sum((t * c).ravel()) + p * s3 * s3) + qb * s4 / float(U * U)
               for p, qb, c in tails]
        out.append((complex(*val), cert))
    return out


# ---------------------------------------------------------------------------
# float64 tier of the power integral
# ---------------------------------------------------------------------------

# libm's log1p, expm1, exp, log, cos and sin (numpy's and math's) are taken
# as within 4 ulps, so 8u relative; the test suite checks each on the
# running platform
_MU = Fraction(8, 2**53)
# above ln 2, so that U.bit_length() * _LN2_UP >= ln U
_LN2_UP = Fraction(6932, 10000)
# head spans per numpy block of whole periods, so that memory does not grow with U
_BLOCK_SPANS = 4096


def _sqrt_up(x: Fraction) -> Fraction:
    """A rational >= sqrt(x), within 2^-54 relative of it, for x >= 0."""
    n, d = x.numerator, x.denominator
    k = max(0, 56 - (n * d).bit_length() // 2)
    m = (n * d) << (2 * k)
    r = math.isqrt(m)
    return Fraction(r + (r * r < m), d << k)


def _power_bound(scale: Fraction, expo: Fraction, U: int) -> Fraction:
    """A rational >= scale U^-expo for expo > 0, from libm's log and exp:
    l = log(U) is within mu relative of ln U, so y = fl-down of
    expo l/(1 + mu) is at most expo ln U, and exp(-y) is at most
    fl-exp(-y)/(1 - mu)."""
    y = -float_up(-expo * Fraction(math.log(U)) / (1 + _MU))
    return scale * Fraction(math.exp(-y)) / (1 - _MU)


def _power_end(r_max, B: int, s, tol: float, k_cap: int):
    """`_least_end` of the power tier: E = |(s+1)(s+2)| r_max
    U^-(sig+2)/(sig+2), sig = Re s, bounded above in rationals."""
    sig = s.real
    sg, ta = Fraction(sig), Fraction(s.imag)
    scale = _sqrt_up(((sg + 1) ** 2 + ta**2) * ((sg + 2) ** 2 + ta**2)) * r_max / (sg + 2)
    scale_f = float(scale)
    return _least_end(lambda k: _power_bound(scale, sg + 2, B * k),
                      lambda k: scale_f * float(B * k) ** -(sig + 2), B, tol, k_cap)


def _power_spans(lo, width, sig: float, tau: float):
    """(V_re, V_im) with V = lo^-s (1 - (1 + width/lo)^-s), s = sig + i tau,
    for arrays of span starts lo >= 1 and widths; V_im is None when tau = 0,
    where the complex steps would only multiply by cos 0 = 1 and sin 0 = 0.
    With x = log1p(width/lo), 1 - e^(-s x) = -expm1(-sig x) cos(tau x)
    + 2 sin^2(tau x/2) + i e^(-sig x) sin(tau x) and lo^-s =
    e^(-sig L) (cos(tau L) - i sin(tau L)), L = log lo."""
    x = np.log1p(width / lo)
    em = np.expm1(-(sig * x))
    L = np.log(lo)
    ez = np.exp(-(sig * L))
    if tau == 0:
        return ez * -em, None
    b = tau * x
    sh = np.sin(0.5 * b)
    g_re = 2.0 * (sh * sh) - em * np.cos(b)
    g_im = (1.0 + em) * np.sin(b)
    z_re, z_im = ez * np.cos(tau * L), -(ez * np.sin(tau * L))
    return z_re * g_re - z_im * g_im, z_re * g_im + z_im * g_re


def power_integral_f64(pieces, B: int, s, tol: float):
    """(complex value, float err_bound) of int_1^inf P(u) u^(-1-s) du, or
    None, for periodic P of degree 0 over [0, B] (pieces as for
    `u_integral_mp`, in order) and s = sig + i tau the caller's float or
    complex, so that no exponent is rounded. None when some piece has
    degree >= 1, when sig is outside [2^-32, 32] or |tau| outside 0 and
    [2^-32, 1024], when the head would pass _HEAD_SPANS_CAP spans, or when the proven bound would
    exceed tol; which of these holds is decided before the head is summed.
    The caller then takes `u_integral_mp`.

    The integral is (H + p_bar U^-s)/s + q_bar U^(-s-1) + E:

    * Head on [1, U], U = k B from `_least_end`. A span of constant c,
      start lo >= 1 and width w adds c (lo^-s - hi^-s)/s = c V/s, V =
      lo^-s G, G = 1 - e^(-s x), x = log1p(w/lo) (`_power_spans`). H sums
      c V pairwise in numpy, within blocks of whole periods of about
      _BLOCK_SPANS spans and then over the blocks.
    * Tail. With p_bar, q_bar, R as in `sine_integral_f64` (`_period_means`
      of Re P and Im P, U a multiple of B) and g(u) = u^(-1-s), two
      integrations by parts give p_bar U^-s/s + q_bar U^(-s-1) + E,
      E = int_U^inf R g'', g'' = (s+1)(s+2) u^(-s-3), so
      |E| <= |(s+1)(s+2)| r_max U^(-sig-2)/(sig+2), r_max the sum of the r
      of the two parts. U is the least allowed multiple of B where that is
      at most tol/4, bounded above in rationals from libm's log and exp
      (`_power_bound`, `_sqrt_up`).

    Roundoff, in Higham's model (Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1-3.5: each operation rounds by 1 + delta,
    |delta| <= u = 2^-53; theta_k is a product of k such factors, and
    |theta_k| <= gamma_k), taking libm's log1p, expm1, exp, log, cos and sin
    as within 4 ulps, so within mu = 8u relative, each a theta_8. Write
    a = sig x, b = tau x, zeta = lo^-sig, L = ln lo <= ln U <= 18.1
    (U < 2^26) and |z|_1 = |Re z| + |Im z|.
    * lo' = fl(off + fl(lo)) is lo (1 + theta_2) and w' is w (1 + theta_1),
      so fl(w'/lo') = (w/lo)(1 + theta_4). As log1p(t(1 + eta)) - log1p(t)
      = log1p(t eta/(1 + t)) and log1p(t) >= t/(1 + t), x' = x (1 +
      theta_13) and a', b' carry theta_14.
    * em' = fl-expm1(-a') = em (1 + theta_23), em = expm1(-a): the change
      of expm1 is at most |a' - a| e^(-a) e^(a gamma_14) <= gamma_15 |em|
      as a <= 600 and 1 - e^(-a) >= a e^(-a). Then ea' = fl(1 + em') is
      within gamma_24 of e^(-a), |em| <= min(a, 1), and each of sin(b'),
      sin(b'/2), cos(b') is within gamma_14 |b| of its value at b, so
      libm's sin(b') is within gamma_22 |b| of sin b and its cos(b') within
      gamma_14 |b| + gamma_8 of cos b. Counting each product, G_re' is
      within gamma_44 a + gamma_64 |b| and G_im' within gamma_48 |b|:
      |G' - G|_1 <= eps_g (a + |b|), eps_g = gamma_120, and |G|_1 <=
      a + 2|b| <= nu x, nu = sig + 2|tau|.
    * L' = fl-log(lo') is within lambda_0 = gamma_8 L + gamma_4 of L, and
      fl(sig L') within sig lambda, lambda = gamma_10 ln U + gamma_5, and
      fl(tau L') within |tau| lambda. With sig lambda < 2^-38, |Z' - lo^-s|_1 <= zeta eps_z,
      eps_z = 2((2 sig + |tau|) lambda + gamma_17)(1 + 2^-20), and |Z|_1
      <= 2 zeta.
    * V' = fl(Z' G') (four products, two sums) is within gamma_2 |Z'|_1
      |G'|_1 of Z'G', so |V' - V|_1 <= zeta nu x Theta, Theta = (eps_z +
      2 eps_g + 2 gamma_2)(1 + eps_z + eps_g + gamma_2). fl(c' V') adds
      gamma_2 |c| |V'|_1, and pairwise summation over L_s levels (those of
      a block plus those over the blocks, Higham 4.2) adds gamma_(L_s) of
      the sum of the |terms|. As zeta x <= (1 + sig x) int_lo^hi u^(-sig-1)
      du and zeta x <= x, sum zeta x <= S = min(ln U, (1 + sig w_max)/sig),
      and both parts' sums H' are within C nu S Psi, C = c_mag, Psi =
      Theta + gamma_2 (2 + Theta) + gamma_(L_s) (2 + Theta)(1 + gamma_2),
      with sum of |H'|_1 <= M_H = C nu S (2 + Psi).
    * U^-s is formed as lo^-s at lo = U, so within eps_z, and U^-sig <= 1.
      With 1/s rounded from the exact rational (within u|1/s|_1), Y' =
      fl(H' + fl(p_bar' U^-s')) (M_Y = (1 + u) M_H + 3 P, P = |p_bar|_1),
      fl((1/s)' Y') and the q_bar term fl(q_bar' fl(U^-s'/U)) (within
      |q_bar|_1 (eps_z + 3 gamma_3)/U), and the last two sums (gamma_2 of
      M_V = (1 + gamma_5) |1/s|_1 M_Y + 3 |q_bar|_1/U), the roundoff is at most

        |1/s|_1 (C nu S Psi + P (eps_z + 3 gamma_2) + gamma_5 M_Y)
        + |q_bar|_1 (eps_z + 3 gamma_3)/U + gamma_2 M_V
        + (m + 1)(C + |q_bar|_1 + 1) 2^-1000,

      m the number of head spans. The last term covers underflow (Higham
      2.8: a product may add an absolute 2^-1075): no libm value is
      subnormal within the caps on sig, tau and U, and an underflowed
      product is carried through factors below 2^50.

    It is computed in exact rationals; the certificate is that plus E,
    rounded up to a double. The value and bound depend only on
    (pieces, B, s, tol).
    """
    sig, tau = s.real, s.imag
    if not (2.0**-32 <= sig <= 32.0 and (tau == 0 or 2.0**-32 <= abs(tau) <= 1024.0)):
        return None
    parts = _degree0(pieces, B)
    if parts is None:
        return None
    spans, ((p_re, q_re, r_re), (p_im, q_im, r_im)), c_mag = parts
    k_cap = min(_HEAD_SPANS_CAP // max(1, len(spans)), (2**26 - 1) // B)
    end = _power_end(r_re + r_im, B, s, tol, k_cap)
    if end is None:
        return None
    U, E = end
    sg, ta = Fraction(sig), abs(Fraction(tau))
    periods = U // B
    block = max(1, _BLOCK_SPANS // max(1, len(spans)))
    g = _gamma_q
    L_s = (min(block, periods) * len(spans) - 1).bit_length() + (-(-periods // block) - 1).bit_length()
    ln_U = U.bit_length() * _LN2_UP
    w_max = max((sp[2] for sp in spans), default=Fraction(0))
    S = min(ln_U, (1 + sg * w_max) / sg)
    nu = sg + 2 * ta
    lam = g(10) * ln_U + g(5)
    eps_z = 2 * ((2 * sg + ta) * lam + g(17)) * (1 + Fraction(1, 2**20))
    eps_g = g(120)
    theta = (eps_z + 2 * eps_g + 2 * g(2)) * (1 + eps_z + eps_g + g(2))
    psi = theta + g(2) * (2 + theta) + g(L_s) * (2 + theta) * (1 + g(2))
    inv_1 = (sg + ta) / (sg * sg + ta * ta)
    p_mag, q_mag = abs(p_re) + abs(p_im), abs(q_re) + abs(q_im)
    m_y = (1 + g(1)) * c_mag * nu * S * (2 + psi) + 3 * p_mag
    m_v = (1 + g(5)) * inv_1 * m_y + 3 * q_mag / U
    rnd = (inv_1 * (c_mag * nu * S * psi + p_mag * (eps_z + 3 * g(2)) + g(5) * m_y)
           + q_mag * (eps_z + 3 * g(3)) / U + g(2) * m_v
           + (periods * len(spans) + 1) * (c_mag + q_mag + 1) / Fraction(2**1000))
    cert = float_up(E + rnd)
    if cert > tol:
        return None

    lo, _, width, lo_1, _, width_1, c_re, c_im = np.array(spans, dtype=float).reshape(-1, 8).T
    rows = [(float(p_re), float(q_re), c_re), (float(p_im), float(q_im), c_im)][: 1 + bool(np.any(c_im))]
    sums = [([], []) for _ in rows]
    for k0 in range(0, periods, block):
        span_lo = np.arange(k0, min(k0 + block, periods), dtype=float)[:, None] * float(B) + lo
        span_w = np.broadcast_to(width, span_lo.shape)
        if k0 == 0:  # the first period, clamped at u = 1
            span_w = span_w.copy()
            span_lo[0], span_w[0] = lo_1, width_1
        v_re, v_im = _power_spans(span_lo, span_w, sig, tau)
        for (_, _, c), (acc_re, acc_im) in zip(rows, sums):
            acc_re.append(_pairwise_sum((v_re * c).ravel()))
            if v_im is not None:
                acc_im.append(_pairwise_sum((v_im * c).ravel()))
    # U^-s and 1/s
    ez, beta = math.exp(-(sig * math.log(U))), tau * math.log(U)
    zu_re, zu_im = (ez, 0.0) if tau == 0 else (ez * math.cos(beta), -(ez * math.sin(beta)))
    inv_re, inv_im = float(sg / (sg * sg + ta * ta)), float(-Fraction(tau) / (sg * sg + ta * ta))
    vals = []
    for (p, q, _), (acc_re, acc_im) in zip(rows, sums):
        y_re = _pairwise_sum(np.array(acc_re)) + p * zu_re
        y_im = _pairwise_sum(np.array(acc_im)) + p * zu_im
        vals.append((inv_re * y_re - inv_im * y_im + q * (zu_re / U),
                     inv_re * y_im + inv_im * y_re + q * (zu_im / U)))
    if len(vals) == 1:
        return complex(*vals[0]), cert
    (a_re, a_im), (b_re, b_im) = vals
    return complex(a_re - b_im, a_im + b_re), cert
