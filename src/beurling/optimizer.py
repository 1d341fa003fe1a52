"""Norm-minimizing coefficients a for fixed thetas under sum a_k theta_k = 0.

||f + 1||^2 = a^T G a + 2 a^T v + 1 with G[j][k] = int_0^1 rho(theta_j/x)
rho(theta_k/x) dx and v[k] = int_0^1 rho(theta_k/x) dx. With the Cholesky
factor G = L L^T, y = L^-1 v and z = L^-1 theta, the minimum over theta^T a
= 0 is 1 - |y|^2 + (y.z)^2/|z|^2, at the solution of the KKT system

    [[G, theta], [theta^T, 0]] [a; lambda] = [-v; 0].

One factor of G serves every leading block, so every nested family (`sweep`).

For coprime h, k Vasyunin's formula gives

    A(h, k) = int_0^inf rho(1/hx) rho(1/kx) dx
            = (ln 2 pi - gamma)/2 (1/h + 1/k) + (k - h)/(2hk) ln(h/k)
              - pi/(2hk) (V(h, k) + V(k, h)),
    V(h, k) = sum_{m<k} {mh/k} cot(pi m/k)

(Vasyunin, St. Petersburg Math. J. 7, 1996; Bettin-Conrey-Farmer, 2013).
With theta_1 <= theta_2 and theta_2/theta_1 = a/b in lowest terms,
G(theta_1, theta_2) = theta_1 a A(a, b) - theta_1 theta_2 and v(theta) =
theta (1 - gamma - ln theta): finite cotangent sums with a priori roundoff
bounds, which see a pair only through theta_1, a and b. `build_gram`
evaluates every entry in float64 at once: `_reduced_pairs` finds theta_1,
a, b and tau = theta_1/b by integer products and gcds; each table of
cot(pi m/k) is a correctly rounded division per value of an exact
fixed-point rotation in integers (`_cot_rotation`, for both tiers: no
libm, no mp call per value; `_cot_f64` within u |cot| (1 + 2^-60)); every
W(h, k) of one denominator k is one elementwise product of integer weights
with that table and one sum along the last axis (`_cot_sums_f64`); and
`_f64_entries` forms each value and its a priori bound in the IEEE model,
proven beside the code. No sum goes through BLAS. An entry whose bound is
at most tol stores that double; any other falls back to the mp closed form
`_closed_entry` at tol, which serves every tol below the float64 bound
(about 1e-15 relative). A pair whose a, the period of theta_1/theta_2, is
past the cap of `_period` is refused with ToleranceNotMet: v(0.1) and
G(0.1, 0.2) (ratio 1/2) are closed forms for the float 0.1 =
3602879701896397/2^55, while G(0.1, 0.5) is refused.
Duplicate thetas make G exactly singular and are rejected rather than
merged; a G whose factor meets a pivot <= 0 raises SingularSystemError.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from . import _periodic
from .errors import DomainError, SingularSystemError, ToleranceNotMet
from .functions import BeurlingSpec, _norm_oracle, _to_theta
from .numerics import (_gamma, bits_for_tol, check_cert, check_count, check_tol, fixed_cis,
                       fixed_mul, to_double, to_mp, workprec)
from .parseval import norm_via_parseval

_SOLVER_EPS = float(np.finfo(np.float64).eps)
# Parseval cross-check length in residual_report
_PARSEVAL_N_MAX = 4096
# ln 2 pi - gamma, 1 - gamma and pi/2 of Vasyunin's formula for `_f64_entries`:
# mp values at 64 bits, each rounded to a double once
with workprec(64):
    _C_G = float(mpmath.log(2 * mpmath.pi) - mpmath.euler)
    _C_V = float(1 - mpmath.euler)
    _HALF_PI = float(mpmath.pi / 2)


@dataclass(frozen=True)
class GramSystem:
    """The quadratic-form data (G, v) of ||f + 1||^2 for fixed thetas."""

    thetas: tuple[Fraction, ...]
    G: np.ndarray
    v: np.ndarray
    build_tol: float

    def __post_init__(self):
        n = len(self.thetas)
        G = np.asarray(self.G, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if G.shape != (n, n) or v.shape != (n,):
            raise ValueError("GramSystem shape mismatch")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "v", v)
        tol = self.build_tol
        if not np.array_equal(G, G.T):
            raise ValueError("G must be symmetric as stored")
        if n and float(np.min(np.linalg.eigvalsh(G))) < -10.0 * tol:
            raise ValueError("G failed the positive-semidefinite check")
        if n and (float(v.min()) < -tol or float(v.max()) > 1.0 + tol):
            raise ValueError("v entries must lie in [0, 1]")

    @property
    def N(self) -> int:
        return len(self.thetas)

    def to_json(self) -> str:
        return json.dumps(
            {
                "thetas": [BeurlingSpec._num_out(t) for t in self.thetas],
                "G": [format(x, ".17g") for x in self.G.ravel(order="C")],
                "v": [format(x, ".17g") for x in self.v],
                "build_tol": self.build_tol,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GramSystem":
        doc = json.loads(text)
        thetas = tuple(_to_theta(t, "theta") for t in doc["thetas"])
        n = len(thetas)
        G = np.array([float(x) for x in doc["G"]], dtype=np.float64).reshape(n, n)
        v = np.array([float(x) for x in doc["v"]], dtype=np.float64)
        return cls(thetas, G, v, float(doc["build_tol"]))


def unit_thetas(N: int) -> tuple[Fraction, ...]:
    """theta_k = 1/k for k = 1..N."""
    N = check_count(N, "N")
    return tuple(Fraction(1, k) for k in range(1, N + 1))


def _cot_sum(h: int, k: int, wp: int, cots: dict):
    """W(h, k) = k V(h, k) = sum_{m <= (k-1)/2} (2 (mh mod k) - k) cot(pi m/k)
    at wp bits, pairing m with k - m. cots holds one table of cot(pi m/k)
    per denominator k, from `_cot_rotation` at P = wp + 2 l + 16, and
    rebuilds it only for a higher wp."""
    hit = cots.get(k)
    if hit is None or hit[0] < wp:
        rot = _cot_rotation(k, wp + 2 * k.bit_length() + 16)
        hit = cots[k] = (wp, [mpmath.fdiv(C, S) for C, S in rot])
    return mpmath.fdot([2 * (m * h % k) - k for m in range(1, (k + 1) // 2)], hit[1])


def _closed_entry(t1: Fraction, a: int, b: int, bits: int, cots: dict):
    """(value, err_bound) in mp of the Gram entry with least theta t1 in
    (0, 1] and theta_2/theta_1 = a/b in lowest terms, or of v(t1) for
    a = b = 0; err_bound <= 2^-bits.

    With tau = theta_1/b = theta_2/a (so b <= a), the formula of the module
    docstring reads

        G = (ln 2 pi - gamma)(theta_1 + theta_2)/2 + (theta_1 - theta_2)/2 ln(a/b)
            - pi/2 (tau/b W(a, b) + tau/a W(b, a)) - theta_1 theta_2,

    W(h, k) from `_cot_sum`. At wp working bits, u = 2^-wp: C/S is within
    relative 1.5 k^2 2^-P (1 + 2^-14) < 2^-15 u of cot(pi m/k) (the proof
    of `_cot_rotation`), and mpmath's division of the exact integers rounds
    once, so each table value is off by at most 2 u T_m <= 10 u T_m,
    T_m = k/(pi m) >= |cot(pi m/k)|, since sin(pi m/k) >= 2m/k.
    W(h, k) sums n <= (k-1)/2 terms with |2r - k| < k, so it is off by at
    most (n + 11) u k sum T_m <= (n + 11) u (k^2/pi)(1 + ln k), and since tau
    k <= 1 and k <= a its term in G by (n + 11) u (1 + ln a)/2. ln 2 pi,
    gamma and ln(a/b) are within an ulp each plus one of the argument, and
    the four terms of G total at most 2 (2 + ln a) in magnitude, and the
    two of v = theta (1 - gamma - ln theta) at most 1 + gamma + 1/e <= 2
    (2 + ln 1), with at most 10 roundings each. So the error is at most
    (a + b + 64)(2 + ln a) u, with ln a read as ln 1 for v.
    """
    scale = (a + b + 64) * (2 + math.log(a or 1))
    wp = bits + math.ceil(math.log2(scale))
    with workprec(wp):
        if not a:
            val = to_mp(t1) * (1 - mpmath.euler - mpmath.log(to_mp(t1)))
        else:
            tau = t1 / b
            t2 = tau * a
            w_ab, w_ba = _cot_sum(a, b, wp, cots), _cot_sum(b, a, wp, cots)
            val = (
                (mpmath.log(2 * mpmath.pi) - mpmath.euler) * to_mp((t1 + t2) / 2)
                + to_mp((t1 - t2) / 2) * mpmath.log(to_mp(Fraction(a, b)))
                - mpmath.pi / 2 * (to_mp(tau / b) * w_ab + to_mp(tau / a) * w_ba)
                - to_mp(t1 * t2)
            )
        return val, mpmath.ldexp(mpmath.mpf(scale), -wp)


def _ln_f64(ints) -> np.ndarray:
    """ln n for each integer n >= 1 of ints: one mp log at 64 bits per
    distinct n, rounded once."""
    uniq, inv = np.unique(np.asarray(ints), return_inverse=True)
    with workprec(64):
        lns = [float(mpmath.log(int(x))) for x in uniq.tolist()]
    return np.array(lns, dtype=np.float64)[inv]


def _cot_rotation(k: int, P: int) -> list:
    """[(C, S)] for m = 1..(k-1)/2, integers whose C/S is within relative
    1.5 k^2 2^-P (1 + 2^-14) of cot(pi m/k) for P >= 2 l + 16, l the bit
    length of k: exact fixed-point rotation, one mp cos_sin per k.

    rho = `fixed_cis(1, k, P)` is within sqrt2 of 2^P e^(i pi/k).
    From z_0 = 2^P, each step takes z_m to z_(m+1) = `fixed_mul(z_m, rho,
    P)`, so z_m is a product of m factors rho and, by the lemma of
    `fixed_mul`, E_m = z_m - 2^P e^(i pi m/k) has |E_m| <= 3m, as
    9 m^2 2^-P < 9 2^-16 <= 0.16 for m < 2^l. For 2m <= k - 1,
    sin(pi m/k) >= 2m/k and cos(pi m/k) >= 1/k, so C and S are within
    relative 3mk 2^-P and 1.5k 2^-P < 2^-16 of 2^P cos and 2^P sin, and C/S
    within relative 1.5 k^2 2^-P (1 + 2^-14) of cot(pi m/k).
    """
    rho = fixed_cis(1, k, P)
    z, out = (1 << P, 0), []
    for _ in range((k - 1) // 2):
        z = fixed_mul(z, rho, P)
        out.append(z)
    return out


def _cot_f64(k: int) -> np.ndarray:
    """cot(pi m/k) for m <= (k-1)/2 in float64, each within u |cot| (1 +
    2^-73), u = 2^-53: `_cot_rotation` at P = 2 l + 128 is within relative
    2^-127, and Python's int / int rounds C/S correctly, adding u |C/S|."""
    return np.array([C / S for C, S in _cot_rotation(k, 2 * k.bit_length() + 128)])


def _cot_sums_f64(h: np.ndarray, k: np.ndarray) -> np.ndarray:
    """W(h, k) of `_cot_sum` in float64 for integer arrays 0 <= h < k <
    2^26, each distinct pair once: grouped by k, the rows of integer weights
    2 (mh mod k) - k times the table of `_cot_f64(k)`, elementwise, then one
    sum along the last axis, which sums each row in the order of a 1-D sum.
    No BLAS call, so the result does not depend on its threading."""
    uniq, inv = np.unique(k * 2**26 + h, return_inverse=True)
    ks, hs = np.divmod(uniq, 2**26)
    out = np.zeros(uniq.size)
    starts = np.flatnonzero(np.diff(ks, prepend=-1))
    for lo, hi in zip(starts, [*starts[1:], uniq.size]):
        kk = int(ks[lo])
        cot = _cot_f64(kk)
        if cot.size:
            # mh < k^2/2 fits int32 below k = 2^15
            ms = np.arange(1, cot.size + 1, dtype=np.int32 if kk < 2**15 else np.int64)
            step = max(1, 2**18 // cot.size)  # rows per block, to bound the memory
            for i in range(lo, hi, step):
                w = np.multiply.outer(hs[i:min(i + step, hi)].astype(ms.dtype), ms)
                np.remainder(w, kk, out=w)
                w *= 2
                w -= kk
                out[i:i + w.shape[0]] = (w * cot).sum(axis=1)
    return out[inv]


def _f64_entries(tau: np.ndarray, a: np.ndarray, b: np.ndarray):
    """(values, bounds): the Gram entries of `_closed_entry`'s (t1, a, b),
    given tau = fl(theta_1/b) and integer arrays of coprime 1 <= b <= a <
    2^26 with tau >= 2^-500, in float64, with |value - entry| <= bound.
    `_f64_v` does the same for v(theta).

    The formula of `_closed_entry` with tau = theta_1/b:
    s = (theta_1 + theta_2)/2 = tau (a + b)/2, d = (theta_1 - theta_2)/2 =
    tau (b - a)/2, theta_1 theta_2 = tau^2 ab, and for v, theta = p/q.
    Proof in the IEEE model (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3): each operation rounds by 1 + delta, |delta| <=
    u = 2^-53; a product of j such factors is 1 + theta_j, |theta_j| <=
    gamma_j = ju/(1 - ju), and gamma_j + gamma_k + gamma_j gamma_k <=
    gamma_(j+k). Integers below 2^53 convert exactly, and no nonzero product
    falls below 2^-1000 (tau >= 2^-500, a, b < 2^26, and a nonzero sum is a
    multiple of the least ulp of its terms), so nothing underflows. Each
    entry is computed alone, elementwise, by the operations below.

    Inputs. fl(tau) and theta are correctly rounded: theta_1. ln 2 pi -
    gamma, 1 - gamma, pi/2 and each ln n are mp values at 64 bits within
    2 ulps there, rounded once: within 2^-62 + u <= 2u relative, theta_2.
    Each table value c'_m of `_cot_f64` is within u |cot(pi m/k)| (1 +
    2^-60) of cot(pi m/k), proven there for every k; as |cot(pi m/k)| <=
    T_m = k/(pi m), since sin(pi m/k) >= 2m/k, c'_m is within 2u T_m.

    Cotangent sums. W(h, k) has n = floor((k-1)/2) terms with exact integer
    weights |w_m| < k. In any summation order the computed sum is within
    gamma_n sum |w_m| |c'_m| of sum w_m c'_m (Higham 3.1), which is within
    2u sum |w_m| T_m of W. As c'_m <= (1 + 2u) T_m and sum |w_m| T_m <=
    (k^2/pi) H_n =: M_k, the computed W' is within gamma_(n+2) M_k of W, and
    |W| <= M_k.

    Terms. G' = ((T1 + T2) - T3) - T4 with T1 = fl(C' s') (theta_5: C' 2,
    s' 2, the product 1); T2 = fl(d' L'), L' = fl(ln a' - ln b') within
    gamma_3 (ln a + ln b) of ln(a/b), so T2 is within gamma_7 |d| (ln a +
    ln b); T4 = fl(fl(tau'^2) ab) (theta_4); T3 = fl(P' (fl(tau'/b) W'_ab +
    fl(tau'/a) W'_ba)) multiplies each W' by 1 + theta_7, so each of its two
    terms is within gamma_(n+9) of (pi/2)(tau/k) M_k, which is theta_1 H/2
    for k = b and theta_2 H/2 for k = a. The three sums add theta_3 to each
    term, and a term within gamma_j m of a value of size <= m is then within
    gamma_(j+3) m. With H_n <= 1 + ln k, n the larger of the two sums' n,

        |G' - G| <= gamma_(n+12) [(ln 2 pi - gamma) s + |d| (ln a + ln b)
                    + theta_1 theta_2 + (theta_1 (1 + ln b) + theta_2 (1 + ln a))/2].

    For v' = fl(theta' fl(C'_v - fl(ln p' - ln q'))) the same count gives
    gamma_6 theta (1 - gamma + ln p + ln q). The bound is evaluated in
    doubles from the computed inputs with gamma_(n+13): those inputs and its
    own roundings lose less than a relative gamma_20 < 1/(n+12) <=
    gamma_(n+13)/gamma_(n+12) - 1. It is the float64 counterpart of
    `_closed_entry`'s (a + b + 64)(2 + ln a) 2^-wp.
    """
    la, lb = np.split(_ln_f64(np.concatenate([a, b])), 2)
    w_ab, w_ba = np.split(_cot_sums_f64(np.concatenate([a % b, b % a]), np.concatenate([b, a])), 2)
    s, d, prod = tau * (a + b) * 0.5, tau * (b - a) * 0.5, tau * tau * (a * b)
    w = tau / b * w_ab + tau / a * w_ba
    val = _C_G * s + d * (la - lb) - _HALF_PI * w - prod
    mag = _C_G * s + np.abs(d) * (la + lb) + prod + (tau * b * (1 + lb) + tau * a * (1 + la)) * 0.5
    return val, _gamma((a - 1) // 2 + 13) * mag


def _f64_v(ths) -> tuple:
    """(values, bounds): v(theta) = theta (1 - gamma - ln theta) for each
    theta = p/q in float64, proof in `_f64_entries`; the bound is inf
    outside its model (theta < 2^-500)."""
    th = np.array([float(t) for t in ths], dtype=np.float64)
    lp, lq = _ln_f64([t.numerator for t in ths]), _ln_f64([t.denominator for t in ths])
    bound = np.where(th < 2.0**-500, np.inf, _gamma(13) * (th * (_C_V + lp + lq)))
    return th * (_C_V - (lp - lq)), bound


def _reduced_pairs(ths: tuple[Fraction, ...]):
    """(j, k, lo, a, b, tau, first) for every pair j <= k of ths in row
    order: lo the index of the least theta theta_1 = p/q, theta_2/theta_1 =
    a/b in lowest terms, and tau = p/(q b) correctly rounded, all from
    integer products and gcds with no Fraction per pair; first is the index
    of the first pair whose a, the period of theta_1/theta_2, is past the
    cap of `_period`, or None.

    The piece count `_period` gives b/a grows with b, so one question per
    distinct a, at its largest b, decides every pair with that a unless it
    refuses; only then are that a's pairs asked one by one, in order.
    """
    n = len(ths)
    nums = [t.numerator for t in ths]
    dens = [t.denominator for t in ths]
    # below 2^17 every product here, and q b, stays exact in int64 and float64
    small = max(nums + dens, default=0) < 2**17
    P, Q = (np.array(x, dtype=np.int64 if small else object) for x in (nums, dens))
    j, k = np.triu_indices(n)
    swap = P[j] * Q[k] > P[k] * Q[j]
    lo, hi = np.where(swap, k, j), np.where(swap, j, k)
    num, den = P[hi] * Q[lo], Q[hi] * P[lo]
    g = np.gcd(num, den)
    a, b = num // g, den // g
    tau = (P[lo] / (Q[lo] * b)).astype(np.float64)

    def refused(x, y):
        return _periodic._period((Fraction(int(y), int(x)),)) is None

    uniq, inv = np.unique(a, return_inverse=True)
    top = np.zeros(uniq.size, dtype=a.dtype)
    np.maximum.at(top, inv, b)
    worst = np.array([refused(x, y) for x, y in zip(uniq.tolist(), top.tolist())], dtype=bool)
    first = next((i for i in np.flatnonzero(worst[inv]) if refused(a[i], b[i])), None)
    return j, k, lo, a, b, tau, first


def build_gram(thetas, tol: float = 1e-9) -> GramSystem:
    """GramSystem with every entry int_0^1 prod rho(theta/x) dx over one or
    two thetas, certified to tol as stored; symmetric by construction.

    Each pair is reduced by `_reduced_pairs` to theta_1 and a/b, and every
    entry is first evaluated in float64 at once (`_f64_entries`, `_f64_v`).
    An entry stores that double when its bound is at most tol; any other,
    and any outside the float64 model (tau < 2^-500 or a >= 2^26), takes
    the mp closed form `_closed_entry` at tol (its certificate plus half an
    ulp of the returned float). The entries are visited in row order, then
    v: the first that cannot be certified raises ToleranceNotMet, for a pair
    whose a is past the cap of `_period` or a certificate above tol. The mp
    cot tables are shared by the entries of this call."""
    ths = tuple(_to_theta(t, f"theta[{i}]") for i, t in enumerate(thetas))
    tol = check_tol(tol)
    n = len(ths)
    j, k, lo, a, b, tau, first = _reduced_pairs(ths)
    npairs = j.size
    val, bound = np.zeros(npairs), np.full(npairs, np.inf)
    fit = (tau >= 2.0**-500) & (a < 2**26)
    fit[npairs if first is None else first:] = False
    a_f, b_f = a[fit].astype(np.int64), b[fit].astype(np.int64)
    val[fit], bound[fit] = _f64_entries(tau[fit], a_f, b_f)
    v_val, v_bound = _f64_v(ths)
    val, bound = np.concatenate([val, v_val]), np.concatenate([bound, v_bound])
    bits, cots = bits_for_tol(tol), {}
    for i in np.flatnonzero(~(bound <= tol)):
        if i < npairs:
            idx, args = (j[i], k[i]), (ths[lo[i]], int(a[i]), int(b[i]))
        else:  # v(theta) is `_closed_entry`'s theta_1 = theta, a = b = 0
            idx, args = (i - npairs,), (ths[i - npairs], 0, 0)
        names = ", ".join(repr(float(ths[x])) for x in idx)
        if i == first:
            raise ToleranceNotMet(f"G({names}): the ratio of the thetas has no period within the caps")
        out, err = to_double(*_closed_entry(*args, bits, cots))
        check_cert(err, tol, f"Gram entry ({names})")
        val[i] = out
    G = np.zeros((n, n), dtype=np.float64)
    G[j, k] = G[k, j] = val[:npairs]
    return GramSystem(ths, G, val[npairs:], tol)


def _constrained_minima(G: np.ndarray, v: np.ndarray, th: np.ndarray):
    """(L, y, z, minima): G = L L^T factored column by column, y = L^-1 v,
    z = L^-1 theta, and minima[n - 1] = 1 - Y_n + W_n^2/Z_n, the least ||f +
    1||^2 over the leading n thetas, Y, Z and W the prefix sums of y^2, z^2
    and yz. The leading blocks of L, y and z are those of G's leading block,
    and every sum is an elementwise product and `sum`, with no BLAS call, so
    minima[n - 1] depends only on the leading n entries of G, v and theta,
    bit for bit, whatever the size of G or the number of BLAS threads. A
    pivot <= 0 raises SingularSystemError."""
    n = len(v)
    L, y, z = np.zeros((n, n)), np.zeros(n), np.zeros(n)
    for j in range(n):
        col = G[j:, j] - (L[j:, :j] * L[j, :j]).sum(axis=1)
        if not col[0] > 0.0:
            raise SingularSystemError(f"G is not positive definite (pivot {j + 1} is {col[0]:.3g})")
        d = math.sqrt(col[0])
        L[j:, j] = col / d
        y[j] = (v[j] - (L[j, :j] * y[:j]).sum()) / d
        z[j] = (th[j] - (L[j, :j] * z[:j]).sum()) / d
    W = np.cumsum(y * z)
    minima = 1.0 - np.cumsum(y * y) + W * W / np.cumsum(z * z)
    minima[(minima < 0.0) & (minima > -1e-9)] = 0.0  # roundoff below a zero minimum
    return L, y, z, minima


def optimize_coeffs(thetas, tol: float = 1e-9, gram: GramSystem | None = None) -> dict:
    """Minimize a^T G a + 2 a^T v + 1 subject to theta^T a = 0: lambda =
    -W_N/Z_N and L^T a = -(y + lambda z) from `_constrained_minima`, whose
    last minimum is norm_sq, so it equals `sweep`'s row N bit for bit.
    Returns {"a": ndarray, "norm_sq": float, "lambda": float,
    "kkt_residual": float, "constraint_residual": float, "gram": GramSystem}.
    N = 1 is allowed (the constraint forces a = 0 there).
    """
    check_tol(tol)
    gs = gram if gram is not None else build_gram(thetas, tol)
    ths = gs.thetas
    n = gs.N
    if n == 0:
        raise DomainError("need at least one theta")
    if len(set(ths)) != n:
        raise SingularSystemError("duplicate thetas make the KKT system singular")
    th = np.array([float(t) for t in ths], dtype=np.float64)
    L, y, z, minima = _constrained_minima(gs.G, gs.v, th)
    lam = -float((y * z).sum() / (z * z).sum())
    rhs, a = -y - lam * z, np.zeros(n)
    for j in range(n - 1, -1, -1):
        a[j] = (rhs[j] - (L[j + 1:, j] * a[j + 1:]).sum()) / L[j, j]
    if not np.all(np.isfinite(a)):
        raise SingularSystemError("KKT solve produced non-finite values")
    scale = max(float(np.max(np.abs(gs.G))), float(np.max(np.abs(gs.v))), 1.0)
    kkt_res = float(np.max(np.abs((gs.G * a).sum(axis=1) + lam * th + gs.v)))
    x_scale = max(1.0, float(np.max(np.abs(a))), abs(lam))
    if kkt_res > 1e4 * _SOLVER_EPS * scale * x_scale * n:
        raise SingularSystemError(f"KKT residual {kkt_res:.3g} indicates an ill-conditioned system")
    return {
        "a": a,
        "norm_sq": float(minima[-1]),
        "lambda": lam,
        "kkt_residual": kkt_res,
        "constraint_residual": abs(float((th * a).sum())),
        "gram": gs,
    }


def spec_from_solution(thetas, a) -> BeurlingSpec:
    """Exact-rational spec from a float solution, reprojected so that
    sum a_k theta_k = 0 holds EXACTLY (floats are carried as exact binary
    rationals, then the constraint residual is removed along theta)."""
    ths = tuple(_to_theta(t, f"theta[{i}]") for i, t in enumerate(thetas))
    a_fr = [Fraction(float(x)) for x in a]
    dot = sum((af * th for af, th in zip(a_fr, ths)), Fraction(0))
    th_sq = sum((th * th for th in ths), Fraction(0))
    if th_sq > 0 and dot != 0:
        corr = dot / th_sq
        a_fr = [af - corr * th for af, th in zip(a_fr, ths)]
    return BeurlingSpec([(af, th) for af, th in zip(a_fr, ths)])


def residual_report(thetas, tol: float = 1e-9) -> dict:
    """Optimize, then cross-check the quadratic-form norm against quadrature
    and Parseval on the recovered exact spec. Values that cannot be certified
    at any usable tolerance are reported as None rather than guessed."""
    res = optimize_coeffs(thetas, tol)
    gs: GramSystem = res["gram"]
    spec = spec_from_solution(gs.thetas, res["a"])
    norm_kkt = math.sqrt(max(res["norm_sq"], 0.0))
    norm_quad, quad_tol_used = _norm_oracle(spec, max(tol, 1e-10))
    norm_pars = None
    tail_est = None
    if spec.admissible:
        pars = norm_via_parseval(spec, _PARSEVAL_N_MAX, 1e-8)
        norm_pars = pars["norm"]
        tail_est = pars["tail_estimate"]
    report = {
        "thetas": [str(t) for t in gs.thetas],
        "a": [float(x) for x in res["a"]],
        "norm_sq_kkt": res["norm_sq"],
        "norm_kkt": norm_kkt,
        "norm_quadrature": norm_quad,
        "quad_tol_used": quad_tol_used,
        "norm_parseval": norm_pars,
        "parseval_tail_estimate": tail_est,
        "kkt_residual": res["kkt_residual"],
        "constraint_residual_exact": str(spec.residual_exact[0]),
        "gap_kkt_quadrature": None if norm_quad is None else abs(norm_kkt - norm_quad),
        "gap_kkt_parseval": None if norm_pars is None else abs(norm_kkt - norm_pars),
    }
    return report


def sweep(n_from: int, n_to: int, tol: float = 1e-9) -> list[dict]:
    """Minimal norms for the unit families theta_k = 1/k, k = 1..N,
    N = n_from..n_to. The families are nested, so the Gram system is built
    once at n_to and every row is a prefix minimum of one factor
    (`_constrained_minima`); row N does not depend on n_to."""
    n_from = check_count(n_from, "n_from")
    n_to = check_count(n_to, "n_to", n_from)
    gs = build_gram(unit_thetas(n_to), tol)
    th = np.array([float(t) for t in gs.thetas], dtype=np.float64)
    minima = _constrained_minima(gs.G, gs.v, th)[3].tolist()
    return [{"N": n, "norm_sq": ns, "norm": math.sqrt(max(ns, 0.0))}
            for n, ns in enumerate(minima[n_from - 1:], n_from)]
