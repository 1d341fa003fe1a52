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
bounds, which see a pair only through theta_1, a and b. Each entry is
first evaluated in float64 (`_f64_entry`): one table of cot(pi m/k) per
denominator k and one ln per integer, each an mp value rounded to a double
once and shared across a `build_gram` call, so the mp work is O(N^2); the
O(N^3) weighted sums run in doubles, under an a priori bound in the IEEE
model proven beside the code. An entry whose bound is at most tol stores
that double; any other falls back to the mp closed form `_closed_entry` at
tol, which serves every tol below the float64 bound (about 1e-15 relative).
`_gram_entry` alone reduces the ratio, and refuses with ToleranceNotMet a
pair whose a, the period of theta_1/theta_2, is past the cap of `_period`:
v(0.1) and G(0.1, 0.2) (ratio 1/2) are closed forms for the float 0.1 =
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
from .numerics import (_gamma, bits_for_tol, check_cert, check_count, check_tol, to_double,
                       to_mp, workprec)
from .parseval import norm_via_parseval

_SOLVER_EPS = float(np.finfo(np.float64).eps)
# Parseval cross-check length in residual_report
_PARSEVAL_N_MAX = 4096
# ln 2 pi - gamma, 1 - gamma and pi/2 of Vasyunin's formula for `_f64_entry`:
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


def _cot_table(k: int) -> list:
    """cot(pi m/k) for m <= (k-1)/2 at the working precision."""
    return [mpmath.cot(mpmath.pi * m / k) for m in range(1, (k + 1) // 2)]


def _cot_sum(h: int, k: int, wp: int, cots: dict):
    """W(h, k) = k V(h, k) = sum_{m <= (k-1)/2} (2 (mh mod k) - k) cot(pi m/k)
    at wp bits, pairing m with k - m. cots holds one table of cot(pi m/k)
    per denominator k and rebuilds it only for a higher wp."""
    hit = cots.get(k)
    if hit is None or hit[0] < wp:
        hit = cots[k] = (wp, _cot_table(k))
    return mpmath.fdot([2 * (m * h % k) - k for m in range(1, (k + 1) // 2)], hit[1])


def _closed_entry(t1: Fraction, a: int, b: int, bits: int, cots: dict):
    """(value, err_bound) in mp of the Gram entry with least theta t1 in
    (0, 1] and theta_2/theta_1 = a/b in lowest terms, or of v(t1) for
    a = b = 0; err_bound <= 2^-bits.

    With tau = theta_1/b = theta_2/a (so b <= a), the formula of the module
    docstring reads

        G = (ln 2 pi - gamma)(theta_1 + theta_2)/2 + (theta_1 - theta_2)/2 ln(a/b)
            - pi/2 (tau/b W(a, b) + tau/a W(b, a)) - theta_1 theta_2,

    W(h, k) from `_cot_sum`. At wp working bits, u = 2^-wp: the argument of
    cot(pi m/k) is off by 3u relative, which moves cot by at most
    (3 pi^2/4) u T_m, T_m = k/(pi m) >= |cot(pi m/k)|, since sin(pi m/k) >=
    2m/k; mpmath's cot adds 2 ulps, so each table value is off by at most 10 u T_m.
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


def _ln_f64(n: int, tabs: dict) -> float:
    """ln n for an integer n >= 1: one mp log at 64 bits per n, rounded once."""
    key = ("ln", n)
    if key not in tabs:
        with workprec(64):
            tabs[key] = float(mpmath.log(n))
    return tabs[key]


def _cot_sum_f64(h: int, k: int, tabs: dict) -> float:
    """W(h, k) of `_cot_sum` in float64: the exact integer weights summed
    against one table of cot(pi m/k) per k, each an mp value at 64 bits
    rounded once (its own table, not the mp path's, whose bits depend on
    the tols asked before). numpy's elementwise product and sum use no
    BLAS, so the result does not depend on its threading."""
    key = ("W", h % k, k)
    if key not in tabs:
        cot = tabs.get(("cot", k))
        if cot is None:
            with workprec(64):
                cot = tabs[("cot", k)] = np.array(_cot_table(k), dtype=np.float64)
        ms = np.arange(1, cot.size + 1)
        tabs[key] = float(((2 * (ms * (h % k) % k) - k) * cot).sum())
    return tabs[key]


def _f64_entry(t1: Fraction, a: int, b: int, tabs: dict):
    """(value, bound): the Gram entry of `_closed_entry`'s (t1, a, b) in
    float64, with |value - entry| <= bound; None outside the model below
    (tau < 2^-500 or a >= 2^26).

    The formula of `_closed_entry` with tau = theta_1/b:
    s = (theta_1 + theta_2)/2 = tau (a + b)/2, d = (theta_1 - theta_2)/2 =
    tau (b - a)/2, theta_1 theta_2 = tau^2 ab, and for v, theta = p/q.
    Proof in the IEEE model (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3): each operation rounds by 1 + delta, |delta| <=
    u = 2^-53; a product of j such factors is 1 + theta_j, |theta_j| <=
    gamma_j = ju/(1 - ju), and gamma_j + gamma_k + gamma_j gamma_k <=
    gamma_(j+k). Integers below 2^53 convert exactly, and no nonzero product
    falls below 2^-1000 (tau >= 2^-500, a, b < 2^26, and a nonzero sum is a
    multiple of the least ulp of its terms), so nothing underflows.

    Inputs. fl(tau) and theta are correctly rounded: theta_1. ln 2 pi -
    gamma, 1 - gamma, pi/2 and each ln n are mp values at 64 bits within
    2 ulps there, rounded once: within 2^-62 + u <= 2u relative, theta_2. At
    64 bits `_closed_entry`'s proof puts each cot(pi m/k) within 10 2^-64 T_m,
    T_m = k/(pi m) >= |cot(pi m/k)|, and rounding adds u T_m (1 + 10 2^-64),
    so the table value c'_m is within 2u T_m.

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
    if not a:
        th = float(t1)
        if th < 2.0**-500:
            return None
        lp, lq = _ln_f64(t1.numerator, tabs), _ln_f64(t1.denominator, tabs)
        return th * (_C_V - (lp - lq)), _gamma(13) * (th * (_C_V + lp + lq))
    # int / int is correctly rounded: the same double as float(t1 / b)
    tau = t1.numerator / (t1.denominator * b)
    if tau < 2.0**-500 or a >= 2**26:
        return None
    la, lb = _ln_f64(a, tabs), _ln_f64(b, tabs)
    s, d, prod = tau * (a + b) * 0.5, tau * (b - a) * 0.5, tau * tau * (a * b)
    w = tau / b * _cot_sum_f64(a, b, tabs) + tau / a * _cot_sum_f64(b, a, tabs)
    val = _C_G * s + d * (la - lb) - _HALF_PI * w - prod
    mag = _C_G * s + abs(d) * (la + lb) + prod + (tau * b * (1 + lb) + tau * a * (1 + la)) * 0.5
    return val, _gamma((a - 1) // 2 + 13) * mag


def _gram_entry(thetas: tuple[Fraction, ...], tol: float, tabs: dict) -> float:
    """int_0^1 prod_k rho(theta_k/x) dx over one or two thetas, certified to
    tol as stored.

    theta_1 is the least theta and, for a pair, theta_1/theta_2 = b/a in
    lowest terms, whose period is a. The float64 value of `_f64_entry` when
    its bound is at most tol; otherwise the closed form `_closed_entry` at
    tol (its certificate plus half an ulp of the returned float). tabs holds
    the tables both share across a call. ToleranceNotMet for a pair whose a
    is past the cap of `_period`, or when the certificate exceeds tol.
    """
    t1, a, b = min(thetas), 0, 0
    if len(thetas) == 2:
        ratio = t1 / max(thetas)
        if _periodic._period((ratio,)) is None:
            raise ToleranceNotMet(
                f"G({', '.join(repr(float(t)) for t in thetas)}): the ratio of "
                "the thetas has no period within the caps"
            )
        a, b = ratio.denominator, ratio.numerator
    hit = _f64_entry(t1, a, b, tabs)
    if hit is not None and hit[1] <= tol:
        return hit[0]
    out, err = to_double(*_closed_entry(t1, a, b, bits_for_tol(tol), tabs))
    check_cert(err, tol, f"Gram entry ({', '.join(repr(float(t)) for t in thetas)})")
    return out


def build_gram(thetas, tol: float = 1e-9) -> GramSystem:
    """GramSystem with every entry from `_gram_entry`; symmetric by
    construction. The cot and ln tables are shared by the entries of this
    call."""
    ths = tuple(_to_theta(t, f"theta[{i}]") for i, t in enumerate(thetas))
    tol = check_tol(tol)
    n = len(ths)
    tabs: dict = {}
    G = np.zeros((n, n), dtype=np.float64)
    for j in range(n):
        for k in range(j, n):
            G[j, k] = G[k, j] = _gram_entry((ths[j], ths[k]), tol, tabs)
    v = np.array([_gram_entry((t,), tol, tabs) for t in ths], dtype=np.float64)
    return GramSystem(ths, G, v, tol)


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
