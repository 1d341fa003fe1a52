"""Norm-minimizing coefficients a for fixed thetas under sum a_k theta_k = 0.

||f + 1||^2 = a^T G a + 2 a^T v + 1 with G[j][k] = int_0^1 rho(theta_j/x)
rho(theta_k/x) dx and v[k] = int_0^1 rho(theta_k/x) dx, so the minimizer
solves the equality-constrained least-squares KKT system

    [[G, theta], [theta^T, 0]] [a; lambda] = [-v; 0].

No entry is integrated while its thetas have a joint period in reach. For
coprime h, k Vasyunin's formula gives

    A(h, k) = int_0^inf rho(1/hx) rho(1/kx) dx
            = (ln 2 pi - gamma)/2 (1/h + 1/k) + (k - h)/(2hk) ln(h/k)
              - pi/(2hk) (V(h, k) + V(k, h)),
    V(h, k) = sum_{m<k} {mh/k} cot(pi m/k)

(Vasyunin, St. Petersburg Math. J. 7, 1996; Bettin-Conrey-Farmer, 2013).
With theta_2/theta_1 = a/b in lowest terms, G(theta_1, theta_2) =
theta_1 a A(a, b) - theta_1 theta_2 and v(theta) = theta (1 - gamma - ln
theta): finite cotangent sums with a priori roundoff bounds (`_closed_entry`).
`_gram_entry` alone chooses the period its bound is taken at, and refuses
with ToleranceNotMet a pair whose ratio theta_1/theta_2 has a period past
the cap of `_period` as well: float thetas such as 0.1 =
3602879701896397/2^55 have no joint period in reach, but v(0.1) and
G(0.1, 0.2) (ratio 1/2) are closed forms, while G(0.1, 0.5) is refused.
Duplicate thetas make the KKT matrix exactly singular and are rejected
rather than merged.
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
from .numerics import bits_for_tol, check_count, check_tol, to_double, to_mp, workprec
from .parseval import norm_via_parseval

_SOLVER_EPS = float(np.finfo(np.float64).eps)
# Parseval cross-check length in residual_report
_PARSEVAL_N_MAX = 4096


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

    def principal(self, n: int) -> "GramSystem":
        """Leading n-by-n subsystem (same build, nested theta families)."""
        return GramSystem(self.thetas[:n], self.G[:n, :n].copy(), self.v[:n].copy(), self.build_tol)

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
    per denominator k and rebuilds it only for a higher wp."""
    ms = range(1, (k + 1) // 2)
    hit = cots.get(k)
    if hit is None or hit[0] < wp:
        hit = cots[k] = (wp, [mpmath.cot(mpmath.pi * m / k) for m in ms])
    return mpmath.fdot([2 * (m * h % k) - k for m in ms], hit[1])


def _closed_entry(thetas, B: int, bits: int, cots: dict):
    """(value, err_bound) in mp of the Gram entry over one or two thetas in
    (0, 1] of joint period B, err_bound <= 2^-bits.

    With theta_1 <= theta_2, a/b = theta_2/theta_1 and tau = theta_1/b =
    theta_2/a (so a, b <= B), the formula of the module docstring reads

        G = (ln 2 pi - gamma)(theta_1 + theta_2)/2 + (theta_1 - theta_2)/2 ln(a/b)
            - pi/2 (tau/b W(a, b) + tau/a W(b, a)) - theta_1 theta_2,

    W(h, k) from `_cot_sum`. At wp working bits, u = 2^-wp: the argument of
    cot(pi m/k) is off by 3u relative, which moves cot by at most
    (3 pi^2/4) u T_m, T_m = k/(pi m) >= |cot(pi m/k)|, since sin(pi m/k) >=
    2m/k; mpmath's cot adds 2 ulps, so each table value is off by at most 10 u T_m.
    W(h, k) sums n <= (k-1)/2 terms with |2r - k| < k, so it is off by at
    most (n + 11) u k sum T_m <= (n + 11) u (k^2/pi)(1 + ln k), and since tau
    k <= 1 its term in G by (n + 11) u (1 + ln B)/2. ln 2 pi, gamma and
    ln(a/b) are within an ulp each plus one of the argument, and the four
    terms of G, or the two of v = theta (1 - gamma - ln theta), total at most
    2 (2 + ln B) in magnitude with at most 10 roundings each. So the error
    is at most (a + b + 64)(2 + ln B) u, with a + b read as 0 for v.
    """
    t1, t2 = min(thetas), max(thetas)
    ratio = t2 / t1
    a, b = (ratio.numerator, ratio.denominator) if len(thetas) == 2 else (0, 0)
    scale = (a + b + 64) * (2 + math.log(B))
    wp = bits + math.ceil(math.log2(scale))
    with workprec(wp):
        if not a:
            val = to_mp(t1) * (1 - mpmath.euler - mpmath.log(to_mp(t1)))
        else:
            tau = t1 / b
            w_ab, w_ba = _cot_sum(a, b, wp, cots), _cot_sum(b, a, wp, cots)
            val = (
                (mpmath.log(2 * mpmath.pi) - mpmath.euler) * to_mp((t1 + t2) / 2)
                + to_mp((t1 - t2) / 2) * mpmath.log(to_mp(ratio))
                - mpmath.pi / 2 * (to_mp(tau / b) * w_ab + to_mp(tau / a) * w_ba)
                - to_mp(t1 * t2)
            )
        return val, mpmath.ldexp(mpmath.mpf(scale), -wp)


def _gram_entry(thetas: tuple[Fraction, ...], tol: float, cots: dict) -> float:
    """int_0^1 prod_k rho(theta_k/x) dx over one or two thetas, certified to
    tol as stored.

    The closed form `_closed_entry` (its certificate plus half an ulp of the
    returned float) when the thetas have a joint period B. Past the caps of
    `_period` its bound still holds with B = 1 for v, whose magnitude is at
    most 1 + gamma + 1/e, and with the period of theta_1/theta_2
    (theta_1 <= theta_2) for G, which is a >= b. ToleranceNotMet for a pair
    past both, or when the certificate exceeds tol.
    """
    B = _periodic._period(thetas)
    if B is None:
        B = 1 if len(thetas) == 1 else _periodic._period((min(thetas) / max(thetas),))
    if B is None:
        raise ToleranceNotMet(
            f"G({', '.join(repr(float(t)) for t in thetas)}): neither the thetas "
            "nor their ratio have a period within the caps"
        )
    out, err = to_double(*_closed_entry(thetas, B, bits_for_tol(tol), cots))
    if err > tol:
        raise ToleranceNotMet(f"Gram entry error {err:.3g} exceeds tol {tol:.3g}")
    return out


def build_gram(thetas, tol: float = 1e-9) -> GramSystem:
    """GramSystem with every entry from `_gram_entry`; symmetric by
    construction. The cot tables are shared by the entries of this call."""
    ths = tuple(_to_theta(t, f"theta[{i}]") for i, t in enumerate(thetas))
    tol = check_tol(tol)
    n = len(ths)
    cots: dict = {}
    G = np.zeros((n, n), dtype=np.float64)
    for j in range(n):
        for k in range(j, n):
            G[j, k] = G[k, j] = _gram_entry((ths[j], ths[k]), tol, cots)
    v = np.array([_gram_entry((t,), tol, cots) for t in ths], dtype=np.float64)
    return GramSystem(ths, G, v, tol)


def optimize_coeffs(thetas, tol: float = 1e-9, gram: GramSystem | None = None) -> dict:
    """Minimize a^T G a + 2 a^T v + 1 subject to theta^T a = 0.

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
    A = np.zeros((n + 1, n + 1), dtype=np.float64)
    A[:n, :n] = gs.G
    A[:n, n] = th
    A[n, :n] = th
    b = np.zeros(n + 1, dtype=np.float64)
    b[:n] = -gs.v
    try:
        x = np.linalg.solve(A, b)
        x = x + np.linalg.solve(A, b - A @ x)  # one step of iterative refinement
    except np.linalg.LinAlgError as e:
        raise SingularSystemError(f"KKT solve failed: {e}") from None
    if not np.all(np.isfinite(x)):
        raise SingularSystemError("KKT solve produced non-finite values")
    a, lam = x[:n], float(x[n])
    scale = max(float(np.max(np.abs(gs.G))), float(np.max(np.abs(gs.v))), 1.0)
    kkt_res = float(np.max(np.abs(gs.G @ a + lam * th + gs.v)))
    con_res = abs(float(th @ a))
    x_scale = max(1.0, float(np.max(np.abs(x))))
    if kkt_res > 1e4 * _SOLVER_EPS * scale * x_scale * n:
        raise SingularSystemError(
            f"KKT residual {kkt_res:.3g} indicates an ill-conditioned system"
        )
    norm_sq = float(a @ gs.G @ a + 2.0 * (a @ gs.v) + 1.0)
    if norm_sq < 0.0:
        norm_sq = max(norm_sq, 0.0) if norm_sq > -1e-9 else norm_sq
    return {
        "a": a,
        "norm_sq": norm_sq,
        "lambda": lam,
        "kkt_residual": kkt_res,
        "constraint_residual": con_res,
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
    N = n_from..n_to. The Gram system is built once at the largest N and
    sliced (the families are nested), so rows are deterministic and cheap."""
    n_from = check_count(n_from, "n_from")
    n_to = check_count(n_to, "n_to", n_from)
    gs = build_gram(unit_thetas(n_to), tol)
    rows = []
    for n in range(n_from, n_to + 1):
        ns = optimize_coeffs(None, tol, gram=gs.principal(n))["norm_sq"]
        rows.append({"N": n, "norm_sq": ns, "norm": math.sqrt(max(ns, 0.0))})
    return rows
