"""Norm-minimizing coefficients a for fixed thetas under sum a_k theta_k = 0.

||f + 1||^2 = a^T G a + 2 a^T v + 1 with G[j][k] = int_0^1 rho(theta_j/x)
rho(theta_k/x) dx and v[k] = int_0^1 rho(theta_k/x) dx, so the minimizer
solves the equality-constrained least-squares KKT system

    [[G, theta], [theta^T, 0]] [a; lambda] = [-v; 0].

G and v entries go through the u = 1/x periodic engine (each PAIR of
rational thetas has its own small joint period even when the full family's
period is astronomical). One function, `_gram_entry`, takes every entry down
the same ladder: float64 u-integral, 96-bit u-integral, then x-space
quadrature for a pair or a single theta whose period is past the cap (float
thetas such as 0.1 = 3602879701896397/2^55). Duplicate thetas make the KKT
matrix exactly singular and are rejected rather than merged.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _periodic
from .errors import DomainError, SingularSystemError, ToleranceNotMet
from .functions import BeurlingSpec, _integrate_report, _norm_oracle, _to_fraction
from .numerics import PrecisionReal
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
    build_tol: PrecisionReal

    def __post_init__(self):
        n = len(self.thetas)
        G = np.asarray(self.G, dtype=np.float64)
        v = np.asarray(self.v, dtype=np.float64)
        if G.shape != (n, n) or v.shape != (n,):
            raise ValueError("GramSystem shape mismatch")
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "v", v)
        tol = float(self.build_tol)
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
                "build_tol": float(self.build_tol),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GramSystem":
        doc = json.loads(text)
        thetas = tuple(_to_fraction(t, "theta") for t in doc["thetas"])
        n = len(thetas)
        G = np.array([float(x) for x in doc["G"]], dtype=np.float64).reshape(n, n)
        v = np.array([float(x) for x in doc["v"]], dtype=np.float64)
        return cls(thetas, G, v, PrecisionReal.from_float(float(doc["build_tol"]), 64))


def _parse_thetas(thetas) -> tuple[Fraction, ...]:
    out = []
    for i, t in enumerate(thetas):
        th = _to_fraction(t, f"theta[{i}]")
        if not (0 < th <= 1):
            raise DomainError(f"theta[{i}] = {th} must lie in (0, 1]")
        out.append(th)
    return tuple(out)


def unit_thetas(N: int) -> tuple[Fraction, ...]:
    """theta_k = 1/k for k = 1..N."""
    if N < 1:
        raise DomainError("N must be >= 1")
    return tuple(Fraction(1, k) for k in range(1, N + 1))


def _gram_entry(pp, thetas: tuple[Fraction, ...], tol: float) -> float:
    """int_0^1 prod_k rho(theta_k/x) dx over one or two thetas, certified to tol.

    pp is the (B, pieces) of the u = 1/x integrand from `rho_pair_pieces` or
    `rho_single_pieces`, or None past the period cap. The ladder: the float64
    u-integral, then the 96-bit one, then x-space quadrature; ToleranceNotMet
    when none of them certifies tol.
    """
    if pp is not None:
        B, pieces = pp
        val, err = _periodic.u_integral_f64(pieces, B, 2.0)
        if err <= tol:
            return float(val)
        val_mp, err_mp = _periodic.u_integral_mp(pieces, B, 2.0, 96)
        if float(err_mp) <= tol:
            return float(val_mp.real)
    aux = BeurlingSpec([(1, t) for t in thetas])

    def integrand(x):
        return math.prod(q - np.floor(q) for q in (float(t) / x for t in thetas)) + 0j

    val, err, _ = _integrate_report(integrand, aux, None, tol, bound_m=1.0)
    if err > tol:
        raise ToleranceNotMet(f"Gram entry error {err:.3g} exceeds tol {tol:.3g}")
    return float(val.real)


def build_gram(thetas, tol: float = 1e-9) -> GramSystem:
    """GramSystem by breakpoint-aware quadrature; symmetric by construction."""
    ths = _parse_thetas(thetas)
    if not 0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    n = len(ths)
    G = np.zeros((n, n), dtype=np.float64)
    for j in range(n):
        for k in range(j, n):
            pair = (ths[j], ths[k])
            G[j, k] = G[k, j] = _gram_entry(_periodic.rho_pair_pieces(*pair), pair, tol)
    v = np.array(
        [_gram_entry(_periodic.rho_single_pieces(t), (t,), tol) for t in ths], dtype=np.float64
    )
    return GramSystem(ths, G, v, PrecisionReal.from_float(tol, 64))


def optimize_coeffs(thetas, tol: float = 1e-9, gram: GramSystem | None = None) -> dict:
    """Minimize a^T G a + 2 a^T v + 1 subject to theta^T a = 0.

    Returns {"a": ndarray, "norm_sq": PrecisionReal, "lambda": float,
    "kkt_residual": float, "constraint_residual": float, "gram": GramSystem}.
    N = 1 is allowed (the constraint forces a = 0 there).
    """
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
        "norm_sq": PrecisionReal.from_float(norm_sq, 64),
        "lambda": lam,
        "kkt_residual": kkt_res,
        "constraint_residual": con_res,
        "gram": gs,
    }


def spec_from_solution(thetas, a) -> BeurlingSpec:
    """Exact-rational spec from a float solution, reprojected so that
    sum a_k theta_k = 0 holds EXACTLY (floats are carried as exact binary
    rationals, then the constraint residual is removed along theta)."""
    ths = _parse_thetas(thetas)
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
    norm_kkt = math.sqrt(max(float(res["norm_sq"]), 0.0))
    norm_quad, quad_tol_used = _norm_oracle(spec, max(tol, 1e-10))
    norm_pars = None
    tail_est = None
    if spec.admissible:
        pars = norm_via_parseval(spec, _PARSEVAL_N_MAX, 1e-8)
        norm_pars = float(pars["norm"])
        tail_est = float(pars["tail_estimate"])
    report = {
        "thetas": [str(t) for t in gs.thetas],
        "a": [float(x) for x in res["a"]],
        "norm_sq_kkt": float(res["norm_sq"]),
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
    if n_from < 1 or n_to < n_from:
        raise DomainError("need 1 <= n_from <= n_to")
    gs = build_gram(unit_thetas(n_to), tol)
    rows = []
    for n in range(n_from, n_to + 1):
        res = optimize_coeffs(None, tol, gram=gs.principal(n))
        ns = float(res["norm_sq"])
        rows.append({"N": n, "norm_sq": ns, "norm": math.sqrt(max(ns, 0.0))})
    return rows
