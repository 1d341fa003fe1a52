"""Beurling functions f_N(x) = sum_k a_k rho(theta_k / x) and their integrals.

BeurlingSpec keeps every coefficient and theta as an exact Fraction pair
internally (floats are binary rationals, so nothing is lost), which lets the
admissibility constraint sum a_k theta_k = 0 be decided exactly rather than
to a tolerance. JSON accepts plain numbers, "p/q" strings (an extension for
values like 3/5 that no float represents), or a unit-fraction denominator b.
`_to_theta` parses every theta, the optimizer's as well as the spec's.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _periodic
from .errors import DomainError, ToleranceNotMet
from .mellin import MellinValue
from .numerics import (
    PrecisionComplex,
    PrecisionReal,
    as_complex,
    bits_for_tol,
    check_count,
    check_tol,
    workprec,
)

DEFAULT_EVAL_BUDGET = 10_000_000


def _eval_budget() -> int:
    """The x-space evaluation budget: BEURLING_MAX_EVALS (at least 1000) or
    the default. Any value that is not a finite number is a DomainError."""
    raw = os.environ.get("BEURLING_MAX_EVALS")
    if raw is None:
        return DEFAULT_EVAL_BUDGET
    try:
        val = float(raw)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise DomainError(f"BEURLING_MAX_EVALS must be a finite number, got {raw!r}")
    return max(1000, int(val))


def _to_fraction(x, what: str) -> Fraction:
    """An int, float, Fraction or "p/q" string as an exact Fraction."""
    if not isinstance(x, (Fraction, str, int, float)):
        raise DomainError(f"unsupported type for {what}: {type(x).__name__}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise DomainError(f"cannot parse {what} = {x!r} as an exact rational") from None


def _to_theta(x, what: str) -> Fraction:
    """A theta in (0, 1] as an exact Fraction; DomainError otherwise."""
    theta = _to_fraction(x, what)
    if not 0 < theta <= 1:
        raise DomainError(f"{what} must lie in (0, 1], got {theta}")
    return theta


@dataclass(frozen=True)
class Term:
    a_re: Fraction
    a_im: Fraction
    theta: Fraction
    b: int | None  # unit-fraction denominator, when theta = 1/b

    @property
    def a(self) -> complex:
        return complex(float(self.a_re), float(self.a_im))


class BeurlingSpec:
    """The (a_k, theta_k) data of f_N; immutable after construction.

    terms: iterable of (a, theta) with a int/float/complex/Fraction/"p/q"
    (or an (re, im) pair of those) and theta int/float/Fraction/"p/q".
    unit_fraction_denoms: optional list of b_k (or None slots); each given
    b_k must satisfy theta_k * b_k = 1 exactly. When theta_k has numerator 1
    the denominator is recorded as b_k automatically.
    """

    __slots__ = ("terms", "__dict__")

    def __init__(self, terms: Sequence = (), unit_fraction_denoms: Sequence[int | None] | None = None):
        parsed: list[Term] = []
        denoms = list(unit_fraction_denoms) if unit_fraction_denoms is not None else None
        if denoms is not None and len(denoms) != len(terms):
            raise DomainError("unit_fraction_denoms length must match terms")
        for idx, pair in enumerate(terms):
            try:
                a_raw, th_raw = pair
            except (TypeError, ValueError):
                raise DomainError(f"term {idx}: expected an (a, theta) pair") from None
            if isinstance(a_raw, complex):
                a_re = _to_fraction(a_raw.real, f"term {idx} a.re")
                a_im = _to_fraction(a_raw.imag, f"term {idx} a.im")
            elif isinstance(a_raw, tuple):
                a_re = _to_fraction(a_raw[0], f"term {idx} a.re")
                a_im = _to_fraction(a_raw[1], f"term {idx} a.im")
            else:
                a_re = _to_fraction(a_raw, f"term {idx} a")
                a_im = Fraction(0)
            b = denoms[idx] if denoms is not None else None
            if b is not None:
                b = check_count(b, f"term {idx} b")
                theta = Fraction(1, b)
                if th_raw is not None:
                    th = _to_fraction(th_raw, f"term {idx} theta")
                    if th != theta:
                        raise DomainError(f"term {idx}: theta = {th} does not equal 1/b = 1/{b}")
            else:
                theta = _to_theta(th_raw, f"term {idx} theta")
                if theta.numerator == 1:
                    b = theta.denominator
            parsed.append(Term(a_re, a_im, theta, b))
        object.__setattr__(self, "terms", tuple(parsed))

    def __setattr__(self, name, value):
        raise AttributeError("BeurlingSpec is immutable")

    # -- bookkeeping ---------------------------------------------------

    @property
    def N(self) -> int:
        return len(self.terms)

    @cached_property
    def residual_exact(self) -> tuple[Fraction, Fraction]:
        re = sum((t.a_re * t.theta for t in self.terms), Fraction(0))
        im = sum((t.a_im * t.theta for t in self.terms), Fraction(0))
        return re, im

    @property
    def constraint_residual(self) -> float:
        re, im = self.residual_exact
        return math.hypot(float(re), float(im))

    @property
    def admissible(self) -> bool:
        return self.residual_exact == (0, 0)

    @cached_property
    def unit_fraction(self) -> bool:
        return all(t.b is not None for t in self.terms)

    @cached_property
    def coeffs_le_1(self) -> bool:
        return all(t.a_re * t.a_re + t.a_im * t.a_im <= 1 for t in self.terms)

    @cached_property
    def distinct_denoms(self) -> bool:
        bs = [t.b for t in self.terms]
        return self.unit_fraction and len(set(bs)) == len(bs)

    @property
    def even_mellin_ok(self) -> bool:
        """Unit fractions with |a_k| <= 1: the hypotheses of the truncation bound."""
        return self.unit_fraction and self.coeffs_le_1

    @cached_property
    def is_real(self) -> bool:
        return all(t.a_im == 0 for t in self.terms)

    @cached_property
    def sum_abs_a(self) -> float:
        return float(sum(abs(complex(float(t.a_re), float(t.a_im))) for t in self.terms)) + 1e-15

    @cached_property
    def min_theta(self) -> float:
        return min((float(t.theta) for t in self.terms), default=1.0)

    @cached_property
    def cache_key(self) -> tuple:
        return tuple((t.a_re, t.a_im, t.theta) for t in self.terms)

    @cached_property
    def decomposition(self):
        return _periodic.decompose(self)

    @cached_property
    def linear_pieces(self):
        """F(1/u) as degree-1 pieces over one period (`_periodic.f_linear_pieces`),
        or None when the period is past the caps."""
        dec = self.decomposition
        return None if dec is None else _periodic.f_linear_pieces(self, dec)

    def __eq__(self, other):
        return isinstance(other, BeurlingSpec) and self.cache_key == other.cache_key

    def __hash__(self):
        return hash(self.cache_key)

    def __repr__(self):
        inner = ", ".join(f"({t.a_re}{'+' + str(t.a_im) + 'j' if t.a_im else ''}, {t.theta})" for t in self.terms)
        return f"BeurlingSpec([{inner}])"

    # -- serialization ---------------------------------------------------

    @staticmethod
    def _num_out(x: Fraction):
        f = float(x)
        return f if Fraction(f) == x else str(x)

    def to_json_dict(self) -> dict:
        out = []
        for t in self.terms:
            out.append(
                {
                    "a_re": self._num_out(t.a_re),
                    "a_im": self._num_out(t.a_im),
                    "b": t.b,
                    "theta": self._num_out(t.theta),
                }
            )
        return {"terms": out}

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_json_dict(), **kwargs)

    @classmethod
    def from_json_dict(cls, doc) -> "BeurlingSpec":
        if not isinstance(doc, dict) or "terms" not in doc:
            raise DomainError('spec JSON must be an object with a "terms" array')
        raw_terms = doc["terms"]
        if not isinstance(raw_terms, list):
            raise DomainError('"terms" must be an array')
        pairs = []
        denoms = []
        for idx, t in enumerate(raw_terms):
            if not isinstance(t, dict):
                raise DomainError(f"terms[{idx}]: expected an object")
            unknown = sorted(set(t) - {"a_re", "a_im", "b", "theta"})
            if unknown:
                raise DomainError(
                    f"terms[{idx}]: unknown key(s) {unknown}; "
                    'allowed keys are "a_re", "a_im", "b", "theta"'
                )
            if "a_re" not in t and "a_im" not in t:
                raise DomainError(f'terms[{idx}]: needs "a_re" and/or "a_im"')
            a_re = t.get("a_re", 0)
            a_im = t.get("a_im", 0)
            b = t.get("b")
            theta = t.get("theta")
            if b is None and theta is None:
                raise DomainError(f'terms[{idx}]: needs "theta" or "b"')
            pairs.append(((a_re, a_im), theta))
            denoms.append(b)
        return cls(pairs, denoms)

    @classmethod
    def from_json(cls, text: str) -> "BeurlingSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise DomainError(f"malformed spec JSON: {e}") from None
        return cls.from_json_dict(doc)

    @classmethod
    def from_json_file(cls, path) -> "BeurlingSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


EMPTY_SPEC = BeurlingSpec()


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------


def frac(x):
    """rho(x) = x - floor(x), on x >= 0. Exact integers map to 0."""
    if isinstance(x, Fraction):
        if x < 0:
            raise DomainError("frac requires x >= 0")
        return x - (x.numerator // x.denominator)
    x = float(x)
    if not math.isfinite(x) or x < 0:
        raise DomainError("frac requires finite x >= 0")
    return x - math.floor(x)


def eval_f(spec: BeurlingSpec, x) -> complex:
    """f_N(x) = sum_k a_k rho(theta_k / x) on (0, 1]. |result| <= sum |a_k|."""
    exact = isinstance(x, Fraction)
    if not exact:
        x = float(x)
        if not math.isfinite(x):
            raise DomainError("x must be finite")
    if not (0 < x <= 1):
        raise DomainError(f"x must lie in (0, 1], got {x}")
    acc = 0j
    for t in spec.terms:
        r = frac(t.theta / x) if exact else frac(float(t.theta) / x)
        acc += t.a * float(r)
    return acc


def eval_F(spec: BeurlingSpec, x) -> complex:
    """F_N(x) = f_N(x) + 1."""
    return eval_f(spec, x) + 1.0


def _eval_F_vec(spec: BeurlingSpec, x: np.ndarray) -> np.ndarray:
    acc = np.ones_like(x, dtype=np.complex128)
    for t in spec.terms:
        q = float(t.theta) / x
        acc += t.a * (q - np.floor(q))
    return acc


# ---------------------------------------------------------------------------
# Breakpoints and x-space quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Breakpoints:
    """All jump locations theta_k / j of f_N down to cutoff_eps, plus 1."""

    cutoff_eps: float
    points: np.ndarray  # sorted ascending, last element 1.0

    def __len__(self):
        return len(self.points)


def breakpoints(spec: BeurlingSpec, cutoff_eps: float) -> Breakpoints:
    eps = float(cutoff_eps)
    if not (0 < eps < 1):
        raise DomainError("cutoff_eps must lie in (0, 1)")
    if spec.terms and eps >= spec.min_theta:
        raise DomainError(
            f"cutoff_eps = {eps} must be smaller than min theta = {spec.min_theta}"
        )
    est = sum(float(t.theta) / eps for t in spec.terms)
    if est > 4e7:
        raise ToleranceNotMet(
            f"breakpoint enumeration would need ~{est:.3g} points; tighten eps or budget"
        )
    fams = [np.array([1.0])]
    for t in spec.terms:
        th = float(t.theta)
        jmax = int(math.floor(th / eps))
        if jmax >= 1:
            fams.append(th / np.arange(1, jmax + 1, dtype=np.float64))
    pts = np.unique(np.concatenate(fams))
    return Breakpoints(eps, pts)


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order."""
    if order not in _GL_CACHE:
        _GL_CACHE[order] = leggauss(order)
    return _GL_CACHE[order]


def _vectorize(fn: Callable) -> Callable:
    probe = np.array([0.5, 0.75])
    try:
        out = np.asarray(fn(probe))
        if out.shape == probe.shape:
            return fn
    except Exception:
        pass
    ufn = np.frompyfunc(fn, 1, 1)

    def wrapped(x):
        return ufn(x).astype(np.complex128)

    return wrapped


def _integrate_report(
    integrand: Callable,
    spec: BeurlingSpec,
    s_weight=None,
    tol: float = 1e-8,
    budget: int | None = None,
    bound_m: float | None = None,
    eps_override: float | None = None,
    tail_bound_override: float | None = None,
    max_h: float = 1.0 / 16.0,
):
    """Core of integrate_piecewise; returns (value: complex, err_bound, evals).

    eps_override/tail_bound_override let callers with a sharper (0, eps) tail
    bound than |integrand| <= bound_m (e.g. an integrand vanishing at 0)
    supply their own cut and its certified tail contribution.
    """
    tol = check_tol(tol)
    budget = check_count(budget, "budget") if budget is not None else _eval_budget()
    big_m = bound_m if bound_m is not None else 1.0 + spec.sum_abs_a
    if s_weight is None:
        s = None
        sigma = 1.0
        eps = tol / (2.0 * big_m)
    else:
        s = as_complex(s_weight)
        sigma = s.real
        if sigma <= 0:
            raise DomainError("weight requires Re(s) > 0")
        eps = (sigma * tol / (2.0 * big_m)) ** (1.0 / sigma)
    if eps_override is not None:
        eps = eps_override
        tail_bound = tail_bound_override if tail_bound_override is not None else tol / 2.0
    else:
        tail_bound = big_m * eps if s is None else big_m * eps**sigma / sigma
    if spec.terms:
        eps = min(eps, 0.5 * spec.min_theta)
    eps = min(eps, 0.5)
    if eps <= 0:
        raise ToleranceNotMet(
            f"the x-space cut (sigma tol / 2M)^(1/sigma) underflows to 0 at "
            f"sigma = {sigma:.3g}, tol = {tol:.3g}"
        )
    # each theta alone puts floor(theta/eps) distinct breakpoints in [eps, 1]
    min_pieces = max((float(t.theta) // eps for t in spec.terms), default=1.0)
    if min_pieces * 36 > budget:
        raise ToleranceNotMet(
            f"piece count {min_pieces:.6g} or more exceeds the evaluation budget {budget}"
        )

    fn = _vectorize(integrand)
    bps = breakpoints(spec, eps) if spec.terms else Breakpoints(eps, np.array([1.0]))
    edges = np.concatenate(([eps], bps.points))
    # oscillation control for weights/integrands that vary inside a piece
    refined = [edges[0]]
    for right in edges[1:]:
        left = refined[-1]
        if right - left > max_h:
            k = int(math.ceil((right - left) / max_h))
            refined.extend(left + (right - left) * np.arange(1, k + 1) / k)
        else:
            refined.append(right)
    edges = np.array(refined)

    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    evals = 0

    def piece_vals(a: np.ndarray, b: np.ndarray, order: int):
        x_gl, w_gl = _gl(order)
        half = 0.5 * (b - a)
        mid = 0.5 * (b + a)
        xs = mid[:, None] + half[:, None] * x_gl[None, :]
        flat = xs.ravel()
        fv = np.asarray(fn(flat), dtype=np.complex128)
        if s is not None:
            fv = fv * np.exp((s - 1.0) * np.log(flat))
        fv = fv.reshape(xs.shape)
        return half * np.sum(w_gl[None, :] * fv, axis=1)

    if len(lo) * 36 > budget:
        raise ToleranceNotMet(
            f"piece count {len(lo)} exceeds the evaluation budget {budget}"
        )
    v12 = piece_vals(lo, hi, 12)
    v24 = piece_vals(lo, hi, 24)
    evals += len(lo) * 36
    ests = np.abs(v24 - v12)
    vals = v24.copy()

    order = np.argsort(-ests)
    lo, hi, vals, ests = lo[order], hi[order], vals[order], ests[order]
    lo_l, hi_l, val_l, est_l = list(lo), list(hi), list(vals), list(ests)
    while sum(est_l) > tol / 2.0 and len(lo_l) > 0:
        if evals + 72 > budget:
            raise ToleranceNotMet(
                f"quadrature error {sum(est_l) + tail_bound:.3g} still above tol "
                f"{tol:.3g} at the evaluation budget {budget}"
            )
        i = int(np.argmax(est_l))
        a, b = lo_l[i], hi_l[i]
        m = 0.5 * (a + b)
        aa = np.array([a, m])
        bb = np.array([m, b])
        nv12 = piece_vals(aa, bb, 12)
        nv24 = piece_vals(aa, bb, 24)
        evals += 72
        lo_l.pop(i), hi_l.pop(i), val_l.pop(i), est_l.pop(i)
        lo_l.extend(aa), hi_l.extend(bb)
        val_l.extend(nv24), est_l.extend(np.abs(nv24 - nv12))
    value = complex(np.sum(np.array(val_l, dtype=np.complex128)))
    err = float(sum(est_l)) + tail_bound + 64 * _periodic._F64_EPS * float(np.sum(np.abs(val_l)))
    return value, err, evals


def integrate_piecewise(
    integrand: Callable,
    spec: BeurlingSpec,
    s_weight=None,
    tol: float = 1e-8,
    budget: int | None = None,
) -> PrecisionComplex:
    """int_0^1 integrand(x) x^{s-1} dx to absolute error <= tol.

    The (0, eps) tail is certified by the bound |integrand| <= 1 + sum|a_k|
    (eps is chosen so that contribution is < tol/2 -- the caller's integrand
    must respect that bound, as eval_F does); [eps, 1] is split at the
    breakpoints of the spec and integrated by vectorized Gauss-Legendre at
    orders 12/24 with adaptive bisection of the worst pieces.

    Raises ToleranceNotMet when the certified error cannot be driven below
    tol within the evaluation budget (default 10^7 points, override with the
    BEURLING_MAX_EVALS environment variable or the budget argument).
    """
    value, err, _ = _integrate_report(integrand, spec, s_weight, tol, budget)
    if err > tol:
        raise ToleranceNotMet(f"certified error {err:.3g} exceeds tol {tol:.3g}")
    bits = bits_for_tol(tol)
    return PrecisionComplex.from_complex(value, bits)


# ---------------------------------------------------------------------------
# Mellin transform and norm by quadrature
# ---------------------------------------------------------------------------


def mellin_numeric(spec: BeurlingSpec, s, tol: float = 1e-10) -> MellinValue:
    """M_{F_N}(s) = int_0^1 F_N(x) x^{s-1} dx by certified quadrature.

    For exact-rational specs the u = 1/x substitution makes the integrand
    periodic piecewise-linear and the integral is evaluated with an exact
    head plus a Hurwitz-zeta tail (`_periodic.u_integral_mp`; certificate =
    a priori truncation bound of the kernel expansion + roundoff).
    Otherwise falls back to the literal x-space strategy, whose reachable
    tolerance is limited by the (0, eps) tail bound.
    """
    s_c = as_complex(s)
    if s_c.real <= 0:
        raise DomainError(f"mellin_numeric requires Re(s) > 0, got {s_c.real}")
    bits = bits_for_tol(tol)
    dec = spec.decomposition
    if dec is not None:
        # r = s + 1 formed in mp: in float64 the sum rounds for non-dyadic s
        with workprec(bits + 32):
            r = mpmath.mpc(s_c) + 1
        val, err = _periodic.u_integral_mp(spec.linear_pieces, dec.period, r, bits + 32)
        err_f = float(err)
        value = PrecisionComplex.from_mpc(val, bits + 32)
    else:
        val, err_f, _ = _integrate_report(lambda x: _eval_F_vec(spec, x), spec, s_c, tol)
        value = PrecisionComplex.from_complex(val, bits)
    if err_f > tol:
        raise ToleranceNotMet(f"certified error {err_f:.3g} exceeds tol {tol:.3g}")
    return MellinValue(
        s=PrecisionComplex.from_complex(s_c, bits),
        value=value,
        provenance="quadrature",
        error_bound=PrecisionReal.from_float(err_f, 64),
    )


def norm_numeric(spec: BeurlingSpec, tol: float = 1e-10) -> PrecisionReal:
    """L2(0,1) norm of F_N = f_N + 1, by certified piecewise quadrature."""
    bits = bits_for_tol(tol)
    dec = spec.decomposition
    if dec is not None:
        pieces = _periodic.f_abs2_pieces(spec.linear_pieces)
        val, err = _periodic.u_integral_mp(pieces, dec.period, 2, bits + 32)
        err_f = float(err)
    else:
        val, err_f, _ = _integrate_report(
            lambda x: np.abs(_eval_F_vec(spec, x)) ** 2 + 0j,
            spec,
            None,
            tol * 0.9,
            bound_m=(1.0 + spec.sum_abs_a) ** 2,
        )
    sq = max(float(val.real), 0.0)
    # |sqrt(I+e) - sqrt(I)| <= e / (2 sqrt(I)) when I dominates, else sqrt(e)
    err_norm = err_f / (2.0 * math.sqrt(sq)) if sq > 4.0 * err_f else math.sqrt(err_f)
    if err_norm > tol:
        raise ToleranceNotMet(
            f"certified norm error {err_norm:.3g} exceeds tol {tol:.3g}"
        )
    with workprec(bits + 16):
        return PrecisionReal(mpmath.sqrt(abs(val.real)), bits + 16)


def _norm_oracle(spec: BeurlingSpec, tol: float):
    """(float norm_numeric at tol, tol) or, when tol cannot be certified, the
    same at 1e-6; (None, None) when neither can."""
    for try_tol in (tol, 1e-6):
        try:
            return float(norm_numeric(spec, try_tol)), try_tol
        except ToleranceNotMet:
            pass
    return None, None
