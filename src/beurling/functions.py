"""Beurling functions f_N(x) = sum_k a_k rho(theta_k / x) and their integrals.

BeurlingSpec keeps every coefficient and theta as an exact Fraction pair
internally (floats are binary rationals, so nothing is lost), which lets the
admissibility constraint sum a_k theta_k = 0 be decided exactly rather than
to a tolerance. JSON accepts plain numbers, "p/q" strings (an extension for
values like 3/5 that no float represents), or a unit-fraction denominator b.
`_to_theta` parses every theta, the optimizer's as well as the spec's.

The integrals `mellin_numeric` and `norm_numeric` run on the u = 1/x side
through `_periodic`, the one integrator; a spec whose thetas have no period
within its caps (the float 0.1 has period 2^55) raises ToleranceNotMet.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import mpmath

from . import _periodic
from .errors import DomainError, ToleranceNotMet
from .mellin import MellinValue
from .numerics import (
    PrecisionComplex,
    PrecisionReal,
    as_complex,
    bits_for_tol,
    check_cert,
    check_count,
    workprec,
)

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
    def cache_key(self) -> tuple:
        return tuple((t.a_re, t.a_im, t.theta) for t in self.terms)

    @cached_property
    def decomposition(self):
        """`_periodic.decompose`: ToleranceNotMet past its period caps."""
        return _periodic.decompose(self)

    @cached_property
    def linear_pieces(self):
        """F(1/u) as degree-1 pieces over one period (`_periodic.f_linear_pieces`)."""
        return _periodic.f_linear_pieces(self, self.decomposition)

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


# ---------------------------------------------------------------------------
# Mellin transform and norm by quadrature
# ---------------------------------------------------------------------------


def mellin_numeric(spec: BeurlingSpec, s, tol: float = 1e-10) -> MellinValue:
    """M_{F_N}(s) = int_0^1 F_N(x) x^{s-1} dx by certified quadrature.

    The u = 1/x substitution makes the integrand periodic piecewise-linear,
    and the integral is an exact head plus a Hurwitz-zeta tail
    (`_periodic.u_integral_mp`). The certificate is the a priori truncation
    bound of the kernel expansion plus roundoff, rounded up to the stored
    double. ToleranceNotMet when the thetas have no period within the caps
    of `_periodic` or the certificate exceeds tol.
    """
    s_c = as_complex(s)
    if s_c.real <= 0:
        raise DomainError(f"mellin_numeric requires Re(s) > 0, got {s_c.real}")
    bits = bits_for_tol(tol)
    # r = s + 1 formed in mp: in float64 the sum rounds for non-dyadic s
    with workprec(bits + 32):
        r = mpmath.mpc(s_c) + 1
    val, err = _periodic.u_integral_mp(spec.linear_pieces, spec.decomposition.period, r, bits + 32)
    err_f = check_cert(err, tol, "M(s) by quadrature")
    return MellinValue(
        s=PrecisionComplex.from_complex(s_c, bits),
        value=PrecisionComplex.from_mpc(val, bits + 32),
        provenance="quadrature",
        error_bound=PrecisionReal.from_float(err_f, 64),
    )


def norm_numeric(spec: BeurlingSpec, tol: float = 1e-10) -> PrecisionReal:
    """L2(0,1) norm of F_N = f_N + 1: the square root of the u-integral of
    |F(1/u)|^2 u^-2 (`_periodic.u_integral_mp`). ToleranceNotMet when the
    thetas have no period within the caps of `_periodic` or the certified
    norm error exceeds tol."""
    bits = bits_for_tol(tol)
    pieces = _periodic.f_abs2_pieces(spec.linear_pieces)
    p = bits + 32
    val, err = _periodic.u_integral_mp(pieces, spec.decomposition.period, 2, p)
    with workprec(p):
        sq, e = mpmath.mpf(val.real), mpmath.mpf(err)
        # the square I >= 0 lies within e of sq, so |sqrt(sq) - sqrt(I)| is
        # at most e / (sqrt(sq) + sqrt(sq - e)) when sq > e, else sqrt(e);
        # 1 + 2^{4-p} covers the bound's five roundings and the product's
        bound = e / (mpmath.sqrt(sq) + mpmath.sqrt(sq - e)) if sq > e else mpmath.sqrt(e)
        err_norm = bound * (1 + mpmath.ldexp(1, 4 - p))
    check_cert(err_norm, tol, "the L2 norm")
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
