"""Hypothesis strategies and mp references shared by the certificate audits."""
import functools
from fractions import Fraction as Fr

import mpmath
from hypothesis import strategies as st

from beurling import BeurlingSpec, numerics


@functools.lru_cache(maxsize=None)
def hurwitz_mp(q: int) -> dict:
    """{2m: (zeta(2m, q), err)} for 2m = 2..24 from one hurwitz_zeta_row at
    64 bits with weights q^2m 2^40, which give relative guard bits: err is
    below 2^-104 zeta(2m, q)."""
    with mpmath.workprec(64):
        return numerics.hurwitz_zeta_row({s: mpmath.mpf(q) ** s * 2**40 for s in range(2, 25, 2)}, q)


def reduced(ths) -> tuple:
    """(theta_1, a, b), the arguments of `optimizer._closed_entry` and
    `_f64_entries` for one or two thetas: theta_1 the least and a/b =
    theta_2/theta_1 in lowest terms, a = b = 0 for one theta."""
    t1 = min(ths)
    if len(ths) == 1:
        return t1, 0, 0
    r = max(ths) / t1
    return t1, r.numerator, r.denominator


@st.composite
def exact_specs(draw, always_admissible=False):
    """1-3 terms, theta = p/q with q | 12 (period <= 12), coefficients
    p/q with small q, complex or real, admissible or not (always admissible
    with always_admissible)."""
    n = draw(st.integers(1, 3))
    denoms = draw(st.lists(st.sampled_from([1, 2, 3, 4, 6, 12]), min_size=n, max_size=n))
    thetas = [Fr(draw(st.integers(1, q)), q) for q in denoms]
    complex_a = draw(st.booleans())

    def coef():
        return Fr(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))

    a = [(coef(), coef() if complex_a else Fr(0)) for _ in thetas]
    if always_admissible or draw(st.booleans()):
        # solve the last coefficient from sum a_k theta_k = 0
        re = sum(x * t for (x, _), t in zip(a[:-1], thetas))
        im = sum(y * t for (_, y), t in zip(a[:-1], thetas))
        a[-1] = (-re / thetas[-1], -im / thetas[-1])
    return BeurlingSpec(list(zip(a, thetas)))


@st.composite
def unit_fraction_specs(draw, min_denominator=1):
    """Admissible unit-fraction specs with |a_k| <= 1 and denominators b_k in
    min_denominator..12: free a_1..a_{K-1}, the last coefficient solves
    sum a_k / b_k = 0, then all are scaled into [-1, 1]."""
    bs = draw(st.lists(st.integers(min_denominator, 12), min_size=2, max_size=4))
    a = [Fr(draw(st.integers(-8, 8)), 8) for _ in bs[:-1]]
    a.append(-bs[-1] * sum(ak / bk for ak, bk in zip(a, bs)))
    scale = max(1, max(abs(ak) for ak in a))
    return BeurlingSpec([(ak / scale, Fr(1, b)) for ak, b in zip(a, bs)])
