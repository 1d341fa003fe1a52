"""fourier: the four coefficient routes, their certificates, the remainder
bound (including the documented regression where its hypothesis-free use
fails), telescoping partial sums, the periodic engine's head spans and
kernel order, batching, and CSV output."""
import csv
import io
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beurling import (
    BeurlingSpec,
    ConstraintError,
    DomainError,
    HypothesisError,
    ToleranceNotMet,
    batch_cosine_f64,
    c_batch,
    c_cosine_series,
    c_direct,
    c_even_mellin_exact_L,
    c_even_mellin_limit,
    coefficients_csv,
    cosine_coeffs,
    power_sum_exact,
    remainder_bound,
    telescope_partial,
)
from beurling import _periodic, fourier
from beurling._periodic import sine_integral_mp
from beurling.numerics import _gamma, bits_for_tol, to_mp
from strategies import exact_specs, hurwitz_mp, unit_fraction_specs

# Frozen oracles: mpmath direct integration of 2 int_0^1 F(x) sin(n pi x) dx
# at 60 digits, performed outside this package.
ADM1_C = {
    1: 0.43261019341962154,
    2: 0.34889559474168541,
    3: -0.0078616569019665516,
    4: -0.076822553172769661,
    5: 0.15251207528674909,
}
SPEC_B_C1 = 0.85292486907739207
# {(1, 1/2), (-1, 1/3)} is not admissible: c(n), n = 1..4, by x-space
# Gauss-Legendre quadrature at tol 1e-8 (estimated error 2.5e-9)
NON_ADMISSIBLE = BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3))])
NON_ADMISSIBLE_X = (1.3012969798232952, -0.170340237040151, 0.5923610875563045, 0.11185197321447879)
THETA1_B = BeurlingSpec([(Fr(1, 2), 1), (-1, Fr(1, 2))])
THETA1_C = BeurlingSpec([(Fr(1, 3), 1), (-1, Fr(1, 3))])
# complex coefficients on theta = 1/2, 1/3, 2/5: period 30
CX_SPEC = BeurlingSpec(
    [((Fr(1, 2), Fr(1, 3)), Fr(1, 2)), ((Fr(-1, 4), Fr(1, 5)), Fr(1, 3)), (Fr(-2, 3), Fr(2, 5))]
)

# rows n <= N0 of batch_cosine_f64 are summed directly, rows above by NUFFT
N0 = 256
# CX_SPEC's first two terms with the third coefficient solved for
# admissibility, and SPEC_A with a zero-coefficient term added
CX_ADM = BeurlingSpec(
    [((Fr(1, 2), Fr(1, 3)), Fr(1, 2)), ((Fr(-1, 4), Fr(1, 5)), Fr(1, 3)), ((Fr(-5, 12), Fr(-7, 12)), Fr(2, 5))]
)
ZERO_COEF = BeurlingSpec([(1, Fr(1, 2)), (0, Fr(1, 5)), (-1, Fr(1, 3)), (-1, Fr(1, 6))])


def _sine_integral_oracle(spec, n, bits):
    """int_1^inf F(1/u) sin(n pi/u) u^-2 du without the kernel expansion of
    the package: the head to U by the antiderivatives cos(n pi/u)/(n pi) and
    -Si(n pi/u), and past U the series sum_m b_m u^-(2m+3) of the sine,
    each term piece by piece as B^(1-r) int (c0 + c1 (B a - U)) zeta(r, a) da
    in closed form through zeta(r-1, a), zeta(r-2, a) and digamma."""
    B = spec.decomposition.period
    pieces = spec.linear_pieces
    U = B * (math.ceil(max(64, 2 * math.pi * n) / B) + 1)

    def mp(x):
        return mpmath.mpf(x.numerator) / x.denominator

    def F1(s, a):  # an antiderivative in a of zeta(s, a)
        return mpmath.psi(0, a) if s == 2 else -mpmath.zeta(s - 1, a) / (s - 1)

    with mpmath.workprec(bits + 200):
        npi = n * mpmath.pi
        cs = [
            (mpmath.mpc(mp(c0[0]), mp(c0[1])), mpmath.mpc(mp(c1[0]), mp(c1[1])))
            for _, _, (c0, c1) in pieces
        ]
        total = mpmath.mpc(0)
        for off in range(0, U, B):
            for (lo, hi, _), (c0, c1) in zip(pieces, cs):
                a, b = max(mp(lo) + off, mpmath.mpf(1)), mp(hi) + off
                if b > a:
                    total += (c0 - c1 * off) * (mpmath.cos(npi / b) - mpmath.cos(npi / a)) / npi
                    total -= c1 * (mpmath.si(npi / b) - mpmath.si(npi / a))
        m, b_m = 0, npi
        while True:
            r = 2 * m + 3
            term = mpmath.mpc(0)
            for (lo, hi, _), (c0, c1) in zip(pieces, cs):
                for a, sign in (((U + mp(hi)) / B, 1), ((U + mp(lo)) / B, -1)):
                    z1 = F1(r, a)
                    z2 = a * F1(r, a) + F1(r - 1, a) / (r - 1)
                    term += sign * ((c0 - c1 * U) * z1 + c1 * B * z2)
            term *= b_m * mpmath.power(B, 1 - r)
            total += term
            if m >= 2 and abs(term) < mpmath.mpf(2) ** (-bits - 20):
                return total
            m += 1
            b_m *= -npi * npi / ((2 * m) * (2 * m + 1))


class TestDirectRoute:
    def test_adm1_oracles(self, adm1):
        for n, ref in ADM1_C.items():
            fc = c_direct(adm1, n, tol=1e-13)
            assert fc.method == "direct"
            assert abs(complex(fc.value).real - ref) < 1e-13
            assert abs(complex(fc.value).imag) < 1e-13

    def test_spec_b_oracle(self, theta1_b):
        fc = c_direct(theta1_b, 1, tol=1e-13)
        assert abs(complex(fc.value).real - SPEC_B_C1) < 1e-13

    def test_empty_spec_closed_form(self, empty_spec):
        # F = 1: c(n) = 2 (1 - cos n pi) / (n pi) = 4/(n pi) odd, 0 even
        for n in range(1, 13):
            fc = c_direct(empty_spec, n, tol=1e-13)
            ref = 4 / (n * math.pi) if n % 2 else 0.0
            assert abs(complex(fc.value).real - ref) < 1e-13
        for n in (1, 2, 7, 300):
            fc = c_direct(empty_spec, n, tol=1e-30)
            with mpmath.workprec(200):
                ref = 4 / (n * mpmath.pi) if n % 2 else 0
                assert abs(fc.value.re.value - ref) <= fc.error_certificate.value

    def test_refuses_past_the_period_cap(self):
        # the float 0.3 has period 2^54; a loose tol does not help
        with pytest.raises(ToleranceNotMet, match="period"):
            c_direct(BeurlingSpec([(1, 0.3), (-0.3, 1)]), 1, 1e-4)

    def test_stored_certificate_rounds_up(self, spec_a):
        # the stored double is >= the mp certificate; rounding it to nearest
        # left 6 of these 10 rows below it
        tol = 1e-10
        bits = bits_for_tol(tol) + 32
        for n in range(1, 11):
            [(val, err)] = sine_integral_mp(
                spec_a.linear_pieces, spec_a.decomposition.period, [n], bits
            )
            with mpmath.workprec(bits):
                cert = 2 * err + abs(2 * val) * mpmath.mpf(2) ** -bits
            assert float(c_direct(spec_a, n, tol).error_certificate) >= cert, n

    def test_certificate_honored(self, spec_a):
        hi = c_direct(spec_a, 4, tol=1e-16)
        lo = c_direct(spec_a, 4, tol=1e-8)
        gap = abs(complex(hi.value) - complex(lo.value))
        assert gap <= float(lo.error_certificate) + 1e-16

    @settings(max_examples=10, deadline=None)
    @given(
        spec=exact_specs(),
        n=st.one_of(st.integers(1, 64), st.integers(1, 1000)),
        tol=st.sampled_from([1e-12, 1e-25]),
    )
    # before the shared kernel tail: 7.5e-27 off against a certificate of 2.2e-28
    @example(spec=THETA1_B, n=60, tol=1e-12)
    @example(spec=NON_ADMISSIBLE, n=1000, tol=1e-25)
    def test_certificate_bounds_the_error(self, spec, n, tol):
        # |value - the same route at 3x the working bits| <= certificate,
        # and for admissible specs the independent cosine route agrees
        # within both certificates
        fc = c_direct(spec, n, tol)
        bits = 3 * (bits_for_tol(tol) + 32)
        [(ref, _)] = sine_integral_mp(spec.linear_pieces, spec.decomposition.period, [n], bits)
        with mpmath.workprec(bits):
            assert abs(fc.value.to_mpc() - 2 * ref) <= fc.error_certificate.value
            if spec.admissible:
                cs = c_cosine_series(spec, n, tol)
                gap = abs(fc.value.to_mpc() - cs.value.to_mpc())
                assert gap <= fc.error_certificate.value + cs.error_certificate.value

    @pytest.mark.parametrize(
        "spec, n",
        [
            (NON_ADMISSIBLE, 7),
            (NON_ADMISSIBLE, 300),
            (BeurlingSpec([((Fr(1, 2), Fr(1, 3)), Fr(1, 3)), (-1, Fr(1, 2))]), 2),
        ],
        ids=["NA-7", "NA-300", "complex-2"],
    )
    def test_against_closed_form_tail_oracle(self, spec, n):
        # degree-1 pieces against an oracle without the kernel expansion
        fc = c_direct(spec, n, tol=1e-25)
        ref = _sine_integral_oracle(spec, n, 2 * fc.value.precision_bits)
        with mpmath.workprec(2 * fc.value.precision_bits):
            assert abs(fc.value.to_mpc() - 2 * ref) <= fc.error_certificate.value

    def test_non_admissible_periodic(self):
        for n, ref in enumerate(NON_ADMISSIBLE_X, start=1):
            fc = c_direct(NON_ADMISSIBLE, n)
            assert float(fc.error_certificate) < 1e-20
            assert abs(complex(fc.value).real - ref) <= float(fc.error_certificate) + 2.5e-9

    def test_sine_integral_takes_degree_at_most_1(self, spec_a):
        pieces = [(lo, hi, (c0, c1, Fr(1))) for lo, hi, (c0, c1) in spec_a.linear_pieces]
        with pytest.raises(DomainError):
            sine_integral_mp(pieces, spec_a.decomposition.period, [1], 64)

    def test_domain(self, adm1):
        for bad in (0, -3, 1.5):
            with pytest.raises(DomainError):
                c_direct(adm1, bad)
        with pytest.raises(DomainError):
            c_direct(adm1, 1, tol=0.0)


class TestDirectRows:
    # rows n <= 10 of SPEC_A (B = 6) share the head end U = 66, n = 11 has
    # U = 72, n = 12 U = 78 and n = 40 U = 252; the seeded spec (B = 12)
    # puts n <= 11 at U = 72
    NS = [3, 1, 12, 3, 10, 40, 2, 11]

    @pytest.mark.parametrize("which", ["SPEC_A", "seeded"])
    def test_batch_equals_single_rows(self, spec_a, which):
        # value and certificate of each row depend only on (spec, n, tol),
        # and none is below the gap to the same route at 3x the bits
        spec = spec_a if which == "SPEC_A" else _seeded_unit_spec(3)
        tol = 1e-12
        batch = c_batch(spec, self.NS, "direct", tol)
        assert [fc.n for fc in batch] == self.NS
        bits = 3 * (bits_for_tol(tol) + 32)
        refs = sine_integral_mp(spec.linear_pieces, spec.decomposition.period, self.NS, bits)
        for fc, (ref, _) in zip(batch, refs):
            one = c_direct(spec, fc.n, tol)
            assert fc.value == one.value, fc.n
            assert fc.error_certificate == one.error_certificate, fc.n
            with mpmath.workprec(bits):
                assert abs(fc.value.to_mpc() - 2 * ref) <= fc.error_certificate.value, fc.n

    def test_tail_table_built_once_per_U(self, spec_a, monkeypatch):
        # rows that share U share one tail table and one head span list; a
        # lone row (n = 11, 12) walks its spans as they are made
        calls = {"_sine_table": [], "_head_spans": []}
        for name, seen in calls.items():
            real = getattr(_periodic, name)

            def counted(pieces, B, U, *rest, real=real, seen=seen):
                seen.append(U)
                return real(pieces, B, U, *rest)

            monkeypatch.setattr(_periodic, name, counted)
        kept = []
        real_head = _periodic._head

        def head(spans, phis):
            kept.append(isinstance(spans, list))
            return real_head(spans, phis)

        monkeypatch.setattr(_periodic, "_head", head)
        c_batch(spec_a, list(range(1, 13)) + [40, 40, 1], "direct", 1e-10)
        assert calls == {"_sine_table": [66, 72, 78, 252], "_head_spans": [66, 72, 78, 252]}
        assert kept == [True] * 10 + [False, False] + [True] * 3

    @pytest.mark.parametrize("which", ["SPEC_A-sine", "CX-sine", "SPEC_A-abs2"])
    def test_head_equals_per_row_span_walk(self, spec_a, which):
        # the spans give the head of the walk that rebuilt each span per row,
        # bit for bit: lo shared with the previous span, skipped spans and
        # zero orders included
        spec = spec_a if which.startswith("SPEC_A") else CX_SPEC
        pieces = spec.linear_pieces
        if which.endswith("abs2"):
            pieces = _periodic.f_abs2_pieces(pieces)
        B = spec.decomposition.period
        U = _periodic._choose_U(B)
        with mpmath.workprec(120):
            npi = 7 * mpmath.pi

            def phis(u):
                x = npi / u
                return [(mpmath.cos(x) / npi, (1 + 4 * x) / npi), (-mpmath.si(x), 2 + 4 * x),
                        (u * mpmath.sin(x), u)]

            got = _periodic._head(_periodic._head_spans(pieces, B, U), phis)
            want = _head_per_row(pieces, B, U, phis)
        assert [v._mpc_ if isinstance(v, mpmath.mpc) else v._mpf_ for v in got] == [
            v._mpc_ if isinstance(v, mpmath.mpc) else v._mpf_ for v in want
        ]


def _head_per_row(pieces, B, U, phis):
    """The exact head as summed before the span list: every span's bounds
    and coefficients rebuilt from the Fraction pieces for each row."""
    coeffs = [
        [to_mp(c) for c in cs] + [mpmath.mpf(0)] * (3 - len(cs)) for _, _, cs in pieces
    ]
    coeffs_abs = [[abs(c) for c in cs] for cs in coeffs]
    head, absacc = mpmath.mpc(0), mpmath.mpf(0)
    prev_u = prev = None
    for off in range(0, U, B):
        for (lo, hi, _), (c0, c1, c2), (a0, a1, a2) in zip(pieces, coeffs, coeffs_abs):
            lo_u, hi_u = max(Fr(off) + lo, Fr(1)), Fr(off) + hi
            ks = (c0 - c1 * off + c2 * off * off, c1 - 2 * c2 * off, c2)
            mags = (a0 + (a1 + a2 * off) * off, a1 + 2 * a2 * off, a2)
            if hi_u <= lo_u or not any(mags):
                continue
            at_lo = prev if lo_u == prev_u else phis(to_mp(lo_u))
            at_hi = phis(to_mp(hi_u))
            prev_u, prev = hi_u, at_hi
            for k, mag, p_hi, p_lo in zip(ks, mags, at_hi, at_lo):
                if mag != 0:
                    head += k * (p_hi[0] - p_lo[0])
                    absacc += mag * (p_hi[1] + p_lo[1])
    return head, absacc


def _kernel_order_loop(r_abs, sigma, c, bits):
    """The kernel order as an mp loop over k, one step of e_k/e_0 and of
    the running product at a time: the oracle of the float plan."""
    floor = mpmath.mpf(2) ** (-bits)
    e = mpmath.mpf(1)
    a = a_max = mpmath.mpf(1)
    for k in range(_periodic._KERNEL_TERMS + 1):
        rho = (r_abs + k) / (2 * c * (k + 1))
        if e <= (1 - rho) * floor:
            return k, e / (1 - rho), a_max * c**sigma / (1 + c / (sigma - 1))
        e *= rho * (1 + c / (sigma + k)) / (1 + c / (sigma + k - 1))
        a *= (r_abs + k) / (2 * (k + 1))
        a_max = max(a_max, a)
    return None


class TestKernelOrder:
    @pytest.mark.parametrize("bits", [64, 113, 200, 300])
    def test_plan_matches_mp_loop(self, bits):
        # the sine exponents r = 3..61 at c = 2.5..30.5, and r with
        # Re r = 1.0001..20 and Im r = 0, 2, 15 as u_integral_mp passes
        # them; the same K and weight, and q to rounding
        with mpmath.workprec(bits):
            cases = [
                (mpmath.mpf(r), mpmath.mpf(r), mpmath.mpf(c2) / 2)
                for r in range(3, 62, 2)
                for c2 in (5, 7, 13, 21, 37, 61)
            ]
            for sigma in ("1.0001", "1.5", "3", "7.25", "20"):
                for tau in (0, 2, 15):
                    r = mpmath.mpc(sigma, tau)
                    cases += [(abs(r), r.real, mpmath.mpf(c2) / 2) for c2 in (5, 9, 23, 61)]
            reached = 0
            for r_abs, sigma, c in cases:
                want = _kernel_order_loop(r_abs, sigma, c, bits)
                if want is None:
                    with pytest.raises(ToleranceNotMet):
                        _periodic._kernel_order(r_abs, sigma, c, bits)
                    continue
                reached += 1
                K, q, weight = _periodic._kernel_order(r_abs, sigma, c, bits)
                assert (K, weight) == (want[0], want[2]), (r_abs, sigma, c)
                assert abs(q - want[1]) <= want[1] * mpmath.mpf(2) ** (16 - bits), (r_abs, sigma, c)
                assert q <= mpmath.mpf(2) ** -bits * (1 + mpmath.mpf(2) ** -30)
            assert reached > len(cases) // 2


class TestCosineRoute:
    def test_matches_direct(self, adm1, spec_a):
        for spec in (adm1, spec_a):
            for n in (1, 2, 3, 7):
                a = c_direct(spec, n, tol=1e-12)
                b = c_cosine_series(spec, n, tol=1e-12)
                budget = float(a.error_certificate) + float(b.error_certificate)
                assert abs(complex(a.value) - complex(b.value)) <= budget

    @pytest.mark.parametrize("n", [37, 300, 1000])
    def test_certificate_at_large_n(self, n):
        # the Hurwitz tail once took zeta(2m, J+1) without guard bits: at
        # n = 1000 the certificate was 1.8e-28 and the error 1.2e-23
        spec = BeurlingSpec([(Fr(5, 6), Fr(1, 6)), (Fr(3, 2), Fr(1, 2)), (Fr(-32, 3), Fr(1, 12))])
        fc = c_cosine_series(spec, n, tol=1e-12)
        ref = c_cosine_series(spec, n, tol=1e-40)
        with mpmath.workprec(200):
            gap = abs(fc.value.to_mpc() - ref.value.to_mpc())
            assert gap <= fc.error_certificate.value + ref.error_certificate.value

    @settings(max_examples=10, deadline=None)
    @given(
        spec=unit_fraction_specs(),
        n=st.integers(1, 1000),
        tol=st.sampled_from([1e-12, 1e-25]),
    )
    def test_certificate_bounds_the_error(self, spec, n, tol):
        fc = c_cosine_series(spec, n, tol)
        ref = c_cosine_series(spec, n, tol**3)
        with mpmath.workprec(400):
            gap = abs(fc.value.to_mpc() - ref.value.to_mpc())
            assert gap <= fc.error_certificate.value + ref.error_certificate.value

    def test_requires_admissible(self):
        with pytest.raises(ConstraintError):
            c_cosine_series(BeurlingSpec([(1, 1)]), 1)

    @settings(max_examples=20, deadline=None)
    @given(
        spec=unit_fraction_specs(),
        n=st.integers(1, 60),
        tol=st.sampled_from([1e-8, 1e-12, 1e-20]),
    )
    @example(spec=BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3)), (-1, Fr(1, 6))]), n=40, tol=1e-12)
    def test_certificate_bounds_the_gap_to_direct(self, spec, n, tol):
        # against c_direct at twice the bits, an independent route: a fault
        # shared by two calls of the cosine route cannot hide here
        fc = c_cosine_series(spec, n, tol)
        ref = c_direct(spec, n, tol**2)
        with mpmath.workprec(2 * fc.value.precision_bits):
            gap = abs(fc.value.to_mpc() - ref.value.to_mpc())
            assert gap <= fc.error_certificate.value + ref.error_certificate.value


class TestCosineRows:
    # at SPEC_A's thetas 1/2, 1/3, 1/6 every row n <= 12 has J_k + 1 = 65 for
    # each term; n = 40 adds a = 127 (theta 1/2) and 85 (1/3), and n = 60
    # a = 190 (1/2) and again 127 (1/3). The seeded spec (1/4, 1/6, 1/12)
    # stays at 65 but for n = 60 at theta 1/4 (a = 96)
    NS = [3, 1, 12, 3, 10, 40, 2, 11, 60, 40]

    @pytest.mark.parametrize("which", ["SPEC_A", "seeded"])
    def test_batch_equals_single_rows(self, spec_a, which):
        spec = spec_a if which == "SPEC_A" else _seeded_unit_spec(3)
        batch = c_batch(spec, self.NS, "cosine_series", 1e-12)
        assert [fc.n for fc in batch] == self.NS
        for fc in batch:
            one = c_cosine_series(spec, fc.n, 1e-12)
            assert fc.value == one.value, fc.n
            assert fc.error_certificate == one.error_certificate, fc.n
            assert fc.truncation_order == one.truncation_order, fc.n

    @pytest.mark.parametrize("which, tables", [("SPEC_A", [65, 85, 127, 190]), ("seeded", [65, 96])])
    def test_hurwitz_row_built_once_per_a(self, spec_a, which, tables, monkeypatch):
        spec = spec_a if which == "SPEC_A" else _seeded_unit_spec(3)
        calls = []
        real = fourier.hurwitz_zeta_row

        def counted(weights, a):
            calls.append(a)
            return real(weights, a)

        monkeypatch.setattr(fourier, "hurwitz_zeta_row", counted)
        c_batch(spec, self.NS, "cosine_series", 1e-10)
        assert calls == tables


# c(n) of SPEC_A by the direct and cosine routes: the value's real part as
# mpmath's (sign, mantissa, exponent) and the stored certificate as a hex
# double, frozen from the routes before their heads shared any work
FROZEN_ROWS = {
    ("direct", 1, 1e-12): ((0, 0x34D33C5B3027DDCD8180680F, -94), "0x1.94a6e2f9e4eccp-83"),
    ("direct", 7, 1e-12): ((0, 0x5F1D1867A99AB8708B27C1C3, -97), "0x1.dace80fb693ddp-84"),
    ("direct", 40, 1e-20): ((0, 0x8E2B4012563176AFDEA795F615F, -112), "0x1.7c2b0e8a36d8bp-103"),
    ("cosine_series", 1, 1e-12): (
        (0, 0x69A678B6604FBB9B0300D01DC1DD, -111), "0x1.2f1b409f56dd8p-102"),
    ("cosine_series", 7, 1e-12): (
        (0, 0xBE3A30CF533570E1164F83865611, -114), "0x1.126e9f34b5117p-99"),
    ("cosine_series", 40, 1e-20): (
        (0, 0x238AD004958C5DABF7A9E57D857C03193, -134), "0x1.8c325d27c14d3p-116"),
}


@pytest.mark.parametrize("method, n, tol", list(FROZEN_ROWS), ids=lambda v: str(v))
def test_rows_keep_their_bits(spec_a, method, n, tol):
    [fc] = c_batch(spec_a, [n], method, tol)
    (sign, man, exp), cert = FROZEN_ROWS[method, n, tol]
    assert fc.value.re.value._mpf_[:3] == (sign, man, exp)
    assert float(fc.error_certificate) == float.fromhex(cert)


def _seeded_unit_spec(seed):
    """Admissible spec on theta = 1/4, 1/6, 1/12 with |a_k| <= 1, drawn from seed."""
    rng = random.Random(seed)
    bs = (4, 6, 12)
    a = [Fr(rng.randint(-8, 8), 8) for _ in bs[:-1]]
    a.append(-bs[-1] * sum(ak / bk for ak, bk in zip(a, bs)))
    scale = max(1, max(abs(ak) for ak in a))
    return BeurlingSpec([(ak / scale, Fr(1, b)) for ak, b in zip(a, bs)])


class TestLimitRows:
    @pytest.mark.parametrize("which", ["SPEC_A", "seeded"])
    def test_batch_equals_single_rows(self, spec_a, which):
        # the batch shares one M(2l) table held at the bits of n = 32; each
        # single call builds its own at the bits of its n
        spec = spec_a if which == "SPEC_A" else _seeded_unit_spec(2)
        batch = c_batch(spec, range(1, 33), "even_mellin_limit", 1e-10)
        for n, fc in enumerate(batch, 1):
            one = c_even_mellin_limit(spec, n, 1e-10)
            assert fc.n == n
            assert complex(fc.value) == complex(one.value)
            assert float(fc.error_certificate) == float(one.error_certificate)
            assert fc.truncation_order == one.truncation_order

    def test_order_and_repeats_kept(self, spec_a):
        rows = c_batch(spec_a, [7, 2, 7], "even_mellin_limit", 1e-10)
        assert [fc.n for fc in rows] == [7, 2, 7]
        assert complex(rows[0].value) == complex(rows[2].value)
        assert complex(rows[1].value) == complex(c_even_mellin_limit(spec_a, 2, 1e-10).value)

    def test_m2l_built_once_per_l(self, spec_a, monkeypatch):
        # the limit rows n <= 32 share one M(2l) table; rebuilt per row, it
        # took 2,870 evaluations for these rows
        calls = []
        real = fourier._m2l_mp

        def counted(spec, l, bits):
            calls.append(l)
            return real(spec, l, bits)

        monkeypatch.setattr(fourier, "_m2l_mp", counted)
        c_batch(spec_a, range(1, 33), "even_mellin_limit")
        assert sorted(calls) == list(range(1, len(calls) + 1))
        assert len(calls) <= 200


class TestExactLRows:
    def test_m2l_built_once_per_l(self, spec_a, monkeypatch):
        # the exact-L rows share one M(2l) table; rebuilt per row, it took
        # 640 evaluations for these rows
        calls = []
        real = fourier._m2l_mp

        def counted(spec, l, bits):
            calls.append(l)
            return real(spec, l, bits)

        monkeypatch.setattr(fourier, "_m2l_mp", counted)
        batch = c_batch(spec_a, range(1, 21), "even_mellin_exact_L", 1e-10, L=32)
        assert calls == list(range(1, 33))
        # each row equals its single call, which builds its own table at the
        # bits of its n
        for n, fc in enumerate(batch, 1):
            one = c_even_mellin_exact_L(spec_a, n, 32, 1e-10)
            assert complex(fc.value) == complex(one.value)
            assert float(fc.error_certificate) == float(one.error_certificate)

    def test_rows_do_not_depend_on_call_history(self, spec_a):
        # each call reads zeta(2l) at its own bits: after a call at more bits
        # the row keeps the value it has in a fresh process
        c_batch(spec_a, [60], "even_mellin_limit", 1e-20)
        row = c_even_mellin_exact_L(spec_a, 6, 40, 1e-10)
        assert row.value.re.hi_str() == "-0.205942644204817559467456862249846955786303386581"


class TestEvenMellinRoutes:
    def test_limit_matches_direct(self, spec_a):
        for n in (1, 2, 5, 9):
            a = c_direct(spec_a, n, tol=1e-12)
            b = c_even_mellin_limit(spec_a, n, tol=1e-12)
            budget = float(a.error_certificate) + float(b.error_certificate)
            assert abs(complex(a.value) - complex(b.value)) <= budget

    @settings(max_examples=25, deadline=None)
    @given(
        spec=unit_fraction_specs(),
        n=st.integers(1, 50),
        tol=st.sampled_from([1e-8, 1e-12, 1e-20]),
    )
    # theta = 1 past the n <= 20 of the fixtures' other audits
    @example(spec=THETA1_B, n=60, tol=1e-12)
    @example(spec=THETA1_C, n=45, tol=1e-8)
    def test_limit_certificate_bounds_the_error(self, spec, n, tol):
        # against c_direct at twice the bits, within both certificates
        fc = c_even_mellin_limit(spec, n, tol)
        ref = c_direct(spec, n, tol**2)
        with mpmath.workprec(2 * fc.value.precision_bits):
            gap = abs(fc.value.to_mpc() - ref.value.to_mpc())
            assert gap <= fc.error_certificate.value + ref.error_certificate.value

    @settings(max_examples=20, deadline=None)
    @given(
        spec=unit_fraction_specs(min_denominator=2),
        n=st.integers(1, 12),
        L=st.integers(1, 80),
        tol=st.sampled_from([1e-8, 1e-12, 1e-20]),
    )
    def test_exact_L_certificate_bounds_the_error(self, spec, n, L, tol):
        # against c_direct at twice the bits, within both certificates
        fc = c_even_mellin_exact_L(spec, n, L, tol)
        ref = c_direct(spec, n, tol**2)
        with mpmath.workprec(2 * fc.value.precision_bits):
            gap = abs(fc.value.to_mpc() - ref.value.to_mpc())
            assert gap <= fc.error_certificate.value + ref.error_certificate.value

    def test_exact_L_certificate_honest(self, spec_a):
        for n, L in ((3, 16), (6, 32), (10, 32)):
            ref = c_direct(spec_a, n, tol=1e-16)
            v = c_even_mellin_exact_L(spec_a, n, L, tol=1e-14)
            assert v.truncation_order == L
            gap = abs(complex(ref.value) - complex(v.value))
            assert gap <= float(v.error_certificate) + 1e-16

    def test_hypothesis_errors(self, adm1):
        with pytest.raises(HypothesisError):
            c_even_mellin_limit(adm1, 1)  # |a| = 2 > 1
        with pytest.raises(HypothesisError):
            c_even_mellin_exact_L(adm1, 1, 8)
        with pytest.raises(ConstraintError):
            c_even_mellin_limit(BeurlingSpec([(1, 1)]), 1)

    def test_empty_spec_all_routes_agree(self, empty_spec):
        for n in range(1, 21):
            vals = [
                complex(c_direct(empty_spec, n, tol=1e-13).value),
                complex(c_cosine_series(empty_spec, n, tol=1e-13).value),
                complex(c_even_mellin_limit(empty_spec, n, tol=1e-13).value),
            ]
            spread = max(abs(u - v) for u in vals for v in vals)
            assert spread < 1e-12


class TestRemainderBound:
    def test_frozen_oracle(self, theta1_b):
        rb = remainder_bound(theta1_b, 1, 20)
        assert abs(float(rb) - 5.392669805971912e-10) < 1e-24

    def test_formula(self, spec_a):
        # ((n pi)^{L+1} / (L+1)!) zeta(L+1) sum theta^{L+1}
        n, L = 2, 9
        with mpmath.workprec(80):
            pw = sum(mpmath.mpf(t.theta.numerator) ** (L + 1)
                     / mpmath.mpf(t.theta.denominator) ** (L + 1)
                     for t in spec_a.terms)
            ref = (n * mpmath.pi) ** (L + 1) / mpmath.factorial(L + 1) * mpmath.zeta(L + 1) * pw
            assert abs(float(remainder_bound(spec_a, n, L)) - float(ref)) < 1e-15 * float(ref)

    def test_stored_double_rounds_up(self, spec_a):
        # the rows of the limit route at two tolerances; stored rounded to
        # nearest, 40 of these 64 doubles were below the bound
        for tol in (1e-10, 1e-14):
            for n in range(1, 33):
                L = fourier._limit_L_for(n, tol, spec_a)
                with mpmath.workprec(300):
                    pw = sum((mpmath.mpf(t.theta.numerator) / t.theta.denominator) ** (L + 1)
                             for t in spec_a.terms)
                    ref = (n * mpmath.pi) ** (L + 1) / mpmath.factorial(L + 1) * mpmath.zeta(L + 1) * pw
                    assert remainder_bound(spec_a, n, L).value >= ref, (n, tol)

    def test_requires_coeffs_le_1(self, adm1):
        with pytest.raises(HypothesisError):
            remainder_bound(adm1, 1, 8)

    def test_monotone_decreasing_past_n_pi_e(self, spec_a):
        n = 1
        start = math.ceil(n * math.pi * math.e) + 1
        vals = [float(remainder_bound(spec_a, n, L)) for L in range(start, start + 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self, spec_a):
        with pytest.raises(DomainError):
            remainder_bound(spec_a, 0, 4)
        with pytest.raises(DomainError):
            remainder_bound(spec_a, 1, 0)


class TestRemainderBoundLimitation:
    """When some theta = 1 the power sum theta^{L+1} does not decay and the
    exact-L remainder is middle-mode dominated, so the theta-power bound
    under-covers at moderate (n, L): on THETA1_B at (n, L) = (9, 8) the
    truncated series was 2.1e8 off against a bound of 3.2e7. The exact-L
    route therefore refuses theta = 1. The bound is asserted as a majorant
    on distinct-denominator specs.
    """

    @pytest.mark.parametrize("name", ["theta1_b", "theta1_c"])
    def test_theta1_exact_L_refused(self, request, name):
        spec = request.getfixturevalue(name)
        for n, L in ((1, 4), (9, 8), (10, 8)):
            with pytest.raises(HypothesisError, match="theta = 1"):
                c_even_mellin_exact_L(spec, n, L, tol=1e-13)
        # the remainder bound itself and the limit route still evaluate
        assert float(remainder_bound(spec, 9, 8)) > 0
        ref = c_direct(spec, 3, tol=1e-13)
        lim = c_even_mellin_limit(spec, 3, tol=1e-12)
        gap = abs(complex(ref.value) - complex(lim.value))
        assert gap <= float(ref.error_certificate) + float(lim.error_certificate)

    @pytest.mark.parametrize("n,L,min_ratio", [(9, 8, 4.0), (10, 8, 9.0)])
    def test_theta1_bound_exceeded(self, theta1_b, n, L, min_ratio):
        """The truncated exact-L series on THETA1_B, summed here at 80 digits,
        misses c(n) by more than min_ratio times remainder_bound: the reason
        the exact-L route refuses theta = 1 at these cells."""
        with pytest.raises(HypothesisError, match="theta = 1"):
            c_even_mellin_exact_L(theta1_b, n, L, tol=1e-13)
        with mpmath.workdps(80):
            npi = n * mpmath.pi
            acc = mpmath.mpc(4 / npi if n % 2 else 0)
            for l in range(1, L + 1):
                p_re, p_im = power_sum_exact(theta1_b, 2 * l)
                p2l = mpmath.mpc(
                    mpmath.mpf(p_re.numerator) / p_re.denominator,
                    mpmath.mpf(p_im.numerator) / p_im.denominator,
                )
                m2l = (1 - mpmath.zeta(2 * l) * p2l) / (2 * l)
                sign = (-1) ** l
                acc += sign * (2 / npi) * npi ** (2 * l) / mpmath.factorial(2 * l)
                acc -= sign * 2 * npi ** (2 * l - 1) / mpmath.factorial(2 * l - 1) * m2l
            truncated = complex(acc)
        ref = c_direct(theta1_b, n, tol=1e-13)
        gap = abs(complex(ref.value) - truncated)
        rb = float(remainder_bound(theta1_b, n, L))
        assert gap > min_ratio * rb

    def test_distinct_denoms_bound_holds(self, spec_a, spec_d, spec_e):
        for spec in (spec_a, spec_d, spec_e):
            for n in (3, 7, 10):
                for L in (4, 8):
                    ref = c_direct(spec, n, tol=1e-14)
                    v = c_even_mellin_exact_L(spec, n, L, tol=1e-12)
                    gap = abs(complex(ref.value) - complex(v.value))
                    assert gap <= float(remainder_bound(spec, n, L)) + 1e-14


class TestTelescope:
    def test_frozen_example(self):
        assert float(telescope_partial(1, 1)) == 0.75

    def test_closed_form(self):
        # 1 - (J+1)^{1-2l} + sum_{j=2}^{J+1} j^{-2l}
        l, J = 2, 7
        with mpmath.workprec(100):
            ref = 1 - mpmath.mpf(J + 1) ** (1 - 2 * l) + sum(
                mpmath.mpf(j) ** (-2 * l) for j in range(2, J + 2)
            )
            assert abs(telescope_partial(l, J).value - ref) < mpmath.mpf(2) ** -90

    @pytest.mark.parametrize("l", [1, 2, 3])
    @pytest.mark.parametrize("J", [10, 100, 1000])
    def test_zeta_gap_bound(self, l, J):
        with mpmath.workprec(100):
            gap = abs(telescope_partial(l, J).value - mpmath.zeta(2 * l))
            assert gap <= 2 * mpmath.mpf(J) ** (1 - 2 * l)

    def test_increasing_in_J(self):
        vals = [float(telescope_partial(1, J)) for J in (1, 2, 4, 8, 16)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            telescope_partial(0, 5)
        with pytest.raises(DomainError):
            telescope_partial(1, 0)


class TestBatch:
    def test_matches_per_n(self, spec_a):
        batch = c_batch(spec_a, range(1, 9), method="cosine_series", tol=1e-11)
        for fc in batch:
            single = c_cosine_series(spec_a, fc.n, tol=1e-11)
            assert complex(fc.value) == complex(single.value)

    def test_concurrent_callers_match_serial(self, spec_d):
        # caller threads at different working bits share mpmath's global
        # context; the mp lock must keep each call at its own precision
        tols = (1e-10, 1e-20, 1e-30)
        serial = {(n, tol): c_cosine_series(spec_d, n, tol).value.re.hi_str()
                  for n in (3, 4) for tol in tols}
        barrier = threading.Barrier(len(tols))

        def worker(tol):
            barrier.wait(timeout=60)
            return {(n, tol): c_cosine_series(spec_d, n, tol).value.re.hi_str() for n in (3, 4)}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(tols)) as ex:
                futures = [ex.submit(worker, tol) for tol in tols]
                got = {}
                for fut in futures:
                    got.update(fut.result(timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == serial

    def test_batch_cosine_f64_vs_per_n(self, spec_a):
        c, cert = batch_cosine_f64(spec_a, 40)
        assert c.shape == (40,) and cert.shape == (40,)
        for n in (1, 7, 23, 40):
            single = c_cosine_series(spec_a, n, tol=1e-13)
            budget = cert[n - 1] + float(single.error_certificate) + 1e-14
            assert abs(c[n - 1] - complex(single.value)) <= budget

    def test_batch_cosine_requires_admissible(self):
        with pytest.raises(ConstraintError):
            batch_cosine_f64(BeurlingSpec([(1, 1)]), 10)

    @given(
        spec=unit_fraction_specs(),
        n_max=st.integers(1, 3000),
        frac_n=st.floats(0.0, 1.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_batch_certificate_vs_mp(self, spec, n_max, frac_n):
        # both halves of the batch and the split itself, against the mp route
        c, cert = batch_cosine_f64(spec, n_max)
        ns = {1, n_max, 1 + int(frac_n * (n_max - 1))} | {N0, N0 + 1}
        for n in sorted(k for k in ns if k <= n_max):
            single = c_cosine_series(spec, n, tol=1e-13)
            with mpmath.workprec(128):
                gap = abs(mpmath.mpc(complex(c[n - 1])) - single.value.to_mpc())
                assert gap <= cert[n - 1] + single.error_certificate.value

    @given(
        spec=exact_specs(always_admissible=True).filter(lambda s: not s.is_real),
        n_max=st.integers(N0 + 2, 2500),
    )
    @example(spec=CX_ADM, n_max=N0 + 2)
    @example(spec=ZERO_COEF, n_max=2500)
    @example(spec=BeurlingSpec([((1, 2), Fr(1, 2)), (0, Fr(1, 3)), ((-2, -4), Fr(1, 4))]), n_max=1000)
    @settings(max_examples=8, deadline=None)
    def test_complex_batch_certificate_vs_mp(self, spec, n_max):
        # the shared NUFFT's two weight sets (Re a_k, Im a_k) and zero
        # coefficients, on both sides of the split, against the mp route
        c, cert = batch_cosine_f64(spec, n_max)
        for n in (N0, N0 + 1, N0 + 2, n_max):
            single = c_cosine_series(spec, n, tol=1e-13)
            with mpmath.workprec(128):
                gap = abs(mpmath.mpc(complex(c[n - 1])) - single.value.to_mpc())
                assert gap <= cert[n - 1] + single.error_certificate.value, n

    @pytest.mark.parametrize(
        "spec, ffts",
        [
            (BeurlingSpec([(1, 1), (-2, Fr(1, 2))]), 22),
            (ZERO_COEF, 22),
            (BeurlingSpec([(Fr(3, 10), Fr(1, 6)), (Fr(-7, 10), Fr(1, 4)), (1, Fr(1, 3)), (Fr(-5, 16), Fr(2, 3))]), 22),
            (CX_ADM, 44),
        ],
    )
    def test_one_nufft_per_call(self, spec, ffts, monkeypatch):
        # above N0 all terms share one NUFFT: Q = 22 real FFTs per weight
        # set, whatever the number of terms; none for n_max <= N0
        assert spec.admissible
        calls = []
        real = np.fft.rfft

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting)
        batch_cosine_f64(spec, N0)
        assert calls == []
        batch_cosine_f64(spec, 4096)
        assert calls == [(1 << 15,)] * ffts

    @pytest.mark.parametrize("n_max", [2000, 4096])
    @pytest.mark.parametrize("theta", ["1/2", "1/3", "1/4", "1/6", "2/3", "3/4"])
    def test_tail_within_its_certificate(self, theta, n_max, monkeypatch):
        # the float64 tail's err bounds its error against the series at the
        # rounded alpha, on every row n <= N0 and every 16th above, against
        # mp; the spec's theta = 1 term is checked in every case
        seen = []
        real_tail = fourier._cos_tail

        def spy_tail(alpha, J):
            out = real_tail(alpha, J)
            seen.append((alpha, J, *out))
            return out

        monkeypatch.setattr(fourier, "_cos_tail", spy_tail)
        theta = Fr(theta)
        batch_cosine_f64(BeurlingSpec([(1, theta), (-theta, 1)]), n_max)
        assert len(seen) == 2
        for alpha, J, tail, err in seen:
            for i in [*range(N0), *range(N0, n_max, 16), n_max - 1]:
                ref, slack = _tail_mp(float(alpha[i]), int(J[i]) + 1)
                assert abs(mpmath.fsub(float(tail[i]), ref, exact=True)) + slack <= err[i]

    def test_tail_carries_the_zeta_bounds(self, monkeypatch):
        # the tail's err adds sum_m coef_m e_m for the zeta bounds e_m it reads
        alpha, J = np.array([3.0, 40.0]), np.array([64, 80])
        _, err = fourier._cos_tail(alpha, J)
        real = fourier.hurwitz_zeta_f64

        def wider(s, q):
            values, errs = real(s, q)
            return values, errs + 1e-9

        monkeypatch.setattr(fourier, "hurwitz_zeta_f64", wider)
        _, wide = fourier._cos_tail(alpha, J)
        assert np.all(wide - err >= alpha**2 / 2 * 1e-9)

    def test_no_parseval_fallback(self, admissible_specs):
        # the batch certifies the default norm coeff_tol at n_max = 10^4, so
        # norm_via_parseval never drops into the per-n mpmath route
        for name, spec in admissible_specs.items():
            _, cert = batch_cosine_f64(spec, 10_000)
            assert cert.max() <= 1e-10, name

    def test_decay_envelope(self, spec_a):
        # |c(n)| = O(1/n): the n|c(n)| profile over 1..200 stays under a
        # frozen envelope (empirical max 5.0550559 at n = 159)
        c, _ = batch_cosine_f64(spec_a, 200)
        prof = np.arange(1, 201) * np.abs(c)
        assert prof.max() < 6.0


class TestPlatformAssumptions:
    """The batch certificates take numpy's FFT twiddles and libm's sin as
    accurate to a few ulps (module docstring of fourier); these check both
    on the running platform, against mp."""

    def test_rfft_of_unit_impulses(self):
        # at M = 2^15 the FFT bound is gamma_(8 log2 M) ||w||_1, and a unit
        # impulse at l has the exact transform e^(-2 pi i k l/M)
        M = 1 << 15
        with mpmath.workprec(80):
            roots = np.array([complex(mpmath.expjpi(mpmath.mpf(-2 * r) / M)) for r in range(M)])
        # each root rounded to a double is within sqrt(2) u of the exact one
        slack = math.sqrt(2.0) * np.finfo(np.float64).eps / 2
        k = np.arange(M // 2 + 1)
        for l in (1, 3, 4097, 12345, M // 2 - 1, M - 1):
            w = np.zeros(M)
            w[l] = 1.0
            gap = np.abs(np.fft.rfft(w) - roots[(k * l) % M]) + slack
            assert gap.max() <= _gamma(8 * 15), l

    def test_sin_at_direct_head_arguments(self):
        # _direct_head takes np.sin(alpha/(2j)) as within 4 eps relative;
        # sampled over its rows n <= N0 and heads j <= J(n), as it forms them
        rng = np.random.default_rng(21)
        eps = np.finfo(np.float64).eps
        for theta in (1.0, 0.5, 1 / 3, 0.75, 2 / 3, 1 / 12):
            alpha = np.arange(1, N0 + 1, dtype=np.float64) * math.pi * theta
            J = np.maximum(64, np.ceil(2.0 * alpha)).astype(np.int64)
            rows = rng.integers(0, N0, 400)
            j = np.floor(rng.random(400) * J[rows]).astype(np.int64) + 1
            y = alpha[rows] / (2.0 * j.astype(np.float64))
            with mpmath.workprec(120):
                for yi, si in zip(y.tolist(), np.sin(y).tolist()):
                    ref = mpmath.sin(yi)
                    assert abs(si - ref) <= 4 * eps * abs(ref), (theta, yi)


def _tail_mp(alpha, q):
    """(T, slack): sum_m (-1)^m alpha^2m/(2m)! zeta(2m, q) over 2m <= 24 at
    300 bits, and a bound on its distance to the whole series: its zeta
    errors, the rounding of the sum and its last term, above the rest."""
    zetas = hurwitz_mp(q)
    with mpmath.workprec(300):
        a2 = mpmath.mpf(alpha) ** 2
        coef, total, slack = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        for m in range(1, 13):
            coef = coef * a2 / ((2 * m - 1) * (2 * m))
            z, err = zetas[2 * m]
            total += (-1) ** m * coef * z
            slack += coef * err
        return total, slack + coef * z + abs(total) * mpmath.mpf(2) ** -280


class TestCosineCoeffs:
    # between SPEC_A's batch certificates at n_max = 300: at most 1.5e-14 on
    # the direct rows n <= N0, at least 7.2e-14 on the NUFFT rows above
    TOL = 3e-14

    def test_rows_from_batch_or_series(self, spec_a, monkeypatch):
        # at TOL the batch certifies SPEC_A's direct rows n <= N0 but not its
        # NUFFT rows: only those come from c_cosine_series
        series = {}

        def record(spec, n, tol):
            series[n] = c_cosine_series(spec, n, tol)
            return series[n]

        monkeypatch.setattr(fourier, "c_cosine_series", record)
        c, cert = cosine_coeffs(spec_a, 300, self.TOL)
        assert sorted(series) == list(range(N0 + 1, 301))
        batch_c, batch_cert = batch_cosine_f64(spec_a, 300)
        assert np.array_equal(c[:N0], batch_c[:N0])
        assert np.array_equal(cert[:N0], batch_cert[:N0])
        for n, fc in series.items():
            assert c[n - 1] == complex(fc.value)
            assert float(fc.error_certificate) < cert[n - 1] <= self.TOL
        # each sampled row within its certificate of the mp route at 3x bits
        # (every row would take about 20 s)
        ref_tol = 2.0 ** (16 - 3 * bits_for_tol(self.TOL))
        for n in (1, 2, 32, 33, 128, N0 - 1, N0, N0 + 1, N0 + 2, 280, 299, 300):
            ref = c_cosine_series(spec_a, n, ref_tol)
            with mpmath.workprec(3 * bits_for_tol(self.TOL)):
                gap = abs(mpmath.mpc(complex(c[n - 1])) - ref.value.to_mpc())
                assert gap <= cert[n - 1] + ref.error_certificate.value, n

    def test_stored_certificate_rounds_up(self, spec_a, monkeypatch):
        # each mended row's certificate holds its mp certificate plus the
        # exact half-ulps of both stored parts; rounding that sum to nearest
        # lost the ~1e-29 mp part under the ~1e-17 half-ulps
        series = {}

        def record(spec, n, tol):
            series[n] = c_cosine_series(spec, n, tol)
            return series[n]

        monkeypatch.setattr(fourier, "c_cosine_series", record)
        c, cert = cosine_coeffs(spec_a, 300, self.TOL)
        assert sorted(series) == list(range(N0 + 1, 301))
        for n, fc in series.items():
            man, exp = fc.error_certificate.value.man_exp
            half_ulps = sum(Fr(math.ulp(p)) / 2 for p in (c[n - 1].real, c[n - 1].imag))
            assert Fr(float(cert[n - 1])) >= Fr(man) * Fr(2) ** exp + half_ulps, n

    def test_domain(self, spec_a):
        with pytest.raises(DomainError):
            cosine_coeffs(spec_a, 10, 0.0)
        # c(1) = 0.825... cannot be stored as a double within 1e-18
        with pytest.raises(ToleranceNotMet, match="stored as a double"):
            cosine_coeffs(spec_a, 10, 1e-18)


class TestCoefficientsCsv:
    def test_format(self, spec_a):
        batch = c_batch(spec_a, range(1, 4), method="direct", tol=1e-10)
        text = coefficients_csv(batch)
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["n", "re(c)", "im(c)", "method", "L_or_J", "certificate"]
        assert len(rows) == 4
        for i, row in enumerate(rows[1:], start=1):
            assert row[0] == str(i)
            assert abs(float(row[1]) - complex(batch[i - 1].value).real) < 1e-16
            assert row[3] == "direct"
            float(row[5])  # certificate parses as a float
