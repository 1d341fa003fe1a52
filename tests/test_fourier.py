"""fourier: the four coefficient routes, their certificates, the remainder
bound (including the documented regression where its hypothesis-free use
fails), telescoping partial sums, the periodic engine's head spans and
kernel order, batching, and CSV output."""
import csv
import functools
import io
import math
import random
import sys
import threading
import tracemalloc
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
from beurling import _periodic, fourier, numerics
from beurling._periodic import sine_integral_mp
from beurling.numerics import _gamma, bits_for_tol, hurwitz_zeta_row, to_mp
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
SPEC_A = BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3)), (-1, Fr(1, 6))])
THETA1_B = BeurlingSpec([(Fr(1, 2), 1), (-1, Fr(1, 2))])
THETA1_C = BeurlingSpec([(Fr(1, 3), 1), (-1, Fr(1, 3))])
# complex coefficients on theta = 1/2, 1/3, 2/5: period 30
CX_SPEC = BeurlingSpec(
    [((Fr(1, 2), Fr(1, 3)), Fr(1, 2)), ((Fr(-1, 4), Fr(1, 5)), Fr(1, 3)), (Fr(-2, 3), Fr(2, 5))]
)

# rows n <= N0 of batch_cosine_f64 are summed directly, rows above by NUFFT
N0 = 64
# CX_SPEC's first two terms with the third coefficient solved for
# admissibility, and SPEC_A with a zero-coefficient term added
CX_ADM = BeurlingSpec(
    [((Fr(1, 2), Fr(1, 3)), Fr(1, 2)), ((Fr(-1, 4), Fr(1, 5)), Fr(1, 3)), ((Fr(-5, 12), Fr(-7, 12)), Fr(2, 5))]
)
ZERO_COEF = BeurlingSpec([(1, Fr(1, 2)), (0, Fr(1, 5)), (-1, Fr(1, 3)), (-1, Fr(1, 6))])


def _unit_scaled(spec):
    """spec with every coefficient divided by its largest real or imaginary
    part, so that each lies in [-1, 1] (admissibility is kept)."""
    top = max(max(abs(t.a_re), abs(t.a_im)) for t in spec.terms) or 1
    return BeurlingSpec([((t.a_re / top, t.a_im / top), t.theta) for t in spec.terms])


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

    def test_stored_certificate_rounds_up(self):
        # the stored double is >= the mp certificate; rounding it to nearest
        # left 8 of these 10 rows below it. The spec is not admissible, so
        # every row is an mp row
        spec, tol = NON_ADMISSIBLE, 1e-10
        bits = bits_for_tol(tol) + 32
        for n in range(1, 11):
            [(val, err)] = sine_integral_mp(spec.linear_pieces, spec.decomposition.period, [n], bits)
            with mpmath.workprec(bits):
                cert = 2 * err + abs(2 * val) * mpmath.mpf(2) ** -bits
            assert float(c_direct(spec, n, tol).error_certificate) >= cert, n

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
        # lone row (n = 11, 12) walks its spans as they are made. At tol
        # 1e-20 no float64 bound meets tol, so every row is an mp row
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
        c_batch(spec_a, list(range(1, 13)) + [40, 40, 1], "direct", 1e-20)
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


# the float64 tier's audit specs: admissible, complex a, |a_k| > 1
F64_SPECS = st.one_of(
    exact_specs(always_admissible=True),
    st.sampled_from([SPEC_A, BeurlingSpec([(1, 1), (-2, Fr(1, 2))]), CX_ADM]),
)


def _mp_tail_parts(spec, n, U, bits):
    """(tail, p_bar part, q_bar part) at `bits`: the integral past U as the
    mp integral less its head on [1, U] by exact antiderivative
    differences, and the two closed-form parts of the float64 tier."""
    pieces, B = spec.linear_pieces, spec.decomposition.period
    [(total, _)] = sine_integral_mp(pieces, B, [n], bits)
    _, ((p_re, q_re, _), (p_im, q_im, _)), _ = _periodic._degree0(pieces, B)
    with mpmath.workprec(bits):
        a = n * mpmath.pi
        head = mpmath.mpc(0)
        for off in range(0, U, B):
            for lo, hi, (c0, _) in pieces:
                lo_u, hi_u = max(lo + off, Fr(1)), hi + off
                if hi_u > lo_u:
                    head += to_mp(c0) * (mpmath.cos(a / to_mp(hi_u)) - mpmath.cos(a / to_mp(lo_u))) / a
        U_mp = mpmath.mpf(U)
        return (total - head, to_mp((p_re, p_im)) * (1 - mpmath.cos(a / U_mp)) / a,
                to_mp((q_re, q_im)) * mpmath.sin(a / U_mp) / U_mp**2)


def _r_max(spec):
    """The bound on sup |R| that the float64 tier reads: Re and Im parts."""
    _, ((_, _, r_re), (_, _, r_im)), _ = _periodic._degree0(spec.linear_pieces, spec.decomposition.period)
    return r_re + r_im


class TestDirectF64Tier:
    @settings(max_examples=30, deadline=None)
    @given(
        spec=F64_SPECS,
        n=st.one_of(st.integers(1, 60), st.just(1000)),
        tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]),
    )
    @example(spec=SPEC_A, n=1000, tol=1e-8)
    @example(spec=CX_ADM, n=60, tol=1e-12)
    def test_rows_within_certificate(self, spec, n, tol):
        # every float64 row is within its certificate of the mp row at
        # twice the bits, and c_direct is that row doubled
        pieces, B = spec.linear_pieces, spec.decomposition.period
        [row] = _periodic.sine_integral_f64(pieces, B, [n], tol / 2)
        fc = c_direct(spec, n, tol)
        if row is None:
            assert fc.value.precision_bits > 64
            return
        val, cert = row
        assert cert <= tol / 2
        bits = 2 * (bits_for_tol(tol) + 32)
        [(ref, ref_err)] = sine_integral_mp(pieces, B, [n], bits)
        with mpmath.workprec(bits):
            assert abs(mpmath.mpc(val) - ref) + ref_err <= cert
        assert complex(fc.value) == (2 * val if not spec.is_real else complex(2 * val.real, 0.0))
        assert float(fc.error_certificate) == 2 * cert

    @pytest.mark.parametrize("which", ["SPEC_A", "CX_ADM", "THETA1_B"])
    @pytest.mark.parametrize("n, tol", [(1, 1e-8), (7, 1e-10), (40, 1e-12), (1000, 1e-10)])
    def test_tail_beyond_U_within_E(self, which, n, tol):
        # the mp tail past U, less the two closed-form parts, is at most E
        spec = {"SPEC_A": SPEC_A, "CX_ADM": CX_ADM, "THETA1_B": THETA1_B}[which]
        B = spec.decomposition.period
        U, E = _periodic._f64_end(_r_max(spec), B, n, tol / 2, 10**6)
        assert E <= Fr(tol) / 8
        bits = 2 * (bits_for_tol(tol) + 32)
        tail, p_part, q_part = _mp_tail_parts(spec, n, U, bits)
        with mpmath.workprec(bits):
            assert abs(tail - p_part - q_part) <= to_mp(E)

    def test_end_is_least(self, spec_a):
        # U is the least allowed multiple of B whose E meets tol/4
        B, r_max = spec_a.decomposition.period, _r_max(spec_a)
        for n, tol in [(1, 1e-8), (7, 5e-11), (60, 5e-13)]:
            U, E = _periodic._f64_end(r_max, B, n, tol, 10**6)
            a = n * _periodic._PI_UP
            k = U // B - 1
            assert k * B >= _periodic._choose_U(B)
            assert E <= Fr(tol) / 4
            assert r_max * (3 * a / (k * B) ** 4 + a**3 / (6 * (k * B) ** 6)) > Fr(tol) / 4

    def test_degree_1_pieces_take_no_float64_row(self):
        pieces, B = NON_ADMISSIBLE.linear_pieces, NON_ADMISSIBLE.decomposition.period
        assert _periodic.sine_integral_f64(pieces, B, [1, 2], 1e-6) == [None, None]

    def test_mixed_batch_equals_single_calls(self, spec_a, monkeypatch):
        # at tol 1e-13 SPEC_A's rows n <= 6 are float64 rows and the others
        # fall back to mp; one sine_integral_mp call takes exactly those,
        # and every row equals its single call
        ns, tol = [9, 1, 40, 3, 1, 7, 6, 2], 1e-13
        fast = _periodic.sine_integral_f64(spec_a.linear_pieces, 6, ns, tol / 2)
        assert [n for n, row in zip(ns, fast) if row is None] == [9, 40, 7]
        seen = []
        real = _periodic.sine_integral_mp

        def counted(pieces, B, rows, bits):
            seen.append(list(rows))
            return real(pieces, B, rows, bits)

        monkeypatch.setattr(_periodic, "sine_integral_mp", counted)
        batch = c_batch(spec_a, ns, "direct", tol)
        assert seen == [[9, 40, 7]]
        monkeypatch.undo()
        for fc in batch:
            one = c_direct(spec_a, fc.n, tol)
            assert fc.value == one.value, fc.n
            assert fc.error_certificate == one.error_certificate, fc.n
        assert [fc.value.precision_bits == 64 for fc in batch] == [n <= 6 for n in ns]


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

    @pytest.mark.parametrize("which", ["SPEC_A", "seeded"])
    def test_one_cos_sin_per_theta_and_j(self, spec_a, which, monkeypatch):
        # the heads take one mp cos_sin per (term, j <= the call's largest
        # J_k) and no mp sine: the rows share each unit by integer powering
        spec = spec_a if which == "SPEC_A" else _seeded_unit_spec(3)
        counts = {"cos_sin": 0, "sin": 0}
        real_cos_sin, real_sin = numerics.mpf_cos_sin, mpmath.sin

        def cos_sin(*args):
            counts["cos_sin"] += 1
            return real_cos_sin(*args)

        def sin(*args):
            counts["sin"] += 1
            return real_sin(*args)

        monkeypatch.setattr(numerics, "mpf_cos_sin", cos_sin)
        monkeypatch.setattr(mpmath, "sin", sin)
        fourier._cosine_rows(spec, self.NS, 1e-10)
        with mpmath.workprec(64):
            want = sum(max(_cosine_J(n, t.theta) for n in self.NS) for t in spec.terms if t.a)
        assert counts == {"cos_sin": want, "sin": 0}


def _cosine_J(n, theta):
    """J_k of the cosine route's row n at theta_k, as the route plans it."""
    return max(64, math.ceil(2.0 * float(n * mpmath.pi * to_mp(theta))))


@functools.lru_cache(maxsize=None)
def _oracle_zetas(a, bits):
    with mpmath.workprec(bits):
        floor = mpmath.mpf(2) ** -bits
        return hurwitz_zeta_row(fourier._cosine_weights(a, bits, floor), a)


def _cosine_oracle(spec, n, bits):
    """c(n) of the cosine route as summed before its heads shared any
    work, at `bits`: each head -2 sum_{j<=J_k} sin^2(alpha_k/2j) from one
    mpmath.sin per j, each tail sum_m (-1)^m alpha_k^2m/(2m)! zeta(2m, J_k + 1)
    over the m that `_cosine_weights` plans for a = J_k + 1."""
    with mpmath.workprec(bits):
        npi = n * mpmath.pi
        acc = mpmath.mpc(0)
        for t in spec.terms:
            alpha = npi * to_mp(t.theta)
            J = _cosine_J(n, t.theta)
            head = -2 * mpmath.fsum(mpmath.sin(alpha / (2 * j)) ** 2 for j in range(1, J + 1))
            zetas = _oracle_zetas(J + 1, bits)
            tail = mpmath.fsum((-1) ** (s // 2) * alpha**s / mpmath.factorial(s) * z
                               for s, (z, _) in zetas.items())
            acc += to_mp((t.a_re, t.a_im)) * (head + tail)
        return (0 if n % 2 == 0 else 4 / npi) + 2 / npi * acc


# admissible, complex a, and with the non-unit theta 2/3
AUDIT_SPECS = {
    "SPEC_A": SPEC_A,
    "CX_ADM": CX_ADM,
    "TWO_THIRDS": BeurlingSpec([(Fr(3, 4), Fr(2, 3)), (Fr(-1, 2), Fr(1, 2)), (-1, Fr(1, 4))]),
}


@pytest.mark.parametrize("name", sorted(AUDIT_SPECS))
def test_fixed_point_heads_within_certificate(name):
    # every row's certificate bounds its distance to the mp-sine route at
    # three times the bits, whose own error is below 2^-(3 bits - 32)
    spec, tol = AUDIT_SPECS[name], 1e-12
    bits = 3 * (bits_for_tol(tol) + 48)
    ns = list(range(1, 61)) + [1, 7, 64, 65, 300, 301]
    for fc in c_batch(spec, ns, "cosine_series", tol):
        ref = _cosine_oracle(spec, fc.n, bits)
        with mpmath.workprec(bits):
            gap = abs(fc.value.to_mpc() - ref)
            assert gap + mpmath.mpf(2) ** (32 - bits) <= fc.error_certificate.value, fc.n


# c(n) of SPEC_A by the direct and cosine routes: the value's real part as
# mpmath's (sign, mantissa, exponent) and the stored certificate as a hex
# double. The direct rows at 1e-12 are float64 rows, frozen once
# sine_integral_f64 was audited (TestDirectF64Tier); the direct row at 1e-20
# is an mp row, frozen before its heads shared any work. The cosine rows
# were frozen once their heads were fixed-point products (audited by
# test_fixed_point_heads_within_certificate)
FROZEN_ROWS = {
    ("direct", 1, 1e-12): ((0, 0x1A699E2D9813F1, -53), "0x1.3f708b2402d9fp-42"),
    ("direct", 7, 1e-12): ((0, 0x17C74619EA66B3, -55), "0x1.7449777830ef6p-42"),
    ("direct", 40, 1e-20): ((0, 0x8E2B4012563176AFDEA795F615F, -112), "0x1.7c2b0e8a36d8bp-103"),
    ("cosine_series", 1, 1e-12): (
        (0, 0x69A678B6604FBB9B0300D01DC1DD, -111), "0x1.2f1b409f56dd8p-102"),
    ("cosine_series", 7, 1e-12): (
        (0, 0xBE3A30CF533570E1164F83865625, -114), "0x1.126e9f34b5117p-99"),
    ("cosine_series", 40, 1e-20): (
        (0, 0x4715A0092B18BB57EF53CAFB0AF8062E5, -135), "0x1.8c325d27c14d3p-116"),
}


@pytest.mark.parametrize("method, n, tol", list(FROZEN_ROWS), ids=lambda v: str(v))
def test_rows_keep_their_bits(spec_a, method, n, tol):
    [fc] = c_batch(spec_a, [n], method, tol)
    (sign, man, exp), cert = FROZEN_ROWS[method, n, tol]
    assert fc.value.re.value._mpf_[:3] == (sign, man, exp)
    assert float(fc.error_certificate) == float.fromhex(cert)


def test_non_admissible_row_keeps_its_bits():
    # sum a_k theta_k != 0: the pieces have degree 1 and the row stays an
    # mp row, with the bits it had before the float64 tier
    [fc] = c_batch(NON_ADMISSIBLE, [7], "direct", 1e-12)
    assert fc.value.re.value._mpf_[:3] == (0, 0x1B24E75B357C3AD03C640BCF, -95)
    assert float(fc.error_certificate) == float.fromhex("0x1.6cd038e4da214p-80")


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
        # unit fractions with |a_k| <= 1, and admissible specs outside those
        # hypotheses: non-unit thetas, |a_k| > 1 and complex a_k
        spec=st.one_of(unit_fraction_specs(), exact_specs(always_admissible=True)),
        n=st.integers(1, 50),
        tol=st.sampled_from([1e-8, 1e-12, 1e-20]),
    )
    # theta = 1 past the n <= 20 of the fixtures' other audits
    @example(spec=THETA1_B, n=60, tol=1e-12)
    @example(spec=THETA1_C, n=45, tol=1e-8)
    @example(spec=BeurlingSpec([(1, 1), (-2, Fr(1, 2))]), n=30, tol=1e-10)
    # a tolerance above 4, where the plan takes a short L
    @example(spec=SPEC_A, n=40, tol=10.0)
    def test_limit_certificate_bounds_the_error(self, spec, n, tol):
        # against c_direct at twice the bits, within both certificates
        fc = c_even_mellin_limit(spec, n, tol)
        ref = c_direct(spec, n, tol**2)
        with mpmath.workprec(2 * fc.value.precision_bits):
            gap = abs(fc.value.to_mpc() - ref.value.to_mpc())
            assert gap <= fc.error_certificate.value + ref.error_certificate.value

    @settings(max_examples=25, deadline=None)
    @given(
        # unit fractions with |a_k| <= 1, and admissible specs outside those
        # hypotheses: non-unit thetas, |a_k| > 1 and complex a_k
        spec=st.one_of(unit_fraction_specs(min_denominator=2), exact_specs(always_admissible=True)),
        n=st.integers(1, 60),
        L=st.integers(1, 80),
        tol=st.sampled_from([1e-8, 1e-12, 1e-20]),
    )
    # remainder_bound under-covers here (1.36e5 off against 1.12e5, and
    # 1.09e9 against 8.4e7), and the tail bound does not
    @example(spec=SPEC_A, n=13, L=5, tol=1e-12)
    @example(spec=SPEC_A, n=20, L=8, tol=1e-12)
    @example(spec=SPEC_A, n=10, L=4, tol=1e-12)
    def test_exact_L_certificate_bounds_the_error(self, spec, n, L, tol):
        # every row, against c_direct at twice the bits, is within both
        # certificates
        fc = c_even_mellin_exact_L(spec, n, L, tol)
        ref = c_direct(spec, n, tol**2)
        with mpmath.workprec(2 * fc.value.precision_bits):
            gap = abs(fc.value.to_mpc() - ref.value.to_mpc())
            assert gap <= fc.error_certificate.value + ref.error_certificate.value

    @pytest.mark.parametrize("spec", [
        BeurlingSpec([(1, 1), (-2, Fr(1, 2))]),
        BeurlingSpec([(1, Fr(2, 3)), (-2, Fr(1, 3))]),
        BeurlingSpec([(Fr(3, 2), Fr(3, 4)), (Fr(-9, 4), Fr(1, 2))]),
        BeurlingSpec([((1, 1), Fr(1, 2)), ((-2, -2), Fr(1, 4))]),
    ], ids=["ADM1", "non-unit", "non-unit-a-gt-1", "complex"])
    def test_exact_L_outside_the_hypotheses(self, spec):
        # admissible specs past unit fractions and |a_k| <= 1: every cell
        # returns within its certificate of c_direct
        for n in (1, 2, 3, 5, 8, 13, 20):
            ref = c_direct(spec, n, 1e-24)
            for L in (1, 2, 4, 8, 16, 32, 48):
                fc = c_even_mellin_exact_L(spec, n, L, 1e-12)
                with mpmath.workprec(2 * fc.value.precision_bits):
                    gap = abs(fc.value.to_mpc() - ref.value.to_mpc())
                    assert gap <= fc.error_certificate.value + ref.error_certificate.value, (n, L)

    @settings(max_examples=20, deadline=None)
    @given(spec=unit_fraction_specs(), n=st.integers(1, 40), L=st.integers(1, 60))
    @example(spec=SPEC_A, n=13, L=5)
    @example(spec=SPEC_A, n=20, L=8)
    @example(spec=SPEC_A, n=10, L=4)
    def test_exact_L_tail_bounds_the_remainder(self, spec, n, L):
        # the certificate is the proven tail bound T plus a roundoff term
        # below tol, rounded up to a double, and T covers the true remainder
        # of the truncated sum
        tol = 1e-12
        row = fourier._even_mellin_row(spec, n, L, tol, fourier._m2l_table(spec, [n], tol))
        ref = c_direct(spec, n, tol=1e-16)
        tail = fourier._exact_L_tail(spec, n, L)
        with mpmath.workprec(2 * row.value.precision_bits):
            gap = abs(row.value.to_mpc() - ref.value.to_mpc())
            roundoff = row.error_certificate.value - tail
            assert 0 <= roundoff <= tol + math.ulp(float(row.error_certificate))
            assert gap <= tail + roundoff + ref.error_certificate.value

    @pytest.mark.parametrize("n,L,bound_fails", [
        (9, 4, False), (10, 4, False), (11, 6, False), (12, 5, True),
        (13, 5, True), (20, 8, True), (30, 3, True), (50, 10, True),
    ])
    def test_exact_L_refused_where_the_bound_fails(self, spec_a, n, L, bound_fails):
        # bound_fails marks the SPEC_A cells where remainder_bound falls
        # below the proven tail bound ((9, 4) and (10, 4) are covered though
        # the first omitted term alone exceeds remainder_bound). The route
        # certifies with the tail bound, so it returns every cell, within
        # its certificate of c_direct at tol^2
        tail = fourier._exact_L_tail(spec_a, n, L)
        assert (tail > remainder_bound(spec_a, n, L).value) == bound_fails
        fc = c_even_mellin_exact_L(spec_a, n, L, 1e-12)
        assert fc.truncation_order == L
        ref = c_direct(spec_a, n, 1e-24)
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
        # both even-Mellin routes need admissibility alone: ADM1 (|a| = 2 > 1)
        # returns within its certificate, a non-admissible spec is refused
        ref = c_direct(adm1, 1, 1e-20)
        for fc in (c_even_mellin_limit(adm1, 1), c_even_mellin_exact_L(adm1, 1, 8)):
            gap = abs(complex(fc.value) - complex(ref.value))
            assert gap <= float(fc.error_certificate) + float(ref.error_certificate)
        with pytest.raises(ConstraintError):
            c_even_mellin_limit(BeurlingSpec([(1, 1)]), 1)
        with pytest.raises(ConstraintError):
            c_even_mellin_exact_L(BeurlingSpec([(1, 1)]), 1, 8)

    @settings(max_examples=25, deadline=None)
    @given(
        spec=unit_fraction_specs(),
        n=st.integers(1, 60),
        tol=st.sampled_from([1e-8, 1e-13]),
    )
    @example(spec=SPEC_A, n=10, tol=1e-10)
    @example(spec=THETA1_B, n=60, tol=1e-13)
    def test_limit_tail_within_planned_bound(self, spec, n, tol):
        # a limit row is the fixed-L row at the planned L: its certificate is
        # the proven tail bound T there, at most tol/4 by the plan, plus a
        # roundoff term far below tol, rounded up to a double
        fc = c_even_mellin_limit(spec, n, tol)
        L = fc.truncation_order
        assert L == fourier._planned_L(spec, n, tol)
        fixed = c_even_mellin_exact_L(spec, n, L, tol)
        assert complex(fc.value) == complex(fixed.value)
        assert float(fc.error_certificate) == float(fixed.error_certificate)
        tail = fourier._exact_L_tail(spec, n, L)
        assert tail <= tol / 4 * (1 + 1e-9)
        with mpmath.workprec(2 * fc.value.precision_bits):
            roundoff = fc.error_certificate.value - tail
            assert 0 <= roundoff <= tol * 2.0**-40 + math.ulp(float(fc.error_certificate))

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
        # L = 4n + 12 and 4n + 36 for n = 1..32 span 16..164, around the L
        # that a limit route planned on this bound took at tol 1e-10 and
        # 1e-14; stored rounded to nearest, 31 of these 64 doubles were
        # below the bound
        for n in range(1, 33):
            for L in (4 * n + 12, 4 * n + 36):
                with mpmath.workprec(300):
                    pw = sum((mpmath.mpf(t.theta.numerator) / t.theta.denominator) ** (L + 1)
                             for t in spec_a.terms)
                    ref = (n * mpmath.pi) ** (L + 1) / mpmath.factorial(L + 1) * mpmath.zeta(L + 1) * pw
                    assert remainder_bound(spec_a, n, L).value >= ref, (n, L)

    def test_requires_coeffs_le_1(self, adm1):
        with pytest.raises(HypothesisError):
            remainder_bound(adm1, 1, 8)
        # the test is on |a_k|, not on its parts: 0.8 + 0.8i has modulus
        # above 1, 3/5 + 4/5i modulus 1 exactly
        with pytest.raises(HypothesisError):
            remainder_bound(BeurlingSpec([((Fr(4, 5), Fr(4, 5)), Fr(1, 2))]), 1, 8)
        assert float(remainder_bound(BeurlingSpec([((Fr(3, 5), Fr(4, 5)), Fr(1, 2))]), 1, 8)) > 0

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
    route certifies with its proven tail bound, as on every spec (see
    `test_exact_L_refused_where_the_bound_fails`), so it returns these
    cells too, theta = 1 included.
    """

    @pytest.mark.parametrize("name", ["theta1_b", "theta1_c"])
    def test_theta1_exact_L_refused(self, request, name):
        # the cells where remainder_bound under-covers, and one it covers,
        # are each returned within its certificate
        spec = request.getfixturevalue(name)
        for n, L in ((9, 8), (10, 8), (1, 4)):
            ref = c_direct(spec, n, tol=1e-13)
            row = c_even_mellin_exact_L(spec, n, L, tol=1e-13)
            gap = abs(complex(ref.value) - complex(row.value))
            assert gap <= float(ref.error_certificate) + float(row.error_certificate)
        # the remainder bound itself and the limit route still evaluate
        assert float(remainder_bound(spec, 9, 8)) > 0
        ref = c_direct(spec, 3, tol=1e-13)
        lim = c_even_mellin_limit(spec, 3, tol=1e-12)
        gap = abs(complex(ref.value) - complex(lim.value))
        assert gap <= float(ref.error_certificate) + float(lim.error_certificate)

    @pytest.mark.parametrize("n,L,min_ratio", [(9, 8, 4.0), (10, 8, 9.0)])
    def test_theta1_bound_exceeded(self, theta1_b, n, L, min_ratio):
        """The truncated exact-L series on THETA1_B, summed here at 80 digits,
        misses c(n) by more than min_ratio times remainder_bound: the paper's
        bound fails there. The exact-L route returns the same truncated sum
        with its tail bound as certificate, which covers the miss."""
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
        row = c_even_mellin_exact_L(theta1_b, n, L, tol=1e-13)
        assert abs(complex(row.value) - truncated) <= 1e-13 * abs(truncated)
        assert gap <= float(ref.error_certificate) + float(row.error_certificate)

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
        # above N0 all terms share one NUFFT: Q = 22 real FFTs of length
        # 2^ceil(log2(4 n_max)) per weight set, whatever the number of terms;
        # none for n_max <= N0
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
        assert calls == [(1 << 14,)] * ffts

    @pytest.mark.parametrize("n_max", [2000, 4096])
    @pytest.mark.parametrize("theta", ["1/2", "1/3", "1/4", "1/6", "2/3", "3/4"])
    def test_tail_within_its_certificate(self, theta, n_max, monkeypatch):
        # the float64 tail's err bounds its error against the series at the
        # rounded alpha, on every row n <= 256 and every 16th above, against
        # mp; the spec's theta = 1 term is checked in every case. Each term
        # takes one tail over the head rows n <= N0, then one over the NUFFT
        # rows
        seen = []
        real_tail = fourier._cos_tail

        def spy_tail(alpha, J):
            out = real_tail(alpha, J)
            seen.append((alpha, J, *out))
            return out

        monkeypatch.setattr(fourier, "_cos_tail", spy_tail)
        theta = Fr(theta)
        batch_cosine_f64(BeurlingSpec([(1, theta), (-theta, 1)]), n_max)
        assert [alpha.size for alpha, *_ in seen] == [N0, N0, n_max - N0, n_max - N0]
        for alpha, J, tail, err in seen:
            for i in [*range(min(alpha.size, 192)), *range(192, alpha.size, 16), alpha.size - 1]:
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
    accurate to a few ulps (module docstring of fourier), and the float64
    tiers of _periodic take libm's sin, and log1p, expm1, exp, log and cos,
    as within 4 ulps; these check each on the running platform, against mp."""

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
        # _cosine_head_block takes np.sin(alpha/(2j)) as within 4 eps relative;
        # sampled over rows n <= 4096 (the float64 head tier of
        # cosine_coeffs takes any row) and heads j <= J(n), as it forms them
        rng = np.random.default_rng(21)
        eps = np.finfo(np.float64).eps
        for theta in (1.0, 0.5, 1 / 3, 0.75, 2 / 3, 1 / 12):
            alpha = np.arange(1, 4097, dtype=np.float64) * math.pi * theta
            J = np.maximum(64, np.ceil(2.0 * alpha)).astype(np.int64)
            rows = rng.integers(0, 4096, 400)
            j = np.floor(rng.random(400) * J[rows]).astype(np.int64) + 1
            y = alpha[rows] / (2.0 * j.astype(np.float64))
            with mpmath.workprec(120):
                for yi, si in zip(y.tolist(), np.sin(y).tolist()):
                    ref = mpmath.sin(yi)
                    assert abs(si - ref) <= 4 * eps * abs(ref), (theta, yi)


    def test_sin_at_direct_tier_arguments(self):
        # sine_integral_f64 takes np.sin and math.sin as within 4 eps
        # relative; sampled at its head arguments A = q (lo + hi) and
        # D = q len, q = a/(2 lo hi), over spans of [1, 10^5] and a = n pi,
        # n <= 1000, and at its tail arguments a/(2U) and a/U, U >= 64
        rng = np.random.default_rng(32)
        eps = np.finfo(np.float64).eps
        a = rng.integers(1, 1001, 600).astype(np.float64) * math.pi
        lo = 1.0 + np.floor(rng.random(600) * 10.0 ** rng.integers(0, 6, 600))
        width = rng.random(600) * np.minimum(lo, 840.0)
        hi = lo + width
        q = a / (2.0 * lo * hi)
        U = 64.0 * rng.integers(1, 2000, 600)
        head = np.concatenate([q * (lo + hi), q * width])
        tail = np.concatenate([a / (2.0 * U), a / U])
        got = np.concatenate([np.sin(head), [math.sin(x) for x in tail.tolist()]])
        with mpmath.workprec(120):
            for x, si in zip(np.concatenate([head, tail]).tolist(), got.tolist()):
                ref = mpmath.sin(x)
                assert abs(si - ref) <= 4 * eps * abs(ref), x

    def test_libm_at_power_tier_arguments(self):
        # power_integral_f64 takes numpy's and math's log1p, expm1, exp, log,
        # cos and sin as within 4 eps relative; sampled at its head
        # arguments (span starts lo in [1, 2^26), widths up to 840,
        # Re s in [2^-32, 32], |Im s| <= 1024) and its tail arguments
        # (U up to 2^26, and exp(-y) for y up to (32 + 2) ln 2^26)
        rng = np.random.default_rng(33)
        eps = np.finfo(np.float64).eps
        k = 600
        lo = np.minimum(1.0 + np.floor(rng.random(k) * 10.0 ** rng.integers(0, 8, k)), 2.0**26 - 1)
        width = rng.random(k) * 840.0
        sig = 2.0 ** rng.uniform(-32, 5, k)
        tau = rng.uniform(-1024, 1024, k)
        x = np.log1p(width / lo)
        L = np.log(lo)
        U = rng.integers(64, 2**26, k).astype(np.float64)
        y = rng.uniform(0, 34 * math.log(2.0**26), k)
        cases = [
            (np.log1p, mpmath.log1p, width / lo),
            (np.expm1, mpmath.expm1, -(sig * x)),
            (np.log, mpmath.log, lo),
            (np.exp, mpmath.exp, -(sig * L)),
            (np.cos, mpmath.cos, tau * x),
            (np.sin, mpmath.sin, tau * x),
            (np.sin, mpmath.sin, 0.5 * (tau * x)),
            (np.cos, mpmath.cos, tau * L),
            (np.sin, mpmath.sin, tau * L),
            (math.log, mpmath.log, U),
            (math.exp, mpmath.exp, -(sig * np.log(U))),
            (math.exp, mpmath.exp, -y),
            (math.cos, mpmath.cos, tau * np.log(U)),
            (math.sin, mpmath.sin, tau * np.log(U)),
        ]
        with mpmath.workprec(120):
            for f, ref_f, args in cases:
                got = f(args).tolist() if isinstance(f, np.ufunc) else [f(a) for a in args.tolist()]
                for a, v in zip(args.tolist(), got):
                    ref = ref_f(mpmath.mpf(a))
                    assert abs(v - ref) <= 4 * eps * abs(ref), (f.__name__, a)


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
    # between SPEC_A's certificates at n_max = 300: the batch's are at most
    # 1.32e-14 on its head rows n <= N0 and at least 6.5e-14 on its NUFFT
    # rows; the float64 head tier gives rows 65..300 1.32e-14 to 1.49e-14,
    # so it keeps some of them and leaves the others to the mp rows
    TOL = 1.47e-14

    def _recorded(self, spec, monkeypatch):
        """cosine_coeffs(spec, 300, TOL), the ns of each `_cosine_rows` call
        it makes and the rows those calls return, by n."""
        calls, series = [], {}
        real = fourier._cosine_rows

        def record(spec, ns, tol):
            out = real(spec, ns, tol)
            calls.append(list(ns))
            series.update((fc.n, fc) for fc in out)
            return out

        monkeypatch.setattr(fourier, "_cosine_rows", record)
        c, cert = cosine_coeffs(spec, 300, self.TOL)
        return c, cert, calls, series

    def test_rows_from_batch_or_series(self, spec_a, monkeypatch):
        # three tiers: the batch keeps its head rows n <= N0, every NUFFT
        # row is recomputed with its own float64 head, and only the rows
        # whose head tier misses TOL come from the mp cosine rows, all of
        # them from one `_cosine_rows` call, each equal to its single call
        c, cert, calls, series = self._recorded(spec_a, monkeypatch)
        head_c, head_cert = fourier._f64_rows(spec_a, np.arange(N0 + 1, 301))
        mp_rows = [n for n, e in zip(range(N0 + 1, 301), head_cert) if e > self.TOL]
        assert 0 < len(mp_rows) < 300 - N0
        assert calls == [mp_rows]
        for n in (mp_rows[0], 300):
            one = c_cosine_series(spec_a, n, self.TOL)
            assert (series[n].value, series[n].error_certificate) == (one.value, one.error_certificate)
        batch_c, batch_cert = batch_cosine_f64(spec_a, 300)
        assert np.array_equal(c[:N0], batch_c[:N0])
        assert np.array_equal(cert[:N0], batch_cert[:N0])
        assert np.all(batch_cert[N0:] > self.TOL)
        f64 = [n for n in range(N0 + 1, 301) if n not in series]
        assert np.array_equal(c[np.array(f64) - 1], head_c[np.array(f64) - N0 - 1])
        for n, fc in series.items():
            assert c[n - 1] == complex(fc.value)
            assert float(fc.error_certificate) < cert[n - 1] <= self.TOL
        # each sampled row within its certificate of the mp route at 3x bits
        # (every row would take about 20 s)
        ref_tol = 2.0 ** (16 - 3 * bits_for_tol(self.TOL))
        for n in (1, 2, 32, 33, N0 - 1, N0, N0 + 1, N0 + 2, 128, mp_rows[0] - 1, mp_rows[0], 299, 300):
            ref = c_cosine_series(spec_a, n, ref_tol)
            with mpmath.workprec(3 * bits_for_tol(self.TOL)):
                gap = abs(mpmath.mpc(complex(c[n - 1])) - ref.value.to_mpc())
                assert gap <= cert[n - 1] + ref.error_certificate.value, n

    def test_stored_certificate_rounds_up(self, spec_a, monkeypatch):
        # each mended row's certificate holds its mp certificate plus the
        # exact half-ulps of both stored parts; rounding that sum to nearest
        # lost the ~1e-29 mp part under the ~1e-17 half-ulps
        c, cert, calls, series = self._recorded(spec_a, monkeypatch)
        assert sorted(series) == calls[0]
        for n, fc in series.items():
            man, exp = fc.error_certificate.value.man_exp
            half_ulps = sum(Fr(math.ulp(p)) / 2 for p in (c[n - 1].real, c[n - 1].imag))
            assert Fr(float(cert[n - 1])) >= Fr(man) * Fr(2) ** exp + half_ulps, n

    def test_float64_heads_need_no_mp_row(self, adm1, monkeypatch):
        # ADM1 at 1e-13: every NUFFT row misses it, every float64 head meets
        # it, so no `_cosine_rows` call is made (it took 244 mp rows and
        # 4.6 s when only the batch's rows n <= 256 had their own heads)
        def refuse(*args):
            raise AssertionError("mp rows taken")

        monkeypatch.setattr(fourier, "_cosine_rows", refuse)
        _, batch_cert = batch_cosine_f64(adm1, 500)
        assert np.all(batch_cert[N0:] > 1e-13)
        _, cert = cosine_coeffs(adm1, 500, 1e-13)
        assert cert.max() <= 1e-13

    def test_head_tier_memory_is_bounded(self, adm1):
        # every row of ADM1 at n_max = 2000 and 1e-12 goes to the float64
        # heads, J(2000) = 12567: one dense block of all rows would take
        # about 200 MB, the blocks of `_cosine_head_block` stay within 64 MB
        tracemalloc.start()
        try:
            _, cert = cosine_coeffs(adm1, 2000, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cert.max() <= 1e-12
        assert peak < 64 * 2**20

    @given(
        spec=st.one_of(unit_fraction_specs(), exact_specs(always_admissible=True).map(_unit_scaled)),
        n_max=st.integers(1, 3000),
        tol=st.sampled_from([1e-8, 1e-10, 1e-12, 1e-13]),
        frac_n=st.floats(0.0, 1.0),
    )
    @example(spec=CX_ADM, n_max=3000, tol=1e-13, frac_n=0.5)
    @example(spec=ZERO_COEF, n_max=N0 + 1, tol=1e-12, frac_n=0.0)
    @settings(max_examples=6, deadline=None)
    def test_rows_within_certificate(self, spec, n_max, tol, frac_n):
        # every row of every tier against the mp cosine route: rows 1, N0,
        # N0 + 1, n_max and one drawn row. Coefficients are scaled into
        # [-1, 1], where the float64 heads meet 1e-13 (about 5e-14 at most)
        # and no row needs mp, which costs about 0.3 s a row at n = 1000;
        # the mp tier has its own tests above
        c, cert = cosine_coeffs(spec, n_max, tol)
        assert cert.max() <= tol
        for n in sorted({1, N0, N0 + 1, n_max, 1 + int(frac_n * (n_max - 1))}):
            if n <= n_max:
                ref = c_cosine_series(spec, n, 1e-13)
                with mpmath.workprec(128):
                    gap = abs(mpmath.mpc(complex(c[n - 1])) - ref.value.to_mpc())
                    assert gap <= cert[n - 1] + ref.error_certificate.value, n

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
