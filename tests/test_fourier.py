"""fourier: the four coefficient routes, their certificates, the remainder
bound (including the documented regression where its hypothesis-free use
fails), telescoping partial sums, batching, and CSV output."""
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
from beurling.numerics import bits_for_tol
from strategies import exact_specs, unit_fraction_specs

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

# rows n <= N0 of batch_cosine_f64 are summed directly, rows above by NUFFT
N0 = 256


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
        calls = []
        real = _periodic._sine_table

        def counted(pieces, B, U, prec_bits):
            calls.append(U)
            return real(pieces, B, U, prec_bits)

        monkeypatch.setattr(_periodic, "_sine_table", counted)
        c_batch(spec_a, list(range(1, 13)) + [40, 40, 1], "direct", 1e-10)
        assert calls == [66, 72, 78, 252]


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


class TestCosineCoeffs:
    def test_rows_from_batch_or_series(self, spec_a, monkeypatch):
        # at tol 1e-13 the batch certifies SPEC_A's direct rows n <= N0 but
        # not its NUFFT rows: only those come from c_cosine_series
        series = {}

        def record(spec, n, tol):
            series[n] = c_cosine_series(spec, n, tol)
            return series[n]

        monkeypatch.setattr(fourier, "c_cosine_series", record)
        c, cert = cosine_coeffs(spec_a, 300, 1e-13)
        assert sorted(series) == list(range(N0 + 1, 301))
        batch_c, batch_cert = batch_cosine_f64(spec_a, 300)
        assert np.array_equal(c[:N0], batch_c[:N0])
        assert np.array_equal(cert[:N0], batch_cert[:N0])
        for n, fc in series.items():
            assert c[n - 1] == complex(fc.value)
            assert float(fc.error_certificate) < cert[n - 1] <= 1e-13
        # each sampled row within its certificate of the mp route at 3x bits
        # (every row would take about 20 s)
        ref_tol = 2.0 ** (16 - 3 * bits_for_tol(1e-13))
        for n in (1, 2, 32, 33, 128, N0 - 1, N0, N0 + 1, N0 + 2, 280, 299, 300):
            ref = c_cosine_series(spec_a, n, ref_tol)
            with mpmath.workprec(3 * bits_for_tol(1e-13)):
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
        c, cert = cosine_coeffs(spec_a, 300, 1e-13)
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
