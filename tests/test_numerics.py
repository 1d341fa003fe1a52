"""numerics: precision scalars, Bernoulli numbers, zeta at even integers,
zeta on the critical strip, the Hurwitz zeta in mp and in float64."""
import math
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beurling import (
    BeurlingSpec,
    DomainError,
    PrecisionComplex,
    PrecisionReal,
    ToleranceNotMet,
    batch_cosine_f64,
    bernoulli,
    zeta_complex,
    zeta_even,
)
from beurling import fourier, numerics
from strategies import hurwitz_mp


class TestPrecisionReal:
    def test_carries_precision(self):
        x = PrecisionReal.from_str("0.1", 128)
        assert x.precision_bits == 128
        # 0.1 at 128 bits differs from the float64 0.1
        assert abs(float(x) - 0.1) < 1e-16

    def test_minimum_precision_enforced(self):
        with pytest.raises(ValueError):
            PrecisionReal.from_str("1", 32)

    def test_hi_str_roundtrip(self):
        x = PrecisionReal.from_str("0.33333333333333333333333333", 96)
        y = PrecisionReal.from_str(x.hi_str(), 96)
        with mpmath.workprec(96):
            assert abs(x.value - y.value) < 1e-27

    def test_comparisons_and_float(self):
        a = PrecisionReal.from_float(2.0, 64)
        assert float(a) == 2.0 and a.value > 1
        assert float(PrecisionReal.from_float(-3.0, 64)) == -3.0
        # a record: equal when value and bits agree
        assert a == PrecisionReal.from_str("2", 64)
        assert a != PrecisionReal.from_str("2", 96)


def _rounding_cases(bits):
    """Values that PrecisionReal rounds to `bits`: mpf mantissas exactly
    halfway between two bits-bit numbers (the even neighbour below and
    above), their negatives, a value an ulp either side of halfway, an
    mpf at 400 bits, ints, floats and decimal strings."""
    half = 2**bits + 1  # bits + 1 bits, ending in a 1: halfway
    cases = [(half, -bits), (half + 2, -bits), (-half, 7), (-(half + 2), -300),
             (2 * half - 1, -bits - 1), (2 * half + 1, -bits - 1)]
    out = [mpmath.mpf(c) for c in cases]  # a (man, exp) pair is exact
    with mpmath.workprec(400):
        out += [+mpmath.pi, -mpmath.e / 3, mpmath.mpf(10) ** -300]
    out += [half, -3**200, 2**(bits + 10) - 1]
    out += [0.1, -1 / 3, 1e300, 5e-324, 0.0]
    out += ["0.1", "-3.14159265358979323846264338327950288419716939937510582097",
            "1e-400", "123456789012345678901234567890.5"]
    return out


@pytest.mark.parametrize("bits", [64, 65, 113, 200])
def test_rounding_matches_workprec(bits):
    # PrecisionReal rounds with mpf(x, prec=bits), outside the mp lock; it
    # must give the same mpf as mpf(x) inside workprec(bits), halfway cases
    # (round half to even) included
    for x in _rounding_cases(bits):
        with numerics.workprec(bits):
            want = mpmath.mpf(x)._mpf_
        assert PrecisionReal(x, bits).value._mpf_ == want, x


@pytest.mark.parametrize("bits", [64, 113])
def test_from_mpc_matches_workprec(bits):
    cases = _rounding_cases(bits)
    reals = [x for x in cases if isinstance(x, mpmath.mpf)]
    for re, im in zip(reals, reversed(reals)):
        with mpmath.workprec(1000):
            z = mpmath.mpc(re, im)  # each part keeps its mantissa
        assert (z.real, z.imag) == (re, im)
        with numerics.workprec(bits):
            want = mpmath.mpc(z)
        got = PrecisionComplex.from_mpc(z, bits)
        assert (got.re.value._mpf_, got.im.value._mpf_) == (want.real._mpf_, want.imag._mpf_)
        assert got.precision_bits == bits


class TestPrecisionComplex:
    def test_roundtrip(self):
        z = PrecisionComplex.from_complex(1.5 - 2.25j, 64)
        assert complex(z) == 1.5 - 2.25j

    def test_from_mpc_preserves_high_precision(self):
        # regression: construction must not round through the ambient
        # (53-bit) mpmath context
        with mpmath.workprec(160):
            v = mpmath.mpf(1) / 3
        z = PrecisionComplex.from_mpc(v, 160)
        with mpmath.workprec(180):
            assert abs(z.re.value - mpmath.mpf(1) / 3) < mpmath.mpf(2) ** -155

    def test_abs(self):
        z = PrecisionComplex.from_complex(3 + 4j, 64)
        assert float(abs(z)) == 5.0


class TestBernoulli:
    # B_0..B_12: classical table
    TABLE = {
        0: Fr(1),
        1: Fr(-1, 2),
        2: Fr(1, 6),
        3: Fr(0),
        4: Fr(-1, 30),
        6: Fr(1, 42),
        8: Fr(-1, 30),
        10: Fr(5, 66),
        12: Fr(-691, 2730),
    }

    def test_table(self):
        for n, want in self.TABLE.items():
            assert bernoulli(n) == want

    def test_odd_vanish(self):
        for n in range(3, 31, 2):
            assert bernoulli(n) == 0

    def test_against_mpmath(self):
        for n in (14, 20, 40, 60):
            got = bernoulli(n)
            with mpmath.workprec(256):
                ref = mpmath.bernoulli(n)
                assert abs(mpmath.mpf(got.numerator) / got.denominator - ref) < abs(
                    ref
                ) * mpmath.mpf(2) ** -200

    def test_domain(self):
        with pytest.raises(DomainError):
            bernoulli(-1)

    def test_threads_grow_one_cache(self, monkeypatch):
        # threads that ask for B_0..B_200 in different orders from a cold
        # cache all get the serial values
        serial = [bernoulli(m) for m in range(201)]
        monkeypatch.setattr(numerics, "_BERN_CACHE", [Fr(1)])
        orders = [random.Random(seed).sample(range(201), 201) for seed in range(4)]
        barrier = threading.Barrier(len(orders))

        def worker(order):
            barrier.wait(timeout=60)
            return {m: bernoulli(m) for m in order}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(orders)) as ex:
                results = list(ex.map(worker, orders))
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert [got[m] for m in range(201)] == serial
        assert numerics._BERN_CACHE == serial


class TestZetaEven:
    def test_small_closed_forms(self):
        z2 = zeta_even(1, 64)
        z4 = zeta_even(2, 64)
        assert abs(float(z2) - math.pi**2 / 6) < 1e-15
        assert abs(float(z4) - math.pi**4 / 90) < 1e-14

    @pytest.mark.parametrize("l", [1, 2, 3, 5, 10, 17, 33, 64, 100])
    def test_against_mpmath(self, l):
        bits = 128
        got = zeta_even(l, bits)
        with mpmath.workprec(bits + 32):
            ref = mpmath.zeta(2 * l)
            assert abs(got.value - ref) < abs(ref) * mpmath.mpf(2) ** (-bits + 8)

    def test_monotone_to_one(self):
        vals = [zeta_even(l, 128).value for l in range(1, 30)]
        with mpmath.workprec(128):
            assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
            assert vals[-1] > 1

    def test_domain(self):
        with pytest.raises(DomainError):
            zeta_even(0, 64)


class TestZetaComplex:
    @pytest.mark.parametrize(
        "s",
        [complex(2, 0), complex(0.5, 14.134725), complex(0.5, 25.0), complex(3, -7), complex(0.25, 2)],
    )
    def test_against_mpmath(self, s):
        got = zeta_complex(s, 1e-20)
        with mpmath.workprec(160):
            ref = mpmath.zeta(mpmath.mpc(s))
            err = abs(mpmath.mpc(got.re.value, got.im.value) - ref)
            assert err < 1e-20

    def test_first_zero_magnitude(self):
        # |zeta(1/2 + 14.134725 i)| -- just off the first zero
        got = zeta_complex(complex(0.5, 14.134725), 1e-14)
        assert abs(abs(complex(got)) - 1.1241835020773294e-07) < 1e-13

    def test_pole_exclusion(self):
        with pytest.raises(DomainError):
            zeta_complex(complex(1, 1e-9), 1e-10)

    def test_real_axis_value(self):
        got = zeta_complex(complex(2, 0), 1e-22)
        assert abs(complex(got).real - math.pi**2 / 6) < 1e-20

    def test_large_imaginary_part(self):
        # e^{pi |t| / 2} alone overflows a float past |t| ~ 452
        got = zeta_complex(complex(0.5, 500), 1e-16)
        with mpmath.workprec(2 * got.precision_bits):
            ref = mpmath.zeta(mpmath.mpc(0.5, 500))
            assert abs(got.to_mpc() - ref) < 1e-16

    def test_term_cap_refuses_before_the_table(self, monkeypatch):
        def no_table(n):
            raise AssertionError(f"Borwein table of {n} terms was built")

        monkeypatch.setattr(numerics, "_borwein_d", no_table)
        with pytest.raises(ToleranceNotMet):
            zeta_complex(complex(0.5, 1e6), 1e-16)
        with pytest.raises(ToleranceNotMet):
            zeta_complex(complex(0.5, 1200), 1e-16)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=25, deadline=None)
def test_zeta_even_precision_request_honored(l):
    got = zeta_even(l, 96)
    with mpmath.workprec(160):
        ref = mpmath.zeta(2 * l)
        assert abs(got.value - ref) < abs(ref) * mpmath.mpf(2) ** -88


class TestHurwitzZeta:
    @pytest.mark.parametrize(
        "s, a, weight", [(24, 65, 2.0**40), (3, 6.5, 1), (19, 315.5, 2.0**100), (2, 1.5, 0.5)]
    )
    def test_absolute_error_within_err(self, s, a, weight):
        with mpmath.workprec(112):
            z, err = numerics.hurwitz_zeta_row({s: weight}, mpmath.mpf(a))[s]
            assert weight * err <= mpmath.mpf(2) ** -112
        with mpmath.workprec(600):
            assert abs(z - mpmath.zeta(s, a)) <= err

    def test_guard_bits_restore_relative_accuracy(self):
        # zeta(24, 65) ~ 1e-43 needs guard bits for 100 correct bits at 112
        with mpmath.workprec(112):
            z, _ = numerics.hurwitz_zeta_row({24: 2.0**150}, mpmath.mpf(65))[24]
        with mpmath.workprec(600):
            ref = mpmath.zeta(24, 65)
            assert abs(z - ref) <= ref * mpmath.mpf(2) ** -100

    @given(
        s0=st.one_of(
            st.integers(2, 9),
            st.tuples(st.floats(1.0, 4.0, exclude_min=True), st.floats(-30.0, 30.0)),
        ),
        length=st.integers(1, 60),
        step=st.sampled_from([1, 2]),
        a=st.sampled_from([2.5, 6.5, 11.5, 32.5, 65]),
        log2_weights=st.lists(st.floats(-5.0, 150.0), min_size=60, max_size=60),
        prec=st.integers(64, 300),
        checked=st.lists(st.integers(0, 59), min_size=4, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_row_within_err(self, s0, length, step, a, log2_weights, prec, checked):
        # every value of a row within its err of mpmath at twice the bits;
        # the first, the last and four drawn exponents are checked
        with mpmath.workprec(prec):
            s0 = mpmath.mpc(*s0) if isinstance(s0, tuple) else mpmath.mpf(s0)
            weights = {s0 + step * k: mpmath.mpf(2) ** w for k, w in zip(range(length), log2_weights)}
            row = numerics.hurwitz_zeta_row(weights, mpmath.mpf(a))
        keys = list(weights)
        assert list(row) == keys
        for s in {keys[0], keys[-1]} | {keys[k % length] for k in checked}:
            z, err = row[s]
            bits = prec + numerics._guard(weights[s])
            assert err == mpmath.mpf(2) ** -bits
            # near s = 1 the value is large: the reference keeps 2 bits
            # below err above it as well
            with mpmath.workprec(2 * bits + max(0, int(mpmath.log(abs(z) + 1, 2)))):
                assert abs(z - mpmath.zeta(s, a)) <= err, (s, a, prec)

    def test_exponents_an_integer_apart(self):
        with mpmath.workprec(64):
            with pytest.raises(DomainError):
                numerics.hurwitz_zeta_row({2: 1, mpmath.mpf(2.5): 1}, 3)
            with pytest.raises(DomainError):
                numerics.hurwitz_zeta_row({1: 1, 2: 1}, 3)


def _check_hurwitz_f64(qs):
    """Every hurwitz_zeta_f64 value at 2m = 2..24 and the integers qs lies
    within its returned bound of the mp value, less the mp value's err."""
    qs = np.array(sorted(qs), dtype=np.float64)
    for s in range(2, 25, 2):
        values, errs = numerics.hurwitz_zeta_f64(s, qs)
        for q, v, e in zip(qs.tolist(), values.tolist(), errs.tolist()):
            z, err = hurwitz_mp(int(q))[s]
            assert abs(mpmath.fsub(v, z, exact=True)) + err <= e, (s, q)


class TestHurwitzF64:
    def test_every_q_to_400(self):
        _check_hurwitz_f64(range(65, 401))

    @pytest.mark.parametrize("theta", ["1/2", "1/3", "1/4", "1/6", "2/3", "3/4"])
    def test_the_q_the_batch_reads(self, theta, monkeypatch):
        # at n_max 2000, 4096 and 10^4; the spec's theta = 1 term is read
        # in every case
        seen = set()
        real = fourier.hurwitz_zeta_f64

        def spy(s, q):
            seen.update(q.tolist())
            return real(s, q)

        monkeypatch.setattr(fourier, "hurwitz_zeta_f64", spy)
        spec = BeurlingSpec([(1, Fr(theta)), (-Fr(theta), 1)])
        for n_max in (2000, 4096, 10_000):
            batch_cosine_f64(spec, n_max)
        assert min(seen) == 65 and max(seen) > 20_000
        _check_hurwitz_f64(seen)

    @pytest.mark.parametrize(
        "s, q",
        [(3, [65]), (0, [65]), (2, [64]), (2, [65.5]), (2, [2.0**26]), (2, []), (160, [2.0**20])],
        ids=["odd", "zero", "q-64", "q-fraction", "q-2^26", "empty", "subnormal"],
    )
    def test_domain(self, s, q):
        with pytest.raises(DomainError):
            numerics.hurwitz_zeta_f64(s, q)
