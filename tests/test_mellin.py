"""mellin: exact power sums, closed-form transform, even-argument values
and the growth bound. Dual-route checks against quadrature are kept
deliberately: the two sides share no code path."""
from fractions import Fraction as Fr

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beurling import (
    BeurlingSpec,
    ConstraintError,
    DomainError,
    MellinValue,
    PrecisionComplex,
    PrecisionReal,
    mellin_closed,
    mellin_even,
    mellin_even_bound,
    mellin_numeric,
    power_sum,
    power_sum_exact,
)
from conftest import failed_hypotheses


class TestPowerSum:
    def test_exact_values(self, adm1, spec_a):
        assert power_sum_exact(adm1, 1) == (Fr(0), Fr(0))
        assert power_sum_exact(adm1, 2) == (Fr(1, 2), Fr(0))
        assert power_sum_exact(adm1, 3) == (Fr(3, 4), Fr(0))
        assert power_sum_exact(spec_a, 1) == (Fr(0), Fr(0))
        # P(2) = 1/4 - 1/9 - 1/36 = 1/9
        assert power_sum_exact(spec_a, 2) == (Fr(1, 9), Fr(0))

    def test_p1_is_constraint_residual(self):
        s = BeurlingSpec([(Fr(2, 7), Fr(1, 3)), (1, Fr(1, 5))])
        assert power_sum_exact(s, 1) == s.residual_exact

    def test_integer_s_uses_exact_path(self, adm1):
        v = power_sum(adm1, 2, tol=1e-30)
        with mpmath.workprec(140):
            assert abs(v.re.value - mpmath.mpf(1) / 2) < mpmath.mpf(2) ** -100
            assert v.im.value == 0

    def test_noninteger_s(self, adm1):
        v = power_sum(adm1, 2.5, tol=1e-20)
        with mpmath.workprec(120):
            ref = 1 - 2 * mpmath.mpf(0.5) ** mpmath.mpf(2.5)
            assert abs(v.re.value - ref) < mpmath.mpf(1e-20)

    def test_complex_s(self, spec_a):
        s = complex(2.0, 3.0)
        v = power_sum(spec_a, s, tol=1e-18)
        with mpmath.workprec(100):
            ref = mpmath.mpc(0)
            for a, th in ((1, 0.5), (-1, mpmath.mpf(1) / 3), (-1, mpmath.mpf(1) / 6)):
                ref += a * mpmath.exp(mpmath.mpc(s) * mpmath.log(mpmath.mpf(th)))
            got = mpmath.mpc(v.re.value, v.im.value)
            assert abs(got - ref) < mpmath.mpf(1e-18)

    @given(st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_exact_matches_float_path(self, n):
        spec = BeurlingSpec([(Fr(1, 2), Fr(1, 2)), (Fr(-3, 8), Fr(1, 3)), (Fr(-1, 2), Fr(1, 4))])
        re, im = power_sum_exact(spec, n)
        v = power_sum(spec, float(n) + 0.0, tol=1e-16)
        # float n is integer-valued, so the exact branch must be taken
        assert abs(float(v.re) - float(re)) < 1e-15
        assert im == 0


class TestMellinClosed:
    def test_adm1_s2_oracle(self, adm1):
        mv = mellin_closed(adm1, 2.0, 1e-25)
        assert mv.provenance == "closed_form"
        with mpmath.workprec(130):
            ref = mpmath.mpf("0.0887664832879433908818962083385")
            assert abs(mv.value.re.value - ref) < mpmath.mpf(1e-25)

    def test_adm1_s4_oracle(self, adm1):
        mv = mellin_closed(adm1, 4.0, 1e-25)
        with mpmath.workprec(130):
            ref = mpmath.mpf("0.0132417926256885206058741913816")
            assert abs(mv.value.re.value - ref) < mpmath.mpf(1e-25)

    def test_empty_spec_is_one_over_s(self, empty_spec):
        for s in (0.5, 2.0, 3.25, complex(1.5, -2.0)):
            mv = mellin_closed(empty_spec, s, 1e-14)
            assert abs(complex(mv.value) - 1 / complex(s)) < 1e-13

    def test_dual_route_quadrature(self, adm1, spec_a):
        # closed form vs certified quadrature -- independent code paths
        for spec in (adm1, spec_a):
            for s in (2.0, 3.5, complex(1.25, 1.0), complex(2.0, -4.0)):
                c = mellin_closed(spec, s, 1e-13)
                q = mellin_numeric(spec, s, 1e-11)
                assert abs(complex(c.value) - complex(q.value)) < 2e-11

    def test_nonadmissible_pole_term(self):
        # residual r = 1: M(s) picks up r/(s-1); verify against quadrature
        spec = BeurlingSpec([(1, 1)])
        assert spec.residual_exact == (Fr(1), Fr(0))
        c = mellin_closed(spec, 3.0, 1e-13)
        q = mellin_numeric(spec, 3.0, 1e-11)
        assert abs(complex(c.value) - complex(q.value)) < 2e-11

    def test_pole_exclusion_disk(self, adm1):
        for s in (1.0, 1.0 + 5e-7j, 1.0000005, 1.0 - 9.9e-7j):
            with pytest.raises(DomainError):
                mellin_closed(adm1, s, 1e-12)
        # just outside the disk is fine
        mellin_closed(adm1, 1.0 + 2e-6j, 1e-10)

    def test_domain(self, adm1):
        with pytest.raises(DomainError):
            mellin_closed(adm1, -2.0, 1e-12)
        with pytest.raises(DomainError):
            mellin_closed(adm1, complex(0.0, 3.0), 1e-12)
        with pytest.raises(DomainError):
            mellin_closed(adm1, 2.0, 0.0)
        with pytest.raises(DomainError):
            mellin_closed(adm1, float("nan"), 1e-12)


class TestMellinEven:
    def test_adm1_l1_matches_closed(self, adm1):
        # (1 - zeta(2) * 1/2) / 2, cross-checked against the generic closed form
        ev = mellin_even(adm1, 1, 1e-30)
        cl = mellin_closed(adm1, 2.0, 1e-25)
        with mpmath.workprec(140):
            ref = (1 - mpmath.zeta(2) / 2) / 2
            assert abs(ev.value.re.value - ref) < mpmath.mpf(1e-30)
            assert abs(ev.value.re.value - cl.value.re.value) < mpmath.mpf(1e-24)

    def test_empty_spec_exact(self, empty_spec):
        for l in range(1, 11):
            ev = mellin_even(empty_spec, l, 1e-30)
            with mpmath.workprec(130):
                assert abs(ev.value.re.value - mpmath.mpf(1) / (2 * l)) < mpmath.mpf(2) ** -100

    def test_error_bound_honest(self, spec_a):
        for l in (1, 3, 7):
            ev = mellin_even(spec_a, l, 1e-20)
            cl = mellin_closed(spec_a, float(2 * l), 1e-22)
            gap = abs(complex(ev.value) - complex(cl.value))
            assert gap <= float(ev.error_bound) + 1e-22

    def test_requires_admissible(self):
        spec = BeurlingSpec([(1, Fr(1, 2))])
        with pytest.raises(ConstraintError):
            mellin_even(spec, 1, 1e-12)

    def test_domain(self, adm1):
        for bad in (0, -1, 2.0, "2"):
            with pytest.raises(DomainError):
                mellin_even(adm1, bad, 1e-12)
        with pytest.raises(DomainError):
            mellin_even(adm1, 1, -1e-12)


class TestMellinEvenBound:
    def test_l1_value(self):
        b = mellin_even_bound(1)
        with mpmath.workprec(80):
            ref = (1 + mpmath.zeta(2) ** 2) / 2
            assert abs(b.value - ref) < mpmath.mpf(1e-15)

    def test_bounds_hypothesis_specs(self, spec_a, spec_d, spec_e):
        for spec in (spec_a, spec_d, spec_e):
            assert not failed_hypotheses(spec)
            for l in range(1, 11):
                ev = mellin_even(spec, l, 1e-14)
                assert abs(complex(ev.value)) <= float(mellin_even_bound(l))

    def test_monotone_decreasing(self):
        vals = [float(mellin_even_bound(l)) for l in range(1, 15)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            mellin_even_bound(0)


class TestMellinValue:
    def test_validation(self):
        s = PrecisionComplex.from_complex(2.0, 64)
        v = PrecisionComplex.from_complex(0.1, 64)
        with pytest.raises(ValueError):
            MellinValue(s=s, value=v, provenance="guess", error_bound=PrecisionReal.from_float(0, 64))
        with pytest.raises(ValueError):
            MellinValue(s=s, value=v, provenance="closed_form",
                        error_bound=PrecisionReal.from_float(-1e-9, 64))
