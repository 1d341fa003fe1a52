"""functions: spec construction/serialization, frac, pointwise evaluation,
Mellin by quadrature, norms, and the refusal past the period caps."""
import json
import math
import time
from fractions import Fraction as Fr

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import beurling._periodic as periodic
import beurling
from beurling import (
    BeurlingSpec,
    ConstraintError,
    DomainError,
    ToleranceNotMet,
    eval_F,
    eval_f,
    frac,
    mellin_closed,
    mellin_numeric,
    norm_numeric,
)
from beurling._periodic import PERIOD_CAP, _period, f_abs2_pieces, u_integral_mp
from beurling.numerics import bits_for_tol, to_mp
from beurling.optimizer import _closed_entry
from conftest import failed_hypotheses
from strategies import exact_specs, reduced, unit_fraction_specs


class TestFrac:
    def test_examples(self):
        assert frac(3.0) == 0.0
        assert frac(2.75) == 0.75
        assert frac(Fr(1, 3)) == Fr(1, 3)

    def test_exact_rational(self):
        assert frac(Fr(7, 3)) == Fr(1, 3)
        assert frac(Fr(5)) == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            frac(-0.5)
        with pytest.raises(DomainError):
            frac(float("inf"))

    @given(st.floats(min_value=0, max_value=1e12, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_range_property(self, x):
        y = frac(x)
        assert 0 <= y < 1


class TestSpecConstruction:
    def test_theta_domain(self):
        with pytest.raises(DomainError):
            BeurlingSpec([(1, 2)])
        with pytest.raises(DomainError):
            BeurlingSpec([(1, 0)])
        with pytest.raises(DomainError):
            BeurlingSpec([(1, -0.5)])

    def test_admissibility_exact_rational(self):
        # 0.1 + 0.2 != 0.3 in binary; exact Fractions must see through that
        s = BeurlingSpec([(Fr(3, 10), Fr(1, 3)), (-1, Fr(1, 10))])
        assert s.admissible
        assert s.constraint_residual == 0
        s2 = BeurlingSpec([(0.3, Fr(1, 3)), (-1, Fr(1, 10))])
        # float 0.3 is NOT 3/10, so the exact residual is nonzero
        assert not s2.admissible

    @pytest.mark.parametrize("route,args", [
        ("c_cosine_series", (1,)),
        ("c_even_mellin_limit", (1,)),
        ("c_even_mellin_exact_L", (1, 8)),
        ("batch_cosine_f64", (8,)),
        ("cosine_coeffs", (8, 1e-10)),
        ("norm_via_parseval", (64,)),
        ("mellin_even", (1,)),
        ("mellin_reconstruct", (2.5, 10)),
    ])
    def test_every_route_refuses_a_non_admissible_spec(self, route, args):
        # one refusal, BeurlingSpec.require_admissible, names the exact
        # residual; c_direct and the quadratures need no admissibility
        for spec, residual in (
            (BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3))]), "residual 1/6"),
            (BeurlingSpec([((1, 1), Fr(1, 2))]), r"residual 1/2 \+ 1/2i"),
        ):
            with pytest.raises(ConstraintError, match=residual):
                getattr(beurling, route)(spec, *args)

    def test_flags(self, spec_a, adm1, triv0):
        # the fixtures' premises: SPEC_A meets the paper's hypotheses, ADM1
        # fails only |a_k| <= 1 and TRIV0 only the distinct denominators
        assert spec_a.admissible and failed_hypotheses(spec_a) == set()
        assert adm1.admissible and failed_hypotheses(adm1) == {"|a_k| <= 1"}
        assert triv0.admissible and failed_hypotheses(triv0) == {"distinct denominators"}

    def test_unit_fraction_b_consistency(self):
        # "b" is a JSON form of theta = 1/b: read as 1/b, written back
        # whenever theta has numerator 1, refused when it contradicts theta
        s = BeurlingSpec([(1, Fr(1, 4))])
        assert s.to_json_dict()["terms"][0]["b"] == 4
        assert BeurlingSpec.from_json_dict({"terms": [{"a_re": 1, "b": 4}]}) == s
        assert BeurlingSpec([(1, Fr(3, 4))]).to_json_dict()["terms"][0]["b"] is None
        with pytest.raises(DomainError, match="does not equal 1/b"):
            BeurlingSpec([(1, Fr(1, 4))], unit_fraction_denoms=[5])
        with pytest.raises(DomainError, match="does not equal 1/b"):
            BeurlingSpec.from_json_dict({"terms": [{"a_re": 1, "theta": "1/4", "b": 5}]})

    def test_too_many_pieces_per_period(self):
        # period 100000 is within PERIOD_CAP, but one period has about
        # 500,000 pieces, past PIECES_CAP: no integral of the spec is certified
        thetas = [Fr(100000 - k, 100000) for k in (1, 3, 7, 9, 11)]
        assert max(th.denominator for th in thetas) <= PERIOD_CAP
        assert _period(thetas) is None
        with pytest.raises(ToleranceNotMet, match="period"):
            BeurlingSpec([(1, th) for th in thetas]).decomposition

    def test_empty_spec(self, empty_spec):
        assert empty_spec.admissible
        assert empty_spec.N == 0
        assert eval_F(empty_spec, 0.5) == 1.0

    def test_json_roundtrip(self, spec_d):
        doc = spec_d.to_json_dict()
        back = BeurlingSpec.from_json_dict(doc)
        assert back == spec_d
        text = json.dumps(doc)
        assert BeurlingSpec.from_json(text) == spec_d

    def test_json_rational_strings(self):
        s = BeurlingSpec.from_json(
            '{"terms": [{"a_re": "1/3", "a_im": 0, "theta": "1/3"}]}'
        )
        assert s.terms[0].a_re == Fr(1, 3)
        assert s.terms[0].theta == Fr(1, 3)

    def test_json_malformed_field_diagnostics(self):
        with pytest.raises(DomainError, match="theta"):
            BeurlingSpec.from_json('{"terms": [{"a_re": 1, "a_im": 0, "theta": "x"}]}')
        with pytest.raises(DomainError, match="terms"):
            BeurlingSpec.from_json('{"terms": 7}')

    def test_json_rejects_unknown_term_keys(self):
        # A typo'd coefficient key must error, never silently become a = 0.
        with pytest.raises(DomainError, match="unknown key.*'a'"):
            BeurlingSpec.from_json('{"terms": [{"a": 1, "theta": "1/2"}]}')
        with pytest.raises(DomainError, match="unknown key"):
            BeurlingSpec.from_json(
                '{"terms": [{"a_re": 1, "theta": "1/2", "weight": 2}]}'
            )

    def test_json_requires_explicit_coefficient(self):
        with pytest.raises(DomainError, match='"a_re"'):
            BeurlingSpec.from_json('{"terms": [{"theta": "1/2"}]}')
        # One of the two parts suffices; the other defaults to zero.
        s = BeurlingSpec.from_json('{"terms": [{"a_im": "1/2", "b": 2}]}')
        assert s.terms[0].a_re == 0 and s.terms[0].a_im == Fr(1, 2)


class TestEval:
    def test_trivial_examples(self):
        s = BeurlingSpec([(1, 1)])
        assert eval_f(s, 1.0) == 0
        assert abs(eval_f(s, 2 / 3) - 0.5) < 1e-15

    def test_hand_example(self, adm1):
        # x = 0.4: rho(2.5) - 2 rho(1.25) = 0.5 - 0.5 = 0
        assert abs(eval_f(adm1, 0.4)) < 1e-15
        assert abs(eval_F(adm1, 0.4) - 1.0) < 1e-15

    def test_f_at_1_is_minus_constraint_like(self, adm1):
        # f(1) = sum a_k rho(theta_k) = 1*0 + (-2)*(1/2) = -1
        assert eval_f(adm1, 1.0) == -1

    @given(
        spec=exact_specs(),
        x=st.one_of(
            st.floats(min_value=5e-324, max_value=1.0),
            st.floats(min_value=-320, max_value=0).map(lambda e: 10.0**e),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_mp_oracle_down_to_subnormals(self, spec, x):
        # theta_k / x reaches 2^1074 at the least subnormal, so the oracle
        # keeps ~2,900 bits of each fractional part at 4,000 bits; every
        # rho is exact before its one rounding, so eval_f is off by a few
        # ulps of sum |a_k| (SPEC_A at x = 1e-17 read 0 against -1 + 1.1e-16
        # when rho was taken of the double theta/x)
        with mpmath.workprec(4000):
            xm = mpmath.mpf(x)
            ref = mpmath.mpc(0)
            for t in spec.terms:
                v = mpmath.mpf(t.theta.numerator) / (t.theta.denominator * xm)
                a = mpmath.mpc(mpmath.mpf(t.a_re.numerator) / t.a_re.denominator,
                               mpmath.mpf(t.a_im.numerator) / t.a_im.denominator)
                ref += a * (v - mpmath.floor(v))
            ref = complex(ref)
        scale = sum(abs(t.a) for t in spec.terms)
        assert abs(eval_f(spec, x) - ref) <= 4 * spec.N * scale * 2.0**-53

    def test_domain(self, adm1):
        for x in (0.0, -0.3, 1.5):
            with pytest.raises(DomainError):
                eval_f(adm1, x)

    @given(st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_bound_property(self, x):
        s = BeurlingSpec([(1, Fr(1, 2)), (Fr(-9, 10), Fr(1, 3)), (-1, Fr(1, 5))])
        v = eval_f(s, x)
        # |f| <= sum |a_k|, since 0 <= frac < 1
        assert abs(v) <= sum(abs(t.a) for t in s.terms) + 1e-12


class TestMellinNumeric:
    def test_adm1_oracle_s2(self, adm1):
        # at tol 1e-12 the float64 tier takes it, within its certificate; at
        # 1e-20 the mp engine, within 1e-20 of the oracle
        with mpmath.workprec(120):
            ref = mpmath.mpf("0.0887664832879433908818962083385")
        mv = mellin_numeric(adm1, 2.0, 1e-12)
        assert mv.provenance == "quadrature"
        assert mv.value.precision_bits == 64
        assert float(mv.error_bound) <= 1e-12
        with mpmath.workprec(120):
            assert abs(mv.value.re.value - ref) <= mv.error_bound.value
        mv = mellin_numeric(adm1, 2.0, 1e-20)
        assert mv.value.precision_bits > 64
        with mpmath.workprec(120):
            assert abs(mv.value.re.value - ref) < 1e-20

    def test_adm1_oracle_s4(self, adm1):
        with mpmath.workprec(120):
            ref = mpmath.mpf("0.0132417926256885206058741913816")
        mv = mellin_numeric(adm1, 4.0, 1e-12)
        assert mv.value.precision_bits == 64
        with mpmath.workprec(120):
            assert abs(mv.value.re.value - ref) <= mv.error_bound.value
        mv = mellin_numeric(adm1, 4.0, 1e-20)
        assert mv.value.precision_bits > 64
        with mpmath.workprec(120):
            assert abs(mv.value.re.value - ref) < 1e-20

    def test_complex_s_matches_closed(self, adm1):
        from beurling import mellin_closed

        s = complex(1.5, 2.0)
        q = mellin_numeric(adm1, s, 1e-11)
        c = mellin_closed(adm1, s, 1e-13)
        assert abs(complex(q.value) - complex(c.value)) < 1e-10

    def test_non_dyadic_s_within_error_bound(self, spec_a):
        # s + 1 must be formed at the working precision: rounded in float64
        # at s = 0.3 it moved the value by ~3e-16 against an error_bound ~6e-27
        from beurling import mellin_closed

        q = mellin_numeric(spec_a, 0.3, 1e-10)
        c = mellin_closed(spec_a, 0.3, 1e-40)
        with mpmath.workprec(2 * q.value.re.precision_bits):
            gap = abs(q.value.to_mpc() - c.value.to_mpc())
            assert gap <= q.error_bound.value + c.error_bound.value

    def test_empty_spec_closed_form(self, empty_spec):
        # M(s) = 1/s for F = 1
        for s in (1.5, 2.0, 3.25):
            mv = mellin_numeric(empty_spec, s, 1e-12)
            assert abs(complex(mv.value).real - 1 / s) < 1e-12

    def test_domain(self, adm1):
        with pytest.raises(DomainError):
            mellin_numeric(adm1, -1.0, 1e-10)
        with pytest.raises(DomainError):
            mellin_numeric(adm1, 2.0, -1e-10)

    @pytest.mark.parametrize(
        "s", [math.nan, math.inf, complex(1.0, math.nan), complex(2.0, -math.inf)]
    )
    def test_non_finite_s(self, spec_a, s):
        with pytest.raises(DomainError):
            mellin_numeric(spec_a, s, 1e-10)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol(self, spec_a, tol):
        with pytest.raises(DomainError):
            mellin_numeric(spec_a, 2.0, tol)

    def test_refuses_past_the_period_cap(self):
        # the period 997 * 991 is past the cap, and so is that of the float
        # 1/pi; a loose tol does not help
        for spec in (
            BeurlingSpec([(1, Fr(1, 997)), (-1, Fr(1, 991))]),
            BeurlingSpec([(1.0, 1 / math.pi)]),
        ):
            with pytest.raises(ToleranceNotMet, match="period"):
                mellin_numeric(spec, complex(1.5, 2), 1e-4)

    @pytest.mark.parametrize("s", [2.0, 3.0, 4.0, 0.3, complex(1.5, 2)])
    def test_stored_bound_rounds_up(self, s):
        # the mp certificate rounded to nearest fell below it at s = 3 and 4
        # on SPEC_A; that spec now takes the float64 tier, so the check runs
        # on a non-admissible spec, whose rounded-to-nearest certificate
        # would fall below it at s = 2, 3, 4 and 1.5 + 2i
        spec = BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3))])
        mv = mellin_numeric(spec, s, 1e-10)
        bits = bits_for_tol(1e-10) + 32
        with mpmath.workprec(bits):
            r = mpmath.mpc(s) + 1
        _, err = u_integral_mp(spec.linear_pieces, spec.decomposition.period, r, bits)
        assert mv.error_bound.value >= err


class TestNormNumeric:
    def test_adm1_norm_is_1_minus_ln2(self, adm1):
        nn = norm_numeric(adm1, 1e-12)
        assert abs(float(nn) ** 2 - (1 - math.log(2))) < 1e-12

    def test_single_term_oracle(self):
        s = BeurlingSpec([(1, 1)])
        nn = norm_numeric(s, 1e-12)
        with mpmath.workprec(96):
            ref = mpmath.mpf("1.451285661647887604")
            assert abs(nn.value - ref) < 1e-15

    def test_refuses_past_the_period_cap(self):
        # the float 0.3 has period 2^54; the refusal comes before any work
        spec = BeurlingSpec([(1, 0.3), (-0.3, 1)])
        start = time.perf_counter()
        with pytest.raises(ToleranceNotMet, match="period"):
            norm_numeric(spec, 1e-6)
        assert time.perf_counter() - start < 1.0

    def test_certificate_covers_an_overestimated_square(self, monkeypatch):
        # a square sq = 4.0001e-12 within e = 1e-12 of the true one may
        # overestimate it by e: the norm is then off by
        # e / (sqrt(sq) + sqrt(sq - e)) = 2.68e-7, past e / (2 sqrt(sq)) =
        # 2.50e-7 and past tol. The spec is not admissible, so the integral
        # is u_integral_mp's
        spec = BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3))])
        monkeypatch.setattr(periodic, "u_integral_mp", lambda *args: (4.0001e-12, 1e-12))
        with pytest.raises(ToleranceNotMet, match="the L2 norm"):
            norm_numeric(spec, 2.59e-7)

    def test_non_admissible_norm_keeps_its_bits(self):
        # the float64 tier declines pieces of degree 1, so this norm comes
        # from the mp engine with the bits it had before the tier
        n = norm_numeric(NON_ADMISSIBLE, 1e-10)
        assert n.precision_bits == 80
        assert n.value._mpf_ == (0, 673707327479681974825919, -79, 80)

    def test_empty_norm_is_one(self, empty_spec):
        assert abs(float(norm_numeric(empty_spec, 1e-12)) - 1.0) < 1e-14

    def test_triv0_norm_is_one(self, triv0):
        assert abs(float(norm_numeric(triv0, 1e-12)) - 1.0) < 1e-12

    def test_complex_coefficients(self):
        # a = i on theta=1/2: |F|^2 = 1 + rho^2, admissibility not required.
        # Closed form: int_0^1 frac(t/x)^2 dx = t(1-t) + t(ln 2pi - gamma - 1)
        s = BeurlingSpec([(1j, Fr(1, 2))])
        nn = norm_numeric(s, 1e-10)
        with mpmath.workprec(80):
            c = mpmath.log(2 * mpmath.pi) - mpmath.euler - 1
            ref = mpmath.sqrt(1 + mpmath.mpf(1) / 4 + c / 2)
            assert abs(float(nn) - float(ref)) < 1e-10


# Complex coefficients, theta = 1/2, 1/3, 2/5: period 30
SPEC_CX = BeurlingSpec(
    [((Fr(1, 2), Fr(1, 3)), Fr(1, 2)), ((Fr(-1, 4), Fr(1, 5)), Fr(1, 3)), (Fr(-2, 3), Fr(2, 5))]
)


def _within_certificate(spec, s, tol, may_refuse=True):
    """mellin_numeric within its error_bound of mellin_closed at twice the
    working bits, or (if may_refuse) ToleranceNotMet."""
    try:
        q = mellin_numeric(spec, s, tol)
    except ToleranceNotMet:
        if may_refuse:
            return
        raise
    bits = 2 * q.value.re.precision_bits
    c = mellin_closed(spec, s, 2.0**-bits)
    with mpmath.workprec(bits):
        gap = abs(q.value.to_mpc() - c.value.to_mpc())
        assert gap <= q.error_bound.value + c.error_bound.value, (spec, s, tol, gap)


class TestUTailCertificate:
    """The u-tail of u_integral_mp is the Hurwitz kernel expansion with an a
    priori bound; mellin_numeric and norm_numeric must stay within it."""

    @settings(max_examples=25, deadline=None)
    @given(
        spec=exact_specs(),
        sigma=st.floats(0.01, 4.0),
        t=st.floats(-400.0, 400.0),
        tol=st.sampled_from([1e-10, 1e-25]),
    )
    def test_mellin_within_error_bound(self, spec, sigma, t, tol):
        s = complex(sigma, t)
        assume(abs(s - 1) > 1e-3)
        _within_certificate(spec, s, tol)

    @settings(max_examples=25, deadline=None)
    @given(
        spec=unit_fraction_specs(),
        sigma=st.floats(1e-6, 0.1),
        t=st.floats(-20.0, 20.0),
        tol=st.sampled_from([1e-10, 1e-25]),
    )
    def test_mellin_near_sigma_zero(self, spec, sigma, t, tol):
        # Re r = 1 + sigma: the tail's e_0 grows like 1/sigma, and the
        # admissible specs keep M(s) finite as sigma -> 0; every draw must
        # certify
        _within_certificate(spec, complex(sigma, t), tol, may_refuse=False)

    @pytest.mark.parametrize(
        "spec, s",
        [(None, complex(2, 400)), (SPEC_CX, complex(0.5, 120))],
        ids=["SPEC_A-2+400i", "CX-0.5+120i"],
    )
    def test_large_imaginary_part(self, spec_a, spec, s):
        _within_certificate(spec or spec_a, s, 1e-25, may_refuse=False)

    def test_past_the_head_span_cap(self, spec_a):
        # c >= |r| would stretch the head to ~10^6 periods
        with pytest.raises(ToleranceNotMet, match="head spans"):
            mellin_numeric(spec_a, complex(0.5, 1e6), 1e-10)

    def test_past_the_term_cap(self, spec_a):
        # at c = 11.5 each term gains ~4.5 bits: 200 terms fall short of the
        # ~1050 bits that tol = 1e-300 asks for
        with pytest.raises(ToleranceNotMet, match="kernel expansion"):
            mellin_numeric(spec_a, 2.0, 1e-300)

    @pytest.mark.parametrize(
        "name", ["EMPTY", "TRIV0", "SPEC_A", "SPEC_D", "SPEC_E", "ADM1", "GRAM0", "GRAM1"]
    )
    def test_norm_against_quad_tail(self, admissible_specs, name):
        gram = {
            # the theta sets of the optimize benchmark jobs, with admissible a
            "GRAM0": BeurlingSpec(
                [(Fr(1, 2), Fr(1, 6)), (Fr(-1, 3), Fr(1, 4)), (1, Fr(1, 3)), (Fr(-1, 2), Fr(2, 3))]
            ),
            "GRAM1": BeurlingSpec(
                [(Fr(3, 2), Fr(1, 6)), (-1, Fr(1, 4)), (Fr(1, 4), Fr(1, 3)), (Fr(-1, 9), Fr(3, 4))]
            ),
        }
        spec = gram.get(name) or admissible_specs[name]
        pieces = f_abs2_pieces(spec.linear_pieces)
        val, err = u_integral_mp(pieces, spec.decomposition.period, 2, 64)
        ref = _quad_norm_sq(spec, 128)
        with mpmath.workprec(128):
            assert abs(val.real - ref) <= err
        assert abs(float(norm_numeric(spec, 1e-10)) - math.sqrt(float(ref))) <= 1e-10


SPEC_A = BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3)), (-1, Fr(1, 6))])
ADM1 = BeurlingSpec([(1, 1), (-2, Fr(1, 2))])
# complex coefficients on theta = 1/2, 1/3, 2/5, admissible: period 30
CX_ADM = BeurlingSpec(
    [((Fr(1, 2), Fr(1, 3)), Fr(1, 2)), ((Fr(-1, 4), Fr(1, 5)), Fr(1, 3)), ((Fr(-5, 12), Fr(-7, 12)), Fr(2, 5))]
)
NON_ADMISSIBLE = BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3))])
TIER_SPECS = st.one_of(exact_specs(always_admissible=True), st.sampled_from([SPEC_A, ADM1, CX_ADM]))
TIER_S = st.one_of(
    st.floats(0.01, 4.0),
    st.builds(complex, st.floats(0.01, 4.0), st.floats(-50.0, 50.0)),
)


def _tier_pieces(spec, norm):
    """(pieces, B) of M(s) = int_1^inf F(1/u) u^(-1-s) du, or with norm
    those of ||F||^2, the integral of |F(1/u)|^2 at s = 1."""
    pieces = spec.linear_pieces
    return (f_abs2_pieces(pieces) if norm else pieces), spec.decomposition.period


def _r_max(pieces, B):
    """The bound on sup |R| that the float64 tier reads: Re and Im parts."""
    _, ((_, _, r_re), (_, _, r_im)), _ = periodic._degree0(pieces, B)
    return r_re + r_im


def _mp_power_tail_parts(pieces, B, s, U, bits):
    """(tail, p_bar part, q_bar part) at `bits`: the integral past U as the
    mp integral less its head on [1, U] by exact power differences, and the
    two closed-form parts of the float64 tier."""
    with mpmath.workprec(bits):
        r = mpmath.mpc(s) + 1
    total, _ = u_integral_mp(pieces, B, r, bits)
    _, ((p_re, q_re, _), (p_im, q_im, _)), _ = periodic._degree0(pieces, B)
    with mpmath.workprec(bits):
        s_mp = mpmath.mpc(s)
        head = mpmath.mpc(0)
        for off in range(0, U, B):
            for lo, hi, cs in pieces:
                lo_u, hi_u = max(lo + off, Fr(1)), hi + off
                if hi_u > lo_u:
                    head += to_mp(cs[0]) * (to_mp(lo_u) ** -s_mp - to_mp(hi_u) ** -s_mp) / s_mp
        U_mp = mpmath.mpf(U)
        return (total - head, to_mp((p_re, p_im)) * U_mp**-s_mp / s_mp,
                to_mp((q_re, q_im)) * U_mp ** (-s_mp - 1))


class TestUIntegralF64Tier:
    """The float64 tier of int_1^inf P(u) u^(-1-s) du for constant pieces,
    against u_integral_mp at twice the bits."""

    @settings(max_examples=40, deadline=None)
    @given(spec=TIER_SPECS, s=TIER_S, tol=st.sampled_from([1e-6, 1e-8, 1e-10, 1e-12]), norm=st.booleans())
    # F = 1 and F = 1 on a spec with f = 0: E = 0, so only roundoff is left
    @example(spec=BeurlingSpec(), s=0.3, tol=1e-10, norm=False)
    @example(spec=BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 2))]), s=complex(1.5, 2), tol=1e-12, norm=False)
    @example(spec=BeurlingSpec(), s=1.0, tol=1e-12, norm=True)
    @example(spec=SPEC_A, s=0.3, tol=1e-10, norm=False)
    @example(spec=CX_ADM, s=complex(0.25, -40.0), tol=1e-8, norm=False)
    @example(spec=ADM1, s=1.0, tol=1e-10, norm=True)
    def test_within_certificate(self, spec, s, tol, norm):
        # the tier's value is within its certificate of the mp value at
        # twice the bits, and mellin_numeric stores that value
        pieces, B = _tier_pieces(spec, norm)
        if norm:
            s = 1.0
        row = periodic.power_integral_f64(pieces, B, s, tol)
        if row is None:
            return
        val, cert = row
        assert cert <= tol
        bits = 2 * (bits_for_tol(tol) + 32)
        with mpmath.workprec(bits):
            r = mpmath.mpc(s) + 1
        ref, ref_err = u_integral_mp(pieces, B, r, bits)
        with mpmath.workprec(bits):
            assert abs(mpmath.mpc(val) - ref) + ref_err <= cert, (spec, s, tol, norm)
        if not norm:
            mv = mellin_numeric(spec, s, tol)
            assert complex(mv.value) == val and float(mv.error_bound) == cert
            assert mv.value.precision_bits == 64

    @pytest.mark.parametrize(
        "which, s, tol, norm",
        [
            ("SPEC_A", 2.5, 1e-8, False),
            ("SPEC_A", 0.7, 1e-6, False),
            ("SPEC_A", complex(1.5, 2), 1e-8, False),
            ("CX_ADM", complex(2.0, -3), 1e-8, False),
            ("ADM1", 1.0, 1e-8, True),
            ("ADM1", 3.5, 1e-10, False),
        ],
    )
    def test_tail_beyond_U_within_E(self, which, s, tol, norm):
        # the mp tail past U, less the two closed-form parts, is at most E
        spec = {"SPEC_A": SPEC_A, "CX_ADM": CX_ADM, "ADM1": ADM1}[which]
        pieces, B = _tier_pieces(spec, norm)
        U, E = periodic._power_end(_r_max(pieces, B), B, complex(s), tol, 10**6)
        assert E <= Fr(tol) / 4
        bits = 2 * (bits_for_tol(tol) + 32)
        tail, p_part, q_part = _mp_power_tail_parts(pieces, B, s, U, bits)
        with mpmath.workprec(bits):
            assert abs(tail - p_part - q_part) <= to_mp(E)

    def test_end_is_least(self):
        # U is the least allowed multiple of B whose E meets tol/4, and E is
        # at least |(s+1)(s+2)| r_max U^-(sig+2)/(sig+2)
        for spec, s, tol in [(SPEC_A, 0.3, 1e-10), (CX_ADM, complex(1.5, 2), 1e-8), (ADM1, 2.5, 1e-12)]:
            pieces, B = spec.linear_pieces, spec.decomposition.period
            r_max = _r_max(pieces, B)
            U, E = periodic._power_end(r_max, B, complex(s), tol, 10**6)
            with mpmath.workprec(200):
                s_mp = mpmath.mpc(s)

                def exact(U):
                    return (abs((s_mp + 1) * (s_mp + 2)) * to_mp(r_max) * mpmath.mpf(U) ** (-s_mp.real - 2)
                            / (s_mp.real + 2))

                assert to_mp(E) >= exact(U)
                assert E <= Fr(tol) / 4
                if U - B >= periodic._choose_U(B):
                    assert exact(U - B) > tol / 4

    def test_declines(self):
        # degree-1 pieces (a spec with sum a_k theta_k != 0), a tol beyond
        # doubles, and s past the caps on Re s and |Im s|
        pieces, B = NON_ADMISSIBLE.linear_pieces, NON_ADMISSIBLE.decomposition.period
        assert periodic.power_integral_f64(pieces, B, 2.5, 1e-6) is None
        assert periodic.power_integral_f64(f_abs2_pieces(pieces), B, 1.0, 1e-6) is None
        pieces, B = SPEC_A.linear_pieces, SPEC_A.decomposition.period
        for s, tol in [(2.5, 1e-20), (0.3, 1e-16), (40.0, 1e-6), (complex(1, 2000), 1e-6)]:
            assert periodic.power_integral_f64(pieces, B, s, tol) is None, (s, tol)
        assert mellin_numeric(SPEC_A, 2.5, 1e-20).value.precision_bits > 64


def _closed_norm_sq(spec, bits):
    """(||F_N||^2, err_bound) from the closed-form Gram entries:
    1 + 2 Re sum a_k v(theta_k) + sum_j sum_k a_j conj(a_k) G(theta_j, theta_k)."""
    cots = {}

    def entry(*ths):
        return _closed_entry(*reduced(ths), bits, cots)

    terms = spec.terms
    with mpmath.workprec(2 * bits):
        a = [to_mp((t.a_re, t.a_im)) for t in terms]
        total, err = mpmath.mpf(1), mpmath.mpf(2) ** -bits
        for aj, tj in zip(a, terms):
            v, e = entry(tj.theta)
            total += 2 * aj.real * v
            err += 2 * abs(aj) * e
            for ak, tk in zip(a, terms):
                g, e = entry(tj.theta, tk.theta)
                total += (aj * mpmath.conj(ak)).real * g
                err += abs(aj) * abs(ak) * e
        return total, err


class TestNormClosedForm:
    """norm_numeric within its tol of the norm that the closed-form Gram
    entries give, over random exact specs: |n^2 - N^2| <= tol (2n + tol)."""

    @settings(max_examples=50, deadline=None)
    @given(spec=exact_specs(), tol=st.sampled_from([1e-10, 1e-25]))
    def test_norm_numeric(self, spec, tol):
        n = norm_numeric(spec, tol)
        bits = 2 * n.precision_bits
        ref, ref_err = _closed_norm_sq(spec, bits)
        with mpmath.workprec(bits):
            assert abs(n.value**2 - ref) <= tol * (2 * n.value + tol) + ref_err, (spec, tol)


def _quad_norm_sq(spec, bits):
    """||F_N||^2 = int_1^inf |F(1/u)|^2 u^-2 du with the tail past u = B as
    B^-2 int p(w) zeta(2, (B+w)/B) dw, every piece by mpmath.quad: the
    estimate the periodic engine used before its kernel expansion."""
    pieces = f_abs2_pieces(spec.linear_pieces)
    B = spec.decomposition.period
    with mpmath.workprec(bits):
        total = mpmath.mpf(0)
        for lo, hi, cs in pieces:
            c0, c1, c2 = (mpmath.mpf(c.numerator) / c.denominator for c in cs)

            def p(w):
                return c0 + (c1 + c2 * w) * w

            start = max(lo, 1)
            if hi > start:
                total += mpmath.quad(lambda u: p(u) / u**2, [start, hi])
            total += mpmath.quad(lambda w: p(w) * mpmath.zeta(2, (B + w) / B), [lo, hi]) / B**2
        return total
