"""optimizer: Gram assembly oracles, KKT solve, exact reprojection of float
solutions, residual cross-checks, and the nested-family sweep."""
import math
from fractions import Fraction as Fr

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beurling import (
    DomainError,
    GramSystem,
    SingularSystemError,
    ToleranceNotMet,
    build_gram,
    norm_numeric,
    optimize_coeffs,
    residual_report,
    spec_from_solution,
    sweep,
    unit_thetas,
)
from beurling._periodic import (
    PERIOD_CAP,
    _period,
    rho_pair_pieces,
    rho_single_pieces,
    u_integral_f64,
    u_integral_mp,
)
from beurling import optimizer
from beurling.numerics import _gamma, bits_for_tol, check_cert, to_double, to_mp
from beurling.optimizer import _closed_entry, _cot_f64, _f64_entries, _f64_v
from strategies import reduced

# Frozen Gram oracles for thetas = (1, 1/2); closed forms:
#   G00 = int rho(1/x)^2 = ln(2 pi) - gamma - 1
#   G11 = int rho(1/2x)^2 = 1/4 + G00/2
#   v0  = int rho(1/x)   = 1 - gamma
#   v1  = int rho(1/2x)  = 1/2 - gamma/2 + (ln 2)/2 ... frozen numerically
G00 = 0.2606614015078126
G01 = 0.27220925599087314
G11 = 0.3803307007539063
V0 = 0.4227843350984671
V1 = 0.5579657578292062


class TestUnitThetas:
    def test_values(self):
        assert unit_thetas(3) == (Fr(1), Fr(1, 2), Fr(1, 3))

    def test_domain(self):
        with pytest.raises(DomainError):
            unit_thetas(0)


class TestBuildGram:
    def test_frozen_oracles(self):
        gs = build_gram([1, Fr(1, 2)], tol=1e-10)
        assert abs(gs.G[0, 0] - G00) < 1e-9
        assert abs(gs.G[0, 1] - G01) < 1e-9
        assert abs(gs.G[1, 1] - G11) < 1e-9
        assert abs(gs.v[0] - V0) < 1e-9
        assert abs(gs.v[1] - V1) < 1e-9

    def test_closed_forms(self):
        # the diagonal against ln(2 pi) - gamma - 1 and its theta = 1/2
        # rescaling; v0 against 1 - gamma
        with mpmath.workprec(70):
            c = float(mpmath.log(2 * mpmath.pi) - mpmath.euler - 1)
            assert abs(G00 - c) < 1e-12
            assert abs(G11 - (0.25 + c / 2)) < 1e-12
            assert abs(V0 - float(1 - mpmath.euler)) < 1e-12

    def test_symmetry_and_psd(self):
        gs = build_gram(unit_thetas(6), tol=1e-9)
        assert np.array_equal(gs.G, gs.G.T)
        assert float(np.min(np.linalg.eigvalsh(gs.G))) > -1e-8

    def test_psd_check_runs_once_per_checked_system(self, monkeypatch):
        # build_gram, from_json and direct construction run the eigvalsh
        # check; sweep runs it once, on the Gram system built at n_to
        calls = []
        real = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return real(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        full = build_gram(unit_thetas(8), tol=1e-9)
        assert calls == [(8, 8)]
        GramSystem.from_json(full.to_json())
        GramSystem(full.thetas, full.G, full.v, full.build_tol)
        assert calls == [(8, 8)] * 3
        calls.clear()
        sweep(1, 8, tol=1e-9)
        assert calls == [(8, 8)]

    def test_validation(self):
        with pytest.raises(ValueError):
            GramSystem(
                thetas=(Fr(1), Fr(1, 2)),
                G=np.array([[1.0, 0.5], [0.4, 1.0]]),  # asymmetric
                v=np.array([0.4, 0.5]),
                build_tol=1e-9,
            )

    def test_json_roundtrip(self):
        gs = build_gram(unit_thetas(4), tol=1e-9)
        back = GramSystem.from_json(gs.to_json())
        assert np.array_equal(back.G, gs.G)
        assert np.array_equal(back.v, gs.v)
        assert back.thetas == gs.thetas

    def test_domain(self):
        # the empty Gram system is well-defined; optimizing it is not
        gs = build_gram([], tol=1e-9)
        assert gs.N == 0
        with pytest.raises(DomainError):
            optimize_coeffs(None, tol=1e-9, gram=gs)
        with pytest.raises(DomainError):
            build_gram([2], tol=1e-9)  # theta > 1


def _g_diag(th):
    """G(theta, theta) = theta (ln 2 pi - gamma - theta), at 120 bits."""
    with mpmath.workprec(120):
        t = mpmath.mpf(th.numerator) / th.denominator
        return float(t * (mpmath.log(2 * mpmath.pi) - mpmath.euler - t))


def _v_closed(th):
    """v(theta) = theta (1 - gamma - ln theta), at 120 bits."""
    with mpmath.workprec(120):
        t = mpmath.mpf(th.numerator) / th.denominator
        return float(t * (1 - mpmath.euler - mpmath.log(t)))


@st.composite
def _wide_pairs(draw):
    """theta_1, theta_2 in (0, 1] with denominators up to 4*10^5; small
    numerators and denominators are drawn often enough that the reduced
    ratio's numerator falls on both sides of PERIOD_CAP."""
    ths = []
    for _ in range(2):
        q = draw(st.one_of(st.integers(1, 400), st.integers(1, 400_000)))
        ths.append(Fr(draw(st.one_of(st.integers(1, min(q, 400)), st.integers(1, q))), q))
    return tuple(ths)


class TestGramLadder:
    """The Gram entries from the reduced ratio alone: the closed form for
    every pair whose ratio has a period in reach, joint period or not, and
    the refusal of a pair whose ratio has none."""

    def test_mp_stage(self):
        ths = (Fr(1), Fr(1, 2))
        gs = build_gram(list(ths), tol=1e-16)
        # each entry within tol, each reference within half an ulp
        for i, th in enumerate(ths):
            for got, ref in ((gs.G[i, i], _g_diag(th)), (gs.v[i], _v_closed(th))):
                assert abs(got - ref) <= 1e-16 + 0.5 * math.ulp(ref)

    @pytest.mark.parametrize(
        "theta, tol", [(Fr(2, 3), 1e-17), (Fr(1, 2), 1e-18)], ids=["v-2/3", "G-1/2"]
    )
    def test_stored_rounding_is_certified(self, theta, tol):
        # the stored float is half an ulp (up to 5.6e-17) from the mp value,
        # more than these tolerances
        with pytest.raises(ToleranceNotMet):
            build_gram([theta], tol=tol)

    def test_pair_past_both_periods_refused(self):
        # 0.1/0.5 is 3602879701896397/2^54: the pair has neither a joint nor
        # a ratio period in reach, so G(0.1, 0.5) is refused at any tol,
        # while v(0.1) alone is a closed form
        pair = (Fr(0.5), Fr(0.1))
        assert _period((pair[1] / pair[0],)) is None
        with pytest.raises(ToleranceNotMet, match="period"):
            rho_pair_pieces(*pair)
        with pytest.raises(ToleranceNotMet, match="period"):
            build_gram([0.5, 0.1], tol=1e-3)
        assert abs(build_gram([0.1], tol=1e-12).v[0] - _v_closed(Fr(1, 10))) < 1e-12

    @pytest.mark.parametrize(
        "pair",
        [
            (Fr(0.1), Fr(0.2)),
            (Fr(1, 100003), Fr(2, 100003)),
            (Fr(2, 300007), Fr(3, 300007)),
            (Fr(5, 2**60), Fr(7, 2**60)),
            (Fr(317, 1000 * 999983), Fr(331, 1000 * 999983)),
        ],
        ids=["0.1-0.2", "ratio-1/2", "ratio-2/3", "ratio-5/7", "ratio-317/331"],
    )
    def test_ratio_period_stage(self, pair):
        # no joint period in reach, but theta_1/theta_2 has one: G is the
        # closed form at that ratio, v and the diagonal at ratio 1. Checked
        # against the scaling G(t1, t2) = t2 G(t1/t2, 1) + t1 (1 - t2) at 140
        # bits, and at tol 1e-16.
        t1, t2 = pair
        r = t1 / t2
        assert _period(pair) is None and _period((r,)) is not None
        bits = 140
        lhs, lhs_err = _closed_entry(*reduced(pair), bits, {})
        ref, ref_err = _closed_entry(*reduced((r, Fr(1))), bits, {})
        with mpmath.workprec(bits + 16):
            rhs = to_mp(t2) * ref + to_mp(t1 * (1 - t2))
            assert abs(lhs - rhs) <= lhs_err + ref_err + mpmath.mpf(2) ** -bits
            expected = float(rhs)
        gs = build_gram(list(pair), tol=1e-16)
        assert abs(gs.G[0, 1] - expected) <= 1e-16 + 0.5 * math.ulp(expected)
        for i, th in enumerate(pair):
            for got, want in ((gs.G[i, i], _g_diag(th)), (gs.v[i], _v_closed(th))):
                assert abs(got - want) <= 1e-16 + 0.5 * math.ulp(want)

    @settings(max_examples=300, deadline=None)
    @given(pair=_wide_pairs())
    @example(pair=(Fr(1, PERIOD_CAP), Fr(1)))
    @example(pair=(Fr(1, PERIOD_CAP + 1), Fr(1)))
    @example(pair=(Fr(2, 399989), Fr(3, 399989)))
    @example(pair=(Fr(0.1), Fr(0.3)))
    @example(pair=(Fr(0.3), Fr(0.7)))
    @example(pair=(Fr(0.7), Fr(0.1)))
    @example(pair=(Fr(0.1), Fr(0.2)))
    @example(pair=(Fr(0.7), Fr(0.7)))
    def test_refusal_set(self, pair):
        # refused exactly when the reduced theta_2/theta_1 = a/b has a past
        # PERIOD_CAP, which is also when neither the thetas nor their ratio
        # have a period in reach: B theta_2 is a multiple of a. Only the
        # refusal is checked here, so the entry's evaluation is stubbed
        # (evaluating one at a near the cap builds a table of 50,000 cots).
        _, a, _ = reduced(pair)
        neither = _period(pair) is None and _period((min(pair) / max(pair),)) is None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                optimizer, "_f64_entries", lambda tau, a, b: (np.full(tau.shape, 0.5), np.zeros(tau.shape))
            )
            try:
                build_gram(list(pair), 1e-9)
                refused = False
            except ToleranceNotMet:
                refused = True
        assert refused == (a > PERIOD_CAP) == neither, pair

    def test_ratio_at_the_cap_evaluated(self):
        # a = PERIOD_CAP, unstubbed: the float64 entry within tol 1e-9
        pair = (Fr(1, PERIOD_CAP), Fr(1))
        val, bound = _f64(pair)
        assert bound <= 1e-9
        assert build_gram(list(pair), 1e-9).G[0, 1] == val


def _f64(ths):
    """(value, bound) of the batched float64 path for one entry: `_f64_v`
    for one theta, `_f64_entries` for a pair."""
    t1, a, b = reduced(ths)
    if not a:
        val, bound = _f64_v((t1,))
    else:
        val, bound = _f64_entries(np.array([t1.numerator / (t1.denominator * b)]), np.array([a]), np.array([b]))
    return float(val[0]), float(bound[0])


def _closed(pair, tol):
    """(value, err_bound) of `_closed_entry` at the bits build_gram uses for tol."""
    return _closed_entry(*reduced(pair), bits_for_tol(tol), {})


@st.composite
def _rational_pairs(draw):
    """theta_1, theta_2 in (0, 1] with joint period at most 2000."""
    q1 = draw(st.integers(1, 2000))
    q2 = draw(st.sampled_from([d for d in range(1, 2001) if q1 * d // math.gcd(q1, d) <= 2000]))
    return Fr(draw(st.integers(1, q1)), q1), Fr(draw(st.integers(1, q2)), q2)


class TestClosedForm:
    """Vasyunin's closed form for the Gram entries, certificate against the
    Hurwitz-kernel u-integral of `rho_pair_pieces` at three times the bits."""

    @settings(max_examples=5, deadline=None)
    @given(pair=_rational_pairs(), tol=st.sampled_from([1e-9, 1e-25]))
    @example(pair=(Fr(2, 3), Fr(3, 7)), tol=1e-25)
    @example(pair=(Fr(5, 6), Fr(5, 6)), tol=1e-25)
    @example(pair=(Fr(1), Fr(3, 4)), tol=1e-25)
    @example(pair=(Fr(317, 1000), Fr(331, 1000)), tol=1e-9)
    def test_against_u_integral(self, pair, tol):
        val, err = _closed(pair, tol)
        assert err <= tol
        bits = 3 * bits_for_tol(tol)
        B, pieces = rho_pair_pieces(*pair)
        ref, ref_err = u_integral_mp(pieces, B, 2, bits)
        with mpmath.workprec(bits):
            assert abs(val - ref.real) <= err + ref_err, pair
        assert val == _closed(pair[::-1], tol)[0]

    @pytest.mark.parametrize("th", [Fr(1), Fr(1, 2), Fr(2, 3), Fr(5, 6)])
    def test_v_entry(self, th):
        # v(theta) against the u-integral and its float view
        val, err = _closed((th,), 1e-25)
        bits = 3 * bits_for_tol(1e-25)
        B, pieces = rho_single_pieces(th)
        ref, ref_err = u_integral_mp(pieces, B, 2, bits)
        f64, f64_err = u_integral_f64(pieces, B, 2.0)
        with mpmath.workprec(bits):
            assert abs(val - ref.real) <= err + ref_err
            assert abs(val - f64) <= err + f64_err


class TestFloatEntry:
    """The float64 entries of `_f64_entries` and `_f64_v`, each within its a
    priori bound of `_closed_entry` at twice the bits, and `build_gram`
    storing that double exactly when the bound is at most tol, the mp closed
    form otherwise."""

    @staticmethod
    def _check(ths, tol, stored, ref_tabs):
        val, bound = _f64(ths)
        bits = 2 * bits_for_tol(tol)
        ref, ref_err = _closed_entry(*reduced(ths), bits, ref_tabs)
        with mpmath.workprec(bits):
            assert abs(val - ref) <= bound + ref_err, ths
        if bound <= tol:
            assert stored == val
        else:
            assert stored == to_double(*_closed_entry(*reduced(ths), bits_for_tol(tol), {}))[0]
        return bound

    @settings(max_examples=40, deadline=None)
    @given(pair=_rational_pairs(), tol=st.sampled_from([1e-9, 1e-12]))
    @example(pair=(Fr(1, 1999), Fr(1)), tol=1e-12)
    @example(pair=(Fr(1000, 1999), Fr(999, 1999)), tol=1e-12)
    @example(pair=(Fr(2, 3), Fr(3, 7)), tol=1e-9)
    def test_pairs_within_bound(self, pair, tol):
        gs = build_gram(list(pair), tol)
        self._check(pair, tol, gs.G[0, 1], {})
        for i in range(2):
            self._check(pair[i:i + 1], tol, gs.v[i], {})

    def test_unit_60_within_bound(self):
        ths = unit_thetas(60)
        gs, ref_tabs = build_gram(ths, 1e-9), {}
        bounds = [
            self._check((ths[j], ths[k]), 1e-9, gs.G[j, k], ref_tabs)
            for j in range(60)
            for k in range(j, 60)
        ]
        bounds += [self._check((t,), 1e-9, gs.v[i], ref_tabs) for i, t in enumerate(ths)]
        assert max(bounds) <= 1e-9

    @pytest.mark.parametrize(
        "pair", [(Fr(1, 1999), Fr(1)), (Fr(999, 1999), Fr(1000, 1999)), (Fr(1, 60), Fr(1, 59))]
    )
    def test_bound_covers_any_summation_order(self, pair):
        # no order of summation is assumed: the bound covers each cotangent
        # sum's first-order worst case n u sum |w_m| |cot(pi m/k)|, times its
        # factor (pi/2) tau/k in G, which the summation order above never uses
        t1, t2 = sorted(pair)
        a, b = (t2 / t1).numerator, (t2 / t1).denominator
        worst = 0.0
        for h, k in ((a, b), (b, a)):
            n = (k - 1) // 2
            with mpmath.workprec(64):
                mags = mpmath.fsum(
                    abs(2 * (m * h % k) - k) * mpmath.cot(mpmath.pi * m / k) for m in range(1, n + 1)
                )
            worst += n * 2.0**-53 * float(mags) * float(t1 / b / k) * math.pi / 2
        assert _f64(pair)[1] >= worst > 0

    def test_out_of_range_is_none(self, monkeypatch):
        # tau below 2^-500 leaves the model's range, so the mp path serves it
        tiny = Fr(1, 2**600)
        assert _f64((tiny,))[1] == math.inf
        calls = []
        monkeypatch.setattr(optimizer, "_closed_entry", lambda *args: calls.append(args[:3]) or _closed_entry(*args))
        gs = build_gram([tiny, 2 * tiny], tol=1e-12)
        assert calls == [(tiny, 1, 1), (tiny, 2, 1), (2 * tiny, 1, 1), (tiny, 0, 0), (2 * tiny, 0, 0)]
        assert math.isclose(gs.v[0], _v_closed(tiny), rel_tol=1e-12)


def _cot_within_bound(k, ms):
    """Each `_cot_f64(k)` value at m in ms within u |cot(pi m/k)| (1 + 2^-60)
    of mpmath at 128 bits, whose own error (under 2^-120 relative) is added."""
    table = _cot_f64(k)
    assert table.size == (k - 1) // 2
    with mpmath.workprec(128):
        slack = mpmath.ldexp(1 + mpmath.ldexp(1, -60), -53) + mpmath.ldexp(1, -120)
        for m in ms:
            ref = mpmath.cot(mpmath.pi * m / k)
            assert abs(mpmath.mpf(table[m - 1]) - ref) <= abs(ref) * slack, (m, k)


def _scalar_gram(ths, tol):
    """(G, v) by the per-entry path the batched `build_gram` replaced, one
    entry at a time in row order, then v: `_period` on the reduced ratio,
    the float64 formula with one 1-D cotangent sum per W over the table of
    `_cot_f64`, and the mp closed form wherever the bound is above tol or
    the entry is outside the float64 model. Raises as that path did."""
    cots = {}

    def ln(n):
        with mpmath.workprec(64):
            return float(mpmath.log(n))

    def cot_sum(h, k):
        cot = _cot_f64(k)
        ms = np.arange(1, cot.size + 1)
        return float(((2 * (ms * (h % k) % k) - k) * cot).sum())

    def f64(t1, a, b):
        if not a:
            th = float(t1)
            if th < 2.0**-500:
                return None
            lp, lq = ln(t1.numerator), ln(t1.denominator)
            return th * (optimizer._C_V - (lp - lq)), _gamma(13) * (th * (optimizer._C_V + lp + lq))
        tau = t1.numerator / (t1.denominator * b)
        if tau < 2.0**-500 or a >= 2**26:
            return None
        la, lb = ln(a), ln(b)
        s, d, prod = tau * (a + b) * 0.5, tau * (b - a) * 0.5, tau * tau * (a * b)
        w = tau / b * cot_sum(a, b) + tau / a * cot_sum(b, a)
        val = optimizer._C_G * s + d * (la - lb) - optimizer._HALF_PI * w - prod
        mag = optimizer._C_G * s + abs(d) * (la + lb) + prod + (tau * b * (1 + lb) + tau * a * (1 + la)) * 0.5
        return val, _gamma((a - 1) // 2 + 13) * mag

    def entry(names):
        t1, a, b = reduced(names)
        text = ", ".join(repr(float(t)) for t in names)
        if a and _period((Fr(b, a),)) is None:
            raise ToleranceNotMet(f"G({text}): the ratio of the thetas has no period within the caps")
        hit = f64(t1, a, b)
        if hit is not None and hit[1] <= tol:
            return hit[0]
        out, err = to_double(*_closed_entry(t1, a, b, bits_for_tol(tol), cots))
        check_cert(err, tol, f"Gram entry ({text})")
        return out

    n = len(ths)
    G = np.zeros((n, n))
    for j in range(n):
        for k in range(j, n):
            G[j, k] = G[k, j] = entry((ths[j], ths[k]))
    return G, np.array([entry((t,)) for t in ths])


_FLOAT_THETAS = [Fr(x) for x in (0.1, 0.2, 0.4, 0.3, 0.05)]


class TestBatchedPath:
    """The batched float64 path: the rotation tables against mpmath, and
    `build_gram` bit for bit against the per-entry path it replaced, refusals
    and their messages included."""

    def test_cot_tables_to_200(self):
        for k in range(1, 201):
            _cot_within_bound(k, range(1, (k + 1) // 2))

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(3, PERIOD_CAP), fracs=st.lists(st.floats(0, 1), min_size=1, max_size=5))
    @example(k=PERIOD_CAP, fracs=[0.0, 1.0])
    @example(k=99_991, fracs=[0.0, 0.5, 1.0])
    def test_cot_table_sample(self, k, fracs):
        # m = 1 + round(frac (n - 1)) covers 1..n, n = (k - 1)/2
        n = (k - 1) // 2
        _cot_within_bound(k, [1 + round(f * (n - 1)) for f in fracs])

    @settings(max_examples=30, deadline=None)
    @given(
        ths=st.lists(
            st.one_of(
                st.integers(1, 60).flatmap(lambda q: st.integers(1, q).map(lambda p: Fr(p, q))),
                st.sampled_from(_FLOAT_THETAS),
            ),
            min_size=1,
            max_size=8,
        ),
        tol=st.sampled_from([1e-9, 1e-12]),
    )
    @example(ths=[Fr(1, 2), Fr(2, 3), Fr(3, 7), Fr(59, 60)], tol=1e-9)
    @example(ths=[Fr(0.1), Fr(0.2), Fr(0.4), Fr(0.05)], tol=1e-9)
    @example(ths=[Fr(1, 3), Fr(0.1), Fr(0.3)], tol=1e-9)
    @example(ths=[Fr(1, 3), Fr(1, 7), Fr(0.1)], tol=1e-17)
    @example(ths=[Fr(1, 2), Fr(1, 3)], tol=1e-18)
    def test_matches_the_per_entry_path(self, ths, tol):
        try:
            G, v = _scalar_gram(ths, tol)
        except ToleranceNotMet as err:
            with pytest.raises(ToleranceNotMet) as got:
                build_gram(ths, tol)
            assert str(got.value) == str(err)
            return
        gs = build_gram(ths, tol)
        assert np.array_equal(gs.G, G) and np.array_equal(gs.v, v)


class TestDispatch:
    """Which entries take the mp closed form: none at the CLI's default tol
    on the unit family, every one at a tol below the float64 bound."""

    @pytest.fixture
    def closed_calls(self, monkeypatch):
        calls = []

        def counting(t1, a, b, *rest):
            calls.append((t1, a, b))
            return _closed_entry(t1, a, b, *rest)

        monkeypatch.setattr(optimizer, "_closed_entry", counting)
        return calls

    def test_float_path_at_1e9(self, closed_calls):
        gs = build_gram(unit_thetas(30), tol=1e-9)
        assert closed_calls == []
        assert gs.N == 30

    def test_mp_path_at_1e16(self, closed_calls):
        build_gram(unit_thetas(30), tol=1e-16)
        assert len(closed_calls) == len(set(closed_calls)) == 30 * 31 // 2 + 30


class TestOptimizeCoeffs:
    def test_single_theta_forced_zero(self):
        # constraint a * theta = 0 with theta != 0 forces a = 0, norm = 1
        res = optimize_coeffs([1], tol=1e-9)
        assert abs(res["a"][0]) < 1e-12
        assert abs(float(res["norm_sq"]) - 1.0) < 1e-12

    def test_two_thetas_exact_solution(self):
        # thetas (1, 1/2): minimizer is a = (1, -2) -- f_2 with F nonneg
        res = optimize_coeffs([1, Fr(1, 2)], tol=1e-10)
        assert np.allclose(res["a"], [1.0, -2.0], atol=1e-6)
        # norm_sq = 1 - ln 2 at the optimum (same F as the hand example)
        assert abs(float(res["norm_sq"]) - (1 - math.log(2))) < 1e-7

    def test_kkt_and_constraint_residuals(self):
        res = optimize_coeffs(unit_thetas(8), tol=1e-9)
        assert res["kkt_residual"] < 1e-10
        assert res["constraint_residual"] < 1e-12

    def test_duplicate_thetas_rejected(self):
        with pytest.raises(SingularSystemError):
            optimize_coeffs([Fr(1, 2), Fr(1, 2)], tol=1e-9)

    def test_singular_gram_rejected(self):
        # a hand-built system passes validation (symmetric, PSD, v in range)
        # while G is singular: the factor meets a zero pivot
        gs = GramSystem((Fr(1), Fr(1, 2)), np.ones((2, 2)), np.array([0.4, 0.5]), 1e-9)
        with pytest.raises(SingularSystemError, match="pivot 2"):
            optimize_coeffs(None, tol=1e-9, gram=gs)

    def test_norm_sq_vs_quadrature(self):
        # criterion-9 style: quadratic-form norm against norm_numeric on the
        # exactly reprojected spec
        res = optimize_coeffs(unit_thetas(5), tol=1e-9)
        spec = spec_from_solution(unit_thetas(5), res["a"])
        direct = float(norm_numeric(spec, 1e-10)) ** 2
        assert abs(float(res["norm_sq"]) - direct) < 1e-6


class TestSpecFromSolution:
    def test_exact_projection(self):
        a = [1.0000000001, -1.9999999999]
        spec = spec_from_solution([1, Fr(1, 2)], a)
        assert spec.admissible
        assert spec.residual_exact == (Fr(0), Fr(0))
        # the projection is a tiny correction, not a rewrite
        assert abs(float(spec.terms[0].a_re) - 1.0) < 1e-9

    def test_floats_carried_exactly(self):
        spec = spec_from_solution([1, Fr(1, 2)], [1.0, -2.0])
        assert spec.terms[0].a_re == 1
        assert spec.terms[1].a_re == -2


class TestResidualReport:
    def test_unit_5(self):
        rep = residual_report(unit_thetas(5), tol=1e-9)
        assert rep["norm_quadrature"] is not None
        assert rep["gap_kkt_quadrature"] < 1e-6
        assert rep["norm_parseval"] is not None
        assert rep["gap_kkt_parseval"] < math.sqrt(rep["parseval_tail_estimate"]) + 1e-4
        assert rep["constraint_residual_exact"] == "0"


class TestSweep:
    def test_frozen_oracles(self):
        rows = sweep(1, 5, tol=1e-9)
        by_n = {r["N"]: r["norm_sq"] for r in rows}
        assert abs(by_n[1] - 1.0) < 1e-12
        assert abs(by_n[3] - 0.09574778392773664) < 1e-7
        assert abs(by_n[5] - 0.036319017938170606) < 1e-7

    def test_positive_nonincreasing(self):
        rows = sweep(1, 12, tol=1e-9)
        ns = [r["norm_sq"] for r in rows]
        assert all(v > 0 for v in ns)
        assert all(a >= b - 1e-12 for a, b in zip(ns, ns[1:]))

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 60), st.sampled_from([1e-9, 1e-16]))
    @example(5, 23, 40, 1e-16)
    def test_rows_do_not_depend_on_n_to(self, n1, n2, n3, tol):
        # one factor serves every row: row N is a function of G_N, v_N and
        # theta_N alone, bit for bit, and optimize_coeffs reads the same
        # minimum. At tol 1e-16 the entries take the mp path, whose
        # cotangent tables they share and rebuild at more bits; there n_to <= 40
        top = 60 if tol == 1e-9 else 40
        n_from, m, n_to = sorted(1 + (n - 1) % top for n in (n1, n2, n3))
        full = sweep(1, n_to, tol=tol)
        assert sweep(n_from, m, tol=tol) == full[n_from - 1:m]
        res = optimize_coeffs(unit_thetas(m), tol=tol)
        assert res["norm_sq"] == full[m - 1]["norm_sq"]

    def test_rows_vs_mp_kkt(self):
        # rows of sweep(1, 100) against the bordered KKT system on the same
        # float G, v and theta, solved by mpmath's lu_solve at 200 bits; at
        # the optimum a^T G a = -a^T v, so the minimum is 1 + a^T v
        n_to = 100
        rows = sweep(1, n_to, tol=1e-9)
        gs = build_gram(unit_thetas(n_to), tol=1e-9)
        with mpmath.workprec(200):
            for n in (1, 2, 17, 60, 100):
                A = mpmath.zeros(n + 1, n + 1)
                b = mpmath.zeros(n + 1, 1)
                for j in range(n):
                    for k in range(n):
                        A[j, k] = mpmath.mpf(float(gs.G[j, k]))
                    A[j, n] = A[n, j] = mpmath.mpf(1.0 / (j + 1))
                    b[j] = -mpmath.mpf(float(gs.v[j]))
                x = mpmath.lu_solve(A, b)
                ref = 1 + mpmath.fsum(x[j] * mpmath.mpf(float(gs.v[j])) for j in range(n))
                assert abs(rows[n - 1]["norm_sq"] - float(ref)) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            sweep(3, 2)
        with pytest.raises(DomainError):
            sweep(0, 2)
        for tol in (math.inf, math.nan):
            with pytest.raises(DomainError):
                sweep(1, 2, tol=tol)
