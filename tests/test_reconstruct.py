"""reconstruct: sine moments (both evaluation branches), the coefficient
provider, the reconstruction sum with its empirical error estimate, and the
convergence CSV."""
import csv
import io
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beurling.fourier as fourier
import beurling.reconstruct as R
from beurling import (
    BeurlingSpec,
    ConstraintError,
    DomainError,
    convergence_csv,
    mellin_closed,
    mellin_reconstruct,
    mellin_reconstruct_report,
    sine_moment,
    sine_moment_with_cert,
)
from beurling.numerics import bits_for_tol, workprec


def _series_row(n, s, tol):
    """(value, mp certificate) of the series branch: the shared table for
    n <= 31, a table planned for n itself past that."""
    table = R._SeriesTable(complex(s), tol, max(n, R._SERIES_N_MAX))
    with workprec(table.bits):
        return table.moment(n)


def _branch_row(n, s, tol):
    """(value, certificate) of the tier that row n takes, before the output
    rounding: the closed form in doubles, else in mp, else the series."""
    if n > R._SERIES_N_MAX:
        terms = R._AsymptoticTerms(complex(s), tol)
        value, cert, reached = terms.moment_f64(n)
        if reached and cert <= tol:
            return mpmath.mpc(value), mpmath.mpf(cert)
        with workprec(terms.bits):
            value, cert, reached = terms.moment(n)
        if reached:
            return value, cert
    return _series_row(n, s, tol)


def _oracle(n, s, bits):
    """S(n, s) = (1F1(s; s+1; i n pi) - 1F1(s; s+1; -i n pi)) / (2 i s) at
    `bits`, as an mpc."""
    with mpmath.workprec(bits):
        s = mpmath.mpc(s)
        a = n * mpmath.pi
        return (mpmath.hyp1f1(s, s + 1, 1j * a) - mpmath.hyp1f1(s, s + 1, -1j * a)) / (2j * s)


class TestSineMoment:
    def test_closed_oracles(self):
        # int_0^1 sin(pi x) dx = 2/pi; int sin(2 pi x) dx = 0;
        # int sin(pi x) x dx = 1/pi
        assert abs(complex(sine_moment(1, 1.0)) - 2 / math.pi) < 1e-12
        assert abs(complex(sine_moment(2, 1.0))) < 1e-12
        assert abs(complex(sine_moment(1, 2.0)) - 1 / math.pi) < 1e-12

    def test_frozen_oracle(self):
        assert abs(complex(sine_moment(3, 2.5)) - 0.101767364422943) < 1e-12

    def test_vs_quadrature(self):
        for n, s in ((2, 1.5), (5, 2.0), (9, complex(1.0, 2.0))):
            v = sine_moment(n, s, tol=1e-13)
            with mpmath.workprec(90):
                ref = mpmath.quad(
                    lambda x: mpmath.sin(n * mpmath.pi * x) * x ** (mpmath.mpc(s) - 1),
                    [0, 1.0 / n, 0.5, 1],
                )
                assert abs(mpmath.mpc(complex(v)) - ref) < mpmath.mpf(1e-15)

    @pytest.mark.parametrize("s", [2.5, complex(1.5, 2)])
    def test_stored_certificate_rounds_up(self, s):
        # each row's stored double is >= its mp certificate: the branch's
        # plus the rounding of the value to the output bits. Rounding to
        # nearest left about half the rows at s = 2.5 below it
        z, tol = complex(s), 1e-9
        bits = bits_for_tol(tol)
        ns = range(16, 48)
        for n, (_, cert) in zip(ns, R.sine_moments_with_cert(ns, z, tol)):
            raw, mp_cert = _branch_row(n, z, tol)
            with mpmath.workprec(bits):
                mp_cert += abs(raw) * mpmath.mpf(2) ** -bits
            assert cert >= mp_cert, n

    @pytest.mark.parametrize("s", [complex(2, 0), complex(2.25, 1.5), complex(0.5, 3)])
    @pytest.mark.parametrize("n", [20, 31, 32, 64])
    def test_branch_crosscheck(self, n, s):
        # the Taylor-series and incomplete-gamma branches share no code but
        # Horner's rule; around the switch (n = 31) they must agree within
        # their summed certificates
        a, ca = _series_row(n, s, 1e-13)
        terms = R._AsymptoticTerms(s, 1e-13)
        with workprec(terms.bits):
            b, cb, _ = terms.moment(n)
        assert abs(a - b) <= ca + cb

    def test_cert_positive_and_small(self):
        for n in (1, 31, 32, 500):
            _, cert = sine_moment_with_cert(n, 2.0, tol=1e-12)
            assert 0 < cert < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.one_of(st.integers(20, 44), st.integers(1, 1000)),
        sigma=st.floats(0.05, 4.0),
        t=st.floats(-200.0, 200.0),
        tol=st.sampled_from([1e-9, 1e-20]),
    )
    # the closed form's remainder was once taken as 2 sqrt(K+1) + 2 first
    # omitted terms: 0.170 off against a certificate of 0.062 at n = 40, and
    # 0.186 against 0.077 at (32, 2+120i)
    @example(n=40, sigma=2, t=150, tol=1e-9)
    @example(n=32, sigma=2, t=120, tol=1e-9)
    # the 400-bit series value rounded to 64 bits is 2.4e-20 off; the
    # certificate once left that rounding out and read 2.0e-38
    @example(n=5, sigma=0.3, t=0.0, tol=1e-9)
    def test_certificate_bounds_the_returned_value(self, n, sigma, t, tol):
        # oracle: S(n, s) = (1F1(s; s+1; i n pi) - 1F1(s; s+1; -i n pi)) / (2 i s)
        val, cert = sine_moment_with_cert(n, complex(sigma, t), tol)
        with mpmath.workprec(3 * val.precision_bits):
            s = mpmath.mpc(sigma, t)
            a = n * mpmath.pi
            ref = (mpmath.hyp1f1(s, s + 1, 1j * a) - mpmath.hyp1f1(s, s + 1, -1j * a)) / (2j * s)
            assert abs(val.to_mpc() - ref) <= cert

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(32, 4000),
        sigma=st.floats(0.05, 4.0),
        t=st.floats(-200.0, 200.0),
        tol=st.sampled_from([1e-9, 1e-13, 1e-20]),
    )
    @example(n=32, sigma=2.5, t=0.0, tol=1e-9)
    @example(n=4000, sigma=0.05, t=200.0, tol=1e-13)
    @example(n=1000, sigma=3.9, t=-150.0, tol=1e-9)
    def test_float64_tier_against_the_oracle(self, n, sigma, t, tol):
        # the float64 closed form: its raw certificate bounds its own gap to
        # 1F1 wherever its remainder bound is proven, met tol or not, and the
        # stored row, whichever tier it took, bounds the stored value's
        s = complex(sigma, t)
        ref = _oracle(n, s, 3 * (bits_for_tol(tol) + 48))
        value, cert, _ = R._AsymptoticTerms(s, tol).moment_f64(n)
        if value is not None and math.isfinite(cert):
            with mpmath.workprec(3 * (bits_for_tol(tol) + 48)):
                assert abs(mpmath.mpc(value) - ref) <= cert
        val, cert = sine_moment_with_cert(n, s, tol)
        with mpmath.workprec(3 * (bits_for_tol(tol) + 48)):
            assert abs(val.to_mpc() - ref) <= cert

    def test_decay_in_n(self):
        # |S(n, 2)| = O(1/n)
        vals = [abs(complex(sine_moment(n, 2.0))) for n in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            sine_moment(0, 2.0)
        with pytest.raises(DomainError):
            sine_moment(2.5, 2.0)
        with pytest.raises(DomainError):
            sine_moment(1, -1.0)
        with pytest.raises(DomainError):
            sine_moment(1, 2.0, tol=0.0)


class TestSineTables:
    @staticmethod
    def _rows_equal_single_calls(ns, s, monkeypatch):
        monkeypatch.setattr(R, "_SINE_CACHE", {})
        batch = R.sine_moments_with_cert(ns, s, 1e-9)
        assert len(batch) == len(ns)
        for n, row in zip(ns, batch):
            monkeypatch.setattr(R, "_SINE_CACHE", {})
            assert sine_moment_with_cert(n, s, 1e-9) == row, n

    @pytest.mark.parametrize("s", [2.5, complex(1.5, 2)])
    def test_batch_equals_single_rows(self, s, monkeypatch):
        # unsorted, with repeats, on both sides of the switch at n = 31:
        # each row of one call equals, in value and certificate, its own
        # call made with an empty cache
        self._rows_equal_single_calls([1, 1000, 32, 31, 500, 33, 1, 32, 1000], s, monkeypatch)

    def test_fallback_rows_equal_single_rows(self, monkeypatch):
        # at s = 2+100i the closed form cannot reach its floor for these n,
        # so each row takes a series table planned for itself
        self._rows_equal_single_calls([43, 40, 45, 41, 44, 42, 40], complex(2, 100), monkeypatch)

    def test_tables_built_once_per_call(self, monkeypatch):
        built = []

        class Series(R._SeriesTable):
            def __init__(self, s, tol, n_plan):
                built.append(("series", s, tol, n_plan))
                super().__init__(s, tol, n_plan)

        class Terms(R._AsymptoticTerms):
            def __init__(self, s, tol):
                built.append(("closed", s, tol))
                super().__init__(s, tol)

        rows = []  # (tier, n) of every closed-form row evaluated
        f64, mp = Terms.moment_f64, Terms.moment
        monkeypatch.setattr(Terms, "moment_f64", lambda t, n: rows.append(("f64", n)) or f64(t, n))
        monkeypatch.setattr(Terms, "moment", lambda t, n: rows.append(("mp", n)) or mp(t, n))
        monkeypatch.setattr(R, "_SeriesTable", Series)
        monkeypatch.setattr(R, "_AsymptoticTerms", Terms)
        monkeypatch.setattr(R, "_SINE_CACHE", {})
        R.sine_moments_with_cert(range(1, 1001), 2.5, 1e-9)
        assert built == [("closed", 2.5, 1e-9), ("series", 2.5, 1e-9, 31)]
        assert rows == [("f64", n) for n in range(32, 1001)]
        built.clear()
        rows.clear()
        s = complex(2, 100)
        R.sine_moments_with_cert([45, 1, 40, 43, 2, 41, 44, 42, 40, 31], s, 1e-9)
        assert built == [("closed", s, 1e-9), ("series", s, 1e-9, 31)] + [
            ("series", s, 1e-9, n) for n in range(40, 46)
        ]
        # each row tries doubles, then mp, then takes its own series table
        assert rows == [("f64", n) for n in range(40, 46)] + [("mp", n) for n in range(40, 46)]
        built.clear()
        rows.clear()
        R.sine_moments_with_cert(range(1, 1001), 2.5, 1e-9)  # all cached
        assert built == [] and rows == []

    def test_float64_tier_guard(self, spec_a, monkeypatch):
        # at tol 1e-9 a reconstruction evaluates no closed-form row in mp,
        # so a change cannot drop it back to mp unseen; at tol 1e-20 no
        # double certifies, and every row n > 31 runs the mp closed form
        mp_rows = []
        real = R._AsymptoticTerms.moment

        def counted(terms, n):
            mp_rows.append(n)
            return real(terms, n)

        monkeypatch.setattr(R._AsymptoticTerms, "moment", counted)
        monkeypatch.setattr(R, "_SINE_CACHE", {})
        mellin_reconstruct_report(spec_a, 2.5, 1000, 1e-9)
        assert mp_rows == []
        assert {n for n, _, _ in R._SINE_CACHE} == set(range(1, 1001))
        rows = R.sine_moments_with_cert(range(1, 201), 2.5, 1e-20)
        assert mp_rows == list(range(32, 201))
        assert all(cert < 1e-20 for _, cert in rows)

    def test_threads_share_the_cache(self, monkeypatch):
        # the cache has no lock of its own: a dict get or set is atomic, and
        # two threads racing on a row compute and store the same value
        ns = list(range(26, 40))
        monkeypatch.setattr(R, "_SINE_CACHE", {})
        want = dict(zip(ns, R.sine_moments_with_cert(ns, 2.5, 1e-9)))
        monkeypatch.setattr(R, "_SINE_CACHE", {})
        orders = [ns[i:] + ns[:i] for i in range(6)]
        results, errors = [None] * len(orders), []

        def work(i):
            try:
                results[i] = R.sine_moments_with_cert(orders[i], 2.5, 1e-9)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        for order, got in zip(orders, results):
            assert dict(zip(order, got)) == want
        assert {n: R._SINE_CACHE[(n, complex(2.5), 1e-9)] for n in ns} == want

    @pytest.mark.parametrize("s", [0.05, complex(2, 100)])
    @pytest.mark.parametrize("n", [5, 31, 32, 1000])
    def test_raw_certificate_bounds_the_gap(self, n, s):
        # each branch's mp certificate before the output rounding, whose
        # |value| 2^-bits would hide a roundoff bound that is too small:
        # the series for every n, the closed form for n > 31, whether or not
        # its bound reaches the floor. The oracle runs at three times the
        # closed form's bits, far below either branch's certificate
        tol = 1e-9
        ref = _oracle(n, s, 3 * (bits_for_tol(tol) + 48))
        raw, cert = _series_row(n, s, tol)
        assert abs(raw - ref) <= cert
        if n > R._SERIES_N_MAX:
            terms = R._AsymptoticTerms(complex(s), tol)
            with workprec(terms.bits):
                raw, cert, reached = terms.moment(n)
            assert reached == (s == 0.05 or n == 1000)
            assert abs(raw - ref) <= cert


def _exact_budget(spec, s, n_max, tol):
    """sum_n |S(n)| cert_c(n) + |c(n)| cert_S(n) over the rows as stored,
    each c(n) a double from `cosine_coeffs`. At 400 bits the sum of these
    products of doubles is exact for a real s and off by 2^-400 relative
    (the moduli) for a complex one."""
    c, cert = fourier.cosine_coeffs(spec, n_max, tol)
    moments = R.sine_moments_with_cert(range(1, n_max + 1), s, tol)
    with mpmath.workprec(400):
        exact = mpmath.mpf(0)
        for cv, c_cert, (sv, s_cert) in zip(c.tolist(), cert.tolist(), moments):
            sv = complex(sv)
            exact += abs(mpmath.mpc(sv)) * c_cert + abs(mpmath.mpc(cv)) * s_cert
    return exact


class TestReconstruct:
    def test_empty_spec(self, empty_spec):
        mv = mellin_reconstruct(empty_spec, 2.0, n_max=800)
        assert mv.provenance == "reconstructed"
        assert abs(complex(mv.value).real - 0.5) <= float(mv.error_bound)
        assert float(mv.error_bound) < 1e-2

    def test_spec_a_matches_closed(self, spec_a):
        for s in (2.0, 2.5, 3.0):
            mv = mellin_reconstruct(spec_a, s, n_max=600)
            ref = complex(mellin_closed(spec_a, s, 1e-15).value)
            gap = abs(complex(mv.value) - ref)
            assert gap <= float(mv.error_bound)
            assert gap < 1e-3

    def test_complex_s(self, spec_a):
        s = complex(2.0, 1.0)
        mv = mellin_reconstruct(spec_a, s, n_max=600)
        ref = complex(mellin_closed(spec_a, s, 1e-15).value)
        assert abs(complex(mv.value) - ref) <= float(mv.error_bound)

    def test_error_estimate_shrinks(self, spec_a):
        e1 = float(mellin_reconstruct(spec_a, 2.0, n_max=200).error_bound)
        e2 = float(mellin_reconstruct(spec_a, 2.0, n_max=1000).error_bound)
        assert e2 < e1

    def test_report_consistency(self, spec_a):
        mv, rep = mellin_reconstruct_report(spec_a, 2.0, n_max=150)
        assert len(rep["rows"]) == 150
        n, term, partial = rep["rows"][-1]
        assert n == 150
        assert partial == complex(rep["value_re"], rep["value_im"])
        assert abs(complex(mv.value) - partial) < 1e-15
        assert rep["warned"] == (
            rep["last_decade_spread"] > 10.0 * max(rep["coeff_cert_budget"], 1e-15)
        )
        # partial sums actually accumulate
        assert rep["rows"][0][2] == rep["rows"][0][1]

    @pytest.mark.parametrize("s", [2.5, 1.5 + 2j])
    def test_budget_covers_the_exact_sum(self, spec_a, s):
        # the float sum of the terms |S(n)| cert_c(n) + |c(n)| cert_S(n)
        # rounds each addition to nearest; the budget is widened past that
        tol = 1e-9
        for n_max in (32, 100):
            _, rep = mellin_reconstruct_report(spec_a, s, n_max, tol)
            assert rep["coeff_cert_budget"] >= _exact_budget(spec_a, s, n_max, tol)

    def test_terms_are_moments_times_cosine_coeffs(self, spec_a):
        # every row, from n = 1 on, is S(n) c(n) with c(n) from one
        # cosine_coeffs call
        n_max, tol = 40, 1e-9
        _, rep = mellin_reconstruct_report(spec_a, 2.0, n_max, tol)
        c, _ = fourier.cosine_coeffs(spec_a, n_max, tol)
        moments = R.sine_moments_with_cert(range(1, n_max + 1), 2.0, tol)
        assert [n for n, _, _ in rep["rows"]] == list(range(1, n_max + 1))
        for (_, term, _), cv, (sv, _) in zip(rep["rows"], c.tolist(), moments):
            assert term == complex(sv) * cv

    def test_mends_only_the_rows_it_keeps(self, spec_a, monkeypatch):
        # each row whose batch certificate misses tol, and no other, is
        # mended by an mp cosine row, rows n <= 32 among them, all from one
        # `_cosine_rows` call
        calls = []
        real = fourier._cosine_rows

        def counted(spec, ns, tol):
            calls.append(list(ns))
            return real(spec, ns, tol)

        monkeypatch.setattr(fourier, "_cosine_rows", counted)
        mellin_reconstruct_report(spec_a, 2.5, n_max=100, tol_per_coeff=1e-14)
        _, cert = fourier.batch_cosine_f64(spec_a, 100)
        missing = [n for n in range(1, 101) if not cert[n - 1] <= 1e-14]
        assert min(missing) <= 32
        assert calls == [missing]

    def test_moment_alone_equals_reconstruction_row(self, spec_a, monkeypatch):
        # a row's value depends on (n, s, tol) alone, not on which rows
        # shared its per-s terms
        monkeypatch.setattr(R, "_SINE_CACHE", {})
        mellin_reconstruct_report(spec_a, 2.5, n_max=1000)
        from_run = R._SINE_CACHE[(500, complex(2.5), 1e-9)]
        monkeypatch.setattr(R, "_SINE_CACHE", {})
        alone = sine_moment_with_cert(500, 2.5, 1e-9)
        assert len(R._SINE_CACHE) == 1
        assert alone == from_run

    def test_requires_admissible(self):
        with pytest.raises(ConstraintError):
            mellin_reconstruct(BeurlingSpec([(1, 1)]), 2.0, n_max=10)

    def test_outside_the_hypotheses(self, adm1):
        # admissibility is all the coefficients need: ADM1 (|a_2| = 2 > 1)
        # reconstructs M(2.5) to 7.9e-7 at n_max = 200
        got = mellin_reconstruct(adm1, 2.5, n_max=200)
        assert abs(complex(got.value) - complex(mellin_closed(adm1, 2.5).value)) < 1e-3

    def test_domain(self, spec_a):
        with pytest.raises(DomainError):
            mellin_reconstruct(spec_a, -2.0, n_max=10)
        with pytest.raises(DomainError):
            mellin_reconstruct(spec_a, 2.0, n_max=0)
        with pytest.raises(DomainError):
            mellin_reconstruct(spec_a, 2.0, n_max=10, tol_per_coeff=0.0)


# SPEC_A's convergence CSV at s = 2.5, n_max = 1000, optionally after a
# smaller call in the same interpreter
_CSV_RUN = """
import sys
from fractions import Fraction as Fr
from beurling import BeurlingSpec, convergence_csv, mellin_reconstruct_report
spec = BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3)), (-1, Fr(1, 6))])
if sys.argv[1] == "after":
    mellin_reconstruct_report(spec, 3.0, n_max=100)
sys.stdout.write(convergence_csv(mellin_reconstruct_report(spec, 2.5, n_max=1000)[1]))
"""


def test_csv_independent_of_call_history():
    # the coefficients are built afresh per call, so an earlier call with a
    # smaller n_max (whose batch rows differ in the last bits) leaves no trace
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh, after = (
        subprocess.run(
            [sys.executable, "-c", _CSV_RUN, mode],
            env=env, capture_output=True, text=True, check=True, timeout=300,
        ).stdout
        for mode in ("fresh", "after")
    )
    assert fresh.count("\n") == 1001
    assert after == fresh


class TestConvergenceCsv:
    def test_real_run(self, spec_a):
        _, rep = mellin_reconstruct_report(spec_a, 2.0, n_max=40)
        rows = list(csv.reader(io.StringIO(convergence_csv(rep))))
        assert rows[0] == ["n", "term_value", "partial_sum"]
        assert len(rows) == 41
        assert rows[1][0] == "1"
        # partial sums reproduce the reported value at the last row
        assert abs(float(rows[-1][2]) - rep["value_re"]) < 1e-15

    def test_complex_run(self, spec_a):
        _, rep = mellin_reconstruct_report(spec_a, complex(2.0, 1.0), n_max=25)
        rows = list(csv.reader(io.StringIO(convergence_csv(rep))))
        assert rows[0] == [
            "n", "term_value", "partial_sum", "term_value_im", "partial_sum_im",
        ]
        assert abs(float(rows[-1][4]) - rep["value_im"]) < 1e-15
