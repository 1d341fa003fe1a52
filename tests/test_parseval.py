"""parseval: partial sums, Bessel bracketing, tail estimates, and the
quadrature cross-check. The square wave F = 1 pins the convention factor."""
import json
import math

import pytest

from beurling import (
    BeurlingSpec,
    ConstraintError,
    DomainError,
    ToleranceNotMet,
    norm_crosscheck,
    norm_numeric,
    norm_via_parseval,
)
from beurling import fourier

# Frozen: partial sums computed once from the classical series 8/pi^2 sum
# over odd n <= 1e4 (empty spec) and from an independent mpmath run (ADM1).
EMPTY_GAP_AT_1E4 = 4.052847332192133e-05  # = (8/pi^2) sum_{odd n > 1e4} 1/n^2
ADM1_PARTIAL_1E4 = 0.30344387175629245
ADM1_TAIL_1E4 = 0.028143515387576697


class TestNormViaParseval:
    def test_square_wave_pins_convention(self, empty_spec):
        # F = 1: norm = 1 and 0.5 sum |c|^2 = (8/pi^2) sum_{odd} 1/n^2 -> 1
        rec = norm_via_parseval(empty_spec, n_max=10_000)
        partial = float(rec["partial_norm_sq"])
        assert abs(partial - 1.0) < 4.1e-5
        assert abs((1.0 - partial) - EMPTY_GAP_AT_1E4) < 2e-8
        # asymptotic identity for the odd-n tail: gap ~ 4/(pi^2 n_max)
        assert abs(EMPTY_GAP_AT_1E4 - 4 / (math.pi**2 * 10_000)) < 2e-9

    def test_per_n_mp_route(self, spec_a, monkeypatch):
        # no batch row of SPEC_A meets coeff_tol 1e-15, so every c(n) comes
        # from the mp cosine rows, all in one call; it must agree with the
        # batch's partial sum
        batch = norm_via_parseval(spec_a, n_max=32)
        calls = []
        series = fourier._cosine_rows

        def record(spec, ns, tol):
            calls.append(list(ns))
            return series(spec, ns, tol)

        monkeypatch.setattr(fourier, "_cosine_rows", record)
        per_n = norm_via_parseval(spec_a, n_max=32, coeff_tol=1e-15)
        assert calls == [list(range(1, 33))]
        slack = float(per_n["coeff_cert_total"]) + float(batch["coeff_cert_total"])
        gap = abs(float(per_n["partial_norm_sq"]) - float(batch["partial_norm_sq"]))
        assert gap <= slack

    def test_mp_rows_past_the_cap_fail_fast(self, adm1, monkeypatch):
        # ADM1's batch misses 1e-13 on rows up to 2100 > 2048: refused
        # before any row is computed in mp
        def no_mp(*args):
            raise AssertionError("an mp row was computed")

        monkeypatch.setattr(fourier, "_cosine_rows", no_mp)
        with pytest.raises(ToleranceNotMet, match="not practical beyond n = 2048"):
            norm_via_parseval(adm1, n_max=2100, coeff_tol=1e-13)

    def test_bessel_lower_bracket(self, spec_a, adm1, triv0):
        for spec in (spec_a, adm1, triv0):
            rec = norm_via_parseval(spec, n_max=4096)
            true_norm = float(norm_numeric(spec, 1e-11))
            slack = float(rec["coeff_cert_total"])
            assert float(rec["norm_lo"]) <= true_norm + slack
            assert float(rec["norm_lo"]) <= float(rec["norm"]) <= float(rec["norm_hi"])

    def test_adm1_frozen_partial_and_tail(self, adm1):
        rec = norm_via_parseval(adm1, n_max=10_000)
        assert abs(float(rec["partial_norm_sq"]) - ADM1_PARTIAL_1E4) < 1e-12
        assert abs(float(rec["tail_estimate"]) - ADM1_TAIL_1E4) < 1e-12

    def test_tail_estimate_brackets_truth(self, adm1):
        # true norm^2 = 1 - ln 2 must lie within [partial, partial + tail]
        rec = norm_via_parseval(adm1, n_max=10_000)
        truth = 1 - math.log(2)
        assert float(rec["partial_norm_sq"]) <= truth <= (
            float(rec["partial_norm_sq"]) + float(rec["tail_estimate"])
        )

    def test_partial_increases_with_n_max(self, spec_a):
        p1 = float(norm_via_parseval(spec_a, n_max=512)["partial_norm_sq"])
        p2 = float(norm_via_parseval(spec_a, n_max=4096)["partial_norm_sq"])
        assert p1 < p2

    def test_triv0_norm_one(self, triv0):
        # f = 0 identically, F = 1
        rec = norm_via_parseval(triv0, n_max=4096)
        assert abs(float(rec["norm"]) - 1.0) < 1e-3

    def test_domain(self, spec_a):
        with pytest.raises(ConstraintError):
            norm_via_parseval(BeurlingSpec([(1, 1)]), n_max=64)
        with pytest.raises(DomainError):
            norm_via_parseval(spec_a, n_max=4)


class TestNormCrosscheck:
    def test_adm1_gap_within_tail(self, adm1):
        rep = norm_crosscheck(adm1, n_max=10_000, tol=1e-10)
        assert rep["oracle"] is not None
        assert abs(rep["oracle"] ** 2 - (1 - math.log(2))) < 1e-9
        assert rep["gap"] <= rep["tail_estimate"]
        assert rep["gap_rel"] < 0.1

    def test_json_safe(self, spec_a):
        rep = norm_crosscheck(spec_a, n_max=2048)
        text = json.dumps(rep, indent=2)
        back = json.loads(text)
        assert back["n_max"] == 2048
        assert isinstance(back["partial"], float)
        assert set(back) == {
            "n_max", "partial", "tail_estimate", "norm_lo", "norm_hi",
            "coeff_cert_total", "oracle", "gap", "gap_rel",
        }

    def test_all_admissible_specs_consistent(
        self, empty_spec, triv0, spec_a, spec_d, spec_e, adm1
    ):
        # acceptance-grade consistency at reduced n_max for speed
        for spec in (empty_spec, triv0, spec_a, spec_d, spec_e, adm1):
            rep = norm_crosscheck(spec, n_max=4096)
            assert rep["oracle"] is not None
            est = rep["partial"] + 0.5 * rep["tail_estimate"]
            assert abs(est - rep["oracle"] ** 2) <= rep["tail_estimate"] + 1e-8
