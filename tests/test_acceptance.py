"""Acceptance criteria. Each test checks one numbered criterion end to end at
its stated tolerance and prints a single PASS/FAIL line (shown with -rA).

Criterion 3's remainder-bound assertion runs on the admissible unit-fraction
specs with DISTINCT denominators >= 2 (SPEC_A, SPEC_D, SPEC_E): that is the
hypothesis class under which the theta-power bound is a theorem. Specs with
a theta = 1 term genuinely exceed the bound at moderate (n, L) -- that
behavior is locked in as a regression test in test_fourier.py instead.
"""
import math
import time

import mpmath
import pytest

from beurling import (
    c_direct,
    c_cosine_series,
    c_even_mellin_exact_L,
    c_even_mellin_limit,
    mellin_closed,
    mellin_even,
    mellin_even_bound,
    mellin_reconstruct,
    norm_crosscheck,
    norm_numeric,
    norm_via_parseval,
    optimize_coeffs,
    power_sum_exact,
    remainder_bound,
    spec_from_solution,
    sweep,
    telescope_partial,
    unit_thetas,
    zeta_even,
)
from beurling.cli import main as cli_main
from conftest import failed_hypotheses


def report(num: int, ok: bool, detail: str):
    print(f"CRITERION {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_empty_spec_routes(empty_spec):
    """Three coefficient routes agree to 1e-12 on the empty spec for
    n = 1..50, and M(2l) = 1/(2l) to 1e-12 for l = 1..10."""
    worst = 0.0
    for n in range(1, 51):
        vals = [
            complex(c_direct(empty_spec, n, tol=1e-13).value),
            complex(c_cosine_series(empty_spec, n, tol=1e-13).value),
            complex(c_even_mellin_limit(empty_spec, n, tol=1e-13).value),
        ]
        gap = max(abs(u - v) for u in vals for v in vals)
        worst = max(worst, gap)
    worst_m = 0.0
    for l in range(1, 11):
        mv = mellin_even(empty_spec, l, 1e-14)
        worst_m = max(worst_m, abs(complex(mv.value) - 1.0 / (2 * l)))
    ok = worst <= 1e-12 and worst_m <= 1e-12
    report(1, ok, f"empty-spec route spread {worst:.3g} (<= 1e-12), "
                  f"|M(2l) - 1/(2l)| worst {worst_m:.3g} (<= 1e-12)")


def test_criterion_02_route_agreement(spec_a, spec_d, spec_e, triv0):
    """All four routes agree pairwise within summed certificates for
    n = 1..20 at tol 1e-10 on the admissible unit-fraction test set."""
    checked = 0
    worst_ratio = 0.0
    for spec in (spec_a, spec_d, spec_e, triv0):
        for n in range(1, 21):
            L = max(32, math.ceil(n * math.pi * math.e) + 8)
            routes = [
                c_direct(spec, n, tol=1e-10),
                c_cosine_series(spec, n, tol=1e-10),
                c_even_mellin_limit(spec, n, tol=1e-10),
                c_even_mellin_exact_L(spec, n, L, tol=1e-10),
            ]
            for i in range(4):
                for j in range(i + 1, 4):
                    gap = abs(complex(routes[i].value) - complex(routes[j].value))
                    budget = float(routes[i].error_certificate) + float(
                        routes[j].error_certificate
                    )
                    checked += 1
                    if gap > budget:
                        report(2, False,
                               f"spec terms {len(spec.terms)}, n={n}: routes "
                               f"{routes[i].method}/{routes[j].method} gap "
                               f"{gap:.3g} > certs {budget:.3g}")
                    worst_ratio = max(worst_ratio, gap / max(budget, 1e-300))
    report(2, True, f"{checked} pairwise comparisons on 4 specs x n=1..20 all "
                    f"within summed certificates (worst gap/budget {worst_ratio:.3g})")


def test_criterion_03_remainder_bound_grid(spec_a, spec_d, spec_e):
    """|c_exact_L - c_direct| <= remainder_bound on the hypothesis specs for
    (n, L) in {1..10} x {4, 8, 16, 32}."""
    worst = 0.0
    cells = 0
    for spec in (spec_a, spec_d, spec_e):
        for n in range(1, 11):
            for L in (4, 8, 16, 32):
                rb = float(remainder_bound(spec, n, L))
                tol_c = max(min(rb * 1e-4, 1e-12), 1e-40)
                ref = c_direct(spec, n, tol=tol_c)
                v = c_even_mellin_exact_L(spec, n, L, tol=tol_c)
                gap = abs(complex(ref.value) - complex(v.value))
                cells += 1
                if gap > rb:
                    report(3, False, f"n={n} L={L}: gap {gap:.3g} > bound {rb:.3g}")
                worst = max(worst, gap / max(rb, 1e-300))
    report(3, True, f"{cells} grid cells on 3 distinct-denominator specs, "
                    f"0 violations (worst gap/bound {worst:.3g})")


def test_criterion_04_power_sum_identity(
    empty_spec, triv0, spec_a, spec_d, spec_e, adm1
):
    """P(2l) = (1 - 2l M(2l)) / zeta(2l) to 1e-12 for l = 1..10 on every
    admissible spec."""
    worst = 0.0
    for spec in (empty_spec, triv0, spec_a, spec_d, spec_e, adm1):
        for l in range(1, 11):
            p_re, p_im = power_sum_exact(spec, 2 * l)
            mv = mellin_even(spec, l, 1e-20)
            zv = zeta_even(l, 100)
            with mpmath.workprec(100):
                lhs = mpmath.mpf(p_re.numerator) / p_re.denominator
                rhs = (1 - 2 * l * mv.value.re.value) / zv.value
                worst = max(worst, float(abs(lhs - rhs)))
            assert p_im == 0
    ok = worst <= 1e-12
    report(4, ok, f"max |P(2l) - (1 - 2l M(2l))/zeta(2l)| = {worst:.3g} "
                  f"over 6 specs x l=1..10 (<= 1e-12)")


def test_criterion_05_telescope():
    """|telescope(l, J) - zeta(2l)| <= 2 J^(1-2l), decreasing in J, for
    (l, J) in {1,2,3} x {100, 1000, 10000}."""
    ok = True
    worst = 0.0
    for l in (1, 2, 3):
        gaps = []
        for J in (100, 1000, 10000):
            with mpmath.workprec(120):
                gap = abs(telescope_partial(l, J).value - mpmath.zeta(2 * l))
                bound = 2 * mpmath.mpf(J) ** (1 - 2 * l)
                gaps.append(gap)
                ok = ok and gap <= bound
                worst = max(worst, float(gap / bound))
        ok = ok and gaps[0] > gaps[1] > gaps[2]
    report(5, ok, f"9 (l, J) cells: gap <= 2 J^(1-2l) and decreasing in J "
                  f"(worst gap/bound {worst:.3g})")


def test_criterion_06_parseval(empty_spec, triv0, spec_a, spec_d, spec_e, adm1):
    """Empty spec: |(1/2) sum |c|^2 - 1| <= 1e-3 at n_max = 1e4. Every
    admissible spec: Parseval point estimate within tail + 10 quad_tol of
    the quadrature norm."""
    rec = norm_via_parseval(empty_spec, n_max=10_000)
    empty_gap = abs(float(rec["partial_norm_sq"]) - 1.0)
    ok = empty_gap <= 1e-3
    worst_rel = 0.0
    for spec in (empty_spec, triv0, spec_a, spec_d, spec_e, adm1):
        rep = norm_crosscheck(spec, n_max=10_000, tol=1e-10)
        budget = rep["tail_estimate"] + 10 * 1e-10
        if rep["oracle"] is None or rep["gap"] > budget:
            report(6, False, f"spec with {len(spec.terms)} terms: gap "
                             f"{rep['gap']} > tail budget {budget:.3g}")
        worst_rel = max(worst_rel, rep["gap"] / budget)
    report(6, ok, f"empty-spec Parseval gap {empty_gap:.3g} (<= 1e-3); 6 specs "
                  f"within tail budget (worst gap/budget {worst_rel:.3g})")


def test_criterion_07_reconstruction(empty_spec, spec_a):
    """M(s) reconstructed from even-integer data matches the closed form to
    1e-3 at s in {2, 2.5, 3}, n_max = 1000, in under 10 minutes."""
    t0 = time.monotonic()
    worst = 0.0
    for spec in (empty_spec, spec_a):
        for s in (2.0, 2.5, 3.0):
            mv = mellin_reconstruct(spec, s, n_max=1000)
            ref = complex(mellin_closed(spec, s, 1e-15).value)
            gap = abs(complex(mv.value) - ref)
            if gap > 1e-3:
                report(7, False, f"s={s}: reconstruction off by {gap:.3g} > 1e-3")
            worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    ok = elapsed < 600.0
    report(7, ok, f"6 reconstructions at n_max=1000, worst |gap| {worst:.3g} "
                  f"(<= 1e-3) in {elapsed:.1f}s (< 600s)")


def test_criterion_08_even_mellin_bound(spec_a, spec_d, spec_e):
    """|M(2l)| <= (1 + zeta(2l)^2)/(2l) for l = 1..10 on admissible
    unit-fraction specs with |a| <= 1 and distinct denominators."""
    worst = 0.0
    for spec in (spec_a, spec_d, spec_e):
        assert not failed_hypotheses(spec)
        for l in range(1, 11):
            m = abs(complex(mellin_even(spec, l, 1e-14).value))
            b = float(mellin_even_bound(l))
            if m > b:
                report(8, False, f"l={l}: |M(2l)| = {m:.3g} > bound {b:.3g}")
            worst = max(worst, m / b)
    report(8, True, f"30 (spec, l) cells within (1 + zeta^2)/(2l) "
                    f"(worst |M|/bound {worst:.3g})")


def test_criterion_09_optimizer():
    """theta = (1): a = 0, norm = 1. Unit families N = 2..20: minimal norms
    positive and nonincreasing. N = 5: KKT norm matches quadrature to 1e-6."""
    res1 = optimize_coeffs([1], tol=1e-9)
    ok1 = abs(res1["a"][0]) <= 1e-12 and abs(float(res1["norm_sq"]) - 1.0) <= 1e-12
    rows = sweep(2, 20, tol=1e-9)
    ns = [r["norm_sq"] for r in rows]
    ok2 = all(v > 0 for v in ns) and all(a >= b - 1e-12 for a, b in zip(ns, ns[1:]))
    res5 = optimize_coeffs(unit_thetas(5), tol=1e-9)
    spec5 = spec_from_solution(unit_thetas(5), res5["a"])
    direct = float(norm_numeric(spec5, 1e-10)) ** 2
    gap5 = abs(float(res5["norm_sq"]) - direct)
    ok3 = gap5 <= 1e-6
    report(9, ok1 and ok2 and ok3,
           f"N=1 exact (a={res1['a'][0]:.2g}); N=2..20 norms positive "
           f"nonincreasing; N=5 KKT-vs-quadrature gap {gap5:.3g} (<= 1e-6)")


def test_criterion_10_determinism(tmp_path):
    """routes-check and sweep CLI outputs are byte-identical across repeated
    runs and across thread counts."""
    spec_file = tmp_path / "spec_a.json"
    spec_file.write_text(
        '{"terms": [{"a_re": 1, "a_im": 0, "theta": "1/2"},'
        ' {"a_re": -1, "a_im": 0, "theta": "1/3"},'
        ' {"a_re": -1, "a_im": 0, "theta": "1/6"}]}'
    )
    blobs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"routes_{tag}.csv"
        assert cli_main(["routes-check", "--spec", str(spec_file), "--n-max", "12",
                         "--threads", threads, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    routes_ok = blobs[0] == blobs[1] == blobs[2]
    blobs = []
    for tag, threads in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"sweep_{tag}.csv"
        assert cli_main(["sweep", "--unit-n-from", "1", "--unit-n-to", "10",
                         "--threads", threads, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    sweep_ok = blobs[0] == blobs[1] == blobs[2]
    report(10, routes_ok and sweep_ok,
           "routes-check and sweep byte-identical across runs and thread counts")
