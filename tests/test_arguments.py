"""arguments: every public entry that takes a tolerance, a count or an
exponent s refuses a bad one with DomainError (exit 2 at the CLI, with
nothing on stdout) instead of turning it into a number, and accepts numpy
integers wherever it accepts Python ones. A tolerance too tight to certify
is refused with ToleranceNotMet (exit 3), never met by a larger
certificate."""
import math
import pickle
from fractions import Fraction as Fr

import numpy as np
import pytest

from beurling import (
    BeurlingSpec,
    DomainError,
    ToleranceNotMet,
    batch_cosine_f64,
    bernoulli,
    build_gram,
    c_batch,
    c_cosine_series,
    c_direct,
    c_even_mellin_exact_L,
    c_even_mellin_limit,
    cosine_coeffs,
    mellin_closed,
    mellin_even,
    mellin_even_bound,
    mellin_numeric,
    mellin_reconstruct,
    mellin_reconstruct_report,
    norm_crosscheck,
    norm_numeric,
    norm_via_parseval,
    optimize_coeffs,
    power_sum,
    power_sum_exact,
    remainder_bound,
    residual_report,
    sine_moment,
    sine_moment_with_cert,
    sine_moments_with_cert,
    sweep,
    telescope_partial,
    unit_thetas,
    zeta_complex,
    zeta_even,
)
from beurling.cli import main
from beurling.numerics import bits_for_tol

SPEC_A = BeurlingSpec([(1, Fr(1, 2)), (-1, Fr(1, 3)), (-1, Fr(1, 6))])
NAN, INF = math.nan, math.inf


TOL_ENTRIES = {
    "bits_for_tol": lambda tol: bits_for_tol(tol),
    "zeta_complex": lambda tol: zeta_complex(2.5, tol),
    "mellin_numeric": lambda tol: mellin_numeric(SPEC_A, 2.5, tol),
    "norm_numeric": lambda tol: norm_numeric(SPEC_A, tol),
    "power_sum": lambda tol: power_sum(SPEC_A, 2.5, tol),
    "mellin_closed": lambda tol: mellin_closed(SPEC_A, 2.5, tol),
    "mellin_even": lambda tol: mellin_even(SPEC_A, 1, tol),
    "c_direct": lambda tol: c_direct(SPEC_A, 1, tol),
    "c_cosine_series": lambda tol: c_cosine_series(SPEC_A, 1, tol),
    "c_even_mellin_exact_L": lambda tol: c_even_mellin_exact_L(SPEC_A, 1, 4, tol),
    "c_even_mellin_limit": lambda tol: c_even_mellin_limit(SPEC_A, 1, tol),
    "c_batch": lambda tol: c_batch(SPEC_A, [1], "cosine_series", tol),
    "cosine_coeffs": lambda tol: cosine_coeffs(SPEC_A, 10, tol),
    "norm_via_parseval": lambda tol: norm_via_parseval(SPEC_A, 16, tol),
    "norm_crosscheck": lambda tol: norm_crosscheck(SPEC_A, 16, tol),
    "norm_crosscheck-coeff_tol": lambda tol: norm_crosscheck(SPEC_A, 16, 1e-10, tol),
    "sine_moment": lambda tol: sine_moment(1, 2.5, tol),
    "sine_moment_with_cert": lambda tol: sine_moment_with_cert(1, 2.5, tol),
    "sine_moments_with_cert": lambda tol: sine_moments_with_cert([1, 40], 2.5, tol),
    "mellin_reconstruct_report": lambda tol: mellin_reconstruct_report(SPEC_A, 2.5, 4, tol),
    "mellin_reconstruct": lambda tol: mellin_reconstruct(SPEC_A, 2.5, 4, tol),
    "build_gram": lambda tol: build_gram([Fr(1, 2), Fr(1, 3)], tol),
    "optimize_coeffs": lambda tol: optimize_coeffs([Fr(1, 2), Fr(1, 3)], tol),
    "residual_report": lambda tol: residual_report([Fr(1, 2), Fr(1, 3)], tol),
    "sweep": lambda tol: sweep(1, 2, tol),
}

# name -> (entry called with the count, least valid count, a cheap valid count)
COUNT_ENTRIES = {
    "bernoulli": (lambda m: bernoulli(m), 0, 4),
    "zeta_even": (lambda l: zeta_even(l), 1, 2),
    "mellin_even": (lambda l: mellin_even(SPEC_A, l), 1, 2),
    "mellin_even_bound": (lambda l: mellin_even_bound(l), 1, 2),
    # P(n) is defined for every integer n, 0 and negative ones included
    "power_sum_exact": (lambda n: power_sum_exact(SPEC_A, n), -math.inf, -3),
    "c_direct": (lambda n: c_direct(SPEC_A, n), 1, 2),
    "c_cosine_series": (lambda n: c_cosine_series(SPEC_A, n), 1, 2),
    "remainder_bound": (lambda n: remainder_bound(SPEC_A, n, 4), 1, 2),
    "remainder_bound-L": (lambda L: remainder_bound(SPEC_A, 1, L), 1, 4),
    "c_even_mellin_exact_L": (lambda n: c_even_mellin_exact_L(SPEC_A, n, 6), 1, 2),
    "c_even_mellin_exact_L-L": (lambda L: c_even_mellin_exact_L(SPEC_A, 1, L), 1, 6),
    "c_even_mellin_limit": (lambda n: c_even_mellin_limit(SPEC_A, n), 1, 2),
    "telescope_partial": (lambda l: telescope_partial(l, 5), 1, 2),
    "telescope_partial-J": (lambda J: telescope_partial(2, J), 1, 5),
    "c_batch": (lambda n: c_batch(SPEC_A, [n], "cosine_series"), 1, 2),
    "c_batch-L": (lambda L: c_batch(SPEC_A, [1], "even_mellin_exact_L", L=L), 1, 6),
    "batch_cosine_f64": (lambda n: batch_cosine_f64(SPEC_A, n), 1, 10),
    "cosine_coeffs": (lambda n: cosine_coeffs(SPEC_A, n, 1e-8), 1, 10),
    "norm_via_parseval": (lambda n: norm_via_parseval(SPEC_A, n), 8, 16),
    "norm_crosscheck": (lambda n: norm_crosscheck(SPEC_A, n), 8, 16),
    "sine_moment": (lambda n: sine_moment(n, 2.5), 1, 3),
    "sine_moment_with_cert": (lambda n: sine_moment_with_cert(n, 2.5), 1, 3),
    "sine_moments_with_cert": (lambda n: sine_moments_with_cert([40, n], 2.5), 1, 3),
    "mellin_reconstruct_report": (lambda n: mellin_reconstruct_report(SPEC_A, 2.5, n), 1, 3),
    "mellin_reconstruct": (lambda n: mellin_reconstruct(SPEC_A, 2.5, n), 1, 3),
    "unit_thetas": (lambda N: unit_thetas(N), 1, 3),
    "sweep-n_from": (lambda n: sweep(n, 3), 1, 1),
    "sweep-n_to": (lambda n: sweep(1, n), 1, 3),
    "BeurlingSpec-b": (lambda b: BeurlingSpec([(1, None)], [b]), 1, 2),
}

S_ENTRIES = {
    "zeta_complex": lambda s: zeta_complex(s),
    "mellin_numeric": lambda s: mellin_numeric(SPEC_A, s),
    "power_sum": lambda s: power_sum(SPEC_A, s),
    "mellin_closed": lambda s: mellin_closed(SPEC_A, s),
    "sine_moment": lambda s: sine_moment(1, s),
    "sine_moment_with_cert": lambda s: sine_moment_with_cert(1, s),
    "sine_moments_with_cert": lambda s: sine_moments_with_cert([1, 40], s),
    "mellin_reconstruct_report": lambda s: mellin_reconstruct_report(SPEC_A, s, 4),
    "mellin_reconstruct": lambda s: mellin_reconstruct(SPEC_A, s, 4),
}

BAD_TOLS = [0, -1, NAN, INF]
BAD_COUNTS = [0, -1, 1.5, 2.0, True, "3"]
BAD_S = [NAN, INF, complex(2, NAN), "abc"]


@pytest.mark.parametrize("tol", BAD_TOLS, ids=repr)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRIES))
def test_bad_tol(entry, tol):
    with pytest.raises(DomainError):
        TOL_ENTRIES[entry](tol)


@pytest.mark.parametrize(
    "entry, count",
    [
        pytest.param(entry, count, id=f"{entry}-{count!r}")
        for entry in sorted(COUNT_ENTRIES)
        for count in BAD_COUNTS
        # bernoulli(0) is valid
        if not (type(count) is int and count >= COUNT_ENTRIES[entry][1])
    ],
)
def test_bad_count(entry, count):
    with pytest.raises(DomainError):
        COUNT_ENTRIES[entry][0](count)


@pytest.mark.parametrize("s", BAD_S, ids=repr)
@pytest.mark.parametrize("entry", sorted(S_ENTRIES))
def test_bad_s(entry, s):
    with pytest.raises(DomainError):
        S_ENTRIES[entry](s)


def test_power_sum_exact_at_zero_and_below():
    # P(0) = sum a_k, P(-1) = sum a_k / theta_k
    assert power_sum_exact(SPEC_A, 0) == (Fr(-1), Fr(0))
    assert power_sum_exact(SPEC_A, -1) == (Fr(2 - 3 - 6), Fr(0))


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRIES))
def test_numpy_counts_accepted(entry):
    # the same result, down to the types inside it, as for a Python int
    fn, _, valid = COUNT_ENTRIES[entry]
    assert pickle.dumps(fn(np.int64(valid))) == pickle.dumps(fn(valid))


@pytest.mark.parametrize(
    "argv",
    [
        ["fourier", "--n-max", "0"],
        ["fourier", "--n-max", "-3"],
        ["routes-check", "--n-max", "0"],
        ["mellin-even", "--l-max", "0"],
    ],
    ids=" ".join,
)
def test_cli_count_below_one_exit_2(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert argv[1] in out.err


def _route_certs(method):
    return lambda tol: [fc.error_certificate for fc in c_batch(SPEC_A, range(1, 21), method, tol)]


# name -> entry at a tolerance it may be unable to certify, returning its
# certificates
TIGHT_ENTRIES = {
    "c_direct": _route_certs("direct"),
    "c_cosine_series": _route_certs("cosine_series"),
    "c_even_mellin_limit": _route_certs("even_mellin_limit"),
    "cosine_coeffs": lambda tol: cosine_coeffs(SPEC_A, 20, tol)[1],
    "mellin_numeric": lambda tol: [mellin_numeric(SPEC_A, 2.5, tol).error_bound],
    "mellin_even": lambda tol: [mellin_even(SPEC_A, l, tol).error_bound for l in range(1, 21)],
    "sine_moments_with_cert": lambda tol: [c for _, c in sine_moments_with_cert(range(1, 21), 2.5, tol)],
}


@pytest.mark.parametrize("tol", [1e-17, 1e-20], ids=repr)
@pytest.mark.parametrize("entry", sorted(TIGHT_ENTRIES))
def test_tight_tol_refused_or_met(entry, tol):
    try:
        certs = TIGHT_ENTRIES[entry](tol)
    except ToleranceNotMet:
        return
    assert max(map(float, certs)) <= tol


def test_reconstruct_head_rows_meet_tol(capsys, tmp_path):
    # every row is c(n) of cosine_coeffs stored as a double: at tol 1e-17
    # that rounding alone exceeds tol for some of SPEC_A's rows n <= 32
    with pytest.raises(ToleranceNotMet, match="stored as a double"):
        mellin_reconstruct_report(SPEC_A, 2.5, 32, 1e-17)
    f = tmp_path / "spec_a.json"
    f.write_text(SPEC_A.to_json())
    code = main(["reconstruct", "--spec", str(f), "--s", "2.5", "--n-max", "32", "--tol", "1e-17"])
    out = capsys.readouterr()
    assert code == 3
    assert out.out == ""
