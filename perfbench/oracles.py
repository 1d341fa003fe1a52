"""Checks of each job's output against an oracle, run after the timed passes.

`check(job, spec_terms, stdout, out_text)` returns a list of (kind, message)
findings, empty when the job passed. Kind "value" means the printed value is
wrong beyond the accuracy the job asked for; kind "certificate" means the
value is within that accuracy but a reported error bound is smaller than the
true error. Both count the job as failed; only "value" makes the run
incorrect.
"""
from __future__ import annotations

import csv
import io
import json
import math

import mpmath
from mpmath import mp

from beurling import BeurlingSpec, mellin_closed

ORACLE_BITS = 256
CLOSED_TOL = 1e-30
RECONSTRUCT_TOL = 1e-3
OPTIMIZE_GAP = 1e-6
SWEEP_TOL = 1e-9  # the sweep's Gram build tolerance

_closed_cache: dict = {}


def _spec(terms) -> BeurlingSpec:
    return BeurlingSpec([(a, None) for a, _ in terms], [b for _, b in terms])


def _parse_s(raw: str) -> complex:
    parts = [float(p) for p in raw.split(",")]
    return complex(parts[0], parts[1] if len(parts) > 1 else 0.0)


def closed_value(terms, s: str):
    """M(s) by the closed form at CLOSED_TOL, as an mpc at ORACLE_BITS."""
    key = (tuple(terms), s)
    if key not in _closed_cache:
        mv = mellin_closed(_spec(terms), _parse_s(s), CLOSED_TOL)
        with mp.workprec(ORACLE_BITS):
            _closed_cache[key] = mpmath.mpc(mv.value.re.value, mv.value.im.value)
    return _closed_cache[key]


def _check_norm(job, terms, doc):
    tol = job["check"]["tol"]
    oracle = doc["oracle"]
    if oracle is None:
        return [("value", "quadrature oracle missing")]
    out = []
    est = math.sqrt(doc["partial"] + 0.5 * doc["tail_estimate"])
    if abs(est - oracle) > doc["tail_estimate"] + 10 * tol:
        out.append(("value", f"Parseval estimate {est!r} vs oracle {oracle!r}"))
    if doc["norm_lo"] > oracle + tol:
        out.append(("value", f"norm_lo {doc['norm_lo']!r} above oracle {oracle!r}"))
    if job["check"]["spec"] == "ADM1":
        exact = math.sqrt(1.0 - math.log(2.0))
        if abs(oracle - exact) > tol:
            out.append(("value", f"ADM1 oracle {oracle!r} vs sqrt(1 - ln 2) {exact!r}"))
    return out


def _check_routes(text):
    rows = list(csv.DictReader(line for line in io.StringIO(text) if not line.startswith("#")))
    if not rows:
        return [("value", "empty routes table")]
    return [("value", f"n={r['n']}: routes disagree (gap {r['max_gap']} > {r['cert_sum']})")
            for r in rows if r["agree"] != "true"]


def _check_mellin(job, terms, doc):
    s = job["check"]["s"]
    ref = closed_value(terms, s)
    with mp.workprec(ORACLE_BITS):
        got = mpmath.mpc(mpmath.mpf(doc["value"]["hi_re"]), mpmath.mpf(doc["value"]["hi_im"]))
        gap = abs(got - ref)
        out = []
        if gap > job["check"]["tol"] + CLOSED_TOL:
            out.append(("value", f"s={s}: |M - closed| = {mpmath.nstr(gap, 3)}"))
        elif gap > mpmath.mpf(doc["error_bound"]) + CLOSED_TOL:
            out.append(("certificate", f"s={s}: |M - closed| = {mpmath.nstr(gap, 3)} "
                                       f"> error_bound {doc['error_bound']:.3g}"))
    return out


def _check_reconstruct(job, terms, doc):
    ref = complex(closed_value(terms, job["check"]["s"]))
    got = complex(doc["value"]["value"]["re"], doc["value"]["value"]["im"])
    if abs(got - ref) > RECONSTRUCT_TOL:
        return [("value", f"reconstruction off by {abs(got - ref):.3g}")]
    return []


def _check_sweep(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    norms = [float(r["norm"]) for r in rows]
    out = []
    if not norms or min(norms) <= 0:
        out.append(("value", "sweep norms must be positive"))
    for prev, cur in zip(rows, rows[1:]):
        if float(cur["norm"]) > float(prev["norm"]) + SWEEP_TOL:
            out.append(("value", f"norm rises from N={prev['N']} to N={cur['N']}"))
    return out


def _check_optimize(doc):
    rep = doc["report"]
    out = []
    gap = rep["gap_kkt_quadrature"]
    if gap is None or gap > OPTIMIZE_GAP:
        out.append(("value", f"gap_kkt_quadrature {gap!r} > {OPTIMIZE_GAP}"))
    if rep["constraint_residual_exact"] != "0":
        out.append(("value", f"constraint residual {rep['constraint_residual_exact']!r}"))
    return out


def check(job, terms, stdout: str, out_text: str) -> list:
    sub = job["sub"]
    try:
        if sub == "norm":
            return _check_norm(job, terms, json.loads(out_text))
        if sub == "routes-check":
            return _check_routes(out_text)
        if sub.startswith("mellin-"):
            return _check_mellin(job, terms, json.loads(out_text))
        if sub == "reconstruct":
            return _check_reconstruct(job, terms, json.loads(stdout))
        if sub == "sweep":
            return _check_sweep(out_text)
        if sub == "optimize":
            return _check_optimize(json.loads(out_text))
    except (ValueError, KeyError, TypeError) as e:
        return [("value", f"unreadable output: {type(e).__name__}: {e}")]
    raise ValueError(f"no oracle for subcommand {sub!r}")
