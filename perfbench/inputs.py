"""Seeded inputs and job lists for the benchmark workloads.

Every spec drawn here is exact-rational, admissible (sum a_k / b_k = 0
exactly), unit-fraction with distinct denominators, and has nonzero
coefficients with |a_k| <= 1. The fixed ROADMAP inputs (SPEC_A, ADM1 and the
unit:N sweep) are always part of the job lists. The program only ever sees
the files written by `write_inputs`.
"""
from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("routes", "mellin-quad", "gram")

SPEC_A = [(Fraction(1), 2), (Fraction(-1), 3), (Fraction(-1), 6)]
ADM1 = [(Fraction(1), 1), (Fraction(-2), 2)]

# Sizes, rescaled from the first sizing so that one pass takes a few seconds
# on a 2-CPU host and a run can take the fastest of several passes.
NORM_N_MAX = 2000
ROUTES_N_MAX = 10
MELLIN_S = ("0.3", "2.5", "1.5,2")
RECONSTRUCT_S = "2.5"
RECONSTRUCT_N_MAX = 1000
SWEEP_N_TO = 30

# The seed draws the coefficients of each seeded spec. Its denominators are
# fixed per slot, because the period B and sum theta set the cost of every
# route: with them fixed, runs with different seeds do the same work and
# their spread measures the host, not the inputs. All periods are <= 12.
ROUTES_DENOMS = ((2, 5, 10), (3, 4, 12), (2, 3, 4, 6))
MELLIN_DENOMS = ((4, 6, 12),)
# The two cheapest four-theta sets with q <= 6, a non-unit theta and joint
# period 12; the seed orders the sets and the thetas within each.
THETA_SETS = (
    ("1/6", "1/4", "1/3", "2/3"),
    ("1/6", "1/4", "1/3", "3/4"),
)

_A_DENOMS = (1, 2, 3, 4, 5, 6, 8, 10)


def _coef(rng: random.Random) -> Fraction:
    d = rng.choice(_A_DENOMS)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, d), d)


def _vanishes_on_a_piece(terms) -> bool:
    """True when F = 1 - sum a_k floor(u / b_k) is 0 on some piece of u in
    [0, B). The routes skip such pieces, so they would make the cost depend
    on the seed."""
    period = math.lcm(*(b for _, b in terms))
    cuts = sorted({m for _, b in terms for m in range(0, period, b)})
    return any(1 == sum(a * (u // b) for a, b in terms) for u in cuts)


def draw_spec(rng: random.Random, denoms) -> list:
    """[(a_k, b_k)] admissible, with 0 < |a_k| <= 1, for distinct b_k, and
    F nonzero on every piece."""
    while True:
        head = [_coef(rng) for _ in denoms[:-1]]
        last = -denoms[-1] * sum(a / b for a, b in zip(head, denoms))
        terms = list(zip(head + [last], denoms))
        if last != 0 and abs(last) <= 1 and not _vanishes_on_a_piece(terms):
            return terms


def spec_doc(terms) -> dict:
    return {"terms": [{"a_re": str(a), "b": b} for a, b in terms]}


def generate(workload: str, seed: int) -> dict:
    """{"specs": {name: terms}, "thetas": {name: [Fraction]}, "jobs": [...]}.

    Each job is {"id", "sub", "argv", "check"} with file arguments given as
    names relative to the input directory (see `write_inputs`).
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{seed}:{workload}")
    specs: dict = {}
    thetas: dict = {}
    jobs: list = []

    def job(sub, name, argv, check):
        jobs.append({"id": f"{sub}-{name}-{len(jobs)}", "sub": sub, "argv": argv, "check": check})

    if workload == "routes":
        specs["SPEC_A"] = SPEC_A
        for i, denoms in enumerate(ROUTES_DENOMS):
            specs[f"R{i}"] = draw_spec(rng, denoms)
        for name in specs:
            job("routes-check", name,
                ["routes-check", "--spec", f"{name}.json", "--n-max", str(ROUTES_N_MAX),
                 "--threads", "2"],
                {"spec": name})
    elif workload == "mellin-quad":
        specs["SPEC_A"] = SPEC_A
        for i, denoms in enumerate(MELLIN_DENOMS):
            specs[f"M{i}"] = draw_spec(rng, denoms)
        for name in specs:
            for s in MELLIN_S:
                for method in ("quadrature", "closed"):
                    job("mellin-" + method, name,
                        ["mellin", "--spec", f"{name}.json", "--s", s, "--method", method],
                        {"spec": name, "s": s, "tol": 1e-10})
            job("reconstruct", name,
                ["reconstruct", "--spec", f"{name}.json", "--s", RECONSTRUCT_S,
                 "--n-max", str(RECONSTRUCT_N_MAX)],
                {"spec": name, "s": RECONSTRUCT_S})
    else:
        specs["ADM1"] = ADM1
        job("norm", "ADM1", ["norm", "--spec", "ADM1.json", "--n-max", str(NORM_N_MAX)],
            {"spec": "ADM1", "tol": 1e-10})
        job("sweep", "unit", ["sweep", "--unit-n-from", "1", "--unit-n-to", str(SWEEP_N_TO)], {})
        for i, ths in enumerate(rng.sample(THETA_SETS, len(THETA_SETS))):
            thetas[f"T{i}"] = [Fraction(t) for t in rng.sample(ths, len(ths))]
            job("optimize", f"T{i}", ["optimize", "--thetas", f"T{i}.thetas.json"], {})
    return {"specs": specs, "thetas": thetas, "jobs": jobs}


def write_inputs(gen: dict, directory: str) -> list[list[str]]:
    """Write the spec and theta files; return each job's argv with paths
    resolved into `directory` and an --out file under `directory/out`."""
    os.makedirs(os.path.join(directory, "out"), exist_ok=True)
    for name, terms in gen["specs"].items():
        with open(os.path.join(directory, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(spec_doc(terms), fh)
    for name, ths in gen["thetas"].items():
        with open(os.path.join(directory, f"{name}.thetas.json"), "w", encoding="utf-8") as fh:
            json.dump([str(t) for t in ths], fh)
    out = []
    for j in gen["jobs"]:
        argv = [os.path.join(directory, a) if a.endswith(".json") else a for a in j["argv"]]
        out.append(argv + ["--out", out_path(directory, j["id"])])
    return out


def out_path(directory: str, job_id: str) -> str:
    return os.path.join(directory, "out", job_id)
