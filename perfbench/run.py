"""The beurling benchmark: one workload, closed loop, fresh interpreter per pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass is one client issuing the workload's jobs in sequence through
beurling.cli.main(argv) in a new interpreter (perfbench/passrun.py), so the
package's module caches start cold, as they do for every CLI call. Passes
repeat until the next one would end after S seconds (at least three). After
the timed passes every job's output is checked against an oracle
(perfbench/oracles.py) and its sha256 compared with the first pass.

Before each job and after the last one the pass times a fixed host-speed
probe. Every timed metric is scaled by it to one reference host speed (see
scaled_jobs); the raw seconds are printed beside it.

With --trace 0 the last line holds the end-to-end metrics of BENCHMARK.json:
wall_s, the sum over the jobs of each job's median scaled seconds, the
median scaled setup_s and the median peak_rss_mb. With --trace 1 untraced and
traced passes alternate and it holds the per-layer metrics
(perfbench/spans.py), each the median over the traced passes. The lines
before it give the inputs, the per-job digests, and each pass with its raw
job seconds and probes.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

import inputs

# one BLAS thread: with --threads 2 in `routes` no pass runs more than 2 threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BEURLING_MAX_EVALS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
MIN_PASSES = 3
MIN_TRACE_PASSES = 3  # two untraced, one traced
# No pass runs past this many seconds after the first starts, so that the
# checks and the report still end within the 180 s a run may take.
PASS_LIMIT_S = 140
# The host probe's time in the fast mode of the 2-CPU host the benchmark was
# built on. Every timed value is scaled to this host speed; see scaled_jobs.
PROBE_REF_S = 0.032

SUBCOMMAND_METRIC = {
    "norm": "norm_s",
    "routes-check": "routes_check_s",
    "mellin-quadrature": "mellin_quad_s",
    "reconstruct": "reconstruct_s",
    "sweep": "sweep_s",
    "optimize": "optimize_s",
}


def run_pass(workload: str, seed: int, directory: str, trace: bool, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "passrun.py"), workload, str(seed), directory,
         repr(launch), "1" if trace else "0"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = trace
    rep["dir"] = directory
    return rep


def src_lines() -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def median(values):
    return statistics.median(values) if values else 0.0


def scaled_jobs(passes) -> dict:
    """{job id: median over the passes of the job's seconds at the reference
    host speed}. A job's seconds are scaled by PROBE_REF_S over the mean of
    the host probes taken just before and just after it, so a stretch of slow
    host mode slows the probe and the job alike and cancels out."""
    per_job: dict = {}
    for p in passes:
        pr = p["probes"]
        for i, j in enumerate(p["jobs"]):
            per_job.setdefault(j["id"], []).append(
                j["seconds"] * 2 * PROBE_REF_S / (pr[i] + pr[i + 1]))
    return {k: median(v) for k, v in per_job.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "beurling", "cli.py")):
        print(f"error: no beurling sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_json, encoding="utf-8") as fh:
        bench = json.load(fh)
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    if args.workload not in whys:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(whys)}", file=sys.stderr)
        return 2

    sys.path.insert(0, SRC)
    gen = inputs.generate(args.workload, args.seed)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        passes, broken = [], None
        t_start = perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            left = PASS_LIMIT_S - (perf_counter() - t_start)
            if left <= 0:
                break
            t0 = perf_counter()
            try:
                passes.append(run_pass(args.workload, args.seed,
                                       os.path.join(work, f"pass{len(passes)}"), traced, left))
            except subprocess.TimeoutExpired:  # the run is out of time; drop this pass
                break
            except RuntimeError as e:
                broken = str(e)
                break
            took = perf_counter() - t0
            elapsed = perf_counter() - t_start
            enough = len(passes) >= (MIN_TRACE_PASSES if args.trace else MIN_PASSES)
            if enough and elapsed + took > args.seconds:
                break
        if not any(not p["traced"] for p in passes) or (
                args.trace and not any(p["traced"] for p in passes)):
            print("error: the run ended without an untraced pass"
                  + (" and a traced pass" if args.trace else "")
                  + (f": {broken}" if broken else ""), file=sys.stderr)
            return 1
        return report(args, bench, whys, gen, passes, broken)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))


def report(args, bench, whys, gen, passes, broken) -> int:
    import mpmath
    import numpy as np

    import oracles

    jobs = {j["id"]: j for j in gen["jobs"]}
    ref = {j["id"]: (j["stdout_sha256"], j["out_sha256"]) for j in passes[0]["jobs"]}
    verdicts: dict = {}
    attempted = failed = 0
    correct = True
    findings = []
    if broken is not None:  # the pass that did not finish fails all its jobs
        attempted = failed = len(gen["jobs"])
        correct = False
        findings.append(f"pass {len(passes)}: {broken}")
    for p in passes:
        for j in p["jobs"]:
            attempted += 1
            digest = (j["stdout_sha256"], j["out_sha256"])
            if j["rc"] != 0:
                failed += 1
                correct = False
                findings.append(f"{j['id']}: exit {j['rc']}: {j['stderr'].strip()}")
                continue
            key = (j["id"], digest)
            if key not in verdicts:
                path = inputs.out_path(p["dir"], j["id"])
                with open(path + ".stdout", encoding="utf-8") as fh:
                    stdout = fh.read()
                with open(path, encoding="utf-8") as fh:
                    out_text = fh.read()
                job = jobs[j["id"]]
                terms = gen["specs"].get(job["check"].get("spec"))
                verdicts[key] = oracles.check(job, terms, stdout, out_text)
                for kind, msg in verdicts[key]:
                    findings.append(f"{j['id']}: {kind}: {msg}")
            problems = list(verdicts[key])
            if digest != ref[j["id"]]:
                problems.append(("digest", "output differs from the first pass"))
                findings.append(f"{j['id']}: digest: output differs from the first pass")
            if problems:
                failed += 1
            if any(kind == "value" for kind, _ in problems):
                correct = False

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    def sub_seconds(p, metric):
        return sum(j["seconds"] for j in p["jobs"] if SUBCOMMAND_METRIC.get(jobs[j["id"]]["sub"]) == metric)

    scaled = scaled_jobs(plain)
    values = {
        "setup_s": median([p["setup_s"] * PROBE_REF_S / p["probes"][0] for p in passes]),
        "wall_s": sum(scaled.values()),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        "fail_frac": failed / attempted,
    }
    for metric in SUBCOMMAND_METRIC.values():
        values[metric] = sum(v for k, v in scaled.items()
                             if SUBCOMMAND_METRIC.get(jobs[k]["sub"]) == metric)
    if traced:
        # span times are scaled by the pass's median probe; counts and ratios are not
        for name in traced[0]["layers"]:
            timed = name.endswith(("_s", ".s"))
            values[name] = median([
                p["layers"][name] * PROBE_REF_S / median(p["probes"]) if timed
                else p["layers"][name] for p in traced])
        values["trace.overhead_s"] = sum(scaled_jobs(traced).values()) - values["wall_s"]

    meta = {
        "workload": args.workload, "why": whys[args.workload], "seed": args.seed,
        "src_lines": src_lines(), "python": platform.python_version(),
        "numpy": np.__version__, "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
    }
    print("meta " + json.dumps(meta))
    print("inputs " + json.dumps({
        "specs": {k: [[str(a), b] for a, b in v] for k, v in gen["specs"].items()},
        "thetas": {k: [str(t) for t in v] for k, v in gen["thetas"].items()}}))
    for j in passes[0]["jobs"]:
        print(f"job {j['id']} stdout_sha256={j['stdout_sha256']} out_sha256={j['out_sha256']} "
              f"argv={' '.join(jobs[j['id']]['argv'])}")
    for i, p in enumerate(passes):
        subs = " ".join(f"{m}={sub_seconds(p, m):.4f}" for m in sorted(set(SUBCOMMAND_METRIC.values()))
                        if sub_seconds(p, m))
        print(f"pass {i} traced={int(p['traced'])} setup_s={p['setup_s']:.4f} "
              f"wall_s={p['wall_s']:.4f} peak_rss_mb={p['peak_rss_mb']:.1f} {subs}")
        print(f"pass {i} job_s " + " ".join(f"{j['seconds']:.4f}" for j in p["jobs"]))
        print(f"pass {i} probe_s " + " ".join(f"{x:.4f}" for x in p["probes"]))
    for f in findings:
        print("finding " + f)
    print(f"fail_frac {failed}/{attempted} = {values['fail_frac']:.4f}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in bench[section]:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
