"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/passrun.py WORKLOAD SEED DIR LAUNCH_MONOTONIC TRACE

Imports beurling.cli, writes the seeded inputs into DIR, then runs the
workload's jobs in sequence through beurling.cli.main(argv), one client in
a closed loop. Prints one JSON line: set-up time (from LAUNCH_MONOTONIC, the
parent's time.monotonic() just before it started this interpreter), each
job's seconds, exit code and output digests, the pass wall time, peak RSS,
a host-speed probe taken before each job and after the last one and, when
TRACE is 1, the per-layer numbers from the spans.
"""
import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def probe() -> float:
    """Seconds for a fixed mix of the kinds of work the jobs do: a
    pure-Python integer loop, numpy products, mpmath functions at 200 bits
    and Fraction arithmetic."""
    from fractions import Fraction

    import mpmath
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    x = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    for _ in range(40):
        x = np.sin(x @ x)
    with mpmath.mp.workprec(200):
        s = mpmath.mpf(0)
        for k in range(1, 250):
            s += mpmath.exp(mpmath.mpf(k) / 7) * mpmath.sin(mpmath.mpf(k))
    f = Fraction(0)
    for k in range(1, 2500):
        f += Fraction(k % 13, k)
        f = Fraction(f.numerator % 100003, f.denominator % 100019 + 1)
    return time.perf_counter() - t0


def main(argv) -> int:
    workload, seed, directory, launch, trace = argv
    from beurling import cli

    import inputs

    gen = inputs.generate(workload, int(seed))
    argvs = inputs.write_inputs(gen, directory)
    setup_s = time.monotonic() - float(launch)

    tracer = None
    if trace == "1":
        import spans as tr

        tracer = tr.Tracer()
        tr.install(tracer)

    jobs, probes = [], []
    wall_s = 0.0
    for job, args in zip(gen["jobs"], argvs):
        probes.append(probe())
        out_buf, err_buf = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = job["id"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
            try:
                rc = cli.main(args)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
            except Exception as e:  # a crash is a failed job, not a failed pass
                print(f"{type(e).__name__}: {e}", file=sys.stderr)
                rc = -1
        seconds = time.perf_counter() - t0
        wall_s += seconds
        jobs.append({"id": job["id"], "sub": job["sub"], "seconds": seconds, "rc": rc,
                     "stdout": out_buf.getvalue(), "stderr": err_buf.getvalue()[-400:]})
    probes.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for job in jobs:
        stdout = job.pop("stdout")
        with open(inputs.out_path(directory, job["id"]) + ".stdout", "w", encoding="utf-8") as fh:
            fh.write(stdout)
        try:
            with open(inputs.out_path(directory, job["id"]), "rb") as fh:
                out_bytes = fh.read()
        except OSError:
            out_bytes = b""
        job["stdout_sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        job["out_sha256"] = hashlib.sha256(out_bytes).hexdigest()

    report = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "jobs": jobs,
              "probes": probes}
    if tracer is not None:
        report["layers"] = tr.layer_metrics(tracer.spans)
        report["spans"] = len(tracer.spans)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
