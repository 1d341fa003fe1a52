"""Spans around calls into the public functions of each beurling module.

The program is not changed: `install` replaces each listed function, in
every beurling module namespace that bound it at import, with a wrapper
that records a span (name, start, end, parent, job id) in memory. Spans
opened in ThreadPoolExecutor workers have no parent of their own and are
attributed to the open `c_batch` or `build_gram` span.
"""
from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

# layer -> (module, public functions whose calls are timed): those the
# metrics name and those the workloads call from another layer, so that each
# layer's self time holds its own work
LAYERS = {
    "cli": ("beurling.cli", ("main",)),
    "parseval": ("beurling.parseval", ("norm_crosscheck", "norm_via_parseval")),
    "fourier": ("beurling.fourier", (
        "c_batch", "c_direct", "c_cosine_series", "c_even_mellin_limit", "batch_cosine_f64")),
    "functions": ("beurling.functions", ("norm_numeric", "mellin_numeric")),
    "periodic": ("beurling._periodic", (
        "decompose", "u_integral_mp", "u_integral_f64", "sine_integral_mp",
        "f_piece_constants", "f_linear_pieces", "f_abs2_pieces",
        "rho_pair_pieces", "rho_single_pieces")),
    "numerics": ("beurling.numerics", ("zeta_even", "zeta_complex")),
    "mellin": ("beurling.mellin", ("mellin_closed", "power_sum_exact")),
    "reconstruct": ("beurling.reconstruct", (
        "mellin_reconstruct_report", "sine_moment_with_cert", "convergence_csv")),
    "optimizer": ("beurling.optimizer", (
        "build_gram", "residual_report", "sweep", "spec_from_solution")),
}

_POOL_SPANS = ("fourier.c_batch", "optimizer.build_gram")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# span name -> count recorded from (args, kwargs, result)
_COUNTS = {
    "fourier.batch_cosine_f64": lambda a, k, r: int(_arg(a, k, 1, "n_max")),
    "periodic.decompose": lambda a, k, r: 0 if r is None else r.npieces,
    "reconstruct.mellin_reconstruct_report": lambda a, k, r: int(_arg(a, k, 2, "n_max", 1000)),
}


class Tracer:
    """Spans of one pass, kept in memory until the pass ends."""

    def __init__(self):
        # [name, start, end, parent index or None, job id, count]
        self.spans: list[list] = []
        self.job = None
        self._local = threading.local()
        self._pools: list[int] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        pool = name in _POOL_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                if stack:
                    parent = stack[-1]
                elif self._pools and threading.current_thread() is not threading.main_thread():
                    parent = self._pools[-1]
                else:
                    parent = None
                idx = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent, self.job, 0])
                if pool:
                    self._pools.append(idx)
            stack.append(idx)
            span = self.spans[idx]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span[1], span[2] = t0, t1
                if pool:
                    with self._lock:
                        self._pools.remove(idx)
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> int:
    """Wrap every listed function wherever a beurling module bound it."""
    mods = [m for n, m in list(sys.modules.items()) if n == "beurling" or n.startswith("beurling.")]
    patched = 0
    for layer, (modname, names) in LAYERS.items():
        home = sys.modules[modname]
        for fname in names:
            orig = getattr(home, fname)
            wrapper = tracer.wrap(f"{layer}.{fname}", orig)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        patched += 1
    return patched


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer numbers of one traced pass (see README for their meaning)."""
    children: dict = {}
    for i, sp in enumerate(spans):
        if sp[3] is not None:
            children.setdefault(sp[3], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def ancestors(i):
        p = spans[i][3]
        while p is not None:
            yield p
            p = spans[p][3]

    def under(i, name):
        return any(spans[p][0] == name for p in ancestors(i))

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    incl: dict = {}
    calls: dict = {}
    for i, sp in enumerate(spans):
        name, lo, hi = sp[0], sp[1], sp[2]
        kids = [(max(spans[c][1], lo), min(spans[c][2], hi)) for c in children.get(i, ())]
        kids = [(a, b) for a, b in kids if b > a]
        out[name.split(".", 1)[0] + ".self_s"] += (hi - lo) - _union_length(kids)
        calls[name] = calls.get(name, 0) + 1
        if not under(i, name):
            incl[name] = incl.get(name, 0.0) + (hi - lo)

    def total(name):
        return incl.get(name, 0.0)

    def count_sum(name):
        return sum(sp[5] for sp in spans if sp[0] == name)

    def ids(name):
        return [i for i, sp in enumerate(spans) if sp[0] == name]

    for fn in ("fourier.batch_cosine_f64", "fourier.c_direct", "fourier.c_cosine_series",
               "fourier.c_even_mellin_limit", "periodic.u_integral_mp",
               "periodic.u_integral_f64", "periodic.sine_integral_mp", "periodic.decompose",
               "numerics.zeta_even", "numerics.zeta_complex", "functions.norm_numeric",
               "functions.mellin_numeric", "mellin.mellin_closed",
               "reconstruct.sine_moment_with_cert", "optimizer.build_gram",
               "optimizer.residual_report"):
        out[fn + ".s"] = total(fn)
    for fn in ("fourier.c_direct", "fourier.c_cosine_series", "fourier.c_even_mellin_limit",
               "periodic.u_integral_mp", "periodic.u_integral_f64", "numerics.zeta_even",
               "reconstruct.sine_moment_with_cert"):
        out[fn + ".calls"] = calls.get(fn, 0)
    out["fourier.batch_cosine_f64.coeffs"] = count_sum("fourier.batch_cosine_f64")
    out["periodic.pieces"] = count_sum("periodic.decompose")

    batch = ids("fourier.c_batch")
    rows = sum(dur(i) for b in batch for i in children.get(b, ()))
    batch_s = sum(dur(b) for b in batch)
    out["fourier.c_batch.row_concurrency"] = rows / batch_s if batch_s > 0 else 0.0

    # reconstruct takes n <= _COEFF_SWITCH_N from the even-Mellin series and
    # prefills the rest; each per-n c_direct call beyond it is a prefill miss
    switch_n = sys.modules["beurling.reconstruct"]._COEFF_SWITCH_N
    recon = ids("reconstruct.mellin_reconstruct_report")
    want = sum(max(spans[i][5] - switch_n, 0) for i in recon)
    per_n = sum(1 for i in ids("fourier.c_direct") if under(i, "reconstruct.mellin_reconstruct_report"))
    out["reconstruct.prefill_hit_ratio"] = 1.0 - per_n / want if want else 0.0

    pars = set(ids("parseval.norm_via_parseval"))
    fallback = {p for i in ids("fourier.c_cosine_series") for p in ancestors(i) if p in pars}
    out["parseval.batch_hit_ratio"] = 1.0 - len(fallback) / len(pars) if pars else 0.0

    out["optimizer.gram_entries"] = sum(
        1 for i in ids("periodic.rho_pair_pieces") if under(i, "optimizer.build_gram"))
    f64 = sum(1 for i in ids("periodic.u_integral_f64") if under(i, "optimizer.build_gram"))
    mp = sum(1 for i in ids("periodic.u_integral_mp") if under(i, "optimizer.build_gram"))
    out["optimizer.f64_hit_ratio"] = 1.0 - mp / f64 if f64 else 0.0
    return out
