"""Command-line front end. Every subcommand wraps one library pipeline and
writes deterministic output: identical invocations produce byte-identical
files. --threads is still accepted so that existing command lines keep
working, but it has no effect: the package computes serially.

Exit codes: 0 success; 2 domain/constraint errors (including a malformed
--spec or --thetas file, a bool where a number belongs, a --tol that is
not positive and finite, an --n-max or --l-max below 1, and singular
optimizer systems); 3 tolerance not met, including every integral of a
spec whose thetas have no period within the caps of `_periodic`.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from fractions import Fraction

from .errors import ConstraintError, DomainError, SingularSystemError, ToleranceNotMet
from .fourier import c_batch, coefficients_csv, cosine_coeffs
from .functions import BeurlingSpec, eval_F, eval_f, mellin_numeric
from .mellin import MellinValue, mellin_closed, mellin_even, mellin_even_bound
from .numerics import check_count, check_tol, float_up
from .optimizer import residual_report, spec_from_solution, sweep, unit_thetas
from .parseval import norm_crosscheck
from .reconstruct import convergence_csv, mellin_reconstruct_report

_EXIT_BAD_INPUT = 2
_EXIT_TOL = 3


def _g(x: float) -> str:
    return format(float(x), ".17g")


def _parse_s(raw: str) -> complex:
    parts = raw.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise DomainError(f"--s expects re or re,im; got {raw!r}")


def _load_spec(path: str | None) -> BeurlingSpec:
    if path is None:
        return BeurlingSpec()
    try:
        return BeurlingSpec.from_json_file(path)
    except OSError as e:
        raise DomainError(f"cannot read spec file {path}: {e}") from None


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _mellin_value_doc(mv: MellinValue) -> dict:
    return {
        "s": {"re": float(mv.s.re), "im": float(mv.s.im)},
        "value": {
            "re": float(mv.value.re),
            "im": float(mv.value.im),
            "hi_re": mv.value.re.hi_str(),
            "hi_im": mv.value.im.hi_str(),
        },
        "provenance": mv.provenance,
        "error_bound": float(mv.error_bound),
    }


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _rows_to_json(header: list[str], rows: list[list]) -> str:
    return json.dumps([dict(zip(header, r)) for r in rows], indent=2)


def _table(args, header: list[str], rows: list[list]) -> str:
    if args.format == "json":
        return _rows_to_json(header, rows)
    return _rows_to_csv(header, rows)


# ---------------------------------------------------------------------------
# subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_eval(args, spec: BeurlingSpec):
    x = args.x
    f = eval_f(spec, x)
    F = eval_F(spec, x)
    if args.format == "json":
        _emit(
            args,
            json.dumps(
                {
                    "x": float(x),
                    "f": {"re": f.real, "im": f.imag},
                    "F": {"re": F.real, "im": F.imag},
                },
                indent=2,
            ),
        )
    else:
        fm = _g(f.real) if f.imag == 0 else f"{_g(f.real)} + {_g(f.imag)}i"
        Fm = _g(F.real) if F.imag == 0 else f"{_g(F.real)} + {_g(F.imag)}i"
        _emit(args, f"f = {fm}\nF = {Fm}\n")
    return 0


def _cmd_mellin(args, spec: BeurlingSpec):
    s = _parse_s(args.s)
    if args.method == "closed":
        mv = mellin_closed(spec, s, args.tol)
    elif args.method == "quadrature":
        mv = mellin_numeric(spec, s, args.tol)
    else:
        mv, _rep = mellin_reconstruct_report(spec, s, args.n_max, args.tol)
    _emit(args, json.dumps(_mellin_value_doc(mv), indent=2))
    return 0


def _cmd_mellin_even(args, spec: BeurlingSpec):
    rows = []
    for l in range(1, args.l_max + 1):
        mv = mellin_even(spec, l, args.tol)
        bound = mellin_even_bound(l)
        m_abs = float(abs(mv.value))
        rows.append(
            [
                l,
                _g(float(mv.value.re)),
                _g(float(mv.value.im)),
                _g(float(bound)),
                "true" if m_abs <= float(bound) else "false",
            ]
        )
    header = ["l", "M_2l_re", "M_2l_im", "bound", "satisfied"]
    _emit(args, _table(args, header, rows))
    return 0


_METHOD_MAP = {
    "direct": "direct",
    "cosine": "cosine_series",
    "even-mellin": "even_mellin_limit",
}


def _cmd_fourier(args, spec: BeurlingSpec):
    if args.method == "even-mellin" and args.L is not None:
        method = "even_mellin_exact_L"
    else:
        method = _METHOD_MAP[args.method]
    coeffs = c_batch(spec, range(1, args.n_max + 1), method=method, tol=args.tol, L=args.L)
    if args.format == "json":
        docs = [
            {
                "n": fc.n,
                "re_c": float(fc.value.re),
                "im_c": float(fc.value.im),
                "hi_re": fc.value.re.hi_str(),
                "method": fc.method,
                "L_or_J": fc.truncation_order,
                "certificate": float(fc.error_certificate),
            }
            for fc in coeffs
        ]
        _emit(args, json.dumps(docs, indent=2))
    else:
        _emit(args, coefficients_csv(coeffs))
    return 0


def _cmd_routes_check(args, spec: BeurlingSpec):
    ns = list(range(1, args.n_max + 1))
    direct = c_batch(spec, ns, "direct", args.tol)
    # the certified float64 batch, with its mp rows where it misses tol
    cosine, cosine_certs = cosine_coeffs(spec, args.n_max, args.tol)
    limit = c_batch(spec, ns, "even_mellin_limit", args.tol)
    rows = []
    worst = 0.0
    for fd, fc, fc_cert, fl in zip(direct, cosine, cosine_certs, limit):
        vals = [complex(fd.value), complex(fc), complex(fl.value)]
        gap = max(
            abs(vals[0] - vals[1]), abs(vals[0] - vals[2]), abs(vals[1] - vals[2])
        )
        # the exact sum of the stored certificates, rounded up
        stored = (fd.error_certificate, fc_cert, fl.error_certificate)
        certs = float_up(sum(Fraction(float(c)) for c in stored))
        worst = max(worst, gap)
        rows.append(
            [
                fd.n,
                _g(vals[0].real),
                _g(vals[1].real),
                _g(vals[2].real),
                _g(gap),
                _g(certs),
                "true" if gap <= certs else "false",
            ]
        )
    header = ["n", "c_direct", "c_cosine", "c_even_mellin", "max_gap", "cert_sum", "agree"]
    text = _table(args, header, rows)
    if args.format != "json":
        text += f"# max_pairwise_gap,{_g(worst)}\n"
    _emit(args, text)
    return 0


def _cmd_norm(args, spec: BeurlingSpec):
    rep = norm_crosscheck(spec, args.n_max, args.tol)
    _emit(args, json.dumps(rep, indent=2))
    return 0


def _cmd_reconstruct(args, spec: BeurlingSpec):
    s = _parse_s(args.s)
    mv, rep = mellin_reconstruct_report(spec, s, args.n_max, args.tol)
    summary = {
        "value": _mellin_value_doc(mv),
        "n_max": rep["n_max"],
        "last_decade_spread": rep["last_decade_spread"],
        "coeff_cert_budget": rep["coeff_cert_budget"],
        "warned": rep["warned"],
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(convergence_csv(rep))
    else:
        sys.stdout.write(convergence_csv(rep))
    return 0


def _parse_thetas_arg(raw: str):
    if raw.startswith("unit:"):
        try:
            return unit_thetas(int(raw.split(":", 1)[1]))
        except ValueError:
            raise DomainError(f"bad unit family spec {raw!r}") from None
    try:
        with open(raw, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise DomainError(f"cannot read thetas file {raw}: {e}") from None
    except json.JSONDecodeError as e:
        raise DomainError(f"malformed thetas JSON in {raw}: {e}") from None
    if isinstance(doc, dict):
        doc = doc.get("thetas")
    if not isinstance(doc, list):
        raise DomainError("thetas file must hold a JSON array (or {'thetas': [...]})")
    return doc


def _cmd_optimize(args, spec: BeurlingSpec):
    thetas = _parse_thetas_arg(args.thetas)
    rep = residual_report(thetas, args.tol)
    opt_spec = spec_from_solution(thetas, rep["a"])
    doc = {"spec": opt_spec.to_json_dict(), "report": rep}
    _emit(args, json.dumps(doc, indent=2))
    return 0


def _cmd_sweep(args, spec: BeurlingSpec):
    rows = sweep(args.unit_n_from, args.unit_n_to, args.tol)
    table = [[r["N"], _g(r["norm_sq"]), _g(r["norm"])] for r in rows]
    _emit(args, _table(args, ["N", "norm_sq", "norm"], table))
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, so repeated `main` calls share it."""
    p = argparse.ArgumentParser(
        prog="beurling",
        description="Numerics for Beurling approximations f_N(x) = sum a_k rho(theta_k/x) to -1.",
        epilog="Exit codes: 0 ok; 2 domain/constraint/singular-system "
        "errors (incl. malformed --spec or --thetas, and a bool where a "
        "number belongs); 3 tolerance not met, including a "
        "spec whose thetas have no period within the caps.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tol_default=1e-10):
        sp.add_argument("--spec", default=None, help="BeurlingSpec JSON file (default: empty spec, F = 1)")
        sp.add_argument("--tol", type=float, default=tol_default)
        sp.add_argument("--out", default=None, help="output file (default: stdout)")
        sp.add_argument("--format", choices=["csv", "json"], default="csv")
        sp.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
        return sp

    sp = common(sub.add_parser("eval", help="evaluate f and F at a point"))
    sp.add_argument("--x", type=float, required=True)
    sp.set_defaults(fn=_cmd_eval, format="json")

    sp = common(sub.add_parser("mellin", help="M(s) by one method"))
    sp.add_argument("--s", required=True, help="re or re,im")
    sp.add_argument("--method", choices=["closed", "quadrature", "reconstruct"], default="closed")
    sp.add_argument("--n-max", type=int, default=1000, help="terms for --method reconstruct")
    sp.set_defaults(fn=_cmd_mellin)

    sp = common(sub.add_parser("mellin-even", help="M(2l) vs the (1+zeta^2)/(2l) bound"), 1e-12)
    sp.add_argument("--l-max", type=int, default=10)
    sp.set_defaults(fn=_cmd_mellin_even)

    sp = common(sub.add_parser("fourier", help="coefficient batch with certificates"))
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--method", choices=["direct", "cosine", "even-mellin"], default="direct")
    sp.add_argument("--L", type=int, default=None, help="fixed truncation for even-mellin")
    sp.set_defaults(fn=_cmd_fourier)

    sp = common(sub.add_parser("routes-check", help="three-route agreement table"))
    sp.add_argument("--n-max", type=int, default=20)
    sp.set_defaults(fn=_cmd_routes_check)

    sp = common(sub.add_parser("norm", help="Parseval vs quadrature norm report"))
    sp.add_argument("--n-max", type=int, default=10000)
    sp.set_defaults(fn=_cmd_norm)

    sp = common(sub.add_parser("reconstruct", help="M(s) from even-integer values"), 1e-9)
    sp.add_argument("--s", required=True)
    sp.add_argument("--n-max", type=int, default=1000)
    sp.set_defaults(fn=_cmd_reconstruct)

    sp = common(sub.add_parser("optimize", help="norm-minimizing coefficients"), 1e-9)
    sp.add_argument("--thetas", required=True, help='JSON file of thetas, or "unit:N"')
    sp.set_defaults(fn=_cmd_optimize)

    sp = common(sub.add_parser("sweep", help="minimal norm over unit families"), 1e-9)
    sp.add_argument("--unit-n-from", type=int, required=True)
    sp.add_argument("--unit-n-to", type=int, required=True)
    sp.set_defaults(fn=_cmd_sweep)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_tol(args.tol, "--tol")
        for name in ("n_max", "l_max"):
            if name in vars(args):
                check_count(getattr(args, name), "--" + name.replace("_", "-"))
        spec = _load_spec(args.spec)
        return args.fn(args, spec)
    except (DomainError, ConstraintError, SingularSystemError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_BAD_INPUT
    except ToleranceNotMet as e:
        print(f"tolerance not met: {e}", file=sys.stderr)
        return _EXIT_TOL


if __name__ == "__main__":
    sys.exit(main())
