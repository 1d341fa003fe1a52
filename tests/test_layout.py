"""layout: the package is serial, reads no environment variable and
imports no scipy, numerics alone scopes and locks mpmath precision,
converts rationals, checks tolerances, counts and exponents, refuses a
certificate above tol and evaluates the Hurwitz zeta, one function reads the period caps and one reduces each
Gram entry's ratio, the periodic engine certifies without quadrature
estimates through one Hurwitz-kernel tail and one head path, one function
decides how each coefficient row is certified and the reconstruction
reads its rows from it alone, every function and constant the benchmark's
tracer reaches by name still exists, and the precision scalars are plain
records."""
import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from beurling import PrecisionComplex, PrecisionReal, build_gram, c_batch, sweep

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "beurling"
SOURCES = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}


def test_no_thread_pools():
    assert [name for name, text in SOURCES.items() if "ThreadPoolExecutor" in text] == []


@pytest.mark.parametrize("fn", [c_batch, build_gram, sweep])
def test_no_threads_parameter(fn):
    assert "threads" not in inspect.signature(fn).parameters


def _reads_environment(node):
    # os.environ[...], os.environ.get(...), os.getenv(...), or either name
    # imported from os
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return any(a.name in ("environ", "getenv") for a in node.names)
    return (
        isinstance(node, ast.Attribute)
        and node.attr in ("environ", "getenv")
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def test_no_environment_knobs():
    # every setting is an argument or a constant, so none can change a
    # result unseen
    hits = [(name, o) for name, text in SOURCES.items() for o in _owners(text, _reads_environment)]
    assert hits == []


@pytest.mark.parametrize(
    "pattern",
    [r"\bmp\.workprec\b", r"\bmpmath\.workprec\b", r"\b_MP_LOCK\b", r"from mpmath import mp\b"],
    ids=["mp.workprec", "mpmath.workprec", "_MP_LOCK", "import-mp"],
)
def test_mp_context_only_in_numerics(pattern):
    users = {name for name, text in SOURCES.items() if re.search(pattern, text)}
    assert users <= {"numerics.py"}


def test_rational_conversion_only_in_to_mp():
    hits = [
        (name, line.strip())
        for name, text in SOURCES.items()
        for line in text.splitlines()
        if re.search(r"\.numerator\)\s*/", line)
    ]
    assert hits == [("numerics.py", "return mpmath.mpf(x.numerator) / x.denominator")]


def _spans_layers():
    """The LAYERS literal of perfbench/spans.py, read from its syntax tree
    without running the file."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py has no LAYERS assignment")


def _spans_module_reads():
    """(module, attribute) for each sys.modules["<module>"].<attribute> that
    perfbench/spans.py reads."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    return [
        (node.value.slice.value, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Subscript)
        and ast.unparse(node.value.value) == "sys.modules"
        and isinstance(node.value.slice, ast.Constant)
    ]


def test_traced_names_resolve():
    # the tracer wraps each of these by name and reads each module constant
    # by name, so a rename would crash the benchmark's traced mode
    layers = _spans_layers()
    assert layers
    missing = [
        f"{modname}.{fname}"
        for modname, names in layers.values()
        for fname in names
        if not inspect.isfunction(getattr(importlib.import_module(modname), fname, None))
    ]
    reads = _spans_module_reads()
    assert reads
    missing += [
        f"{modname}.{attr}"
        for modname, attr in reads
        if not hasattr(importlib.import_module(modname), attr)
    ]
    assert missing == []


def _owners(text, match):
    """The top-level def or class enclosing each node of `text` that
    satisfies `match` (None for module-level code), one entry per node."""
    out = []
    for top in ast.parse(text).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        out.extend(owner for node in ast.walk(top) if match(node))
    return out


def _reads(*names):
    def match(node):
        if isinstance(node, ast.Name):
            return node.id in names and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Attribute) and node.attr in names

    return match


def _calls(name):
    def match(node):
        if not isinstance(node, ast.Call):
            return False
        fn = node.func
        return (fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)) == name

    return match


def test_period_caps_read_only_in_period():
    owners = {
        (name, owner)
        for name, text in SOURCES.items()
        for owner in _owners(text, _reads("PERIOD_CAP", "PIECES_CAP"))
    }
    assert owners == {("_periodic.py", "_period")}


def test_gram_ladder_is_one_function():
    # the Gram entries are closed forms, never a u-integral, and one
    # function reduces the ratio each is bounded at, or refuses it
    text = SOURCES["optimizer.py"]
    assert _owners(text, _calls("u_integral_f64")) + _owners(text, _calls("u_integral_mp")) == []
    owners = {
        (name, o) for name, text in SOURCES.items() for o in _owners(text, _calls("_closed_entry"))
    }
    assert owners == {("optimizer.py", "_gram_entry")}


def test_gram_entry_asks_one_period():
    # an entry depends on its pair only through the reduced ratio, so the
    # optimizer asks `_period` once, in `_gram_entry`, for that ratio alone,
    # and never for a joint period or a piece decomposition
    text = SOURCES["optimizer.py"]
    assert _owners(text, _calls("_period")) == ["_gram_entry"]
    assert _owners(text, _calls("_joint_period")) + _owners(text, _calls("decompose")) == []


def test_periodic_has_no_float64_hurwitz():
    # the engine runs in mpmath, at the bits its callers ask for
    assert "scipy" not in SOURCES["_periodic.py"]
    assert "hurwitz_zeta_f64" not in SOURCES["_periodic.py"]


def _imports_scipy(node):
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "scipy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"


def test_no_scipy():
    # the runtime needs only mpmath and numpy, and no test takes scipy as
    # a reference
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    hits = [p.name for p in files if _owners(p.read_text(encoding="utf-8"), _imports_scipy)]
    assert hits == []
    probe = "import sys, beurling.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_periodic_never_calls_quad():
    # an mpmath.quad error estimate is not a certificate; the u-tail is
    # bounded a priori
    assert _owners(SOURCES["_periodic.py"], _calls("quad")) == []


@pytest.mark.parametrize("module", ["parseval.py", "optimizer.py"])
def test_norm_oracle_retry_in_one_place(module):
    assert _owners(SOURCES[module], _calls("norm_numeric")) == []
    assert _owners(SOURCES[module], _calls("_norm_oracle")) != []


def _refuses_above_tol(node):
    # an `if` whose test compares with a tolerance name and whose body
    # raises ToleranceNotMet
    if not isinstance(node, ast.If):
        return False
    compares = [c for c in ast.walk(node.test) if isinstance(c, ast.Compare)]
    on_tol = any(
        isinstance(n, ast.Name) and "tol" in n.id.split("_") for c in compares for n in ast.walk(c)
    )
    raises = any(
        isinstance(n, ast.Raise) and n.exc is not None and _calls("ToleranceNotMet")(n.exc)
        for stmt in node.body
        for n in ast.walk(stmt)
    )
    return on_tol and raises


def test_certificate_refusal_only_in_check_cert():
    # numerics.check_cert rounds a certificate up to its double and refuses
    # it above tol; a copy elsewhere can skip the rounding or the check
    hits = {(name, o) for name, text in SOURCES.items() for o in _owners(text, _refuses_above_tol)}
    assert hits == {("numerics.py", "check_cert")}


def _hurwitz_calls(node):
    # mpmath.zeta(s, a, ...): two positional arguments, or a as a keyword
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "zeta"
        and (len(node.args) >= 2 or any(k.arg == "a" for k in node.keywords))
    )


def test_hurwitz_zeta_only_in_its_helper():
    # numerics.hurwitz_zeta_row and its float64 twin hurwitz_zeta_f64
    # evaluate every Hurwitz zeta with a proven error bound; mpmath's is
    # accurate to an absolute 2^-prec only, and certifies nothing
    assert [(name, o) for name, text in SOURCES.items() for o in _owners(text, _hurwitz_calls)] == []
    owners = {
        (name, o) for name, text in SOURCES.items() for o in _owners(text, _calls("hurwitz_zeta_row"))
    }
    assert owners == {("_periodic.py", "_tail_table"), ("fourier.py", "_cosine_rows")}
    owners = {
        (name, o) for name, text in SOURCES.items() for o in _owners(text, _calls("hurwitz_zeta_f64"))
    }
    assert owners == {("fourier.py", "_cos_tail")}


def test_one_hurwitz_tail_in_periodic():
    # one tail serves both integrals, and the sine rows reach it only
    # through the per-U table
    text = SOURCES["_periodic.py"]
    assert _owners(text, _calls("hurwitz_zeta_row")) == ["_tail_table"]
    assert set(_owners(text, _calls("_tail_table"))) == {"u_integral_mp", "_sine_table"}
    assert _owners(text, _calls("_sine_table")) == ["sine_integral_mp"]
    assert sorted(_owners(text, _calls("_head"))) == ["sine_integral_mp", "u_integral_mp"]


def test_one_head_path_in_periodic():
    # both integrals sum their head from the same span list, and the sine
    # rows build it only beside their per-U tail table, so no row rebuilds
    # the n-independent spans
    text = SOURCES["_periodic.py"]
    assert sorted(_owners(text, _calls("_head_spans"))) == ["sine_integral_mp", "u_integral_mp"]
    fns = {f.name: f for f in ast.parse(text).body if isinstance(f, ast.FunctionDef)}
    blocks = [
        node
        for node in ast.walk(fns["sine_integral_mp"])
        if isinstance(node, ast.If) and any(_calls("_head_spans")(n) for n in ast.walk(node))
    ]
    assert len(blocks) == 1
    assert ast.unparse(blocks[0].test) == "U not in tables"
    assert any(_calls("_sine_table")(n) for n in ast.walk(blocks[0]))


def test_c_direct_has_no_admissibility_gate():
    tree = ast.parse(SOURCES["fourier.py"])
    fns = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    for name in ("c_direct", "_direct_rows"):
        assert not [n for n in ast.walk(fns[name]) if _reads("admissible")(n)], name
    assert [n for n in ast.walk(fns["_direct_rows"]) if _calls("sine_integral_mp")(n)]


def test_one_owner_of_the_coefficient_batch():
    # cosine_coeffs alone decides, row by row, between the float64 batch
    # and the mp cosine series; no module keeps coefficients across calls.
    # The reconstruction reads every c(n) from one cosine_coeffs call, so
    # it computes, stores and refuses no row itself
    owners = {
        (name, o) for name, text in SOURCES.items() for o in _owners(text, _calls("batch_cosine_f64"))
    }
    assert owners == {("fourier.py", "cosine_coeffs")}
    for fn in ("batch_cosine_f64", "c_direct"):
        assert _owners(SOURCES["parseval.py"], _calls(fn)) == [], fn
    recon = SOURCES["reconstruct.py"]
    called = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", "")
        for node in ast.walk(ast.parse(recon))
        if isinstance(node, ast.Call)
    }
    banned = {"c_batch", "batch_cosine_f64", "to_double", "check_cert"}
    assert sorted(n for n in called if n in banned or n.startswith("c_")) == []
    assert _owners(recon, _calls("cosine_coeffs")) == ["mellin_reconstruct_report"]


def test_row_work_only_in_row_builders():
    # the direct rows reach the sine integral through one function, M(2l)
    # is read from one table per call, shared by the rows of both
    # even-Mellin routes, the cosine rows build their Hurwitz rows before
    # their loops, and the sine moments' two tables (the incomplete-gamma
    # terms and the series coefficients) are built only in their batch,
    # whose rows alone sum them by Horner's rule, so no second per-row loop
    # rebuilds them
    fourier = SOURCES["fourier.py"]
    assert set(_owners(fourier, _calls("_cosine_rows"))) == {"c_cosine_series", "c_batch"}
    fns = {f.name: f for f in ast.parse(fourier).body if isinstance(f, ast.FunctionDef)}
    loops = [n for n in ast.walk(fns["_cosine_rows"]) if isinstance(n, (ast.For, ast.While))]
    assert loops
    assert not [n for loop in loops for n in ast.walk(loop) if _calls("hurwitz_zeta_row")(n)]
    assert _owners(fourier, _calls("sine_integral_mp")) == ["_direct_rows"]
    assert set(_owners(fourier, _calls("_direct_rows"))) == {"c_direct", "c_batch"}
    assert _owners(fourier, _calls("_m2l_mp")) == ["_m2l_table"]
    assert set(_owners(fourier, _calls("_m2l_table"))) == {"_limit_rows", "_exact_L_rows"}
    assert _owners(fourier, _calls("_limit_row")) == ["_limit_rows"]
    assert set(_owners(fourier, _calls("_limit_rows"))) == {"c_even_mellin_limit", "c_batch"}
    assert _owners(fourier, _calls("_exact_L_row")) == ["_exact_L_rows"]
    assert set(_owners(fourier, _calls("_exact_L_rows"))) == {"c_even_mellin_exact_L", "c_batch"}
    recon = SOURCES["reconstruct.py"]
    assert _owners(recon, _calls("_AsymptoticTerms")) == ["sine_moments_with_cert"]
    assert _owners(recon, _calls("_SeriesTable")) == ["sine_moments_with_cert"]
    assert _owners(recon, _calls("moment")) == ["sine_moments_with_cert"] * 2
    assert sorted(_owners(recon, _calls("_horner"))) == ["_AsymptoticTerms"] * 2 + ["_SeriesTable"] * 2


def test_reconstruct_caches_only_sine_moments():
    dicts = set()
    for node in ast.parse(SOURCES["reconstruct.py"]).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if isinstance(value, (ast.Dict, ast.DictComp)) or _calls("dict")(value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                dicts.update(t.id for t in targets if isinstance(t, ast.Name))
    assert dicts == {"_SINE_CACHE"}


_COUNT_PARAMS = {"n", "n_max", "L", "J", "l", "N", "n_from", "n_to"}


def _own_argument_checks(text):
    """(function, what) for each argument check a module makes itself: a
    tolerance compared with 0, a count parameter compared with an integer,
    an error message about an integer, or complex() of an exponent
    parameter."""

    def is_tol(node):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return "tol" in name

    def is_zero(node):
        return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0

    def is_int(node):
        return isinstance(node, ast.Constant) and type(node.value) is int

    hits = []
    for fn in ast.walk(ast.parse(text)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                ops = [node.left, *node.comparators]
                if any(map(is_tol, ops)) and any(map(is_zero, ops)):
                    hits.append((fn.name, "tol compared with 0"))
                counts = [o for o in ops if isinstance(o, ast.Name) and o.id in params & _COUNT_PARAMS]
                if counts and any(map(is_int, ops)):
                    hits.append((fn.name, f"{counts[0].id} compared with an integer"))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                strings = [c.value for c in ast.walk(node.exc) if isinstance(c, ast.Constant)]
                if any(isinstance(s, str) and "integer" in s for s in strings):
                    hits.append((fn.name, "count error"))
            elif _calls("complex")(node) and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Name) and arg.id in params & {"s", "s_weight"}:
                    hits.append((fn.name, f"complex({arg.id})"))
    return hits


def test_argument_checks_only_in_numerics():
    # numerics.check_tol, check_count and as_complex are the one check per
    # argument kind; a copy elsewhere drifts from them (it let nan through,
    # or a float count)
    hits = [
        (name, *hit)
        for name, text in SOURCES.items()
        if name != "numerics.py"
        for hit in _own_argument_checks(text)
    ]
    assert hits == []


_OPERATOR_DUNDER = re.compile(
    r"__[ri]?(add|sub|mul|matmul|truediv|floordiv|mod|divmod|pow|lshift|rshift|and|xor|or)__"
    r"|__(neg|pos|abs|invert|round|trunc|floor|ceil|lt|le|gt|ge)__"
)


@pytest.mark.parametrize("cls", [PrecisionReal, PrecisionComplex], ids=lambda c: c.__name__)
def test_precision_scalars_are_records(cls):
    # callers compute on .value / to_mpc(); an operator algebra on the
    # records would carry precision rules no caller relies on
    own = [
        name
        for name in vars(cls)
        if _OPERATOR_DUNDER.fullmatch(name) or name in ("_binop", "_coerce", "conjugate")
    ]
    allowed = ["__abs__"] if cls is PrecisionComplex else []
    assert own == allowed
