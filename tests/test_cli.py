"""cli: every subcommand end to end through main(argv), exit codes,
output formats, and byte determinism."""
import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from beurling import BeurlingSpec, c_batch, cosine_coeffs, mellin_closed
from beurling.cli import build_parser, main

ADM1_JSON = {
    "terms": [
        {"a_re": 1, "a_im": 0, "theta": 1},
        {"a_re": -2, "a_im": 0, "theta": "1/2"},
    ]
}
SPEC_A_JSON = {
    "terms": [
        {"a_re": 1, "a_im": 0, "theta": "1/2"},
        {"a_re": -1, "a_im": 0, "theta": "1/3"},
        {"a_re": -1, "a_im": 0, "theta": "1/6"},
    ]
}


@pytest.fixture
def adm1_file(tmp_path):
    p = tmp_path / "adm1.json"
    p.write_text(json.dumps(ADM1_JSON))
    return str(p)


@pytest.fixture
def spec_a_file(tmp_path):
    p = tmp_path / "spec_a.json"
    p.write_text(json.dumps(SPEC_A_JSON))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_serves_every_call(capsys, spec_a_file):
    # build_parser is cached: in-process calls with different subcommands
    # (eval defaults to JSON, the others to CSV) print what the same calls
    # print, each on a parser of its own
    argvs = [
        ["eval", "--spec", spec_a_file, "--x", "0.4"],
        ["routes-check", "--spec", spec_a_file, "--n-max", "3"],
        ["eval", "--x", "0.5"],
        ["mellin", "--spec", spec_a_file, "--s", "2", "--format", "json"],
        ["mellin", "--spec", spec_a_file, "--s", "2"],
    ]
    fresh = []
    for argv in argvs:
        build_parser.cache_clear()
        fresh.append(run(capsys, argv))
    build_parser.cache_clear()
    assert [run(capsys, argv) for argv in argvs] == fresh
    assert build_parser() is build_parser()


class TestEval:
    def test_default_empty_spec(self, capsys):
        code, out, _ = run(capsys, ["eval", "--x", "0.5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["F"]["re"] == 1.0

    def test_adm1_point(self, capsys, adm1_file):
        code, out, _ = run(capsys, ["eval", "--spec", adm1_file, "--x", "0.4"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["f"]["re"]) < 1e-15
        assert abs(doc["F"]["re"] - 1.0) < 1e-15

    def test_x_out_of_domain(self, capsys, adm1_file):
        code, _, err = run(capsys, ["eval", "--spec", adm1_file, "--x", "1.5"])
        assert code == 2
        assert "error" in err


class TestMellin:
    def test_closed_vs_quadrature(self, capsys, adm1_file):
        code, out1, _ = run(capsys, ["mellin", "--spec", adm1_file, "--s", "2"])
        assert code == 0
        d1 = json.loads(out1)
        assert d1["provenance"] == "closed_form"
        assert abs(d1["value"]["re"] - 0.08876648328794339) < 1e-13
        code, out2, _ = run(
            capsys,
            ["mellin", "--spec", adm1_file, "--s", "2", "--method", "quadrature"],
        )
        assert code == 0
        d2 = json.loads(out2)
        assert d2["provenance"] == "quadrature"
        assert abs(d2["value"]["re"] - d1["value"]["re"]) < 1e-10

    def test_complex_s(self, capsys, adm1_file):
        code, out, _ = run(capsys, ["mellin", "--spec", adm1_file, "--s", "1.5,2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["s"] == {"re": 1.5, "im": 2.0}

    def test_reconstruct_method(self, capsys, spec_a_file):
        code, out, _ = run(
            capsys,
            ["mellin", "--spec", spec_a_file, "--s", "2", "--method", "reconstruct",
             "--n-max", "400"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"] == "reconstructed"
        # closed form: (1 - zeta(2)/9) / 2
        assert abs(doc["value"]["re"] - 0.40861477406398743) < 2e-3

    def test_pole_is_exit_2(self, capsys, adm1_file):
        code, _, err = run(capsys, ["mellin", "--spec", adm1_file, "--s", "1"])
        assert code == 2

    def test_period_past_the_cap_exit_3(self, tmp_path, capsys):
        # period 997 * 991 is past the cap: no quadrature is certified, at a
        # small sigma or a loose tol alike
        f = tmp_path / "wide.json"
        f.write_text(json.dumps({"terms": [{"a_re": 1, "b": 997}, {"a_re": -1, "b": 991}]}))
        for extra in (["--s", "0.01"], ["--s", "1.5,2", "--tol", "1e-8"]):
            code, out, err = run(
                capsys, ["mellin", "--spec", str(f), "--method", "quadrature"] + extra
            )
            assert code == 3 and out == ""
            assert "period" in err

    def test_huge_imaginary_part_exit_3(self, capsys, spec_a_file):
        code, out, _ = run(capsys, ["mellin", "--spec", spec_a_file, "--s", "0.5,1e6"])
        assert code == 3
        assert out == ""


class TestMellinEven:
    def test_csv(self, capsys, spec_a_file):
        code, out, _ = run(
            capsys, ["mellin-even", "--spec", spec_a_file, "--l-max", "4"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["l", "M_2l_re", "M_2l_im", "bound", "satisfied"]
        assert len(rows) == 5
        assert all(r[4] == "true" for r in rows[1:])
        # l = 1 value: (1 - zeta(2)/9) / 2
        assert abs(float(rows[1][1]) - 0.40861477406398743) < 1e-12

    def test_non_admissible_exit_2(self, tmp_path, capsys):
        f = tmp_path / "na.json"
        f.write_text('{"terms": [{"a_re": 1, "a_im": 0, "theta": 1}]}')
        code, _, _ = run(capsys, ["mellin-even", "--spec", str(f), "--l-max", "2"])
        assert code == 2


class TestFourier:
    def test_direct_csv(self, capsys, adm1_file):
        code, out, _ = run(
            capsys, ["fourier", "--spec", adm1_file, "--n-max", "3"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "re(c)", "im(c)", "method", "L_or_J", "certificate"]
        assert abs(float(rows[1][1]) - 0.43261019341962154) < 1e-12

    def test_even_mellin_with_L(self, capsys, spec_a_file):
        code, out, _ = run(
            capsys,
            ["fourier", "--spec", spec_a_file, "--n-max", "2",
             "--method", "even-mellin", "--L", "24"],
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][3] == "even_mellin_exact_L"
        assert rows[1][4] == "24"

    def test_outside_the_hypotheses(self, capsys, adm1_file):
        # ADM1 has |a_2| = 2 > 1; the limit route needs admissibility alone
        code, out, _ = run(
            capsys,
            ["fourier", "--spec", adm1_file, "--n-max", "2", "--method", "even-mellin"],
        )
        assert code == 0
        rows = self._rows_within_certificates(out, BeurlingSpec.from_json(json.dumps(ADM1_JSON)))
        assert [r[3] for r in rows] == ["even_mellin_limit"] * 2

    def _rows_within_certificates(self, out, spec):
        # each printed row against c_direct, within both certificates and
        # the rounding of the mp value to the printed doubles
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for n, re_c, im_c, _, _, cert in rows:
            ref = c_batch(spec, [int(n)], "direct", 1e-20)[0]
            c = complex(float(re_c), float(im_c))
            gap = abs(c - complex(ref.value))
            assert gap <= float(cert) + float(ref.error_certificate) + math.ulp(c.real) + math.ulp(c.imag), n
        return rows

    def test_exact_L_past_its_bound_exit_2(self, capsys, spec_a_file):
        # rows 12..30 at L = 5 are past what remainder_bound covers (n = 13
        # off by 1.36e5 against 1.12e5); the route certifies each with its
        # proven tail bound, and prints all 30
        argv = ["fourier", "--spec", spec_a_file, "--method", "even-mellin", "--n-max"]
        code, out, _ = run(capsys, argv + ["30", "--L", "5"])
        assert code == 0
        rows = self._rows_within_certificates(out, BeurlingSpec.from_json(json.dumps(SPEC_A_JSON)))
        assert [int(r[0]) for r in rows] == list(range(1, 31))

    def test_exact_L_at_theta_1_exit_2(self, tmp_path, capsys):
        # THETA1_B: from n = 7 remainder_bound at L = 8 does not cover the
        # proven tail bound; every row is printed within its certificate,
        # theta = 1 included
        doc = {"terms": [{"a_re": "1/2", "b": 1}, {"a_re": -1, "b": 2}]}
        f = tmp_path / "theta1_b.json"
        f.write_text(json.dumps(doc))
        argv = ["fourier", "--spec", str(f), "--method", "even-mellin", "--n-max"]
        code, out, _ = run(capsys, argv + ["10", "--L", "8"])
        assert code == 0 and out.count("\n") == 11
        self._rows_within_certificates(out, BeurlingSpec.from_json(json.dumps(doc)))
        # the limit route is not affected
        code, _, _ = run(capsys, argv + ["2"])
        assert code == 0

    def test_direct_non_admissible(self, tmp_path, capsys):
        # sum a_k theta_k = 1/6: c_direct needs no admissibility
        f = tmp_path / "na.json"
        f.write_text(json.dumps({"terms": [{"a_re": 1, "b": 2}, {"a_re": -1, "b": 3}]}))
        code, out, _ = run(capsys, ["fourier", "--spec", str(f), "--n-max", "4"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [r[3] for r in rows] == ["direct"] * 4
        assert abs(float(rows[0][1]) - 1.3012969798232952) <= float(rows[0][5]) + 2.5e-9

    def test_json_format(self, capsys, adm1_file):
        code, out, _ = run(
            capsys,
            ["fourier", "--spec", adm1_file, "--n-max", "2", "--format", "json"],
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 2 and doc[0]["n"] == 1


class TestRoutesCheck:
    def test_agreement_and_comment(self, capsys, spec_a_file):
        code, out, _ = run(
            capsys, ["routes-check", "--spec", spec_a_file, "--n-max", "6"]
        )
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("# max_pairwise_gap,")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "n", "c_direct", "c_cosine", "c_even_mellin", "max_gap", "cert_sum", "agree",
        ]
        data = [r for r in rows[1:] if r and not r[0].startswith("#")]
        assert len(data) == 6
        assert all(r[6] == "true" for r in data)

    def test_cert_sum_covers_the_exact_sum(self, capsys, spec_a_file):
        # the printed cert_sum is >= the exact sum of the three stored
        # certificates, which a float sum rounded to nearest need not be;
        # the cosine column is that of cosine_coeffs
        code, out, _ = run(capsys, ["routes-check", "--spec", spec_a_file, "--n-max", "6"])
        assert code == 0
        data = [r for r in csv.reader(io.StringIO(out)) if r and r[0].isdigit()]
        spec = BeurlingSpec.from_json_dict(SPEC_A_JSON)
        ns = range(1, 7)
        direct, limit = (c_batch(spec, ns, m, 1e-10) for m in ("direct", "even_mellin_limit"))
        cosine, cosine_certs = cosine_coeffs(spec, 6, 1e-10)
        assert len(data) == 6
        for row, fd, c, c_cert, fl in zip(data, direct, cosine, cosine_certs, limit):
            assert float(row[2]) == c.real, row[0]
            certs = (fd.error_certificate, c_cert, fl.error_certificate)
            exact = sum(Fraction(float(x)) for x in certs)
            assert Fraction(float(row[5])) >= exact, row[0]

    def test_determinism_across_runs_and_threads(self, tmp_path, capsys, spec_a_file):
        outs = []
        for threads, tag in (("1", "a"), ("1", "b"), ("4", "c")):
            f = tmp_path / f"routes_{tag}.csv"
            code, _, _ = run(
                capsys,
                ["routes-check", "--spec", spec_a_file, "--n-max", "8",
                 "--threads", threads, "--out", str(f)],
            )
            assert code == 0
            outs.append(f.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestNorm:
    def test_adm1_report(self, capsys, adm1_file):
        code, out, _ = run(
            capsys, ["norm", "--spec", adm1_file, "--n-max", "2048", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["oracle"] ** 2 - 0.30685281944005469) < 1e-9
        assert doc["gap"] <= doc["tail_estimate"]

    def test_no_oracle_past_the_period_cap(self, tmp_path, capsys):
        # the float 0.3 has period 2^54: Parseval still bounds the norm, and
        # the quadrature oracle is reported as null rather than guessed
        f = tmp_path / "float.json"
        f.write_text(json.dumps({"terms": [{"a_re": 1, "theta": 0.3}, {"a_re": -0.3, "theta": 1}]}))
        code, out, _ = run(capsys, ["norm", "--spec", str(f), "--n-max", "64", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"] is None and doc["gap"] is None
        assert 0 < doc["norm_lo"] <= doc["norm_hi"]


class TestReconstruct:
    def test_summary_and_csv(self, tmp_path, capsys, spec_a_file):
        conv = tmp_path / "conv.csv"
        code, out, _ = run(
            capsys,
            ["reconstruct", "--spec", spec_a_file, "--s", "2", "--n-max", "200",
             "--out", str(conv)],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["n_max"] == 200
        assert doc["value"]["provenance"] == "reconstructed"
        rows = list(csv.reader(io.StringIO(conv.read_text())))
        assert rows[0] == ["n", "term_value", "partial_sum"]
        assert len(rows) == 201
        assert abs(float(rows[-1][2]) - doc["value"]["value"]["re"]) < 1e-15

    def test_outside_the_hypotheses(self, tmp_path, capsys, adm1_file):
        # ADM1 has |a_2| = 2 > 1; the reconstruction needs admissibility alone
        code, out, _ = run(
            capsys,
            ["reconstruct", "--spec", adm1_file, "--s", "2.5", "--n-max", "200",
             "--out", str(tmp_path / "conv.csv")],
        )
        assert code == 0
        got = json.loads(out)["value"]["value"]
        ref = mellin_closed(BeurlingSpec.from_json(json.dumps(ADM1_JSON)), 2.5)
        assert abs(complex(got["re"], got["im"]) - complex(ref.value)) < 1e-3


class TestOptimize:
    def test_unit_family(self, capsys):
        code, out, _ = run(capsys, ["optimize", "--thetas", "unit:4"])
        assert code == 0
        doc = json.loads(out)
        rep = doc["report"]
        assert len(rep["a"]) == 4
        assert rep["gap_kkt_quadrature"] < 1e-5
        # the emitted spec is exactly admissible
        assert rep["constraint_residual_exact"] == "0"
        assert len(doc["spec"]["terms"]) == 4

    def test_thetas_file(self, tmp_path, capsys):
        f = tmp_path / "thetas.json"
        f.write_text('["1", "1/2"]')
        code, out, _ = run(capsys, ["optimize", "--thetas", str(f)])
        assert code == 0
        rep = json.loads(out)["report"]
        assert abs(rep["a"][0] - 1.0) < 1e-6
        assert abs(rep["a"][1] + 2.0) < 1e-6

    def test_duplicates_exit_2(self, tmp_path, capsys):
        f = tmp_path / "dup.json"
        f.write_text('["1/2", "1/2"]')
        code, _, _ = run(capsys, ["optimize", "--thetas", str(f)])
        assert code == 2

    def test_float_theta_past_the_period_cap(self, tmp_path, capsys):
        # 0.1/0.5 has period 2^54: G(0.1, 0.5) has no certified value, at a
        # loose tol or the default 1e-9
        f = tmp_path / "float.json"
        f.write_text("[0.5, 0.1]")
        for extra in (["--tol", "1e-3"], []):
            code, out, err = run(capsys, ["optimize", "--thetas", str(f)] + extra)
            assert code == 3
            assert out == ""
            assert "period" in err

    def test_float_thetas_with_a_ratio_period(self, tmp_path, capsys):
        # 0.1 and 0.2 have no joint period in reach, but 0.1/0.2 = 1/2: every
        # Gram entry is a closed form, so the default tol is met
        f = tmp_path / "float.json"
        f.write_text("[0.1, 0.2]")
        code, out, _ = run(capsys, ["optimize", "--thetas", str(f)])
        assert code == 0
        report = json.loads(out)["report"]
        assert abs(report["norm_kkt"] - 0.9281005138927632) < 1e-9
        assert report["norm_quadrature"] is None

    def test_tol_below_the_stored_rounding_exit_3(self, capsys):
        # every stored Gram entry is up to half an ulp (~5e-17) from its
        # certified value, more than 1e-18
        code, out, _ = run(capsys, ["optimize", "--thetas", "unit:2", "--tol", "1e-18"])
        assert code == 3
        assert out == ""


class TestSweep:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--unit-n-from", "1", "--unit-n-to", "5"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["N", "norm_sq", "norm"]
        assert len(rows) == 6
        assert abs(float(rows[5][1]) - 0.036319017938170606) < 1e-7

    def test_determinism(self, tmp_path, capsys):
        blobs = []
        for tag, threads in (("a", "1"), ("b", "4")):
            f = tmp_path / f"sweep_{tag}.csv"
            code, _, _ = run(
                capsys,
                ["sweep", "--unit-n-from", "1", "--unit-n-to", "8",
                 "--threads", threads, "--out", str(f)],
            )
            assert code == 0
            blobs.append(f.read_bytes())
        assert blobs[0] == blobs[1]


def test_bytes_do_not_depend_on_blas_threads(tmp_path):
    # neither the float64 Gram sums nor the factor of G call BLAS, so the
    # bytes match past N = 99, from where a LAPACK KKT solve's bits changed
    # with the thread count
    f = tmp_path / "thetas.json"
    f.write_text('["1", "1/2", "2/5", "1/3"]')
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        outs.append([
            subprocess.run(
                [sys.executable, "-m", "beurling.cli", *argv],
                env=env, capture_output=True, check=True, timeout=300,
            ).stdout
            for argv in (
                ["sweep", "--unit-n-from", "1", "--unit-n-to", "120"],
                ["optimize", "--thetas", str(f)],
            )
        ])
    assert outs[0] == outs[1]
    assert all(outs[0])


class TestBadInput:
    def test_malformed_spec(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text('{"terms": [{"a_re": 1, "a_im": 0, "theta": 2.5}]}')
        code, _, err = run(capsys, ["eval", "--spec", str(f), "--x", "0.5"])
        assert code == 2
        assert "error" in err

    def test_unparseable_json(self, tmp_path, capsys):
        f = tmp_path / "nojson.json"
        f.write_text("{")
        code, _, _ = run(capsys, ["eval", "--spec", str(f), "--x", "0.5"])
        assert code == 2

    def test_tolerance_not_met_exit_3(self, tmp_path, capsys):
        # float thetas: the exact-rational period is astronomical, so no
        # quadrature is certified, at a tight tol or the default
        import math
        f = tmp_path / "irr.json"
        for terms, tol in (
            ([{"a_re": 1, "a_im": 0, "theta": 1 / math.pi}], ["--tol", "1e-12"]),
            ([{"a_re": 1, "theta": 0.3}, {"a_re": -0.3, "theta": 1}], []),
        ):
            f.write_text(json.dumps({"terms": terms}))
            code, out, err = run(
                capsys,
                ["mellin", "--spec", str(f), "--s", "2", "--method", "quadrature"] + tol,
            )
            assert code == 3
            assert out == ""
            assert "tolerance" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--x", "0.5"],
            ["mellin", "--s", "2"],
            ["mellin", "--s", "2", "--method", "quadrature"],
            ["mellin-even", "--l-max", "2"],
            ["fourier", "--n-max", "2"],
            ["routes-check", "--n-max", "2"],
            ["norm", "--n-max", "16"],
            ["reconstruct", "--s", "2", "--n-max", "4"],
            ["optimize", "--thetas", "unit:2"],
            ["sweep", "--unit-n-from", "1", "--unit-n-to", "2"],
        ],
        ids=lambda a: "-".join(a[:1] + a[4:5]),
    )
    def test_bad_tol_exit_2(self, capsys, argv, tol):
        code, out, err = run(capsys, argv + ["--tol", tol])
        assert code == 2
        assert out == ""
        assert "--tol" in err

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["eval", "--x", "0.5", "--spec"], {"terms": [{"a_re": True, "theta": 0.5}]}),
            (["eval", "--x", "0.5", "--spec"], {"terms": [{"a_im": False, "theta": 0.5}]}),
            (["eval", "--x", "0.5", "--spec"], {"terms": [{"a_re": 1, "theta": True}]}),
            (["eval", "--x", "0.5", "--spec"], {"terms": [{"a_re": 1, "b": True}]}),
            (["optimize", "--thetas"], [True, 0.5]),
            (["optimize", "--thetas"], {"thetas": ["1/3", True]}),
        ],
        ids=["a_re", "a_im", "theta", "b", "thetas", "thetas-object"],
    )
    def test_bool_number_exit_2(self, tmp_path, capsys, argv, doc):
        # JSON true is no number: it must not run as 1
        f = tmp_path / "bool.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv + [str(f)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("s", ["nan", "inf", "1,nan", "2,inf"])
    def test_quadrature_non_finite_s_exit_2(self, capsys, spec_a_file, s):
        code, out, err = run(
            capsys, ["mellin", "--spec", spec_a_file, "--s", s, "--method", "quadrature"]
        )
        assert code == 2
        assert out == ""
        assert "finite" in err
