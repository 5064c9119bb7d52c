import csv
import io
import json
import math
from dataclasses import replace

import pytest

from mvda.cli import main
from mvda.linalg import HermitianMatrix
from mvda.montecarlo import McConfig, default_suite, report_emit, verify_suite
from mvda.rng import SeedSpec


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


MATRIX_05 = json.dumps(HermitianMatrix([[0.5]]).to_json())
EXP_TRACE = {"measure": {"kind": "type1", "p": 1, "k": 2, "alphas": [1.0, 1.0, 1.0]},
             "functional": "exp_trace"}


class TestScalarCommands:
    def test_gamma(self, capsys):
        code, out = run(capsys, ["gamma", "-p", "2", "--alpha", "2"])
        assert code == 0
        assert json.loads(out)["log_value"] == pytest.approx(math.log(math.pi), rel=1e-12)

    def test_gamma_domain_error_exit_2(self, capsys):
        assert main(["gamma", "-p", "3", "--alpha", "1.5"]) == 2

    def test_pochhammer(self, capsys):
        code, out = run(capsys, ["pochhammer", "--a", "3", "--partition", "2,1"])
        assert code == 0
        assert json.loads(out)["value"] == 24.0

    @pytest.mark.parametrize("partition", ["0,2", "2,0,1", "1,2"])
    def test_partition_out_of_order_exit_1(self, capsys, partition):
        # a zero may only trail: "0,2" is not the partition (2)
        assert main(["pochhammer", "--a", "3", "--partition", partition]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: parts must be non-increasing")

    def test_non_finite_value_exit_4(self, capsys):
        # (3)_200 is about 1e377: JSON has no infinity, so nothing is printed
        assert main(["pochhammer", "--a", "3", "--partition", "200"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite value in output" in captured.err

    def test_zonal(self, capsys):
        code, out = run(capsys, ["zonal", "--partition", "2", "--matrix", MATRIX_05])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.25, rel=1e-12)

    def test_hyp1f1(self, capsys):
        code, out = run(
            capsys,
            ["hyp1f1", "--a", "2", "--c", "2", "--matrix", MATRIX_05, "--max-order", "40"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(math.exp(0.5), rel=1e-10)
        assert doc["converged"] is True

    def test_hyp1f1_beyond_double_range_exit_2(self, capsys):
        matrix = json.dumps(HermitianMatrix([[800.0]]).to_json())
        argv = ["hyp1f1", "--a", "1.5", "--c", "3.2", "--matrix", matrix, "--max-order", "1500"]
        assert main(argv) == 2
        assert "1F1 value finite" in capsys.readouterr().err

    def test_hyp1f1_non_finite_parameter_exit_2(self, capsys):
        argv = ["hyp1f1", "--a", "nan", "--c", "3.2", "--matrix", MATRIX_05]
        assert main(argv) == 2
        assert "1F1 undefined: a finite (got nan)" in capsys.readouterr().err

    def test_power_mean(self, capsys):
        code, out = run(capsys, ["power-mean", "--weights", "0.5,0.5", "--values", "2,4", "-b", "1"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(3.0, rel=1e-12)

    def test_power_mean_near_zero_exponent_is_geometric(self, capsys):
        code, out = run(capsys, ["power-mean", "--weights", "0.3,0.7", "--values", "2,3",
                                 "-b", "1e-300"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(2.0**0.3 * 3.0**0.7, rel=1e-12)

    @pytest.mark.parametrize("b,want", [("inf", 3.0), ("-inf", 2.0)])
    def test_power_mean_infinite_exponent_is_max_or_min(self, capsys, b, want):
        code, out = run(capsys, ["power-mean", "--weights", "0.3,0.7", "--values", "2,3",
                                 f"-b={b}"])
        assert code == 0
        assert json.loads(out)["value"] == want

    def test_power_mean_nan_exponent_exit_2(self, capsys):
        assert main(["power-mean", "--weights", "0.3,0.7", "--values", "2,3", "-b=nan"]) == 2
        assert "b is a number (b = nan)" in capsys.readouterr().err

    def test_power_mean_bad_weights_exit_2(self):
        assert main(["power-mean", "--weights", "0.5,0.6", "--values", "2,4", "-b", "1"]) == 2

    def test_out_file(self, tmp_path, capsys):
        out_file = tmp_path / "g.json"
        code, _ = run(capsys, ["gamma", "-p", "1", "--alpha", "5", "--out", str(out_file)])
        assert code == 0
        assert json.loads(out_file.read_text())["log_value"] == pytest.approx(math.log(24.0))


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required(self):
        assert main(["gamma", "-p", "2"]) == 1

    def test_bad_matrix_json(self):
        assert main(["zonal", "--partition", "1", "--matrix", '{"p": 1}']) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["sample", "--spec"], [1, 2]),
            (["average", "--spec"], [1]),
            (["average", "--spec"], {"measure": [1], "functional": "det_power"}),
            (["hyp1f1", "--a", "1", "--c", "2", "--matrix"], [1, 0]),
            (["zonal", "--partition", "1", "--matrix"], {"p": [1], "re": [], "im": []}),
            (["verify", "--config"], [1]),
            (["average", "--spec"], {"measure": {"kind": "type1", "p": 1, "k": 1, "alphas": [1, 1]},
                                     "functional": "complement_power", "delta": [1]}),
        ],
    )
    def test_document_of_wrong_shape_exit_1(self, tmp_path, capsys, argv, doc):
        assert main(argv + [write_json(tmp_path / "doc.json", doc)]) == 1
        assert capsys.readouterr().err.startswith("usage error: malformed document")

    @pytest.mark.parametrize(
        "argv,doc",
        [
            (["verify", "--abs-floor", "1e-3"], None),
            (["hyp1f1", "--a", "1", "--c", "2", "--matrix", MATRIX_05, "--rel-stop", "1e-10"], None),
            (["hyp1f1", "--a", "1", "--c", "2", "--matrix", MATRIX_05,
              "--consecutive-orders", "2"], None),
            (["average", "--spec"], {**EXP_TRACE, "policy": {"rel_stop": 1e-10}}),
            (["verify", "--config"], [{"case_id": "x", **EXP_TRACE, "policy": {"rel_stop": 1e-10},
                                       "mc": {"samples": 10, "seed": {"seed": 1, "stream": 0}}}]),
        ],
        ids=["abs-floor", "rel-stop", "consecutive-orders", "average-policy", "verify-policy"],
    )
    def test_fixed_comparator_and_stopping_rule_exit_1(self, tmp_path, capsys, argv, doc):
        # the comparator floor and the series stopping rule are not settable
        if doc is not None:
            argv = argv + [write_json(tmp_path / "doc.json", doc)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err or "policy takes only max_order" in err

    @pytest.mark.parametrize(
        "argv,doc,field",
        [
            (["average", "--spec"], {"measure": {"kind": "type1", "p": 1, "k": 1, "alphas": "23"},
                                     "functional": "det_power", "gammas": "1"}, "alphas"),
            (["average", "--spec"], {"measure": {"kind": "type1", "p": 1, "k": 1, "alphas": [2, 3]},
                                     "functional": "det_power", "gammas": "1"}, "gammas"),
            (["average", "--spec"], {"measure": {"kind": "type1", "p": 2.9, "k": 1, "alphas": [2, 3]},
                                     "functional": "det_power", "gammas": [1]}, "p"),
            (["sample", "--n", "2", "--spec"],
             {"kind": "rect_type1_p1", "p": 1, "k": 2, "alphas": [1, 1, 1], "ns": "12"}, "ns"),
            (["verify", "--config"],
             [{"case_id": "x", "measure": {"kind": "type1", "p": 1, "k": 1, "alphas": [2, 3]},
               "functional": "det_power", "gammas": [1],
               "mc": {"samples": 1000, "seed": {"seed": "42", "stream": 1}, "chunk": 500}}], "seed"),
            (["verify", "--config"],
             [{"case_id": "x", "measure": {"kind": "type1", "p": 1, "k": 1, "alphas": [2, 3]},
               "functional": "det_power", "gammas": [1],
               "mc": {"samples": 1000.9, "seed": {"seed": 42, "stream": 1.5}, "chunk": "500"}}],
             "samples"),
            (["verify", "--config"],
             [{"case_id": ["x"], "measure": {"kind": "type1", "p": 1, "k": 1, "alphas": [2, 3]},
               "functional": "det_power", "gammas": [1],
               "mc": {"samples": 1000, "seed": {"seed": 42, "stream": 1}, "chunk": 500}}],
             "case_id"),
        ],
        ids=["alphas-string", "gammas-string", "p-float", "ns-string", "seed-string", "samples-float",
             "case_id-array"],
    )
    def test_mistyped_field_exit_1_naming_it(self, tmp_path, capsys, argv, doc, field):
        # a string is not split into characters, and a float is not truncated
        assert main(argv + [write_json(tmp_path / "doc.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage error: malformed document: {field} must be a JSON")

    @pytest.mark.parametrize("spec", ["[1, 2]", '{"measure": [1], "functional": "det_power"}'])
    def test_inline_document_of_wrong_shape_exit_1(self, capsys, spec):
        # only "{" or "[" marks an inline document; anything else names a file
        assert main(["average", "--spec", spec]) == 1
        assert capsys.readouterr().err.startswith("usage error:")


class TestSample:
    SPEC = {"kind": "type1", "p": 1, "k": 2, "alphas": [1.0, 1.0, 1.0]}

    def test_jsonl_shape(self, tmp_path, capsys):
        spec = write_json(tmp_path / "m.json", self.SPEC)
        code, out = run(capsys, ["sample", "--spec", spec, "--n", "3", "--seed", "7"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4
        header = json.loads(lines[0])
        assert header["measure"]["kind"] == "type1"
        assert header["seed"] == {"seed": 7, "stream": 0}
        for line in lines[1:]:
            doc = json.loads(line)
            assert len(doc["matrices"]) == 2

    def test_deterministic(self, capsys):
        args = ["sample", "--spec", json.dumps(self.SPEC), "--n", "2", "--seed", "7"]
        _, first = run(capsys, args)
        _, second = run(capsys, args)
        assert first == second

    def test_infinite_alpha_exit_2(self, capsys):
        # the spec itself is refused: no draw is asked for
        spec = {"kind": "type1", "p": 1, "k": 1, "alphas": [math.inf, 2.0]}
        assert main(["sample", "--spec", json.dumps(spec), "--n", "0"]) == 2
        assert "alpha_1 finite (got inf)" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,message", [
        ({"kind": "rect_type1_p1", "p": 1, "k": 1, "alphas": [0.5, 2.0], "ns": [2], "Bs": []},
         "need one form matrix per component"),
        ({"kind": "type1", "p": 1, "k": 1, "alphas": [1.0, 2.0], "Bs": []},
         "ns/Bs only apply to rectangular measures"),
    ], ids=["rect", "type1"])
    def test_empty_forms_exit_1(self, capsys, spec, message):
        # an empty Bs is a list of no forms, not the identity forms
        assert main(["sample", "--spec", json.dumps(spec), "--n", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: {message}\n"

    def test_environment_does_not_seed(self, capsys, monkeypatch):
        # the seed is --seed or 42; no environment variable sets it
        monkeypatch.setenv("MVDA_SEED", "101")
        _, out = run(capsys, ["sample", "--spec", json.dumps(self.SPEC), "--n", "1"])
        assert json.loads(out.split("\n")[0])["seed"]["seed"] == 42


class TestAverage:
    def test_success(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "avg.json",
            {
                "measure": {"kind": "type1", "p": 1, "k": 1, "alphas": [1.0, 1.0]},
                "functional": "det_power",
                "gammas": [1.0],
            },
        )
        code, out = run(capsys, ["average", "--spec", spec])
        assert code == 0
        doc = json.loads(out)
        assert doc["conditions_ok"] is True
        assert doc["value"] == pytest.approx(0.5, rel=1e-12)

    def test_exp_trace_prints_series_diagnostics(self, capsys):
        code, out = run(capsys, ["average", "--spec", json.dumps(EXP_TRACE)])
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == ["conditions_ok", "log_value", "value", "violated_conditions",
                             "diagnostics"]
        # E exp(x_1) under Dirichlet(1, 1, 1) is 1F1(1; 3; 1) = 2 (e - 2)
        assert doc["value"] == pytest.approx(2 * (math.e - 2), rel=1e-14, abs=0)
        assert list(doc["diagnostics"]) == ["order_reached", "last_increment", "converged"]
        assert doc["diagnostics"]["converged"] is True

    def test_nonexistent_moment_exit_2(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "bad.json",
            {
                "measure": {"kind": "type2", "p": 1, "k": 1, "alphas": [2.0, 3.0]},
                "functional": "det_power",
                "gammas": [4.0],
            },
        )
        code, out = run(capsys, ["average", "--spec", spec])
        assert code == 2
        doc = json.loads(out)
        assert doc["conditions_ok"] is False
        assert "log_value" not in doc and "value" not in doc
        assert any("alpha_{k+1} - sum(gamma)" in c for c in doc["violated_conditions"])

    def test_overflowing_alpha_sum_exit_2(self, capsys):
        spec = {"measure": {"kind": "type1", "p": 2, "k": 1, "alphas": [1e308, 1e308]},
                "functional": "complement_power", "delta": 1}
        code, out = run(capsys, ["average", "--spec", json.dumps(spec)])
        assert code == 2
        doc = json.loads(out)
        assert doc["conditions_ok"] is False and "value" not in doc
        assert doc["violated_conditions"] == ["sum(alphas) finite (got inf)"]

    @pytest.mark.parametrize("alpha,overflows", [(1e306, "1e+306"), (1e305, "2e+305")])
    def test_overflowing_log_gamma_exit_2(self, capsys, alpha, overflows):
        # at 1e306 one log-gamma overflows; at 1e305 each is finite, their p = 2 sum is not
        spec = {"measure": {"kind": "type1", "p": 2, "k": 1, "alphas": [alpha, alpha]},
                "functional": "complement_power", "delta": 1}
        code, out = run(capsys, ["average", "--spec", json.dumps(spec)])
        assert code == 2
        doc = json.loads(out)
        assert doc["conditions_ok"] is False and "value" not in doc
        assert doc["violated_conditions"] == [
            f"log Gamma_p(alpha) finite (alpha = {overflows}, p = 2)"
        ]

    def test_empty_forms_on_a_rectangular_measure_exit_1(self, capsys):
        spec = {"measure": {"kind": "rect_type1_p1", "p": 1, "k": 1, "alphas": [0.5, 2.0],
                            "ns": [2], "Bs": []},
                "functional": "hermitian_form_moment", "h": 1.0}
        assert main(["average", "--spec", json.dumps(spec)]) == 1
        assert capsys.readouterr().err == "usage error: need one form matrix per component\n"

    def test_value_past_double_range_exit_2(self, capsys):
        spec = {"measure": {"kind": "type1", "p": 1, "k": 1, "alphas": [1e300, 2e305]},
                "functional": "complement_power", "delta": -1e300}
        code, out = run(capsys, ["average", "--spec", json.dumps(spec)])
        assert code == 2
        doc = json.loads(out)
        assert doc["conditions_ok"] is False and "value" not in doc
        assert doc["violated_conditions"] == ["value finite (log value 5.009559176932147e+294)"]


class TestVerify:
    def small_config(self, tmp_path, broken=False):
        cases = [c for c in default_suite() if c.case_id in ("phi1_type1_p1_k1", "phi5_type2_p1_k1")]
        assert len(cases) == 2
        if broken:
            from mvda.averages import FunctionalSpec
            from mvda.montecarlo import VerifyCase

            bad = cases[1]
            cases[1] = VerifyCase(
                bad.case_id,
                bad.measure,
                FunctionalSpec(kind="det_power", gammas=(5.0,)),
                bad.mc,
            )
        path = tmp_path / "suite.json"
        path.write_text(json.dumps([c.to_json() for c in cases], indent=2))
        return str(path)

    def test_small_suite_passes(self, tmp_path, capsys):
        cfg = self.small_config(tmp_path)
        code, out = run(capsys, ["verify", "--config", cfg, "--samples", "20000"])
        assert code == 0
        reports = json.loads(out)
        assert [r["verdict"] for r in reports] == ["pass", "pass"]

    def test_domain_broken_case_exit_3(self, tmp_path, capsys):
        cfg = self.small_config(tmp_path, broken=True)
        code, out = run(capsys, ["verify", "--config", cfg, "--samples", "5000"])
        assert code == 3
        reports = json.loads(out)
        assert reports[1]["verdict"] == "fail"
        assert reports[0]["verdict"] == "pass"

    def test_missing_second_moment_exit_3(self, tmp_path, capsys):
        # E x = 1 exists under type-2 alphas (1.5, 1.5); E x^2 does not
        doc = [{
            "case_id": "no_second_moment",
            "measure": {"kind": "type2", "p": 1, "k": 1, "alphas": [1.5, 1.5]},
            "functional": "det_power",
            "gammas": [1.0],
            "mc": {"samples": 5000, "seed": {"seed": 42, "stream": 0}},
        }]
        cfg = write_json(tmp_path / "suite.json", doc)
        code, out = run(capsys, ["verify", "--config", cfg])
        assert code == 3
        (report,) = json.loads(out)
        assert report["verdict"] == "fail" and report["n"] == 0
        assert report["diagnostics"]["reason"] == "second moment does not exist"
        assert report["diagnostics"]["violated_conditions"] == ["alpha_{k+1} - sum(gamma) > p - 1"]

    def test_invalid_measure_refused_at_load_exit_2(self, tmp_path, capsys):
        # no case runs: the suite is refused as it loads, naming the conditions
        doc = json.loads(open(self.small_config(tmp_path)).read())
        doc[1]["measure"]["alphas"][-1] = -1.0
        cfg = write_json(tmp_path / "suite.json", doc)
        assert main(["verify", "--config", cfg, "--samples", "5000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid type2 measure: alpha_2 > p - 1 (got -1.0, p = 1)\n"
        )

    def test_empty_suite_exit_1(self, tmp_path, capsys):
        cfg = write_json(tmp_path / "empty.json", [])
        assert main(["verify", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "usage error: suite config must hold at least one case\n"

    def test_inline_config_gives_the_file_bytes(self, tmp_path, capsys):
        cfg = self.small_config(tmp_path)
        args = ["verify", "--samples", "5000", "--canonical", "--config"]
        _, from_file = run(capsys, args + [cfg])
        code, inline = run(capsys, args + [open(cfg).read()])
        assert code == 0
        assert inline == from_file

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_1(self, tmp_path, capsys, workers):
        cfg = self.small_config(tmp_path)
        code, out = run(capsys, ["verify", "--config", cfg, "--samples", "5000", "--workers", workers])
        assert code == 1
        assert out == ""

    def test_string_delta_case_passes(self, tmp_path, capsys):
        # a string parameter is read as its float, as from a hand-written config
        case = next(c for c in default_suite() if c.case_id == "phi2_type1_p1_k1")
        doc = json.loads(json.dumps([case.to_json()]))
        doc[0]["delta"] = "0.5"
        cfg = write_json(tmp_path / "suite.json", doc)
        code, out = run(capsys, ["verify", "--config", cfg, "--samples", "20000"])
        assert code == 0
        assert [r["verdict"] for r in json.loads(out)] == ["pass"]

    def test_csv_format(self, tmp_path, capsys):
        cfg = self.small_config(tmp_path)
        code, out = run(capsys, ["verify", "--config", cfg, "--samples", "5000", "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "case_id,estimate,std_error,closed_form,abs_diff,tolerance,verdict,n,runtime_ms"
        )
        assert len(lines) == 3

    def test_csv_quotes_case_ids(self, tmp_path, capsys):
        # a comma, a quote or a newline in a case_id stays inside its cell
        ids = ["phi1, type-1 \"k = 1\"", "phi5\ntype-2"]
        cases = [c for c in default_suite() if c.case_id in ("phi1_type1_p1_k1", "phi5_type2_p1_k1")]
        doc = [{**c.to_json(), "case_id": i} for c, i in zip(cases, ids)]
        cfg = write_json(tmp_path / "suite.json", doc)
        code, out = run(capsys, ["verify", "--config", cfg, "--samples", "5000", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [len(row) for row in rows] == [9, 9, 9]
        assert [row[0] for row in rows[1:]] == ids

    @pytest.mark.parametrize("seed, samples", [(7, None), (None, 3000), (7, 3000)])
    def test_seed_and_samples_replace_only_themselves(self, tmp_path, capsys, seed, samples):
        # each case keeps its own stream and its chunk, below the sample count
        ids = ("phi1_type1_p1_k1", "phi5_type2_p1_k1")
        cases = [replace(c, mc=McConfig(4000, SeedSpec(11, stream), chunk=1500))
                 for stream, c in zip((3, 5), [c for c in default_suite() if c.case_id in ids])]
        cfg = tmp_path / "suite.json"
        cfg.write_text(json.dumps([c.to_json() for c in cases], indent=2))
        argv = ["verify", "--config", str(cfg), "--canonical"]
        argv += [] if seed is None else ["--seed", str(seed)]
        argv += [] if samples is None else ["--samples", str(samples)]
        expected = verify_suite([
            replace(c, mc=McConfig(samples or 4000, SeedSpec(seed or 11, stream), chunk=1500))
            for stream, c in zip((3, 5), cases)
        ])
        code, out = run(capsys, argv)
        assert out == report_emit(expected, canonical=True).decode()
        assert code == (0 if all(r.verdict == "pass" for r in expected) else 3)

    def test_canonical_reports_reproducible(self, tmp_path, capsys):
        cfg = self.small_config(tmp_path)
        args = ["verify", "--config", cfg, "--samples", "5000", "--canonical"]
        _, first = run(capsys, args)
        _, second = run(capsys, args)
        assert first == second

    def test_out_file(self, tmp_path):
        cfg = self.small_config(tmp_path)
        out_file = tmp_path / "report.json"
        code = main(["verify", "--config", cfg, "--samples", "5000", "--out", str(out_file)])
        assert code == 0
        assert json.loads(out_file.read_text())

    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsysbinary):
        cfg = self.small_config(tmp_path)
        args = ["verify", "--config", cfg, "--samples", "5000", "--canonical"]
        out_file = tmp_path / "report.json"
        assert main(args + ["--out", str(out_file)]) == 0
        assert main(args) == 0
        assert out_file.read_bytes() == capsysbinary.readouterr().out
