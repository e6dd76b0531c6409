import io
import json
import math
import os
import warnings

import pytest
from conftest import run_cli

from su2lab import cli
from su2lab import montecarlo as mc


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        code, _ = run_cli(["hole", "-N", "1", "--bogus", "3"])
        assert code == 2

    def test_negative_radius_is_usage_error(self):
        code, _ = run_cli(["hole", "-N", "1", "-r", "-2", "--trials", "10"])
        assert code == 2

    def test_numeric_parse_failure(self):
        code, _ = run_cli(["hole", "-N", "one", "--trials", "10"])
        assert code == 2

    @pytest.mark.parametrize("argv,message", [
        (["hole", "-N", "-2"], "-N/--degree: value must be nonnegative, got -2"),
        (["hole", "-N", "4", "--trials", "0"], "--trials: value must be at least 1, got 0"),
        (["hole", "-N", "4", "--workers", "0"], "--workers: value must be at least 1, got 0"),
        (["hole", "-N", "4", "--seed", "-1"], "--seed: value must be nonnegative, got -1"),
        (["hole", "-N", "4.0"], "invalid _nonneg_int value: '4.0'"),
        (["hole", "-N", "4", "--trials", "1e3"], "invalid _positive_int value: '1e3'"),
    ])
    def test_integer_flags_follow_check_int(self, argv, message, capsys):
        code, out = run_cli(argv)
        assert code == 2
        assert out == b""
        assert message in capsys.readouterr().err

    def test_runtime_numerical_error_is_one(self, tmp_path):
        f = tmp_path / "two_points.csv"
        f.write_text("N,r,trials,trials_failed,point,stderr,ci_lo,ci_hi,seed\n"
                     "2,1.0,100,0,0.81,0.01,0.79,0.83,1\n"
                     "4,1.0,100,0,0.43,0.01,0.41,0.45,1\n")
        code, _ = run_cli(["fit-decay", str(f)])
        assert code == 1

    @pytest.mark.parametrize("data,line", [
        (b"N,point\n2,0.8\n4,0.4\n6,\xb10.1\n", 4),
        (b"N,point\n2,0.8\nx,0.4\n6,0.1\n", 3),
        (b'{"result": {"N": 2, "point": 0.8}}\n{"result": 5}\n', 2),
    ], ids=["not-utf8", "bad-csv-row", "bad-json-result"])
    def test_bad_results_file_is_usage_error(self, data, line, tmp_path, monkeypatch):
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        f = tmp_path / "results"
        f.write_bytes(data)
        code, out = run_cli(["fit-decay", str(f)])
        assert code == 2
        assert out == b""
        err = diag.getvalue()
        assert err.startswith(f"usage error: line {line}: ") and err.count("\n") == 1

    def test_unwritable_out_is_usage_error(self, tmp_path, monkeypatch):
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        path = tmp_path / "missing" / "x.csv"
        code, out = run_cli(["omega-bound", "-N", "3", "--out", str(path)])
        assert code == 2
        assert out == b""
        err = diag.getvalue()
        assert err.startswith("usage error: cannot open") and err.count("\n") == 1
        assert not path.parent.exists()

    def test_missing_results_file_is_usage_error(self, tmp_path, monkeypatch):
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        code, out = run_cli(["fit-decay", str(tmp_path / "missing.csv")])
        assert code == 2
        assert out == b""
        err = diag.getvalue()
        assert err.startswith("usage error: cannot open") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["hole", "-N", "2", "--trials", "10"],
        ["sample", "-N", "2"],
        ["roots", "-N", "2"],
        ["count", "-N", "2"],
    ])
    def test_seed_beyond_64_bits_is_usage_error(self, argv, capsys):
        code, out = run_cli(argv + ["--seed", str(2**64)])
        assert code == 2
        assert out == b""
        assert "64 unsigned bits" in capsys.readouterr().err
        code, _ = run_cli(argv + ["--seed", str(2**64 - 1), "--format", "json"])
        assert code == 0

    @pytest.mark.parametrize("command", ["roots", "count"])
    def test_degree_beyond_weight_range_is_usage_error(self, command, monkeypatch):
        # sqrt(C(N, N/2)) overflows doubles from N = 2054
        def no_roots(poly):
            raise AssertionError("the root finder ran")

        monkeypatch.setattr(cli.zeros, "find_all_roots", no_roots)
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        code, out = run_cli([command, "-N", "2100", "--seed", "1"])
        assert code == 2
        assert out == b""
        err = diag.getvalue()
        assert err.startswith("usage error: -N: degree 2100") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["roots", "count"])
    def test_overflowing_coefficients_are_usage_error(self, command, monkeypatch):
        # the weights still fit at N = 2053, but seed 1's weighted monomial
        # coefficients do not
        def no_roots(poly):
            raise AssertionError("the root finder ran")

        monkeypatch.setattr(cli.zeros, "find_all_roots", no_roots)
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli([command, "-N", "2053", "--seed", "1"])
        assert code == 2
        assert out == b""
        err = diag.getvalue()
        assert err.startswith("usage error: -N: degree 2053") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["roots", "count"])
    def test_overflowing_degree_builds_no_weight_table(self, command, monkeypatch):
        # the central weight alone refuses the degree, before any O(N) work
        def no_table(degree):
            raise AssertionError("the weight table was built")

        monkeypatch.setattr(cli.model, "_log_weights", no_table)
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        code, out = run_cli([command, "-N", "1000000"])
        assert code == 2
        assert out == b""
        err = diag.getvalue()
        assert err.startswith("usage error: -N: degree 1000000: ") and err.count("\n") == 1

    def test_hole_beyond_weight_range_runs_without_warnings(self):
        # winding counts every row; the sampled row skips the root check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["hole", "-N", "2100", "-r", "1", "--trials", "2",
                                 "--workers", "1"])
        assert code == 0
        assert out.decode().splitlines()[1].startswith("2100,1.0,2,0,")

    @pytest.mark.parametrize("argv,message", [
        (["mean-zeros", "--grid", "10,20"], "required: -N/--degree"),
        (["mean-zeros", "-N", "10", "--grid", "10,20"],
         "unrecognized arguments: --grid 10,20"),
    ])
    def test_mean_zeros_has_no_grid_flag(self, argv, message, capsys):
        code, out = run_cli(argv)
        assert code == 2
        assert out == b""
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]

    @pytest.mark.parametrize("argv,rule", [
        (["hole", "--grid", "4,-2"], "must be nonnegative"),
        (["fit-decay", "--grid", "4,-1"], "must be nonnegative"),
        (["omega-bound", "--grid", "0,3"], "must be at least 1"),
    ])
    def test_bad_grid_entry_is_usage_error(self, argv, rule, capsys):
        code, out = run_cli(argv)
        assert code == 2
        assert out == b""
        assert rule in capsys.readouterr().err

    def test_grid_entries_follow_degree_rule(self):
        code, _ = run_cli(["hole", "--grid", "0,2", "--trials", "10", "--workers", "1"])
        assert code == 0
        code, _ = run_cli(["omega-bound", "--grid", "1,3"])
        assert code == 0

    @pytest.mark.parametrize("grid", ["4", "4,8", "4,4,8"])
    def test_short_fit_decay_grid_is_usage_error(self, grid, monkeypatch):
        def no_trials(plan):
            raise AssertionError("a trial ran before the grid was checked")

        monkeypatch.setattr(cli.mc, "estimate_hole_probability", no_trials)
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        code, out = run_cli(["fit-decay", "--grid", grid, "-r", "0.5"])
        assert code == 2
        assert out == b""
        assert "at least 3 distinct degrees" in diag.getvalue()

    def test_fit_decay_grid_without_enough_estimates_is_one(self, monkeypatch):
        # N = 16 and 20 at r = 0.5 see no hole event in 200 trials
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        code, out = run_cli(["fit-decay", "--grid", "2,16,20", "-r", "0.5",
                             "--trials", "200", "--workers", "1"])
        assert code == 1
        assert out == b""
        assert "only 1 usable points" in diag.getvalue()

    @pytest.mark.parametrize("argv", [
        ["hole", "-N", "4", "-r", "inf", "--trials", "10"],
        ["count", "-N", "4", "-r", "inf"],
        ["deviation", "-N", "4", "--delta", "inf", "--trials", "10"],
    ])
    def test_non_finite_float_is_usage_error(self, argv, capsys):
        code, out = run_cli(argv)
        assert code == 2
        assert out == b""
        assert "must be positive and finite, got inf" in capsys.readouterr().err

    def test_huge_radius_counts_every_zero(self):
        code, out = run_cli(["mean-zeros", "-N", "4", "-r", "1e200",
                             "--trials", "10", "--workers", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["result"]["point"] == 4.0

    @pytest.mark.parametrize("module,callee,argv,exc,message", [
        (cli.model, "sample_polynomial", ["sample", "-N", "4"],
         MemoryError(), "out of memory"),
        (cli.mc, "estimate_hole_probability", ["hole", "-N", "4", "--workers", "1"],
         MemoryError("Unable to allocate 16.0 TiB"), "Unable to allocate 16.0 TiB"),
    ], ids=["sample-bare", "hole-message"])
    def test_memory_error_is_one(self, module, callee, argv, exc, message, monkeypatch):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(module, callee, exhausted)
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        code, out = run_cli(argv)
        assert code == 1
        assert out == b""
        assert diag.getvalue() == f"error: {message}\n"

    def test_success_is_zero(self):
        code, out = run_cli(["omega-bound", "-N", "2", "-r", "1"])
        assert code == 0
        assert out.startswith(b"N,r,log_prob\n")


class TestDeterminism:
    def test_byte_identical_reruns(self):
        argv = ["hole", "-N", "2", "-r", "1", "--trials", "4000", "--seed", "9",
                "--workers", "1", "--format", "json"]
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1 == out2

    def test_byte_identical_across_workers(self):
        base = ["hole", "-N", "2", "-r", "1", "--trials", "9000", "--seed", "9",
                "--format", "csv"]
        _, out1 = run_cli(base + ["--workers", "1"])
        _, out2 = run_cli(base + ["--workers", "2"])
        assert out1 == out2

    def test_sample_deterministic(self):
        argv = ["sample", "-N", "12", "--seed", "31"]
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1 == out2


class TestRecords:
    def test_json_round_trip(self):
        rec = cli.ExperimentRecord(
            command="hole",
            plan={"N": 3, "r": 1.0, "trials": 10, "seed": 4,
                  "tolerances": {"root_residual": 1e-8,
                                 "boundary_margin": 1e-9,
                                 "quadrature_target": 1e-6}},
            result={"point": 0.5, "stderr": 0.0016},
        )
        back = json.loads(cli.serialize_record(rec, "json"))
        assert back == {"command": rec.command, "plan": rec.plan,
                        "result": rec.result, "tool_version": rec.tool_version}

    def test_shortest_round_trip_floats(self):
        rec = cli.ExperimentRecord(
            command="hole",
            plan={},
            result={"rows": [{"N": 1, "r": 1.0, "trials": 10, "trials_failed": 0,
                              "point": 0.5, "stderr": 0.0016, "ci_lo": 0.1,
                              "ci_hi": 0.9, "seed": 1}]},
        )
        text = cli.serialize_record(rec, "csv").decode()
        row = text.splitlines()[1].split(",")
        header = text.splitlines()[0].split(",")
        parsed = dict(zip(header, row))
        assert float(parsed["point"]) == 0.5
        assert float(parsed["stderr"]) == 0.0016

    def test_empty_grid_is_header_only(self):
        rec = cli.ExperimentRecord(command="hole", plan={}, result={"rows": []})
        text = cli.serialize_record(rec, "csv").decode()
        assert text == "N,r,trials,trials_failed,point,stderr,ci_lo,ci_hi,seed\n"

    def test_lf_and_utf8(self):
        code, out = run_cli(["omega-bound", "--grid", "2,3", "-r", "0.5"])
        assert code == 0
        assert b"\r" not in out
        out.decode("utf-8")


    @pytest.mark.parametrize("argv", [
        ["sample", "-N", "2"],
        ["roots", "-N", "3"],
        ["count", "-N", "3"],
        ["mean-zeros", "-N", "2", "--trials", "20"],
        ["deviation", "-N", "2", "--delta", "0.5", "--trials", "20"],
        ["hole", "-N", "1", "--trials", "20"],
        ["concentration", "-N", "2", "--trials", "20"],
        ["omega-bound", "-N", "2"],
        ["fit-decay", "--grid", "1,2,3", "-r", "0.5", "--trials", "1000"],
        ["verify"],
        ["orthonormality", "-N", "2"],
    ], ids=lambda argv: argv[0])
    def test_record_names_its_command(self, argv, monkeypatch):
        monkeypatch.setattr(cli.mc, "default_workers", lambda: 1)
        monkeypatch.setattr(cli.verify_mod, "run_all_checks",
                            lambda: [cli.verify_mod.CheckResult("stub", 0.0, 1.0)])
        code, out = run_cli(argv + ["--format", "json"])
        assert code == 0
        assert json.loads(out)["command"] == argv[0]

    def test_failing_check_fails_verify(self, monkeypatch):
        monkeypatch.setattr(cli.verify_mod, "run_all_checks",
                            lambda: [cli.verify_mod.CheckResult("stub", 2.0, 1.0)])
        code, out = run_cli(["verify", "--format", "json"])
        assert code == 1
        result = json.loads(out)["result"]
        assert result["failed"] == 1
        assert result["rows"][0]["status"] == "FAIL"


class TestParseResultsFile:
    def test_drops_nonpositive_and_fits_rest(self, tmp_path):
        f = tmp_path / "holes.csv"
        f.write_text(
            "N,r,trials,trials_failed,point,stderr,ci_lo,ci_hi,seed\n"
            "2,0.5,1000,0,0.8,0.01,0.78,0.82,1\n"
            "4,0.5,1000,0,0.3,0.01,0.28,0.32,1\n"
            "6,0.5,1000,0,0.05,0.005,0.04,0.06,1\n"
            "8,0.5,1000,0,0.0,0.0,0.0,0.0,1\n"
        )
        points = cli.parse_results_file(str(f))
        assert [n for n, _ in points] == [2, 4, 6]
        assert points[0][1] == pytest.approx(math.log(0.8))

    def test_drops_unreliable_rows(self, tmp_path):
        f = tmp_path / "holes.csv"
        f.write_text(
            "N,r,trials,trials_failed,point,stderr,ci_lo,ci_hi,seed\n"
            "2,0.5,1000,0,0.8,0.01,0.78,0.82,1\n"
            "4,0.5,1000,20,0.3,0.01,0.28,0.32,1\n"  # 2% failed: dropped
            "6,0.5,1000,0,0.05,0.005,0.04,0.06,1\n"
            "8,0.5,1000,0,0.01,0.003,0.007,0.013,1\n"
        )
        points = cli.parse_results_file(str(f))
        assert [n for n, _ in points] == [2, 6, 8]

    @pytest.mark.parametrize("bad", ["nan", "inf", "1.5"])
    def test_drops_points_outside_unit_interval(self, bad, tmp_path, monkeypatch):
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        f = tmp_path / "holes.csv"
        f.write_text(f"N,point\n2,0.8\n4,{bad}\n6,0.1\n8,0.01\n")
        points = cli.parse_results_file(str(f))
        assert [n for n, _ in points] == [2, 6, 8]
        assert diag.getvalue() == \
            f"dropped line 3 (N=4): point {float(bad)} outside (0, 1]\n"

    def test_json_drop_names_the_degree(self, tmp_path, monkeypatch):
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        rows = [{"N": n, "point": point}
                for n, point in ((2, 0.8), (4, 0.4), (16, 0.0), (6, 0.1))]
        f = tmp_path / "holes.json"
        f.write_text(json.dumps({"command": "hole", "result": {"rows": rows}}) + "\n")
        points = cli.parse_results_file(str(f))
        assert [n for n, _ in points] == [2, 4, 6]
        assert diag.getvalue() == "dropped line 1 (N=16): point 0.0 outside (0, 1]\n"

    def test_too_few_points(self, tmp_path):
        f = tmp_path / "holes.csv"
        f.write_text("N,r,trials,trials_failed,point,stderr,ci_lo,ci_hi,seed\n"
                     "2,0.5,100,0,0.8,0.01,0.78,0.82,1\n"
                     "4,0.5,100,0,0.4,0.01,0.38,0.42,1\n")
        with pytest.raises(ValueError, match="at least 3"):
            cli.parse_results_file(str(f))

    def test_malformed_row_reports_line(self, tmp_path):
        f = tmp_path / "holes.csv"
        f.write_text("N,r,trials,trials_failed,point,stderr,ci_lo,ci_hi,seed\n"
                     "2,0.5,100,0,0.8,0.01,0.78,0.82,1\n"
                     "x,0.5,100,0,0.4,0.01,0.38,0.42,1\n")
        with pytest.raises(cli.ResultsFileError, match="line 3"):
            cli.parse_results_file(str(f))

    def test_json_records(self, tmp_path):
        _, out = run_cli(["hole", "--grid", "1,2,3", "-r", "0.5",
                          "--trials", "2000", "--seed", "5", "--workers", "1",
                          "--format", "json"])
        f = tmp_path / "holes.json"
        f.write_bytes(out)
        points = cli.parse_results_file(str(f))
        assert [n for n, _ in points] == [1, 2, 3]


class TestPipelines:
    def test_hole_json_matches_analytic(self):
        code, out = run_cli(["hole", "-N", "1", "-r", "1", "--trials", "20000",
                             "--seed", "42", "--format", "json"])
        assert code == 0
        rec = json.loads(out)
        row = rec["result"]["rows"][0]
        assert abs(row["point"] - 0.5) <= 3 * row["stderr"]
        assert rec["plan"]["tolerances"]["boundary_margin"] == 1e-9

    def test_sample_roots_count_consistency(self):
        _, out = run_cli(["sample", "-N", "6", "--seed", "3", "--format", "json"])
        coeffs = json.loads(out)["result"]["rows"]
        assert len(coeffs) == 7
        _, out = run_cli(["roots", "-N", "6", "--seed", "3", "--format", "json"])
        roots = json.loads(out)["result"]["rows"]
        assert len(roots) == 6
        assert max(r["residual"] for r in roots) <= 1e-8
        _, out = run_cli(["count", "-N", "6", "-r", "1.0", "--seed", "3",
                          "--format", "json"])
        count = json.loads(out)["result"]["count"]
        inside = sum(1 for r in roots if math.hypot(r["re"], r["im"]) < 1.0)
        assert count == inside

    def test_mean_zeros_formula(self):
        code, out = run_cli(["mean-zeros", "-N", "10", "-r", "1",
                             "--trials", "1000", "--seed", "2",
                             "--format", "json"])
        assert code == 0
        row = json.loads(out)["result"]["rows"][0]
        assert abs(row["point"] - 5.0) <= 3 * row["stderr"]

    def test_fit_decay_from_grid(self):
        code, out = run_cli(["fit-decay", "--grid", "2,4,6", "-r", "0.5",
                             "--trials", "20000", "--seed", "3",
                             "--workers", "1", "--format", "json"])
        assert code == 0
        row = json.loads(out)["result"]
        assert row["n_points"] == 3
        assert row["c_hat"] > 0

    def test_fit_decay_needs_exactly_one_source(self, tmp_path):
        code, _ = run_cli(["fit-decay"])
        assert code == 2
        f = tmp_path / "x.csv"
        f.write_text("N,point\n")
        code, _ = run_cli(["fit-decay", str(f), "--grid", "1,2,3"])
        assert code == 2

    def test_out_file_equals_stdout(self, tmp_path):
        argv = ["omega-bound", "--grid", "2,4", "-r", "1"]
        _, out = run_cli(argv)
        path = tmp_path / "omega.csv"
        code, stdout = run_cli(argv + ["--out", str(path)])
        assert code == 0
        assert stdout == b""
        assert path.read_bytes() == out

    def test_hole_grid_to_fit_decay_pipeline(self, tmp_path):
        # end to end: hole grid CSV on disk feeds the decay fit
        path = tmp_path / "holes.csv"
        code, _ = run_cli(["hole", "--grid", "2,4,6", "-r", "0.5",
                           "--trials", "20000", "--seed", "3",
                           "--workers", "1", "--out", str(path)])
        assert code == 0
        code, out = run_cli(["fit-decay", str(path), "--format", "json"])
        assert code == 0
        row = json.loads(out)["result"]
        assert row["n_points"] == 3
        assert row["r_squared"] > 0.9
        # the grid source fits the same points to the same bits
        code, out = run_cli(["fit-decay", "--grid", "2,4,6", "-r", "0.5",
                             "--trials", "20000", "--seed", "3",
                             "--workers", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["result"] == row

    def test_orthonormality_command(self):
        code, out = run_cli(["orthonormality", "-N", "8"])
        assert code == 0
        lines = out.decode().splitlines()
        assert lines[0] == "check,N,measured,threshold,status"
        assert all(line.endswith("PASS") for line in lines[1:])

    def test_deviation_grid_rows_equal_single_degree_runs(self):
        argv = ["deviation", "--delta", "0.3", "--trials", "2000", "--seed", "7",
                "--workers", "1", "--format", "json"]
        code, out = run_cli(argv + ["--grid", "4,6"])
        assert code == 0
        record = json.loads(out)
        assert record["plan"]["grid"] == [4, 6]
        rows = record["result"]["rows"]
        assert [row["N"] for row in rows] == [4, 6]
        for row in rows:
            _, single = run_cli(argv + ["-N", str(row["N"])])
            assert json.loads(single)["result"]["rows"] == [row]

    def test_hole_grid_draws_each_block_once(self, monkeypatch):
        # the ladder draws its two blocks once each, at the top degree, and
        # every degree's row is that of its own one-degree run
        draws, draw = [], mc.gaussian_matrix

        def spy(seed, trials, n_coeffs):
            draws.append((len(trials), n_coeffs))
            return draw(seed, trials, n_coeffs)

        monkeypatch.setattr(mc, "gaussian_matrix", spy)
        argv = ["hole", "-r", "0.5", "--trials", "8192", "--seed", "3",
                "--workers", "1", "--format", "json"]
        code, out = run_cli(argv + ["--grid", "4,8,12"])
        assert code == 0
        assert draws == [(mc.BLOCK_TRIALS, 13)] * 2
        rows = json.loads(out)["result"]["rows"]
        assert [row["N"] for row in rows] == [4, 8, 12]
        for row in rows:
            _, single = run_cli(argv + ["-N", str(row["N"])])
            assert json.loads(single)["result"]["rows"] == [row]

    def test_deviation_command(self):
        code, out = run_cli(["deviation", "-N", "6", "--delta", "0.3",
                             "--trials", "2000", "--seed", "7",
                             "--format", "json"])
        assert code == 0
        row = json.loads(out)["result"]["rows"][0]
        assert 0.0 <= row["point"] <= 1.0
        assert row["delta"] == 0.3


class TestConcentration:
    HEADER = "N,r,estimator,delta,trials,trials_failed,point,stderr,ci_lo,ci_hi,seed"

    def test_rows_equal_library_estimates(self):
        argv = ["concentration", "--grid", "10,40", "-r", "1", "--trials", "8192",
                "--seed", "6", "--format", "json"]
        code, out = run_cli(argv + ["--workers", "1"])
        assert code == 0
        assert run_cli(argv + ["--workers", "2"]) == (0, out)
        record = json.loads(out)
        assert record["plan"]["grid"] == [10, 40]
        assert (record["plan"]["band"], record["plan"]["tail"]) == (0.05, 0.1)
        got = [(row["N"], row["estimator"], row["delta"], row["trials_failed"],
                row["point"], row["stderr"], row["ci_lo"], row["ci_hi"])
               for row in record["result"]["rows"]]
        want = []
        for n in (10, 40):
            plan = mc.TrialPlan(n, 1.0, 8192, 6)
            for name, delta in (("max_modulus_outlier_frequency", 0.05),
                                ("max_modulus_outlier_probability", 0.05),
                                ("circle_average_lower_tail_frequency", 0.1),
                                ("circle_average_lower_tail_probability", 0.1),
                                ("log_l1_outlier_frequency", None)):
                estimate = getattr(mc, name)
                est = estimate(plan) if delta is None else estimate(plan, delta)
                want.append((n, name, delta, est.trials_failed, est.point,
                             est.stderr, *est.ci95))
        assert got == want

    def test_one_boundary_maximum_pass_per_degree(self, monkeypatch):
        # the frequency is given the maxima the probability reads, so each
        # degree runs the kernel once, on every row, and no scan refines
        calls, kernel = [], mc._batch_boundary_log_max

        def spy(b, log_scale):
            calls.append(len(b))
            return kernel(b, log_scale)

        monkeypatch.setattr(mc, "_batch_boundary_log_max", spy)
        mc._plan_samples.cache_clear()
        try:
            code, _ = run_cli(["concentration", "--grid", "10,40", "--trials", "600",
                               "--workers", "1"])
        finally:
            mc._plan_samples.cache_clear()
        assert code == 0
        assert calls == [600, 600]

    def test_grid_rows_and_csv_header(self):
        code, out = run_cli(["concentration", "--grid", "3,2", "--trials", "50",
                             "--workers", "1"])
        assert code == 0
        lines = out.decode().splitlines()
        assert lines[0] == self.HEADER
        cells = [line.split(",") for line in lines[1:]]
        names = [name for name, _ in cli._CONCENTRATION_ESTIMATORS]
        assert [(c[0], c[2]) for c in cells] == \
            [(n, name) for n in ("3", "2") for name in names]
        assert [c[3] for c in cells[:5]] == ["0.05", "0.05", "0.1", "0.1", ""]

    @pytest.mark.parametrize("flag,value", [
        ("--band", "0"), ("--band", "1.5"), ("--band", "nan"),
        ("--tail", "1"), ("--tail", "-0.1"), ("--tail", "inf"),
    ])
    def test_bad_band_or_tail_runs_no_trial(self, flag, value, tmp_path, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran before the flags were checked")

        for name, _ in cli._CONCENTRATION_ESTIMATORS:
            monkeypatch.setattr(cli.mc, name, no_trials)
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        path = tmp_path / "c.csv"
        code, out = run_cli(["concentration", "--grid", "4,8", flag, value,
                             "--out", str(path)])
        assert code == 2
        assert out == b"" and not path.exists()
        err = diag.getvalue()
        assert err.startswith(f"usage error: {flag}: delta must lie in ")
        assert err.count("\n") == 1


class TestWorkerDefaults:
    def test_default_is_cpus_this_process_may_use(self, monkeypatch):
        from su2lab import montecarlo as mc

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert mc.default_workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert mc.default_workers() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert mc.default_workers() == 1

    @pytest.mark.parametrize("flags", [[], ["--workers", "2"]], ids=["default", "given"])
    def test_fit_decay_file_reports_no_workers(self, flags, tmp_path, monkeypatch):
        # a results file runs no trial, so no worker count did any work
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        f = tmp_path / "holes.csv"
        f.write_text("N,point\n2,0.8\n4,0.4\n6,0.1\n")
        code, _ = run_cli(["fit-decay", str(f), *flags])
        assert code == 0
        err = diag.getvalue()
        assert err.startswith("su2lab fit-decay: ok (") and "workers=" not in err

    def test_fit_decay_grid_reports_resolved_workers(self, monkeypatch):
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        monkeypatch.setattr(cli.mc, "default_workers", lambda: 1)
        code, _ = run_cli(["fit-decay", "--grid", "1,2,3", "-r", "0.5",
                           "--trials", "2000", "--seed", "5"])
        assert code == 0
        assert ", workers=1, started " in diag.getvalue()


class TestVerifyCommand:
    def test_all_checks_pass(self):
        code, out = run_cli(["verify"])
        lines = out.decode().splitlines()
        assert lines[0] == "check,status,measured,threshold"
        failing = [line for line in lines[1:] if ",FAIL," in line]
        assert code == 0, f"failing checks: {failing}"
        assert len(lines) > 20
