import io
import json
import math
import os

import pytest
from conftest import run_cli

from su2lab import cli


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

    def test_runtime_numerical_error_is_one(self, tmp_path):
        f = tmp_path / "two_points.csv"
        f.write_text("N,r,trials,trials_failed,point,stderr,ci_lo,ci_hi,seed\n"
                     "2,1.0,100,0,0.81,0.01,0.79,0.83,1\n"
                     "4,1.0,100,0,0.43,0.01,0.41,0.45,1\n")
        code, _ = run_cli(["fit-decay", str(f)])
        assert code == 1

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

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_worker_environment_is_usage_error(self, value, monkeypatch):
        monkeypatch.setenv("SU2LAB_WORKERS", value)
        diag = io.StringIO()
        monkeypatch.setattr(cli, "DIAG", diag)
        code, out = run_cli(["hole", "-N", "1", "--trials", "10"])
        assert code == 2
        assert out == b""
        assert "SU2LAB_WORKERS must be a positive integer" in diag.getvalue()
        code, _ = run_cli(["hole", "-N", "1", "--trials", "10", "--workers", "1"])
        assert code == 0

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
            wall_time_seconds=1.25,
            timestamp="2026-01-01T00:00:00+00:00",
        )
        back = cli.parse_record(cli.serialize_record(rec, "json"))
        assert back == rec

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

    def test_orthonormality_command(self):
        code, out = run_cli(["orthonormality", "-N", "8"])
        assert code == 0
        lines = out.decode().splitlines()
        assert lines[0] == "check,N,measured,threshold,status"
        assert all(line.endswith("PASS") for line in lines[1:])

    def test_deviation_command(self):
        code, out = run_cli(["deviation", "-N", "6", "--delta", "0.3",
                             "--trials", "2000", "--seed", "7",
                             "--format", "json"])
        assert code == 0
        row = json.loads(out)["result"]["rows"][0]
        assert 0.0 <= row["point"] <= 1.0
        assert row["delta"] == 0.3


class TestWorkerDefaults:
    def test_env_variable_controls_default(self, monkeypatch):
        from su2lab import montecarlo as mc

        monkeypatch.setenv("SU2LAB_WORKERS", "3")
        assert mc.default_workers() == 3
        for bad in ("abc", "0", "-1", "2.5"):
            monkeypatch.setenv("SU2LAB_WORKERS", bad)
            with pytest.raises(ValueError, match="SU2LAB_WORKERS"):
                mc.default_workers()
        monkeypatch.delenv("SU2LAB_WORKERS")
        assert mc.default_workers() >= 1

    def test_default_is_cpus_this_process_may_use(self, monkeypatch):
        from su2lab import montecarlo as mc

        monkeypatch.delenv("SU2LAB_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5},
                            raising=False)
        assert mc.default_workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert mc.default_workers() == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert mc.default_workers() == 1


class TestVerifyCommand:
    def test_all_checks_pass(self):
        code, out = run_cli(["verify"])
        lines = out.decode().splitlines()
        assert lines[0] == "check,status,measured,threshold"
        failing = [line for line in lines[1:] if ",FAIL," in line]
        assert code == 0, f"failing checks: {failing}"
        assert len(lines) > 20
