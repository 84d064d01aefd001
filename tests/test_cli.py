import csv
import json
from pathlib import Path

import numpy as np
import pytest

import stepfree.cli as cli
from stepfree.cli import build_parser, fit_loglog_slope, main


def run_cli(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path) as f:
        comment = f.readline()
        assert comment.startswith("# stepfree-bench csv")
        return list(csv.DictReader(f))


def read_jsonl(path):
    lines = [json.loads(l) for l in Path(path).read_text().splitlines()]
    assert lines[0]["schema"].startswith("stepfree-bench jsonl")
    return lines[1:]


class TestTuneCommand:
    def test_hand_example_outputs(self, tmp_path):
        csv_path = tmp_path / "runs.csv"
        jsonl_path = tmp_path / "runs.jsonl"
        code = run_cli(["tune", "--family", "l1", "--dimension", "1",
                        "--center-scale", "0", "--budget", "64",
                        "--eta-eps", "0.0625", "--x0-dist", "1",
                        "--reps", "3", "--csv", csv_path,
                        "--jsonl", jsonl_path])
        assert code == 0
        rows = read_csv(csv_path)
        assert len(rows) == 3
        for row in rows:
            assert row["case"] == "normal"
            assert row["total_queries"] == "64"
            assert float(row["gap"]) == 0.15625
            assert int(row["total_queries"]) <= 64
        diags = read_jsonl(jsonl_path)
        assert all(c["verdict"] == "pass"
                   for d in diags for c in d["checks"])

    def test_deterministic_outputs(self, tmp_path):
        args = ["tune", "--family", "huber", "--dimension", "3",
                "--budget", "256", "--eta-eps", "0.01", "--reps", "4",
                "--seed", "11"]
        a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
        a_j, b_j = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run_cli(args + ["--csv", a_csv, "--jsonl", a_j]) == 0
        assert run_cli(args + ["--csv", b_csv, "--jsonl", b_j]) == 0
        # JSONL carries no timing and must match byte for byte
        assert a_j.read_bytes() == b_j.read_bytes()
        # CSV matches except the wall-clock column
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_ms"}
                              for r in rows]
        assert strip(read_csv(a_csv)) == strip(read_csv(b_csv))

    def test_relative_eta_eps_mode(self, tmp_path):
        code = run_cli(["tune", "--family", "l1", "--dimension", "2",
                        "--budget", "128", "--r-eps", "0.5", "--reps", "1",
                        "--csv", tmp_path / "r.csv"])
        assert code == 0

    def test_stochastic_mode(self, tmp_path):
        code = run_cli(["tune", "--family", "l1", "--dimension", "2",
                        "--noise", "sphere", "--noise-param", "0.5",
                        "--mode", "stochastic", "--delta", "0.1",
                        "--budget", "512", "--eta-eps", "0.001",
                        "--csv", tmp_path / "s.csv"])
        assert code == 0


class TestConfigValidation:
    def test_both_step_size_modes_rejected(self, tmp_path):
        out = tmp_path / "x.csv"
        code = run_cli(["tune", "--family", "l1", "--dimension", "1",
                        "--budget", "64", "--eta-eps", "0.1",
                        "--r-eps", "0.1", "--csv", out])
        assert code == 2
        assert not out.exists()

    def test_neither_step_size_mode_rejected(self):
        assert run_cli(["tune", "--family", "l1", "--dimension", "1",
                        "--budget", "64"]) == 2

    def test_sweep_needs_enough_points(self):
        assert run_cli(["sweep", "--family", "l1", "--dimension", "1",
                        "--budgets", "64,128,256", "--reps", "20",
                        "--eta-eps", "0.01"]) == 2
        assert run_cli(["sweep", "--family", "l1", "--dimension", "1",
                        "--budgets", "64,128,256,512", "--reps", "5",
                        "--eta-eps", "0.01"]) == 2

    def test_zero_reps_rejected(self):
        assert run_cli(["tune", "--family", "l1", "--dimension", "1",
                        "--budget", "64", "--eta-eps", "0.1",
                        "--reps", "0"]) == 2

    def test_ini_config_with_flag_override(self, tmp_path):
        ini = tmp_path / "cfg.ini"
        ini.write_text("\n".join([
            "[problem]", "family = l1", "dimension = 1", "center_scale = 0",
            "[run]", "budget = 64", "eta_eps = 0.0625", "x0_dist = 1",
            "reps = 2", "",
        ]))
        out = tmp_path / "ini.csv"
        code = run_cli(["tune", "--config", ini, "--reps", "1",
                        "--csv", out])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1  # the flag overrides the file
        assert float(rows[0]["gap"]) == 0.15625

    def test_missing_config_file(self):
        assert run_cli(["tune", "--config", "/nonexistent.ini",
                        "--eta-eps", "0.1"]) == 2

    @pytest.mark.parametrize("args", [
        ["restart", "--family", "sc_quadratic", "--mu", "0"],
        ["restart", "--family", "sc_quadratic", "--mu", "-1"],
        ["restart", "--family", "sc_quadratic", "--L", "-1"],
        ["tune", "--family", "quadratic", "--radius", "-1"],
        ["tune", "--family", "quadratic", "--radius", "nan"],
        ["tune", "--family", "quadratic", "--smoothness", "-1"],
        ["tune", "--family", "l1", "--center-scale", "nan"],
        ["tune", "--family", "l1", "--noise", "sphere", "--noise-param",
         "nan", "--mode", "stochastic"],
        ["tune", "--family", "logistic", "--reg", "nan"],
    ])
    def test_parameters_without_a_convex_problem_rejected(self, args,
                                                          tmp_path, capsys):
        out = tmp_path / "x.csv"
        if args[0] == "tune":
            args = args + ["--eta-eps", "1e-3"]
        assert run_cli(args + ["--dimension", "2", "--csv", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestOtherCommands:
    def test_boundary_test(self, tmp_path):
        out = tmp_path / "b.jsonl"
        code = run_cli(["boundary-test", "--kind", "coin", "--T", "500",
                        "--n-paths", "400", "--delta", "0.1",
                        "--jsonl", out])
        assert code == 0
        (summary,) = read_jsonl(out)
        assert summary["frequency"] <= 0.1

    def test_validate_good_event_noiseless(self, tmp_path, capsys):
        out = tmp_path / "g.jsonl"
        code = run_cli(["validate-good-event", "--family", "l1",
                        "--dimension", "2", "--eta", "0.1", "--T", "32",
                        "--n-paths", "10", "--delta", "0.1",
                        "--budget", "256", "--jsonl", out])
        assert code == 0
        (summary,) = read_jsonl(out)
        assert summary["frequency"] == 1.0

    def test_restart_command(self, tmp_path):
        out = tmp_path / "r.csv"
        code = run_cli(["restart", "--family", "sc_quadratic",
                        "--dimension", "2", "--mu", "1", "--L", "1",
                        "--rounds", "8", "--epsilon", "3", "--delta", "0.1",
                        "--csv", out, "--jsonl", tmp_path / "r.jsonl"])
        assert code == 0
        rows = read_csv(out)
        assert int(rows[0]["total_queries"]) <= 2 ** 9

    def test_sweep_slope_output(self, tmp_path):
        out = tmp_path / "s.jsonl"
        code = run_cli(["sweep", "--family", "l1", "--dimension", "1",
                        "--center-scale", "0", "--x0-dist", "1",
                        "--budgets", "64,128,256,512", "--reps", "20",
                        "--eta-eps", "0.001953125", "--jsonl", out])
        assert code == 0
        summary = read_jsonl(out)[-1]
        assert summary["command"] == "sweep"
        assert len(summary["median_gaps"]) == 4
        assert summary["slope_ci"][0] <= summary["slope"] <= summary["slope_ci"][1]


class TestHelpers:
    def test_fit_loglog_slope_exact(self):
        budgets = [64, 128, 256, 512]
        medians = [1.0 / b for b in budgets]
        slope, ci = fit_loglog_slope(budgets, medians)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert ci[0] <= -1.0 <= ci[1]

    def test_parser_help_mentions_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("tune", "restart", "validate-good-event",
                    "boundary-test", "sweep"):
            assert cmd in text


def blow_up_on(monkeypatch, fails):
    """Make every CLI problem whose seed satisfies fails(seed) return NaN
    gradients."""
    make = cli.make_problem

    def patched(spec, seed):
        oracle, domain, x_star, f_star = make(spec, seed)
        if fails(seed):
            oracle.query = lambda x, rng: np.full(len(x), np.nan)
        return oracle, domain, x_star, f_star
    monkeypatch.setattr(cli, "make_problem", patched)


class TestRunFailures:
    RESTART = ["restart", "--family", "sc_quadratic", "--dimension", "2",
               "--mu", "1", "--L", "1", "--epsilon", "3", "--delta", "0.1"]

    def test_restart_bound_is_plan_total_budget(self, tmp_path):
        out = tmp_path / "r.jsonl"
        assert run_cli(self.RESTART + ["--rounds", "5", "--jsonl", out]) == 0
        (diag,) = read_jsonl(out)
        check = diag["checks"][0]
        assert check["bound"] == 2 ** 6 - 2  # sum of 2^m, m = 1..5
        assert check["realized"] <= check["bound"]

    def test_restart_numerical_failure_is_a_row(self, tmp_path,
                                                 monkeypatch):
        blow_up_on(monkeypatch, lambda seed: seed % 2 == 0)
        csv_path, jsonl_path = tmp_path / "r.csv", tmp_path / "r.jsonl"
        code = run_cli(self.RESTART + ["--rounds", "4", "--reps", "6",
                                       "--csv", csv_path,
                                       "--jsonl", jsonl_path])
        assert code == 0
        rows, diags = read_csv(csv_path), read_jsonl(jsonl_path)
        failed = [r for r in rows if r["case"] == "numerical_failure"]
        assert len(rows) == 6
        assert [int(r["seed"]) % 2 == 0 for r in rows] == \
            [r in failed for r in rows]
        assert 0 < len(failed) < 6
        reasons = [d["error"] for d in diags if "error" in d]
        assert len(reasons) == len(failed)
        # rounds 1 and 2 are too small to run SGD; round 3 is the first
        assert all(r == "restart round 3 failed: non-finite gradient at "
                   "step 0" for r in reasons)

    SWEEP = ["sweep", "--family", "l1", "--dimension", "1",
             "--center-scale", "0", "--x0-dist", "1",
             "--budgets", "64,128,256,512", "--reps", "20",
             "--eta-eps", "0.001953125"]

    def test_sweep_leaves_failed_runs_out(self, tmp_path, monkeypatch):
        blow_up_on(monkeypatch, lambda seed: seed % 3 == 0)
        csv_path, jsonl_path = tmp_path / "s.csv", tmp_path / "s.jsonl"
        code = run_cli(self.SWEEP + ["--csv", csv_path,
                                     "--jsonl", jsonl_path])
        assert code == 0
        rows = read_csv(csv_path)
        summary = read_jsonl(jsonl_path)[-1]
        per_budget = [rows[i:i + 20] for i in range(0, 80, 20)]
        failures = [sum(r["case"] == "numerical_failure" for r in block)
                    for block in per_budget]
        assert summary["numerical_failures"] == failures
        assert sum(failures) > 0
        medians = [float(np.median([float(r["gap"]) for r in block
                                    if r["case"] != "numerical_failure"]))
                   for block in per_budget]
        assert summary["median_gaps"] == medians
        assert np.isfinite(summary["slope"])

    def test_sweep_with_no_finite_gap_fails(self, tmp_path, monkeypatch,
                                            capsys):
        blow_up_on(monkeypatch, lambda seed: True)
        code = run_cli(self.SWEEP + ["--jsonl", tmp_path / "s.jsonl"])
        assert code == 2
        assert "every run at budget 64 ended in a numerical failure" in \
            capsys.readouterr().err


def zero_gradient_on(monkeypatch, zero):
    """Make every CLI problem whose seed satisfies zero(seed) return zero
    gradients."""
    make = cli.make_problem

    def patched(spec, seed):
        oracle, domain, x_star, f_star = make(spec, seed)
        if zero(seed):
            oracle.query = lambda x, rng: np.zeros(len(x))
        return oracle, domain, x_star, f_star
    monkeypatch.setattr(cli, "make_problem", patched)


class TestZeroFirstGradient:
    REASON = "relative eta_eps undefined with a zero first gradient"

    def test_tune_records_a_row_per_run(self, tmp_path):
        csv_path, jsonl_path = tmp_path / "t.csv", tmp_path / "t.jsonl"
        # x0 is the optimum of l1, where the subgradient is 0
        code = run_cli(["tune", "--family", "l1", "--dimension", "2",
                        "--x0-dist", "0", "--reps", "3", "--r-eps", "0.1",
                        "--budget", "64", "--csv", csv_path,
                        "--jsonl", jsonl_path])
        assert code == 0
        rows, diags = read_csv(csv_path), read_jsonl(jsonl_path)
        assert [r["case"] for r in rows] == ["zero_first_gradient"] * 3
        assert [(d["case"], d["error"]) for d in diags] == \
            [("zero_first_gradient", self.REASON)] * 3

    def test_sweep_leaves_them_out(self, tmp_path, monkeypatch):
        zero_gradient_on(monkeypatch, lambda seed: seed % 3 == 0)
        csv_path, jsonl_path = tmp_path / "s.csv", tmp_path / "s.jsonl"
        code = run_cli(TestRunFailures.SWEEP[:-2] + [
            "--r-eps", "0.5", "--csv", csv_path, "--jsonl", jsonl_path])
        assert code == 0
        rows = read_csv(csv_path)
        summary = read_jsonl(jsonl_path)[-1]
        per_budget = [rows[i:i + 20] for i in range(0, 80, 20)]
        zeros = [sum(r["case"] == "zero_first_gradient" for r in block)
                 for block in per_budget]
        assert summary["zero_first_gradients"] == zeros
        assert summary["numerical_failures"] == [0] * 4
        assert sum(zeros) > 0
        medians = [float(np.median([float(r["gap"]) for r in block
                                    if r["case"] != "zero_first_gradient"]))
                   for block in per_budget]
        assert summary["median_gaps"] == medians
        assert np.isfinite(summary["slope"])
