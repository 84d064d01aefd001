import csv
import json
import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import stepfree.cli as cli
import stepfree.tuner as tuner
from oracles import per_sample
from stepfree import ProblemSpec
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

    def test_unparsable_config_file(self, tmp_path, capsys):
        ini = tmp_path / "keys.ini"
        ini.write_text("budget = 64\n")  # a key outside every section
        assert run_cli(["tune", "--config", ini, "--eta-eps", "0.1"]) == 2
        assert capsys.readouterr().err == (
            f"config error: cannot parse config file {str(ini)!r}: "
            "File contains no section headers.\n")

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

    @pytest.mark.parametrize("args", [
        ["tune", "--mode", "stochastic", "--eta-eps", "1e-3"],
        ["sweep", "--mode", "nonadaptive", "--budgets", "16,32,64,128",
         "--reps", "20", "--eta-eps", "1e-3"],
        ["restart"],
    ])
    @pytest.mark.parametrize("delta", ["1.5", "0", "nan"])
    def test_invalid_delta_opens_no_output(self, args, delta, tmp_path,
                                           capsys):
        csv_path, jsonl_path = tmp_path / "x.csv", tmp_path / "x.jsonl"
        assert run_cli(args + ["--delta", delta, "--csv", csv_path,
                               "--jsonl", jsonl_path]) == 2
        assert capsys.readouterr().err == (
            f"config error: delta must be in (0, 1), got {float(delta)!r}\n")
        assert not csv_path.exists() and not jsonl_path.exists()

    @pytest.mark.parametrize("args", [
        ["tune", "--eta-eps", "1e-3"],
        ["restart"],
        ["validate-good-event", "--T", "8", "--n-paths", "2"],
        ["boundary-test", "--T", "8", "--n-paths", "2"],
        ["sweep", "--budgets", "16,32,64,128", "--reps", "20",
         "--eta-eps", "1e-3"],
    ])
    def test_negative_seed_rejected(self, args, tmp_path, capsys):
        jsonl_path = tmp_path / "x.jsonl"
        assert run_cli(args + ["--seed", "-1", "--jsonl", jsonl_path]) == 2
        assert capsys.readouterr().err == \
            "config error: seed must be >= 0, got -1\n"
        assert not jsonl_path.exists()

    def test_negative_ini_seed_rejected(self, tmp_path, capsys):
        ini = tmp_path / "cfg.ini"
        ini.write_text("[run]\nseed = -3\n")
        assert run_cli(["boundary-test", "--config", ini]) == 2
        assert capsys.readouterr().err == \
            "config error: seed must be >= 0, got -3\n"

    def test_seed_reads_modulo_2_to_the_64(self, tmp_path):
        args = ["tune", "--eta-eps", "1e-3", "--noise", "sphere",
                "--noise-param", "0.5", "--dimension", "3",
                "--mode", "stochastic"]
        runs = []
        for seed in (0, 2 ** 64):
            out = tmp_path / f"{seed}.csv"
            assert run_cli(args + ["--seed", seed, "--csv", out]) == 0
            runs.append([{k: v for k, v in row.items() if k != "wall_ms"}
                         for row in read_csv(out)])
        assert runs[0] == runs[1]

    def test_deterministic_tune_reads_no_delta(self):
        assert run_cli(["tune", "--eta-eps", "1e-3", "--delta", "1.5"]) == 0


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
                        "--jsonl", out])
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
            oracle = replace(oracle, sampler=per_sample(
                lambda x, rng: np.full(len(x), np.nan)), noiseless=False)
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

    def test_rounds_past_the_schedule_build_no_bound(self, capsys):
        # 2^(10^9 + 1) - 2 is a ~125 MB integer; the schedule fails at
        # round 1024, so no chain of that length may reach its bound
        tracemalloc.start()
        try:
            code = main(["restart", "--family", "sc_quadratic",
                         "--rounds", "1000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error: round 1024's initial step size")
        assert peak < 10 * 2 ** 20

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
            oracle = replace(oracle, sampler=per_sample(
                lambda x, rng: np.zeros(len(x))), noiseless=False)
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


class TestRelativeModeFailures:
    def test_infinite_first_gradient_is_a_row_per_run(self, tmp_path):
        # ||g0|| = 1e10 * 1e300 overflows: each run fails as its first
        # step would with --eta-eps, not the whole batch
        csv_path, jsonl_path = tmp_path / "t.csv", tmp_path / "t.jsonl"
        code = run_cli(["tune", "--r-eps", "1", "--x0-dist", "1e300",
                        "--family", "quadratic", "--smoothness", "1e10",
                        "--radius", "1e300", "--budget", "64", "--reps", "3",
                        "--csv", csv_path, "--jsonl", jsonl_path])
        assert code == 0
        rows, diags = read_csv(csv_path), read_jsonl(jsonl_path)
        assert [r["case"] for r in rows] == ["numerical_failure"] * 3
        assert [d["error"] for d in diags] == \
            ["non-finite gradient at step 0"] * 3

    def test_underflowed_eta_eps_names_r_eps(self, tmp_path, capsys):
        # 5e-324 / (||g0|| * 64) rounds to 0
        TestCommandInputs.assert_one_error_line(
            ["tune", "--r-eps", "5e-324", "--family", "l1", "--budget", "64",
             "--reps", "3"], "r_eps 5e-324 gives eta_eps", tmp_path, capsys)


class TestIniChecks:
    GOOD_EVENT = ["validate-good-event", "--family", "l1", "--noise", "sphere",
                  "--noise-param", "1.0", "--dimension", "3", "--eta", "0.5",
                  "--T", "32", "--n-paths", "20"]
    BOUNDARY = ["boundary-test", "--kind", "coin", "--T", "50",
                "--n-paths", "20"]
    TUNE = ["tune", "--family", "l1", "--dimension", "2", "--budget", "64",
            "--eta-eps", "1e-3"]

    @staticmethod
    def ini(tmp_path, text):
        path = tmp_path / "cfg.ini"
        path.write_text(text)
        return path

    def assert_config_error(self, args, tmp_path, capsys, start):
        out = tmp_path / "out.jsonl"
        assert run_cli(args + ["--jsonl", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + start)
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("base, text, start", [
        # the flag refuses this mode: it would run at damping (3, 0)
        (GOOD_EVENT, "[run]\nmode = deterministic\n",
         "mode = 'deterministic' is not one of stochastic, nonadaptive"),
        (BOUNDARY, "[run]\nkind = gauss\n",
         "kind = 'gauss' is not one of zero, coin, bernoulli"),
        (TUNE, "[run]\nmode = adaptive\n",
         "mode = 'adaptive' is not one of deterministic, stochastic, "
         "nonadaptive"),
    ])
    def test_ini_value_outside_the_flags_choices(self, base, text, start,
                                                 tmp_path, capsys):
        args = [a for a in base if a not in ("--kind", "coin")]
        self.assert_config_error(
            args + ["--config", self.ini(tmp_path, text)], tmp_path, capsys,
            start)

    def test_ini_choices_are_the_commands_own(self):
        # tune takes mode = deterministic, validate-good-event does not
        choices = cli._settings("tune")["mode"].choices
        assert "deterministic" in choices
        assert "deterministic" not in \
            cli._settings("validate-good-event")["mode"].choices

    def test_ini_value_among_the_choices_runs(self, tmp_path, capsys):
        ini = self.ini(tmp_path, "[run]\nmode = nonadaptive\n")
        assert run_cli(self.GOOD_EVENT + ["--config", ini]) == 0
        assert "good-event frequency" in capsys.readouterr().out

    def test_flag_overrides_a_bad_ini_value(self, tmp_path):
        # the INI value is not used, so it is not checked
        ini = self.ini(tmp_path, "[run]\nkind = gauss\n")
        assert run_cli(self.BOUNDARY + ["--config", ini]) == 0

    @pytest.mark.parametrize("base", [GOOD_EVENT, BOUNDARY])
    def test_csv_flag_refused_where_no_csv_is_written(self, base, tmp_path,
                                                      capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run_cli(base + ["--csv", out])
        assert exc.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base", [GOOD_EVENT, BOUNDARY])
    def test_ini_csv_is_a_config_error_where_no_csv_is_written(
            self, base, tmp_path, capsys):
        out = tmp_path / "x.csv"
        ini = self.ini(tmp_path, f"[output]\ncsv = {out}\n")
        self.assert_config_error(base + ["--config", ini], tmp_path, capsys,
                                 f"{base[0]} takes no setting csv")
        assert not out.exists()

    @pytest.mark.parametrize("base, text, start", [
        (TUNE, "[run]\nbudjet = 100\n", "tune takes no setting budjet"),
        # boundary-test builds no problem, so it takes no problem setting
        (BOUNDARY, "[problem]\nmu = -1\nfamily = nosuch\n",
         "boundary-test takes no setting family, mu"),
        (GOOD_EVENT, "[run]\nreps = 0\n",
         "validate-good-event takes no setting reps"),
        (GOOD_EVENT, "[run]\nbudget = 64\n",
         "validate-good-event takes no setting budget"),
    ])
    def test_ini_key_naming_no_flag_is_a_config_error(self, base, text,
                                                      start, tmp_path,
                                                      capsys):
        self.assert_config_error(
            base + ["--config", self.ini(tmp_path, text)], tmp_path, capsys,
            start)

    @pytest.mark.parametrize("base", [
        TUNE, ["restart", "--family", "sc_quadratic", "--dimension", "2",
               "--rounds", "3", "--epsilon", "3"]])
    def test_ini_csv_is_written_where_rows_are(self, base, tmp_path):
        out = tmp_path / "x.csv"
        ini = self.ini(tmp_path, f"[output]\ncsv = {out}\n")
        assert run_cli(base + ["--config", ini]) == 0
        assert len(read_csv(out)) == 1


class TestCommandInputs:
    PROBLEM_FLAGS = ["--" + f.name.replace("_", "-")
                     for f in fields(ProblemSpec)]

    @staticmethod
    def assert_refused(args, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(args + [flag, "7"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", PROBLEM_FLAGS + ["--reps", "--x0-dist"])
    def test_boundary_test_refuses_what_it_would_ignore(self, flag, capsys):
        self.assert_refused(TestIniChecks.BOUNDARY, flag, capsys)

    def test_validate_good_event_refuses_reps(self, capsys):
        self.assert_refused(TestIniChecks.GOOD_EVENT, "--reps", capsys)

    def test_validate_good_event_refuses_budget(self, capsys):
        # the round it checks fixes its budget, B = 2kT
        with pytest.raises(SystemExit) as exc:
            run_cli(TestIniChecks.GOOD_EVENT + ["--budget", "64"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 64" in capsys.readouterr().err

    def test_validate_good_event_damps_the_round_of_T_steps(self, monkeypatch,
                                                            capsys):
        budgets = []
        damping_for_round = cli.damping_for_round

        def record(k, B, *args):
            budgets.append(B)
            return damping_for_round(k, B, *args)
        monkeypatch.setattr(cli, "damping_for_round", record)
        assert run_cli(["validate-good-event", "--T", "32", "--round-k", "3",
                        "--n-paths", "2"]) == 0
        assert budgets == [2 * 3 * 32]

    def test_boundary_test_settings(self):
        assert set(cli._settings("boundary-test")) == {
            "seed", "delta", "jsonl", "kind", "T", "n_paths", "mean"}

    @pytest.mark.parametrize("args, message", [
        (["validate-good-event", "--n-paths", "0"], "n_paths must be >= 1"),
        (["validate-good-event", "--union-grid", "--eta-eps", "1e-3",
          "--n-paths", "0"], "n_paths must be >= 1"),
        (["validate-good-event", "--T", "0"], "T must be >= 1"),
        (["boundary-test", "--n-paths", "0"], "n_paths and T must be >= 1"),
        (["boundary-test", "--kind", "zero", "--n-paths", "0"],
         "n_paths and T must be >= 1"),
        (["boundary-test", "--T", "0"], "n_paths and T must be >= 1"),
    ])
    def test_bad_counts_are_one_error_line(self, args, message, tmp_path,
                                           capsys):
        self.assert_one_error_line(args, message, tmp_path, capsys)

    @staticmethod
    def assert_one_error_line(args, message, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        assert run_cli(args + ["--jsonl", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert len(err.splitlines()) == 1
        assert not out.exists()

    UNION_GRID = ["validate-good-event", "--union-grid", "--eta-eps", "1e-3"]

    @pytest.mark.parametrize("args, message", [
        (UNION_GRID + ["--round-k", "-1"], "round k must be >= 1"),
        (UNION_GRID + ["--round-k", "0"], "round k must be >= 1"),
        (["validate-good-event", "--round-k", "0"], "round k must be >= 1"),
        (UNION_GRID + ["--round-k", "11"],
         f"--union-grid takes --round-k <= {cli.MAX_UNION_ROUND_K}"),
        (UNION_GRID + ["--round-k", "1000000"], "--union-grid takes"),
        (["boundary-test", "--delta", "0"], "delta must be in (0, 1)"),
        (["boundary-test", "--delta", "1"], "delta must be in (0, 1)"),
        (["boundary-test", "--kind", "bernoulli", "--mean", "2"],
         "mean must be in [0, 1]"),
        (["boundary-test", "--kind", "bernoulli", "--mean", "-0.5"],
         "mean must be in [0, 1]"),
    ])
    def test_bad_ranges_are_one_error_line(self, args, message, tmp_path,
                                           capsys, monkeypatch):
        def no_run(*_, **__):
            raise AssertionError("a run started")
        monkeypatch.setattr(cli, "good_event_union_frequency", no_run)
        with np.errstate(all="raise"):  # no numpy warning either
            self.assert_one_error_line(args, message, tmp_path, capsys)

    def test_largest_union_round_runs(self, tmp_path, capsys):
        k = cli.MAX_UNION_ROUND_K
        assert run_cli(self.UNION_GRID + [
            "--round-k", k, "--T", "1", "--n-paths", "1",
            "--jsonl", tmp_path / "out.jsonl"]) == 0
        assert "good-event frequency" in capsys.readouterr().out

    # the grid's step sizes 1e200 * 2^j pass 1.8e306 before j = 2^9; a
    # first step that far lands on the ball's sphere (radius 100), where the
    # second step's eta * g overflows. Without the beta term every margin
    # before that stays finite and nonnegative, so the union reaches the
    # step size that fails
    OVERFLOWING_GRID = UNION_GRID[:2] + [
        "--eta-eps", "1e200", "--round-k", "9", "--T", "2", "--n-paths", "1",
        "--family", "quadratic", "--mode", "nonadaptive"]

    def test_numerical_failure_is_one_error_line(self, tmp_path, capsys):
        self.assert_one_error_line(self.OVERFLOWING_GRID,
                                   "non-finite iterate at step 1", tmp_path,
                                   capsys)

    @pytest.mark.parametrize("args, code", [
        (OVERFLOWING_GRID, 2),
        (["validate-good-event", "--eta", "1e308", "--T", "64",
          "--n-paths", "2"], 0)])
    def test_overflow_raises_no_numpy_warning(self, args, code, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(args) == code
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("args, setting", [
        (["tune", "--eta-eps", "nan"], "eta_eps"),
        (["tune", "--r-eps", "nan"], "r_eps"),
        (["restart", "--family", "sc_quadratic", "--epsilon", "nan"],
         "epsilon"),
        (["validate-good-event", "--eta", "nan", "--T", "8", "--n-paths",
          "2"], "eta"),
        (["validate-good-event", "--union-grid", "--eta-eps", "nan", "--T",
          "8", "--n-paths", "2"], "eta_eps")])
    def test_nan_step_size_is_one_error_line(self, args, setting, capsys):
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + setting)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("args, message", [
        (["tune", "--eta-eps", "nan"], "eta_eps must be positive"),
        (["tune", "--r-eps", "-1"], "r_eps must be positive"),
        (["restart", "--family", "sc_quadratic", "--epsilon", "nan"],
         "epsilon and L must be positive"),
        (["restart", "--family", "sc_quadratic", "--L", "0"],
         "epsilon and L must be positive")])
    def test_failed_first_run_leaves_no_file(self, args, message, tmp_path,
                                             capsys):
        csv_path, jsonl_path = tmp_path / "o.csv", tmp_path / "o.jsonl"
        assert run_cli(args + ["--csv", csv_path, "--jsonl", jsonl_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert len(err.splitlines()) == 1
        assert not csv_path.exists() and not jsonl_path.exists()

    @pytest.mark.parametrize("flag, writable", [
        pytest.param("--csv", None, id="--csv"),
        pytest.param("--jsonl", None, id="--jsonl"),
        pytest.param("--jsonl", "--csv", id="--jsonl-with-a-writable-csv"),
        pytest.param("--csv", "--jsonl", id="--csv-with-a-writable-jsonl")])
    def test_unwritable_path_is_one_error_line(self, flag, writable, tmp_path,
                                               capsys):
        path, ok = tmp_path / "missing" / "o.out", tmp_path / "ok.out"
        args = ["tune", "--eta-eps", "1e-3", flag, path]
        assert run_cli(args + ([writable, ok] if writable else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert len(err.splitlines()) == 1
        assert not ok.exists()  # the file that could be opened is left out

    @pytest.mark.parametrize("args, message", [
        # L^2 underflows to 0, or overflows, in round 1's epsilon / (L^2 2)
        (["restart", "--family", "sc_quadratic", "--L", "1e-200"],
         "round 1's initial step size"),
        (["restart", "--family", "sc_quadratic", "--L", "1e200"],
         "round 1's initial step size"),
        # the first run's record alone would take 182 TiB
        (["tune", "--eta-eps", "1e-3", "--budget", "100000000000000"],
         "Unable to allocate")])
    def test_out_of_range_run_is_one_error_line(self, args, message,
                                                tmp_path, capsys):
        self.assert_one_error_line(args, message, tmp_path, capsys)

    # rounds 1 and 2 of a restart chain are too small to run SGD; round 3,
    # the first that does, is named in the error line
    RUN_ERRORS = [
        pytest.param(["tune", "--eta-eps", "1e-3"], "", id="tune"),
        pytest.param(["restart", "--rounds", "4"], "restart round 3 failed: ",
                     id="restart")]

    @pytest.mark.parametrize("args, prefix", RUN_ERRORS)
    def test_memory_error_in_a_run_is_one_error_line(self, args, prefix,
                                                     tmp_path, capsys,
                                                     monkeypatch):
        def no_memory(*_, **__):
            raise MemoryError("out of memory")
        monkeypatch.setattr(tuner, "sgd_run", no_memory)
        self.assert_one_error_line(args, prefix + "out of memory", tmp_path,
                                   capsys)

    @pytest.mark.parametrize("args, prefix", RUN_ERRORS)
    def test_unhandled_run_error_stays_unhandled(self, args, prefix,
                                                 monkeypatch):
        def broken(*_, **__):
            raise AssertionError("broken run")
        monkeypatch.setattr(tuner, "sgd_run", broken)
        with pytest.raises(AssertionError) as info:
            run_cli(args)
        assert str(info.value) == "broken run"
        notes = [prefix[:-2]] if prefix else []
        assert getattr(info.value, "__notes__", []) == notes

    def test_overflowed_good_event_margins_do_not_hold(self, tmp_path,
                                                      capsys):
        # the iterates reach +-1e308, where every threshold overflows to inf
        out = tmp_path / "g.jsonl"
        assert run_cli(["validate-good-event", "--eta", "1e308", "--T", "64",
                        "--n-paths", "2", "--jsonl", out]) == 0
        (summary,) = read_jsonl(out)
        assert summary["frequency"] < 1.0
        assert summary["verdict"] == "inconclusive"


class TestLengthsBeyondTheSquareOverflow:
    """Runs whose lengths pass ~1.3e154, where their squares overflow."""

    @staticmethod
    def tune(args, tmp_path):
        csv_path, jsonl_path = tmp_path / "t.csv", tmp_path / "t.jsonl"
        assert run_cli(["tune"] + args + ["--csv", csv_path,
                                          "--jsonl", jsonl_path]) == 0
        (row,), (diag,) = read_csv(csv_path), read_jsonl(jsonl_path)
        return row, diag

    def test_ball_keeps_a_far_start(self, tmp_path):
        # x0 lies 1e160 inside a ball of radius 1e200: the run starts there,
        # not at the center, which is the optimum
        row, _ = self.tune(["--family", "quadratic", "--radius", "1e200",
                            "--x0-dist", "1e160", "--eta-eps", "1e-3"],
                           tmp_path)
        assert float(row["dist_to_opt"]) == pytest.approx(1e160, rel=0.05)

    def test_infinite_bounds_are_inconclusive(self, tmp_path):
        # G, a sum of squared gradient norms near 1e160, overflows to inf,
        # and so does every bound scaled by sqrt(alpha G): such a bound
        # certifies nothing
        _, diag = self.tune(["--family", "quadratic", "--radius", "1e200",
                             "--x0-dist", "1e160", "--eta-eps", "1e-3"],
                            tmp_path)
        assert diag["case"] == "edge_low_step"
        by_id = {c["check_id"]: c for c in diag["checks"]}
        for check_id in ("edge_displacement", "edge_gap_dichotomy"):
            assert by_id[check_id]["bound"] == math.inf
            assert by_id[check_id]["verdict"] == "inconclusive"
        assert by_id["budget"]["verdict"] == "pass"
        assert by_id["T_lower_bound"]["verdict"] == "pass"

    @pytest.mark.parametrize("eta_eps, case", [
        ("1e-3", "edge_low_step"),
        # round 8 selects a step size beyond 1e154, where r_bar(lo) *
        # phi(hi) of the selection rule overflows
        ("1e140", "normal")])
    def test_distances_and_bounds_are_finite(self, eta_eps, case, tmp_path):
        row, diag = self.tune(["--family", "l1", "--x0-dist", "1e155",
                               "--eta-eps", eta_eps, "--budget", "64"],
                              tmp_path)
        assert row["case"] == case
        dist = float(row["dist_to_opt"])
        assert 1e154 < dist < 2e155
        assert all(math.isfinite(c["bound"]) for c in diag["checks"])

    SC_1E160 = ["--family", "sc_quadratic", "--dimension", "2", "--L",
                "1e160"]

    # the squares of these declared bounds overflow: beta_k, or L^2 T in
    # non-adaptive mode, is +inf, every candidate fails its certificate and
    # every bound scaled by it certifies nothing
    @pytest.mark.parametrize("args", [
        ["tune", *SC_1E160, "--mode", "stochastic", "--eta-eps", "1e-3",
         "--budget", "64"],
        ["tune", *SC_1E160, "--mode", "nonadaptive", "--eta-eps", "1e-3",
         "--budget", "64"],
        ["validate-good-event", *SC_1E160, "--eta", "1e-3", "--T", "8",
         "--n-paths", "2"],
        ["tune", "--family", "quadratic", "--smoothness", "1e200",
         "--radius", "1e100", "--noise", "sphere", "--noise-param", "1",
         "--mode", "stochastic", "--eta-eps", "1e-3", "--budget", "64"],
        ["sweep", "--family", "sc_quadratic", "--L", "1e160", "--mode",
         "stochastic", "--eta-eps", "1e-3", "--budgets", "8,16,32,64",
         "--reps", "20"]],
        ids=["tune-stochastic", "tune-nonadaptive", "validate-good-event",
             "tune-quadratic", "sweep"])
    def test_squared_bounds_past_the_float_range(self, args, tmp_path,
                                                   capsys):
        out = tmp_path / "o.jsonl"
        assert run_cli(args + ["--jsonl", out]) == 0
        assert capsys.readouterr().err == ""
        diags = read_jsonl(out)
        if args[0] == "validate-good-event":
            (summary,) = diags
            assert (summary["frequency"], summary["verdict"]) == \
                (0.0, "inconclusive")
            return
        runs = [d for d in diags if "checks" in d]
        assert runs and all(d["case"] == "edge_low_step" for d in runs)
        for d in runs:
            verdicts = {c["check_id"]: c["verdict"] for c in d["checks"]}
            assert verdicts["edge_displacement"] == "inconclusive"
            assert verdicts["edge_gap_dichotomy"] == "inconclusive"

    def test_candidate_past_the_float_range_is_a_failure_row(
            self, tmp_path, monkeypatch):
        # from x0 = 0 toward a center ~1e300 away every top candidate up to
        # eta_eps * 2^256 walks straight and passes, so round 16 runs
        # j = 2^16, past the float range
        monkeypatch.setattr(cli, "default_x0",
                            lambda domain, x_star, dist, seed:
                            np.zeros(len(x_star)))
        row, diag = self.tune(["--family", "l1", "--center-scale", "1e300",
                               "--eta-eps", "1", "--budget", "64"], tmp_path)
        assert row["case"] == "numerical_failure"
        assert diag["error"] == "non-finite iterate at step 0"


class TestRoundingAbsorbedRuns:
    def test_no_false_bug(self, tmp_path):
        # each step x - 1e-300 * g rounds back to x, so r_bar = 0 and the
        # edge case fires, which exact steps would never make it do
        out = tmp_path / "t.jsonl"
        assert run_cli(["tune", "--eta-eps", "1e-300", "--budget", "4096",
                        "--jsonl", out]) == 0
        (diag,) = read_jsonl(out)
        verdicts = {c["check_id"]: c["verdict"] for c in diag["checks"]}
        assert diag["case"] == "edge_low_step"
        assert verdicts == {"budget": "pass", "T_lower_bound": "pass",
                            "edge_displacement": "pass",
                            "edge_gap_dichotomy": "inconclusive"}

    def test_standing_still_at_the_optimum(self, tmp_path):
        # x0 = x* and every gradient is 0, so both edge bounds are 0.0, yet
        # x_bar, the average of copies of x0, is off x0 by its rounding
        out = tmp_path / "t.jsonl"
        assert run_cli(["tune", "--eta-eps", "0.001", "--x0-dist", "0",
                        "--jsonl", out]) == 0
        (diag,) = read_jsonl(out)
        checks = {c["check_id"]: c for c in diag["checks"]}
        for check_id in ("edge_displacement", "edge_gap_dichotomy"):
            line = checks[check_id]
            assert line["verdict"] == "pass", line
            assert line["bound"] == 0.0, line
            assert line["realized"] == pytest.approx(1.1e-16, rel=0.05), line


class TestUnderflowedGradientSquares:
    def test_zero_G_is_no_certificate(self, tmp_path):
        # every gradient entry is ~1e-281, whose square underflows to 0, so
        # G = 0 while r_bar > 0: phi is nan, every candidate fails, and the
        # edge bounds, 0.0 as they scale with sqrt(G), cover nothing
        out = tmp_path / "t.jsonl"
        assert run_cli(["tune", "--family", "sc_quadratic", "--dimension",
                        "3", "--mu", "2.4e-181", "--x0-dist", "1e-100",
                        "--eta-eps", "2e180", "--budget", "64",
                        "--jsonl", out]) == 0
        (diag,) = read_jsonl(out)
        checks = {c["check_id"]: c for c in diag["checks"]}
        assert diag["case"] == "edge_low_step"
        line = checks["edge_displacement"]
        assert line["bound"] == 0.0 and line["realized"] > 0.0, line
        assert line["verdict"] == "inconclusive", line


class TestTinyStepSizeBounds:
    """T lower bounds whose direct quotient d0 / (eta_eps * g) divides by
    an underflowed zero; their log is taken term by term."""

    @staticmethod
    def t_bound(args, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert run_cli(["tune", "--family", "sc_quadratic", "--budget", "4096",
                        "--eta-eps", "1e-300", "--jsonl", out] + args) == 0
        assert capsys.readouterr().err == ""
        (diag,) = read_jsonl(out)
        (line,) = [c for c in diag["checks"]
                   if c["check_id"] == "T_lower_bound"]
        assert line["realized"] == 1024 and line["verdict"] == "pass"
        return line["bound"]

    def test_deterministic(self, tmp_path, capsys):
        # d0 = ||g0|| = 1e-100: log2(1e-100 / (1e-300 * 1e-100)) ~ 996.6
        bound = self.t_bound(["--x0-dist", "1e-100"], tmp_path, capsys)
        assert bound == pytest.approx(
            4096 / (12 * math.log2(300 * math.log2(10))))
        assert bound == pytest.approx(34.27, abs=0.01)

    def test_stochastic(self, tmp_path, capsys):
        # d0 = 1e-110, L = 1e-100: log2(1e-110 / (1e-300 * 1e-100)) ~ 963.4
        bound = self.t_bound(["--mode", "stochastic", "--L", "1e-100",
                              "--x0-dist", "1e-110"], tmp_path, capsys)
        assert bound == pytest.approx(
            4096 / (8 * math.log2(290 * math.log2(10))))
