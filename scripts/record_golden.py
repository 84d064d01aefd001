#!/usr/bin/env python3
"""Record the golden CLI outputs that tests/test_golden.py compares against.

Runs a fixed set of small ``stepfree-bench`` commands (tune on five
family/noise pairs, tune --r-eps, tune in non-adaptive mode, tune from an INI
file with a flag overriding it, tune with an invalid delta, a noiseless and a
noisy restart chain, a 4-budget sweep, validate-good-event with and without
--union-grid and a boundary test; the runs that end in a failure row: tune
runs that overflow, with --eta-eps and with --r-eps, or meet a zero first
gradient, a restart chain whose fourth round overflows, and a sweep whose
first budget fails every run; and restart_rounds_past_schedule, a chain of
10^9 rounds that exits 2 as its schedule fails at round 1024) and writes,
per command, its CSV and JSONL (those it writes) and its stdout followed by
the exit status and any stderr.
Wall times are the one field that differs between runs, so the CSV's
``wall_ms`` column is masked as ``*``; everything else must match byte for
byte.

    PYTHONPATH=src python scripts/record_golden.py --out tests/golden

Record again only for a change that is meant to alter the outputs.
"""

import argparse
import contextlib
import csv
import io
import sys
import tempfile
from pathlib import Path

from stepfree.cli import REP_COMMANDS, main as cli_main

# stands for the path of CONFIG_INI, written next to the outputs
CONFIG = "@config.ini"
CONFIG_INI = """\
[problem]
family = huber
dimension = 3
noise = signflip
noise_param = 0.2
center_scale = 2.0

[run]
mode = stochastic
delta = 0.2
budget = 256
eta_eps = 0.001
x0_dist = 2.0
reps = 3
seed = 5
"""

CASES = {
    "tune_l1_none": [
        "tune", "--family", "l1", "--dimension", "5", "--budget", "512",
        "--eta-eps", "1e-3", "--reps", "3", "--seed", "1"],
    "tune_l1_sphere": [
        "tune", "--family", "l1", "--noise", "sphere", "--noise-param", "1.0",
        "--dimension", "5", "--mode", "stochastic", "--budget", "512",
        "--eta-eps", "1e-3", "--reps", "3", "--seed", "2"],
    "tune_logistic_none": [
        "tune", "--family", "logistic", "--dimension", "5", "--budget", "512",
        "--eta-eps", "1e-3", "--reps", "2", "--seed", "3"],
    # a ball small enough that the noise pushes iterates onto its boundary
    "tune_quadratic_sphere_ball": [
        "tune", "--family", "quadratic", "--noise", "sphere",
        "--noise-param", "1.0", "--radius", "0.1", "--dimension", "5",
        "--mode", "stochastic", "--budget", "2048", "--eta-eps", "1e-1",
        "--reps", "3", "--seed", "8"],
    "tune_huber_signflip": [
        "tune", "--family", "huber", "--noise", "signflip",
        "--noise-param", "0.2", "--dimension", "4", "--mode", "stochastic",
        "--budget", "512", "--eta-eps", "1e-3", "--reps", "3", "--seed", "9"],
    "tune_r_eps_l1_none": [
        "tune", "--family", "l1", "--dimension", "4", "--budget", "256",
        "--r-eps", "0.25", "--reps", "3", "--seed", "4"],
    "tune_r_eps_huber_signflip": [
        "tune", "--family", "huber", "--noise", "signflip",
        "--noise-param", "0.2", "--dimension", "4", "--mode", "stochastic",
        "--budget", "256", "--r-eps", "0.25", "--reps", "3", "--seed", "5"],
    "restart_sc_quadratic": [
        "restart", "--family", "sc_quadratic", "--dimension", "3",
        "--rounds", "6", "--epsilon", "3.0", "--reps", "4", "--seed", "6"],
    # a noisy chain: pins the per-round seeds its runs draw from
    "restart_l1_sphere": [
        "restart", "--family", "l1", "--noise", "sphere", "--noise-param",
        "0.5", "--dimension", "3", "--rounds", "6", "--reps", "2", "--seed",
        "15"],
    "tune_nonadaptive_quadratic_sphere": [
        "tune", "--family", "quadratic", "--noise", "sphere",
        "--noise-param", "0.5", "--dimension", "3", "--mode", "nonadaptive",
        "--budget", "1024", "--eta-eps", "1e-3", "--reps", "3", "--seed",
        "13"],
    # the INI file sets reps = 3; the flag overrides it
    "tune_config_override": [
        "tune", "--config", CONFIG, "--reps", "2"],
    # exits 2 before opening any output: delta must lie in (0, 1)
    "tune_invalid_delta": [
        "tune", "--family", "l1", "--dimension", "2", "--mode", "stochastic",
        "--delta", "1.5", "--budget", "64", "--eta-eps", "1e-3", "--seed",
        "14"],
    "validate_good_event_l1_sphere": [
        "validate-good-event", "--family", "l1", "--noise", "sphere",
        "--noise-param", "1.0", "--dimension", "3", "--eta", "0.05",
        "--T", "32", "--n-paths", "20", "--seed", "10"],
    "validate_good_event_union_nonadaptive": [
        "validate-good-event", "--family", "huber", "--noise", "signflip",
        "--noise-param", "0.2", "--dimension", "3", "--mode", "nonadaptive",
        "--eta-eps", "0.00390625", "--union-grid", "--T", "32",
        "--n-paths", "10", "--seed", "11"],
    "boundary_test_bernoulli": [
        "boundary-test", "--kind", "bernoulli", "--mean", "0.4", "--T", "200",
        "--n-paths", "300", "--delta", "0.1", "--seed", "12"],
    "sweep_l1_sphere": [
        "sweep", "--family", "l1", "--noise", "sphere", "--noise-param", "0.5",
        "--dimension", "3", "--budgets", "16,32,64,128", "--eta-eps", "1e-3",
        "--reps", "20", "--seed", "7"],
    # every run's first candidate, 1e308 * 2^4, overflows to inf, so the
    # run fails at its first step: numerical_failure rows
    "tune_numerical_failure": [
        "tune", "--eta-eps", "1e308", "--budget", "64", "--reps", "2"],
    # x0 = x_star = 0, where the first gradient is 0: no relative eta_eps
    "tune_zero_first_gradient": [
        "tune", "--r-eps", "1", "--center-scale", "0", "--x0-dist", "0",
        "--budget", "64"],
    # relative mode where ||g0|| = 1e10 * 1e300 overflows: each run's
    # failure row, as with --eta-eps
    "tune_r_eps_numerical_failure": [
        "tune", "--r-eps", "1", "--x0-dist", "1e300", "--family",
        "quadratic", "--smoothness", "1e10", "--radius", "1e300",
        "--budget", "64", "--reps", "3", "--seed", "16"],
    # round 4 overflows: 1e308 from the optimum its first bisection's top
    # step, 1e307, passes, and its second's, 4096 * 1e307, is inf; the
    # failure row names the round and its cause
    "restart_numerical_failure": [
        "restart", "--family", "l1", "--epsilon", "1e307", "--rounds", "5",
        "--x0-dist", "1e308", "--reps", "2"],
    # exits 2 once budget 16's runs have all failed, before budget 32 runs
    "sweep_all_failed": [
        "sweep", "--family", "l1", "--eta-eps", "1e308", "--budgets",
        "16,32,64,128", "--reps", "20"],
    # exits 2 before any run: round 1024's initial step size, 1 / 2^1024,
    # is not a positive float, and no output file is opened
    "restart_rounds_past_schedule": [
        "restart", "--family", "sc_quadratic", "--rounds", "1000000000"],
}


def mask_wall_ms(text: str) -> str:
    """The CSV text with every value of its wall_ms column replaced by *."""
    comment, _, body = text.partition("\n")
    rows = list(csv.reader(io.StringIO(body, newline="")))
    col = rows[0].index("wall_ms")
    for row in rows[1:]:
        row[col] = "*"
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)  # the dialect the CLI writes with
    return f"{comment}\n{out.getvalue()}"


def run_case(argv: list) -> dict:
    """{file suffix: text} of one CLI command's outputs; no "csv" or
    "jsonl" entry for a command that writes no such file."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, jsonl_path = Path(tmp, "out.csv"), Path(tmp, "out.jsonl")
        config = Path(tmp, "config.ini")
        config.write_text(CONFIG_INI)
        argv = [str(config) if a == CONFIG else a for a in argv]
        argv += ["--jsonl", str(jsonl_path)]
        if argv[0] in REP_COMMANDS:
            argv += ["--csv", str(csv_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            status = cli_main(argv)
        out = {"stdout": f"{stdout.getvalue()}exit status {status}\n"
                         f"{stderr.getvalue()}"}
        if jsonl_path.exists():
            out["jsonl"] = jsonl_path.read_bytes().decode()
        if csv_path.exists():
            out["csv"] = mask_wall_ms(csv_path.read_bytes().decode())
        return out


def record(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, argv in CASES.items():
        for suffix, text in run_case(argv).items():
            Path(out_dir, f"{name}.{suffix}").write_bytes(text.encode())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default="tests/golden",
                        help="directory the golden files are written to")
    record(Path(parser.parse_args().out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
