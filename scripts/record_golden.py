#!/usr/bin/env python3
"""Record the golden CLI outputs that tests/test_golden.py compares against.

Runs a fixed set of small ``stepfree-bench`` commands (tune on five
family/noise pairs, tune --r-eps, a restart chain and a 4-budget sweep) and
writes, per command, its CSV, its JSONL and its stdout followed by the exit
status. Wall times are the one field that differs between runs, so the CSV's
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

from stepfree.cli import main as cli_main

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
    "sweep_l1_sphere": [
        "sweep", "--family", "l1", "--noise", "sphere", "--noise-param", "0.5",
        "--dimension", "3", "--budgets", "16,32,64,128", "--eta-eps", "1e-3",
        "--reps", "20", "--seed", "7"],
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
    """{file suffix: text} of one CLI command's outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, jsonl_path = Path(tmp, "out.csv"), Path(tmp, "out.jsonl")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli_main([*argv, "--csv", str(csv_path),
                               "--jsonl", str(jsonl_path)])
        return {"csv": mask_wall_ms(csv_path.read_bytes().decode()),
                "jsonl": jsonl_path.read_bytes().decode(),
                "stdout": f"{stdout.getvalue()}exit status {status}\n"}


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
