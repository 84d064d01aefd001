"""Which commands load scipy, checked in one fresh interpreter.

stepfree needs only numpy except in three places: the logistic optimum
(scipy.optimize), the sweep's slope fit and boundary-test's Clopper-Pearson
bound (scipy.stats). Each imports scipy on first use, so importing stepfree
and running any other command loads no scipy module. The interpreter runs
the stages below in order and reports the scipy modules loaded after each.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stepfree

SRC = Path(stepfree.__file__).resolve().parent.parent

STAGES = {
    "import": [],
    "numpy_only": [
        ["restart", "--family", "sc_quadratic", "--dimension", "3",
         "--rounds", "4", "--epsilon", "3"],
        ["tune", "--family", "l1", "--dimension", "3", "--budget", "64",
         "--eta-eps", "1e-3"],
        ["tune", "--family", "huber", "--noise", "signflip",
         "--noise-param", "0.2", "--dimension", "3", "--mode", "stochastic",
         "--budget", "64", "--eta-eps", "1e-3"],
        ["tune", "--family", "quadratic", "--noise", "sphere",
         "--noise-param", "1.0", "--dimension", "3", "--mode", "stochastic",
         "--budget", "64", "--eta-eps", "1e-3"],
    ],
    "logistic": [
        ["tune", "--family", "logistic", "--dimension", "3",
         "--n-samples", "20", "--budget", "64", "--eta-eps", "1e-3"],
    ],
    "sweep": [
        ["sweep", "--family", "l1", "--dimension", "1", "--budgets",
         "16,32,64,128", "--reps", "20", "--eta-eps", "1e-3"],
    ],
    "boundary_test": [
        ["boundary-test", "--kind", "coin", "--T", "50", "--n-paths", "20"],
    ],
}

SCRIPT = """
import contextlib, io, json, sys
import stepfree, stepfree.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

report = {}
for stage, commands in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        status = [stepfree.cli.main(argv) for argv in commands]
    report[stage] = {"status": status, "scipy": scipy_modules()}
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(STAGES)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    for stage, commands in STAGES.items():
        assert report[stage]["status"] == [0] * len(commands), stage
    return {stage: set(r["scipy"]) for stage, r in report.items()}


def test_import_loads_no_scipy(report):
    assert report["import"] == set()


def test_numpy_only_commands_load_no_scipy(report):
    # restart, and tune on every family but logistic
    assert report["numpy_only"] == set()


def test_logistic_loads_optimize_only(report):
    assert "scipy.optimize" in report["logistic"]
    assert "scipy.stats" not in report["logistic"]


def test_sweep_loads_stats(report):
    assert "scipy.stats" in report["sweep"]


def test_boundary_test_runs_with_stats(report):
    # runs after the sweep, so scipy.stats is already loaded; the stage
    # checks that the bound's first-use import resolves and exits 0
    assert "scipy.stats" in report["boundary_test"]
