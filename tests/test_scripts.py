"""Smoke runs of the experiment scripts at small sizes, in subprocesses."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import stepfree

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(stepfree.__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name),
                           *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_restart_experiment(tmp_path):
    out = run_script("run_restart_experiment.py", "--chains", 3,
                     "--min-round", 3, "--max-rounds", 6, cwd=tmp_path)
    assert len(re.findall(r"^M= ?\d+ \(budget", out, re.M)) == 4
    (slope,) = re.findall(r"slope of log2\(median gap\) vs M: (\S+)", out)
    # the doubling schedule predicts a slope near -1
    assert -1.5 < float(slope) < -0.5


def test_rate_sweeps(tmp_path):
    out = run_script("run_rate_sweeps.py", "--reps", 20,
                     "--budgets", "64,128,256,512", "--out-dir", "tmp",
                     cwd=tmp_path)
    fits = re.findall(r"log-log slope (\S+) \(95% CI \[(\S+), (\S+)\]\)", out)
    assert len(fits) == 2  # quadratic, then l1
    for slope, lo, hi in fits:
        slope, lo, hi = float(slope), float(lo), float(hi)
        assert math.isfinite(slope) and slope < 0
        assert lo <= slope <= hi
    for name in ("quadratic", "l1"):
        for ext in ("csv", "jsonl"):
            assert (tmp_path / "tmp" / f"sweep_{name}.{ext}").is_file()


def test_ab_compare_against_itself(tmp_path):
    out = run_script("ab_compare.py", ROOT, ROOT, "--workload",
                     "restart_short", "--chunks", 2, "--chunk-units", 5,
                     cwd=tmp_path)
    assert len(re.findall(r"^(old|new) queries_per_s = \d", out, re.M)) == 2
    assert re.search(r"^ratio new/old: median \S+, quartiles \S+-\S+, "
                     r"new won \d/2 chunks$", out, re.M)
    assert "units whose outputs differ: 0" in out
