"""Smoke runs of the experiment scripts at small sizes, in subprocesses."""

import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import textwrap
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


def test_ab_compare_cli_workload_against_itself(tmp_path):
    # tune_mix drives the CLI in-process, the path of noisy streams
    out = run_script("ab_compare.py", ROOT, ROOT, "--workload", "tune_mix",
                     "--chunks", 2, "--chunk-units", 1, cwd=tmp_path)
    assert len(re.findall(r"^(old|new) queries_per_s = \d", out, re.M)) == 2
    assert "units whose outputs differ: 0" in out


def test_ab_compare_fails_on_a_moved_output(tmp_path):
    # a copy whose rounds start from a step size smaller by a factor of
    # 1 - 1e-7: the chains take the same decisions, so only the floats of
    # each unit's record (gap, dist_to_opt) move
    new_root = tmp_path / "new"
    for part in ("src", "bench"):
        shutil.copytree(ROOT / part, new_root / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    restarts = new_root / "src" / "stepfree" / "restarts.py"
    with restarts.open("a") as f:
        f.write(textwrap.dedent("""

            _restart_tune = restart_tune


            def restart_tune(*args, epsilon, **kwargs):
                return _restart_tune(*args, epsilon=epsilon * 0.9999999,
                                     **kwargs)
        """))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" /
                                               "ab_compare.py"),
                           str(ROOT), str(new_root), "--workload",
                           "restart_short", "--chunks", "2", "--chunk-units",
                           "5"], cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert "units whose outputs differ: 10" in proc.stdout


def test_ab_compare_setup_against_itself(tmp_path):
    out = run_script("ab_compare.py", ROOT, ROOT, "--workload",
                     "restart_short", "--setup", 1, cwd=tmp_path)
    for side in ("old", "new"):
        (med, q1, q3) = re.findall(rf"^{side} setup_s: median (\S+), "
                                   r"quartiles (\S+)-(\S+)$", out, re.M)[0]
        assert 0 < float(med) == float(q1) == float(q3)
    assert re.search(r"^new won [01]/1 rounds$", out, re.M)


def test_bench_smoke():
    # the benchmark's own smoke test, in its own process: renaming a name
    # that bench/workloads.py or bench/tracer.py resolves in stepfree makes
    # a workload fail or a traced metric read null, and so fails it
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider",
                           str(ROOT / "bench" / "test_smoke.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


JUNIT_STUB = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" tests="3" failures="0" errors="0"
 skipped="0" time="2.5">
<testcase classname="tests.test_acceptance" name="test_criterion_06_good_event"
 time="1.5"/>
<testcase classname="tests.test_cli.TestTuneCommand" name="test_a" time="0.5"/>
<testcase classname="tests.test_cli.TestTuneCommand" name="test_b" time="0.25"/>
</testsuite></testsuites>
"""


def test_bench_snapshot(tmp_path, monkeypatch):
    # one short run_bench.py pass per trace on one workload; the tier-1
    # runner is a stub, so the suite does not run inside itself
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", ROOT / "scripts" / "bench_snapshot.py")
    snap = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snap)

    def fake_tier1(junit_xml):
        junit_xml.write_text(JUNIT_STUB)
        return 3.0
    monkeypatch.setattr(snap, "RUN_SECONDS", 1.0)
    monkeypatch.setattr(snap, "benchmark_workloads", lambda: ["restart_short"])
    monkeypatch.setattr(snap, "run_tier1", fake_tier1)
    out = tmp_path / "BENCH_0.json"
    assert snap.main([str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["schema"] == "stepfree bench snapshot v1"
    assert data["run_seconds"] == 1.0
    assert [(r["workload"], r["trace"]) for r in data["bench"]] == [
        ("restart_short", 0), ("restart_short", 1)]
    for run in data["bench"]:
        assert run["machine"]["nproc"] >= 1
        assert run["result"]["correct"] is True
        assert run["result"]["failed"] == 0
    assert "queries_per_s" in data["bench"][0]["result"]["metrics"]
    assert data["tier1"] == {
        "wall_s": 3.0, "tests": 3, "failures": 0, "errors": 0, "skipped": 0,
        "by_file_s": {"tests/test_acceptance.py": 1.5,
                      "tests/test_cli.py": 0.75},
        "by_criterion_s": {"06": 1.5}}
    calibration = data["calibration"]
    assert calibration["np_add_calls"] == snap.CALIBRATION_CALLS
    assert calibration["seconds"] > 0
