#!/usr/bin/env python3
"""Snapshot of stepfree's measured speed on this machine, as one JSON file.

    python3 scripts/bench_snapshot.py BENCH_1.json

Run from anywhere; it works on the checkout it sits in. It records
- for each workload of ``BENCHMARK.json`` and each of ``--trace 0`` and
  ``--trace 1``, the ``machine:`` line and the last JSON line of
  ``bench/run_bench.py --workload W --seed 0 --trace T --seconds
  RUN_SECONDS``, each run in its own interpreter;
- one tier-1 pass of pytest, read back from its ``--junitxml`` report: the
  wall time, the outcome counts, the seconds per test file and the
  seconds of each acceptance criterion (``test_criterion_NN``);
- a calibration: the seconds that CALIBRATION_CALLS small ``np.add`` calls
  take in this interpreter, so that a slow machine shows apart from a
  slow program.

A snapshot documents one state. A claim that a change is faster compares
two checkouts side by side with ``scripts/ab_compare.py``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = 15.0  # length of each bench/run_bench.py run
CALIBRATION_CALLS = 200_000
TIER1_ARGS = ["-m", "pytest", "-q", "--continue-on-collection-errors",
              "-p", "no:cacheprovider"]


def benchmark_workloads() -> list:
    """The workload names that BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def bench_run(workload: str, trace: int) -> dict:
    """The machine block and the result line of one run_bench.py run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run_bench.py"), "--workload",
         workload, "--seed", "0", "--trace", str(trace),
         "--seconds", str(RUN_SECONDS)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run_bench.py --workload {workload} --trace {trace}"
                         f" exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    (machine,) = [l for l in lines if l.startswith("machine: ")]
    return {"workload": workload, "trace": trace,
            "machine": json.loads(machine[len("machine: "):]),
            "result": json.loads(lines[-1])}


def run_tier1(junit_xml: Path) -> float:
    """Run the tier-1 suite once, writing its junit report; its wall time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = perf_counter()
    subprocess.run([sys.executable, *TIER1_ARGS, f"--junitxml={junit_xml}"],
                   cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def tier1_summary(junit_xml: Path, wall_s: float) -> dict:
    """Outcome counts and seconds per file and per criterion of a report."""
    suites = ET.parse(junit_xml).getroot().iter("testsuite")
    counts = dict.fromkeys(("tests", "failures", "errors", "skipped"), 0)
    by_file: dict = {}
    by_criterion: dict = {}
    for suite in suites:
        for key in counts:
            counts[key] += int(suite.get(key, 0))
        for case in suite.iter("testcase"):
            seconds = float(case.get("time", 0.0))
            path = "/".join(case.get("classname", "").split(".")[:2]) + ".py"
            by_file[path] = by_file.get(path, 0.0) + seconds
            criterion = re.match(r"test_criterion_(\d+)", case.get("name"))
            if criterion:
                by_criterion[criterion[1]] = seconds
    return {"wall_s": wall_s, **counts,
            "by_file_s": dict(sorted(by_file.items())),
            "by_criterion_s": dict(sorted(by_criterion.items()))}


def calibration_s() -> float:
    """Seconds of CALIBRATION_CALLS np.add calls on 5-vectors."""
    a, b, out = np.ones(5), np.ones(5), np.empty(5)
    t0 = perf_counter()
    for _ in range(CALIBRATION_CALLS):
        np.add(a, b, out=out)
    return perf_counter() - t0


def snapshot() -> dict:
    runs = [bench_run(w, trace) for w in benchmark_workloads()
            for trace in (0, 1)]
    with tempfile.TemporaryDirectory() as tmp:
        junit_xml = Path(tmp) / "tier1.xml"
        tier1 = tier1_summary(junit_xml, run_tier1(junit_xml))
    return {"schema": "stepfree bench snapshot v1",
            "run_seconds": RUN_SECONDS, "bench": runs, "tier1": tier1,
            "calibration": {"np_add_calls": CALIBRATION_CALLS,
                            "seconds": calibration_s()}}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: bench_snapshot.py OUT", file=sys.stderr)
        return 2
    Path(argv[0]).write_text(json.dumps(snapshot(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
