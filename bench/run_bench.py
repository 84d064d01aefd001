#!/usr/bin/env python3
"""Benchmark of stepfree: three closed-loop workloads, checked outputs.

Run from the root of a checkout:

    python3 bench/run_bench.py --workload tune_mix --seed 0 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics, measured untraced. ``--trace 1``
runs each unit traced and then untraced, and prints the per-layer metrics
and the tracing overhead. Without
``--workload`` every workload runs in turn. The last line of each workload's
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit). See bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("tune_mix", "restart_short", "good_event_mc")
SETUP_SAMPLES = 3
MIN_UNITS = 100        # p90 then has at least 10 samples beyond it
MIN_TRACED_UNITS = 10
MAX_REPORTED_ERRORS = 5

END_TO_END_UNITS = {"setup_s": "s", "queries_per_s": "1/s", "unit_ms_p90": "ms",
                    "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources or reference)."""


def import_stepfree():
    """Import stepfree from this checkout's src/, never from elsewhere."""
    if not (SRC / "stepfree" / "__init__.py").is_file():
        raise BenchError(f"stepfree sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    names = ("core", "problems", "tuner", "restarts", "validation", "cli")
    mods = {n: importlib.import_module(f"stepfree.{n}") for n in names}
    pkg = importlib.import_module("stepfree")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"stepfree imported from {pkg.__file__}, not {SRC}")
    return argparse.Namespace(package=pkg, **mods)


def setup(name: str, seed: int, workdir: str):
    """Import, build the workload's inputs and warm up; returns its time."""
    t0 = perf_counter()
    sf = import_stepfree()
    import workloads
    wl = workloads.WORKLOADS[name](sf, seed, workdir)
    wl.warm_up()
    return sf, wl, perf_counter() - t0


def probe_setup_s(name: str, seed: int, n: int) -> list:
    """Set-up times of n fresh interpreters."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def machine_block(sf) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "stepfree": sf.package.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


class Checker:
    """Checks unit records: the reference on the default seed, else invariants."""

    def __init__(self, wl, seed: int, reference_path: Path):
        import workloads
        self.wl = wl
        self.compare = workloads.compare
        self.ref = None
        if seed == workloads.DEFAULT_SEED:
            if not reference_path.is_file():
                raise BenchError(f"reference {reference_path} not found")
            refs = json.loads(reference_path.read_text())["workloads"]
            self.ref = refs.get(wl.name)
            if self.ref is None or len(self.ref) != wl.cycle:
                raise BenchError(f"reference lacks {wl.cycle} units of {wl.name}")
        self.reported = 0

    def errors(self, i: int, rec: dict) -> list:
        errs = self.wl.invariants(rec)
        if self.ref is not None:
            errs += self.compare(rec, self.ref[i % self.wl.cycle])
        return errs

    def report(self, i: int, msg: str):
        if self.reported < MAX_REPORTED_ERRORS:
            print(f"unit {i} failed: {msg}", file=sys.stderr)
        self.reported += 1


class Tally:
    """Totals over a set of units. Only the latencies grow with the unit
    count, 8 bytes each, so peak RSS does not track the program's speed."""

    def __init__(self, wl):
        self.wl = wl
        self.lat = array("d")
        self.failed = self.queries = self.held = self.bytes = 0
        self.by_member: dict = {}  # tune_mix member -> [seconds, queries]

    def add(self, i: int, dt: float, rec):
        self.lat.append(dt)
        if rec is None:
            self.failed += 1
            return
        self.queries += rec["queries"]
        self.held += rec.get("held", 0)
        self.bytes += rec.get("bytes", 0)
        if self.wl.name == "tune_mix":
            acc = self.by_member.setdefault(self.wl.member_name(i), [0.0, 0])
            acc[0] += dt
            acc[1] += rec["queries"]

    def held_ratio(self) -> float:
        """Share of good-event paths held, over the blocks that passed checks."""
        paths = getattr(self.wl, "paths", 0) * (len(self.lat) - self.failed)
        return self.held / paths if paths else 0.0


def run_unit(wl, checker, i: int, tally: Tally):
    """Run unit i, check its output and add it to the tally."""
    t0 = perf_counter()
    try:
        out = wl.unit(i)
    except Exception as exc:  # a unit that raises is a failed unit
        tally.add(i, perf_counter() - t0, None)
        checker.report(i, "".join(traceback.format_exception_only(exc)).strip())
        return
    dt = perf_counter() - t0
    rec = wl.record(i, out)
    errs = checker.errors(i, rec)
    if errs:
        checker.report(i, "; ".join(errs))
    tally.add(i, dt, None if errs else rec)


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(name, seed, seconds, reference_path, workdir):
    # this process's own set-up is a sample too when it included the import
    fresh = "stepfree" not in sys.modules
    sf, wl, own_s = setup(name, seed, workdir)
    samples = [own_s] if fresh else []
    samples += probe_setup_s(name, seed, SETUP_SAMPLES - len(samples))
    checker = Checker(wl, seed, reference_path)
    tally = Tally(wl)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(tally.lat) < MIN_UNITS:
        run_unit(wl, checker, len(tally.lat), tally)
    metrics = {
        "setup_s": statistics.median(samples),
        "queries_per_s": tally.queries / sum(tally.lat),
        "unit_ms_p90": quantile(tally.lat, 0.90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return sf, wl, [tally], metrics, {k: END_TO_END_UNITS[k] for k in metrics}


def per_layer(name, seed, seconds, reference_path, workdir, spans_out=None):
    from tracer import Tracer
    sf, wl, _ = setup(name, seed, workdir)
    checker = Checker(wl, seed, reference_path)
    # each unit runs traced, then untraced, so slow spells of the machine
    # hit both sides of the overhead ratio alike
    tracer = Tracer()
    traced, plain = Tally(wl), Tally(wl)
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or i < MIN_TRACED_UNITS:
        tracer.install()
        try:
            run_unit(wl, checker, i, traced)
        finally:
            tracer.uninstall()
        run_unit(wl, checker, i, plain)
        i += 1
    m = tracer.layer_metrics()
    if spans_out:
        tracer.write_spans(spans_out)

    import workloads
    for j in range(len(workloads.TuneMix.MIX)):
        member = workloads.TuneMix.member_name(j)
        secs, queries = plain.by_member.get(member, (0.0, 0))
        m[f"tuner.us_per_query.{member}"] = secs / queries * 1e6 if queries else 0.0
    m["validation.good_event.held_ratio"] = traced.held_ratio()
    m["cli.bytes_written"] = traced.bytes
    m["trace.wall_s"] = sum(traced.lat)
    m["trace.self_sum_s"] = tracer.self_sum()
    m["trace.overhead_ratio"] = sum(traced.lat) / sum(plain.lat)
    return sf, wl, [traced, plain], m, {k: layer_unit(k) for k in m}


def layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith("us_per_step") or key.endswith("us_per_call") \
            or ".us_per_query." in key:
        return "us"
    if key.endswith("_ratio"):
        return "ratio"
    if key == "core.sgd_run.record_bytes":
        return "bytes-computed"
    if key == "cli.bytes_written":
        return "bytes"
    return "count"


def run_workload(name, args, workdir):
    runner = per_layer if args.trace else end_to_end
    extra = {"spans_out": args.spans_out} if args.trace else {}
    sf, wl, tallies, metrics, units = runner(
        name, args.seed, args.seconds, Path(args.reference), workdir, **extra)
    attempted = sum(len(t.lat) for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = failed == 0
    if name == "good_event_mc" and tallies[0].held_ratio() < wl.min_held_ratio:
        print(f"good-event held ratio {tallies[0].held_ratio():.4f} < "
              f"{wl.min_held_ratio}", file=sys.stderr)
        correct = False

    print("machine: " + json.dumps(machine_block(sf), sort_keys=True))
    # The median latency is printed, not reported as a metric: on a machine
    # whose speed switches between two levels it jumps between them from
    # run to run, while the mean (queries_per_s) and p90 stay put.
    lat = tallies[0].lat
    p90 = quantile(lat, 0.90)
    print(f"workload {name} seed {args.seed} trace {args.trace}: "
          f"{attempted} units, {sum(dt > p90 for dt in lat)} of {len(lat)} "
          f"{'traced ' if args.trace else ''}beyond p90, "
          f"unit_ms_p50 {statistics.median(lat) * 1e3:.6g}, failed {failed} "
          f"(failed_frac {failed / attempted:.4f})")
    for key, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {key} = {shown} {units[key]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))


def record_reference(names, path: Path, workdir):
    """Record ``cycle`` units of each workload on the default seed."""
    import workloads
    data = json.loads(path.read_text()) if path.is_file() else {}
    data["rtol"], data["atol"] = workloads.RTOL, workloads.ATOL
    data.setdefault("workloads", {})
    for name in names:
        _, wl, _ = setup(name, workloads.DEFAULT_SEED, workdir)
        recs = []
        for i in range(wl.cycle):
            rec = wl.record(i, wl.unit(i))
            errs = wl.invariants(rec)
            if errs:
                raise BenchError(f"{name} unit {i}: {'; '.join(errs)}")
            recs.append({"exact": rec["exact"], "close": rec["close"]})
        data["workloads"][name] = recs
        print(f"recorded {len(recs)} units of {name}")
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all, in turn)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", default=str(REFERENCE),
                   help="reference records checked on the default seed")
    p.add_argument("--spans-out", help="with --trace 1, write spans as JSONL")
    p.add_argument("--record-reference", action="store_true",
                   help="record the reference on the default seed and exit")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    work_root = ROOT / ".bench_work"
    workdir = work_root / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else WORKLOADS
    try:
        if args.setup_probe:
            print(setup(args.workload, args.seed, str(workdir))[2])
            return 0
        if args.record_reference:
            record_reference(names, Path(args.reference), str(workdir))
            return 0
        for name in names:
            run_workload(name, args, str(workdir))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
