#!/usr/bin/env python3
"""Side-by-side speed of two checkouts of stepfree on one benchmark workload.

    python3 scripts/ab_compare.py OLD_ROOT NEW_ROOT --workload restart_short
    python3 scripts/ab_compare.py OLD_ROOT NEW_ROOT --workload restart_short --setup 10

Both checkouts' ``src/stepfree`` are imported into this one process, and
chunks of units of ``bench/workloads.py`` (read from NEW_ROOT, never
edited) run on each side in turn, alternating which side goes first. Drift
of the machine's speed then hits both sides alike. Prints each side's
queries/s over all its chunks, and the median, quartiles and win count of
the per-chunk ratios new/old; a ratio above 1 means NEW_ROOT is faster.
Units whose outputs differ between the sides are counted and reported: the
``exact`` fields of a unit's record must be equal and its ``close`` fields
(floats such as ``gap``) equal bit for bit. The exit status is 1 when any
unit differs, so a claim that a change moves no output is an exit status.

``--setup N`` compares set-up time instead: N rounds, each running
``bench/run_bench.py --setup-probe`` of OLD_ROOT and of NEW_ROOT in fresh
interpreters, alternating which side goes first. It prints each side's
median and quartiles of ``setup_s`` and the rounds NEW_ROOT was faster in.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MODULES = ("core", "problems", "tuner", "restarts", "validation", "cli")


def import_checkout(root: Path) -> argparse.Namespace:
    """The stepfree modules of root/src, under names freed again for the
    next checkout's import."""
    src = str(root / "src")
    if not (root / "src" / "stepfree" / "__init__.py").is_file():
        raise SystemExit(f"no stepfree sources under {src}")
    sys.path.insert(0, src)
    try:
        mods = {n: importlib.import_module(f"stepfree.{n}") for n in MODULES}
        pkg = importlib.import_module("stepfree")
    finally:
        sys.path.remove(src)
        for name in [m for m in sys.modules
                     if m == "stepfree" or m.startswith("stepfree.")]:
            del sys.modules[name]
    if not Path(pkg.__file__).resolve().is_relative_to(root.resolve()):
        raise SystemExit(f"stepfree imported from {pkg.__file__}, not {src}")
    return argparse.Namespace(package=pkg, **mods)


def load_workloads(root: Path):
    spec = importlib.util.spec_from_file_location(
        "ab_workloads", root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_chunk(wl, first: int, n: int):
    """(seconds, queries, outputs) of units first .. first+n-1; a unit's
    output is its exact fields and the bytes of its close fields."""
    seconds, queries, outputs = 0.0, 0, []
    for i in range(first, first + n):
        t0 = perf_counter()
        out = wl.unit(i)
        seconds += perf_counter() - t0
        rec = wl.record(i, out)
        queries += rec["queries"]
        outputs.append((rec["exact"], {k: struct.pack("<d", v)
                                       for k, v in rec["close"].items()}))
    return seconds, queries, outputs


def quartiles(values):
    if len(values) == 1:
        return values * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def probe_setup_s(root: Path, workload: str, seed: int) -> float:
    """setup_s of one fresh interpreter running root's benchmark probe."""
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "run_bench.py"),
         "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe of {root} failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def compare_setup(args) -> int:
    times = [[], []]  # old, new
    for r in range(args.setup):
        sides = ((0, args.old_root), (1, args.new_root))
        for side, root in sides if r % 2 == 0 else sides[::-1]:
            times[side].append(probe_setup_s(root, args.workload, args.seed))
    print(f"workload {args.workload}, seed {args.seed}: {args.setup} set-up "
          "rounds per side, each in a fresh interpreter")
    for label, values in zip(("old", "new"), times):
        q1, med, q3 = quartiles(values)
        print(f"{label} setup_s: median {med:.4f}, quartiles "
              f"{q1:.4f}-{q3:.4f}")
    wins = sum(new < old for old, new in zip(*times))
    print(f"new won {wins}/{args.setup} rounds")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_root", type=Path)
    p.add_argument("new_root", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--chunks", type=int, default=20)
    p.add_argument("--chunk-units", type=int, default=500)
    p.add_argument("--setup", type=int, metavar="N",
                   help="compare setup_s over N rounds instead")
    args = p.parse_args(argv)
    if args.chunks < 2 or args.chunk_units < 1:
        p.error("need at least 2 chunks of at least 1 unit")
    if args.setup is not None and args.setup < 1:
        p.error("--setup needs at least 1 round")
    for var in THREAD_VARS:  # before numpy is imported
        os.environ.setdefault(var, "1")

    workloads = load_workloads(args.new_root)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; one of "
                f"{', '.join(workloads.WORKLOADS)}")
    if args.setup:
        return compare_setup(args)
    make = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory() as old_dir, \
            tempfile.TemporaryDirectory() as new_dir:
        sides = []
        for root, workdir in ((args.old_root, old_dir),
                              (args.new_root, new_dir)):
            wl = make(import_checkout(root), args.seed, workdir)
            wl.warm_up()
            sides.append(wl)
        totals = [[0.0, 0], [0.0, 0]]  # seconds, queries per side
        ratios, differing = [], 0
        for c in range(args.chunks):
            first = c * args.chunk_units
            order = (0, 1) if c % 2 == 0 else (1, 0)
            rates, outputs = [0.0, 0.0], [None, None]
            for side in order:
                seconds, queries, outputs[side] = run_chunk(
                    sides[side], first, args.chunk_units)
                totals[side][0] += seconds
                totals[side][1] += queries
                rates[side] = queries / seconds
            ratios.append(rates[1] / rates[0])
            differing += sum(a != b for a, b in zip(*outputs))

    print(f"workload {args.workload}, seed {args.seed}: {args.chunks} chunks "
          f"of {args.chunk_units} units per side")
    for label, (seconds, queries) in zip(("old", "new"), totals):
        print(f"{label} queries_per_s = {queries / seconds:.1f}")
    q1, med, q3 = quartiles(ratios)
    wins = sum(r > 1.0 for r in ratios)
    print(f"ratio new/old: median {med:.3f}, quartiles {q1:.3f}-{q3:.3f}, "
          f"new won {wins}/{len(ratios)} chunks")
    print(f"units whose outputs differ: {differing}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
