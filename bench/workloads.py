"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed, runs one unit of work
per call of :meth:`unit` (the only timed part), and turns the unit's output
into a record for checking. A record holds ``exact`` fields (discrete
outputs, compared for equality with the reference) and ``close`` fields
(floats, compared within ``RTOL``). Unit ``i`` uses input ``i % cycle``, so a
reference of ``cycle`` records covers every unit of a run on the default
seed. On any other seed only the invariants are checked.

stepfree is imported by the caller before a workload is built; every call
into it goes through module attributes, so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

DEFAULT_SEED = 0
# Relative tolerance on gap and dist_to_opt against the reference. Every
# bisection decision already shows in the exact fields (k_final, T, eta
# exponent, total_queries); a flipped decision moves the output point by a
# factor-of-two change of step size, far beyond this bound, while a change
# of summation order moves it by a few ulps.
RTOL = 1e-9
ATOL = 1e-15


def _unit_seed(seed: int, i: int, cycle: int) -> int:
    return int(seed) * 1_000_003 + i % cycle


class TuneMix:
    """In-process ``stepfree-bench tune`` calls cycling a fixed mix."""

    name = "tune_mix"
    cycle = 250
    budget = 8192
    eta_eps = 0.001
    # (family, noise, mode, noise_param)
    MIX = (("l1", "none", "deterministic", 0.0),
           ("logistic", "none", "deterministic", 0.0),
           ("l1", "sphere", "stochastic", 1.0),
           ("huber", "signflip", "stochastic", 0.2),
           ("quadratic", "sphere", "stochastic", 1.0))

    def __init__(self, sf, seed: int, workdir: str):
        self.sf = sf
        self.seed = seed
        self.csv_path = os.path.join(workdir, "tune.csv")
        self.jsonl_path = os.path.join(workdir, "tune.jsonl")
        self.argvs = [self._argv(m, self.budget) for m in self.MIX]

    def _argv(self, member, budget):
        family, noise, mode, noise_param = member
        return ["tune", "--family", family, "--noise", noise,
                "--noise-param", repr(noise_param), "--dimension", "5",
                "--mode", mode, "--budget", str(budget),
                "--eta-eps", repr(self.eta_eps), "--reps", "1",
                "--csv", self.csv_path, "--jsonl", self.jsonl_path]

    @staticmethod
    def member_name(i: int) -> str:
        family, noise, _, _ = TuneMix.MIX[i % len(TuneMix.MIX)]
        return f"{family}-{noise}"

    def _call(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return self.sf.cli.main(argv)

    def warm_up(self):
        for i, member in enumerate(self.MIX):
            self._call(self._argv(member, 256) + ["--seed", str(i)])

    def unit(self, i: int):
        seed = _unit_seed(self.seed, i, self.cycle)
        return self._call(self.argvs[i % len(self.MIX)] + ["--seed", str(seed)])

    def record(self, i: int, status) -> dict:
        with open(self.csv_path) as f:
            f.readline()  # schema comment
            (row,) = list(csv.DictReader(f))
        with open(self.jsonl_path) as f:
            (diag,) = [json.loads(line) for line in f.read().splitlines()[1:]]
        return {
            "exact": {"status": status, "case": row["case"],
                      "k_final": row["k_final"], "T": row["T"],
                      "eta_o_exponent": row["eta_o_exponent"],
                      "total_queries": row["total_queries"],
                      "verdicts": [c["verdict"] for c in diag["checks"]]},
            "close": {"gap": float(row["gap"]),
                      "dist_to_opt": float(row["dist_to_opt"])},
            "queries": int(row["total_queries"]),
            "bytes": os.path.getsize(self.csv_path)
            + os.path.getsize(self.jsonl_path),
        }

    def invariants(self, rec) -> list:
        ex = rec["exact"]
        errors = []
        if ex["status"] != 0:
            errors.append(f"exit status {ex['status']}")
        if "bug" in ex["verdicts"]:
            errors.append("a check reported a bug")
        if not 0 < rec["queries"] <= self.budget:
            errors.append(f"total_queries {rec['queries']} outside (0, B]")
        return errors


class RestartShort:
    """Short doubling-restart chains on the strongly convex quadratic."""

    name = "restart_short"
    cycle = 1000
    M = 6
    delta = 0.1
    epsilon = 3.0
    L = 1.0

    def __init__(self, sf, seed: int, workdir: str):
        self.sf = sf
        spec = sf.problems.ProblemSpec(family="sc_quadratic", dimension=3,
                                       mu=1.0, L=self.L)
        self.oracle, self.domain, self.x_star, self.f_star = \
            sf.problems.make_problem(spec, seed)
        self.seeds = [_unit_seed(seed, i, self.cycle) for i in range(self.cycle)]
        self.x0s = [sf.problems.default_x0(self.domain, self.x_star, 1.0, s)
                    for s in self.seeds]

    def _chain(self, x0, M, master_seed):
        return self.sf.restarts.restart_tune(
            self.oracle, self.domain, x0, M=M, delta=self.delta,
            epsilon=self.epsilon, L=self.L, master_seed=master_seed)

    def warm_up(self):
        self._chain(self.x0s[0], 3, 1)

    def unit(self, i: int):
        j = i % self.cycle
        return self._chain(self.x0s[j], self.M, self.seeds[j])

    def record(self, i: int, out) -> dict:
        x_final, rounds = out
        return {
            "exact": {"rounds": [[r.case, r.k_final, r.T, r.eta.exponent,
                                  r.total_queries] for r in rounds]},
            "close": {"gap": float(self.oracle.exact_value(x_final) - self.f_star),
                      "dist_to_opt": float(np.linalg.norm(x_final - self.x_star))},
            "queries": sum(r.total_queries for r in rounds),
        }

    def invariants(self, rec) -> list:
        errors = []
        rounds = rec["exact"]["rounds"]
        if len(rounds) != self.M:
            errors.append(f"{len(rounds)} rounds, expected {self.M}")
        for m, (_, _, _, _, q) in enumerate(rounds, start=1):
            if q > 2 ** m:
                errors.append(f"round {m} used {q} > 2^{m} queries")
        if rec["queries"] > 2 ** (self.M + 1) - 2:
            errors.append(f"chain used {rec['queries']} queries")
        return errors


class GoodEventMC:
    """Criterion-06 shaped Monte Carlo blocks of the union good event."""

    name = "good_event_mc"
    cycle = 400
    paths = 2
    k = 2
    T = 512
    delta = 0.1
    eta_eps = 2.0 ** -8
    min_held_ratio = 0.9

    def __init__(self, sf, seed: int, workdir: str):
        self.sf = sf
        spec = sf.problems.ProblemSpec(family="l1", dimension=5,
                                       noise="sphere", noise_param=1.0)
        self.oracle, self.domain, self.x_star, _ = \
            sf.problems.make_problem(spec, seed)
        self.x0 = sf.problems.default_x0(self.domain, self.x_star, 1.0, seed)
        L = self.oracle.norm_bound_L
        self.damping = sf.tuner.damping_for_round(
            self.k, 2 * self.k * self.T, self.delta, L,
            sf.tuner.Stochastic(delta=self.delta, L=L))
        self.etas = [self.eta_eps * 2.0 ** j for j in range(2 ** self.k + 1)]
        self.seeds = [_unit_seed(seed, i, self.cycle) for i in range(self.cycle)]

    def _block(self, etas, T, n_paths, master_seed):
        return self.sf.validation.good_event_union_frequency(
            self.oracle, self.domain, self.x0, self.x_star, etas, T,
            self.damping, n_paths=n_paths, master_seed=master_seed)

    def warm_up(self):
        self._block(self.etas[:1], 16, 1, 1)

    def unit(self, i: int):
        return self._block(self.etas, self.T, self.paths,
                           self.seeds[i % self.cycle])

    def record(self, i: int, freq) -> dict:
        held = round(freq * self.paths)
        return {
            "exact": {"held": held},
            "close": {},
            # Nominal: a path that fails stops at the first failing step
            # size, so a block with a failing path is over-counted.
            "queries": self.paths * len(self.etas) * self.T,
            "held": held,
            "frac_ok": math.isclose(held, freq * self.paths, abs_tol=1e-9),
        }

    def invariants(self, rec) -> list:
        errors = []
        if not rec["frac_ok"] or not 0 <= rec["held"] <= self.paths:
            errors.append(f"held fraction not a count of {self.paths} paths")
        return errors


WORKLOADS = {w.name: w for w in (TuneMix, RestartShort, GoodEventMC)}


def compare(rec: dict, ref: dict) -> list:
    """Differences between a unit record and its reference record."""
    errors = []
    if rec["exact"] != ref["exact"]:
        errors.append(f"exact fields {rec['exact']} != reference {ref['exact']}")
    for key, want in ref["close"].items():
        got = rec["close"].get(key)
        if got is None or not math.isclose(got, want, rel_tol=RTOL,
                                           abs_tol=ATOL):
            errors.append(f"{key} {got!r} != reference {want!r}")
    return errors
