"""Benchmark CLI: configure problems, run experiments, emit CSV/JSONL results.

Commands: tune, restart, validate-good-event, boundary-test, sweep. Configs
come from flags, optionally seeded from a flat INI file (section.key maps to
the flag of the same name). Exit status is 0 iff no proven-inequality check
reported a bug.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import stats

from .core import NumericalFailure, derive_stream
from .problems import ProblemSpec, default_x0, make_problem
from .restarts import RestartPlan, restart_tune
from .tuner import (Deterministic, NonAdaptive, Stochastic, ZeroFirstGradient,
                    damping_for_round, tune)
from .validation import (ProblemMeta, binom_upper, boundary_crossing_test,
                         check_theorem_bounds, good_event_frequency,
                         good_event_union_frequency, has_bug)

CSV_HEADER_COMMENT = "# stepfree-bench csv schema v1"
JSONL_HEADER = {"schema": "stepfree-bench jsonl v1"}
CSV_COLUMNS = ["run_id", "seed", "k_final", "T", "eta_o_exponent",
               "total_queries", "gap", "dist_to_opt", "case", "wall_ms"]


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    problem: ProblemSpec
    budget: int = 64
    budgets: tuple = ()
    rounds: int = 4
    delta: float = 0.1
    epsilon: float = 1.0
    eta_eps: Optional[float] = None
    r_eps: Optional[float] = None
    mode: str = "deterministic"
    master_seed: int = 0
    repetitions: int = 1
    x0_dist: float = 1.0
    eta: float = 0.25
    T: int = 512
    n_paths: int = 1000
    round_k: int = 2
    union_grid: bool = False
    kind: str = "coin"
    mean: float = 0.3
    csv_path: Optional[str] = None
    jsonl_path: Optional[str] = None

    def validate(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.command in ("tune", "sweep"):
            if (self.eta_eps is None) == (self.r_eps is None):
                raise ConfigError("exactly one of eta_eps / r_eps is required")
        if self.command == "sweep":
            if len(self.budgets) < 4:
                raise ConfigError("sweep needs at least 4 budget points")
            if self.repetitions < 20:
                raise ConfigError("sweep needs at least 20 repetitions")


def _mode_object(cfg: RunConfig, L: float):
    if cfg.mode == "deterministic":
        return Deterministic()
    if cfg.mode == "stochastic":
        return Stochastic(delta=cfg.delta, L=L)
    if cfg.mode == "nonadaptive":
        return NonAdaptive(delta=cfg.delta, L=L)
    raise ConfigError(f"unknown mode {cfg.mode!r}")


def _open_writers(cfg: RunConfig):
    csv_file = open(cfg.csv_path, "w", newline="") if cfg.csv_path else None
    writer = None
    if csv_file:
        csv_file.write(CSV_HEADER_COMMENT + "\n")
        writer = csv.DictWriter(csv_file, fieldnames=CSV_COLUMNS)
        writer.writeheader()
    jsonl_file = open(cfg.jsonl_path, "w") if cfg.jsonl_path else None
    if jsonl_file:
        jsonl_file.write(json.dumps(JSONL_HEADER) + "\n")
    return csv_file, writer, jsonl_file


def _emit(writer, jsonl_file, row: dict, diag: dict):
    if writer:
        writer.writerow({k: row.get(k, "") for k in CSV_COLUMNS})
    if jsonl_file:
        jsonl_file.write(json.dumps(diag, sort_keys=True) + "\n")


# cases of runs that end with a reason instead of a result
FAILED_CASES = ("numerical_failure", "zero_first_gradient")


def _failure_row(run_id: int, seed: int, t0: float, reason: str,
                 case: str = "numerical_failure"):
    """(csv row, jsonl record) of a run that ended without a result."""
    wall = (time.perf_counter() - t0) * 1e3
    row = {"run_id": run_id, "seed": seed, "k_final": "", "T": "",
           "eta_o_exponent": "", "total_queries": "", "gap": "nan",
           "dist_to_opt": "nan", "case": case, "wall_ms": f"{wall:.3f}"}
    return row, {"run_id": run_id, "case": case, "error": reason}


def _tune_once(cfg: RunConfig, run_id: int, budget: int):
    """One tuner repetition; returns (csv row, jsonl record, bug flag)."""
    seed = derive_stream(cfg.master_seed, "rep", run_id)
    oracle, domain, x_star, f_star = make_problem(cfg.problem, seed)
    x0 = default_x0(domain, x_star, cfg.x0_dist, seed)
    t0 = time.perf_counter()
    try:
        result = tune(oracle, domain, x0, budget=budget, eta_eps=cfg.eta_eps,
                      r_eps=cfg.r_eps,
                      mode=_mode_object(cfg, oracle.norm_bound_L),
                      master_seed=seed)
    except ZeroFirstGradient as exc:
        return (*_failure_row(run_id, seed, t0, str(exc),
                              "zero_first_gradient"), False)
    except NumericalFailure as exc:
        return (*_failure_row(run_id, seed, t0, str(exc)), False)
    wall = (time.perf_counter() - t0) * 1e3
    gap = float(oracle.exact_value(result.x_bar) - f_star)
    dist = float(np.linalg.norm(result.x_bar - x_star))
    meta = ProblemMeta(x_star=x_star, f_star=f_star, L=oracle.norm_bound_L,
                       mode=cfg.mode, value_fn=oracle.exact_value)
    checks = check_theorem_bounds(result, meta)
    row = {"run_id": run_id, "seed": seed, "k_final": result.k_final,
           "T": result.T, "eta_o_exponent": result.eta.exponent,
           "total_queries": result.total_queries, "gap": repr(gap),
           "dist_to_opt": repr(dist), "case": result.case,
           "wall_ms": f"{wall:.3f}"}
    diag = {"run_id": run_id, "seed": seed, "case": result.case,
            "budget": budget, "eta_eps": result.eta_eps,
            "eta_o_exponent": result.eta.exponent, "gap": gap,
            "checks": [{"check_id": c.check_id, "realized": c.realized,
                        "bound": c.bound, "verdict": c.verdict}
                       for c in checks]}
    return row, diag, has_bug(checks)


def cmd_tune(cfg: RunConfig) -> int:
    csv_file, writer, jsonl_file = _open_writers(cfg)
    bug = False
    try:
        for run_id in range(cfg.repetitions):
            row, diag, run_bug = _tune_once(cfg, run_id, cfg.budget)
            bug |= run_bug
            _emit(writer, jsonl_file, row, diag)
            print(f"run {run_id}: case={row['case']} gap={row['gap']} "
                  f"queries={row['total_queries']}")
    finally:
        for f in (csv_file, jsonl_file):
            if f:
                f.close()
    return 1 if bug else 0


def cmd_restart(cfg: RunConfig) -> int:
    spec = cfg.problem
    csv_file, writer, jsonl_file = _open_writers(cfg)
    bug = False
    try:
        for run_id in range(cfg.repetitions):
            seed = derive_stream(cfg.master_seed, "rep", run_id)
            oracle, domain, x_star, f_star = make_problem(spec, seed)
            x0 = default_x0(domain, x_star, cfg.x0_dist, seed)
            bound = RestartPlan(M=cfg.rounds, epsilon=cfg.epsilon,
                                delta=cfg.delta,
                                L=oracle.norm_bound_L).total_budget
            t0 = time.perf_counter()
            try:
                x_final, records = restart_tune(
                    oracle, domain, x0, M=cfg.rounds, delta=cfg.delta,
                    epsilon=cfg.epsilon, L=oracle.norm_bound_L,
                    master_seed=seed)
            except RuntimeError as exc:
                # restart_tune names the failing round and chains the cause
                if not isinstance(exc.__cause__, NumericalFailure):
                    raise
                row, diag = _failure_row(run_id, seed, t0,
                                         f"{exc}: {exc.__cause__}")
                _emit(writer, jsonl_file, row, diag)
                print(f"run {run_id}: case=numerical_failure ({diag['error']})")
                continue
            wall = (time.perf_counter() - t0) * 1e3
            total = sum(r.total_queries for r in records)
            gap = float(oracle.exact_value(x_final) - f_star)
            dist = float(np.linalg.norm(x_final - x_star))
            last = records[-1]
            budget_ok = total <= bound
            bug |= not budget_ok
            row = {"run_id": run_id, "seed": seed, "k_final": last.k_final,
                   "T": last.T, "eta_o_exponent": last.eta.exponent,
                   "total_queries": total, "gap": repr(gap),
                   "dist_to_opt": repr(dist), "case": last.case,
                   "wall_ms": f"{wall:.3f}"}
            diag = {"run_id": run_id, "seed": seed, "rounds": cfg.rounds,
                    "gap": gap, "total_queries": total,
                    "checks": [{"check_id": "restart_total_budget",
                                "realized": total,
                                "bound": bound,
                                "verdict": "pass" if budget_ok else "bug"}],
                    "per_round": [{"m": m + 1, "case": r.case,
                                   "queries": r.total_queries,
                                   "gap": float(oracle.exact_value(r.x_bar)
                                                - f_star)}
                                  for m, r in enumerate(records)]}
            _emit(writer, jsonl_file, row, diag)
            print(f"run {run_id}: gap={gap:.6g} queries={total}")
    finally:
        for f in (csv_file, jsonl_file):
            if f:
                f.close()
    return 1 if bug else 0


def cmd_validate_good_event(cfg: RunConfig) -> int:
    oracle, domain, x_star, _ = make_problem(cfg.problem, cfg.master_seed)
    x0 = default_x0(domain, x_star, cfg.x0_dist, cfg.master_seed)
    damping = damping_for_round(cfg.round_k, cfg.budget, cfg.delta,
                                oracle.norm_bound_L, cfg.mode)
    if cfg.union_grid:
        etas = [cfg.eta_eps * 2.0 ** j for j in range(2 ** cfg.round_k + 1)]
        freq = good_event_union_frequency(oracle, domain, x0, x_star, etas,
                                          cfg.T, damping, cfg.n_paths,
                                          cfg.master_seed)
    else:
        freq = good_event_frequency(oracle, domain, x0, x_star, cfg.eta,
                                    cfg.T, damping, cfg.n_paths,
                                    cfg.master_seed)
    target = 1.0 - cfg.delta
    verdict = "pass" if freq >= target else "inconclusive"
    summary = {"command": "validate-good-event", "frequency": freq,
               "target": target, "n_paths": cfg.n_paths, "verdict": verdict}
    if cfg.jsonl_path:
        with open(cfg.jsonl_path, "w") as f:
            f.write(json.dumps(JSONL_HEADER) + "\n")
            f.write(json.dumps(summary, sort_keys=True) + "\n")
    print(f"good-event frequency {freq:.4f} (target >= {target:.4f}): {verdict}")
    return 0


def cmd_boundary_test(cfg: RunConfig) -> int:
    freq = boundary_crossing_test(cfg.kind, cfg.T, cfg.delta, cfg.n_paths,
                                  seed=cfg.master_seed, mean=cfg.mean)
    upper = binom_upper(round(freq * cfg.n_paths), cfg.n_paths)
    verdict = "pass" if upper <= cfg.delta else "inconclusive"
    summary = {"command": "boundary-test", "kind": cfg.kind,
               "frequency": freq, "upper_99": upper, "delta": cfg.delta,
               "verdict": verdict}
    if cfg.jsonl_path:
        with open(cfg.jsonl_path, "w") as f:
            f.write(json.dumps(JSONL_HEADER) + "\n")
            f.write(json.dumps(summary, sort_keys=True) + "\n")
    print(f"crossing frequency {freq:.4f} (99% upper {upper:.4f}, "
          f"delta {cfg.delta}): {verdict}")
    return 0


def fit_loglog_slope(budgets, medians):
    """Least-squares slope of log2(median gap) vs log2(B) with a 95% CI."""
    x = np.log2(np.asarray(budgets, dtype=float))
    y = np.log2(np.asarray(medians, dtype=float))
    fit = stats.linregress(x, y)
    t_crit = stats.t.ppf(0.975, len(x) - 2) if len(x) > 2 else math.inf
    half = t_crit * fit.stderr
    return fit.slope, (fit.slope - half, fit.slope + half)


def cmd_sweep(cfg: RunConfig) -> int:
    csv_file, writer, jsonl_file = _open_writers(cfg)
    bug = False
    medians, failures, zero_grads = [], [], []
    try:
        run_id = 0
        for budget in cfg.budgets:
            gaps = []
            failed = dict.fromkeys(FAILED_CASES, 0)
            for _ in range(cfg.repetitions):
                row, diag, run_bug = _tune_once(cfg, run_id, budget)
                bug |= run_bug
                _emit(writer, jsonl_file, row, diag)
                if row["case"] in FAILED_CASES:
                    failed[row["case"]] += 1
                else:
                    gaps.append(float(row["gap"]))
                run_id += 1
            failures.append(failed["numerical_failure"])
            zero_grads.append(failed["zero_first_gradient"])
            if not gaps:
                raise ValueError(f"every run at budget {budget} ended in a "
                                 "numerical failure or a zero first "
                                 "gradient; no median gap to fit")
            med = float(np.median(gaps))
            medians.append(med)
            print(f"B={budget}: median gap {med:.6g} over {len(gaps)} runs "
                  f"({failures[-1]} numerical failures, {zero_grads[-1]} "
                  "zero first gradients)")
        slope, ci = fit_loglog_slope(cfg.budgets, medians)
        summary = {"command": "sweep", "budgets": list(cfg.budgets),
                   "median_gaps": medians, "numerical_failures": failures,
                   "zero_first_gradients": zero_grads,
                   "slope": slope, "slope_ci": list(ci)}
        if jsonl_file:
            jsonl_file.write(json.dumps(summary, sort_keys=True) + "\n")
        print(f"log-log slope {slope:.4f} (95% CI [{ci[0]:.4f}, {ci[1]:.4f}])")
    finally:
        for f in (csv_file, jsonl_file):
            if f:
                f.close()
    return 1 if bug else 0


COMMANDS = {
    "tune": cmd_tune,
    "restart": cmd_restart,
    "validate-good-event": cmd_validate_good_event,
    "boundary-test": cmd_boundary_test,
    "sweep": cmd_sweep,
}

_PROBLEM_KEYS = ("family", "dimension", "noise", "noise_param", "center_scale",
                 "smoothness", "mu", "L", "radius", "n_samples", "reg")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="INI file with [problem]/[run]/[output] sections")
    p.add_argument("--family", default=None)
    p.add_argument("--dimension", type=int, default=None)
    p.add_argument("--noise", default=None)
    p.add_argument("--noise-param", type=float, default=None)
    p.add_argument("--center-scale", type=float, default=None)
    p.add_argument("--smoothness", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--L", type=float, default=None)
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--n-samples", type=int, default=None)
    p.add_argument("--reg", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--x0-dist", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--csv", default=None, help="per-run CSV output path")
    p.add_argument("--jsonl", default=None, help="diagnostics JSONL output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepfree-bench",
        description="Parameter-free SGD step-size tuning benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune", help="run the step-size tuner")
    _add_common(p)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--eta-eps", type=float, default=None)
    p.add_argument("--r-eps", type=float, default=None,
                   help="relative mode: eta_eps = r_eps / (||g0|| B)")
    p.add_argument("--mode", choices=["deterministic", "stochastic",
                                      "nonadaptive"], default=None)

    p = sub.add_parser("restart", help="doubling-budget restart chain")
    _add_common(p)
    p.add_argument("--rounds", type=int, default=None, help="number of rounds M")
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("validate-good-event", help="noise-event frequency check")
    _add_common(p)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--eta-eps", type=float, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--n-paths", type=int, default=None)
    p.add_argument("--round-k", type=int, default=None)
    p.add_argument("--union-grid", action="store_true", default=None,
                   help="check the event jointly over the round's dyadic grid")
    p.add_argument("--mode", choices=["stochastic", "nonadaptive"],
                   default=None)

    p = sub.add_parser("boundary-test", help="stitched-boundary crossing check")
    _add_common(p)
    p.add_argument("--kind", choices=["zero", "coin", "bernoulli"], default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--n-paths", type=int, default=None)
    p.add_argument("--mean", type=float, default=None)

    p = sub.add_parser("sweep", help="gap-vs-budget rate fit")
    _add_common(p)
    p.add_argument("--budgets", default=None,
                   help="comma-separated budget list (>= 4 points)")
    p.add_argument("--eta-eps", type=float, default=None)
    p.add_argument("--r-eps", type=float, default=None)
    p.add_argument("--mode", choices=["deterministic", "stochastic",
                                      "nonadaptive"], default=None)
    return parser


def _load_ini(path: str) -> dict:
    ini = configparser.ConfigParser()
    read = ini.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    flat = {}
    for section in ini.sections():
        for key, value in ini.items(section):
            flat[key] = value
    return flat


def config_from_args(args: argparse.Namespace) -> RunConfig:
    ini = _load_ini(args.config) if getattr(args, "config", None) else {}

    def pick(flag, ini_key, default, conv=lambda v: v):
        v = getattr(args, flag, None)
        if v is not None:
            return v
        if ini_key in ini:
            return conv(ini[ini_key])
        return default

    problem_cfg = {"family": pick("family", "family", "l1")}
    defaults = ProblemSpec(family="l1", dimension=1)
    for key in _PROBLEM_KEYS[1:]:
        fallback = getattr(defaults, key) if key != "dimension" else 1
        conv = (int if key in ("dimension", "n_samples")
                else (str if key == "noise" else float))
        problem_cfg[key] = pick(key, key.lower(), fallback, conv)
    spec = ProblemSpec(**problem_cfg)

    budgets = pick("budgets", "budgets", "")
    if isinstance(budgets, str):
        budgets = tuple(int(b) for b in budgets.split(",") if b.strip())

    cfg = RunConfig(
        command=args.command,
        problem=spec,
        budget=int(pick("budget", "budget", 64, int)),
        budgets=budgets,
        rounds=int(pick("rounds", "rounds", 4, int)),
        delta=float(pick("delta", "delta", 0.1, float)),
        epsilon=float(pick("epsilon", "epsilon", 1.0, float)),
        eta_eps=pick("eta_eps", "eta_eps", None, float),
        r_eps=pick("r_eps", "r_eps", None, float),
        mode=pick("mode", "mode", "deterministic" if args.command != "validate-good-event" else "stochastic"),
        master_seed=int(pick("seed", "seed", 0, int)),
        repetitions=int(pick("reps", "reps", 1, int)),
        x0_dist=float(pick("x0_dist", "x0_dist", 1.0, float)),
        eta=float(pick("eta", "eta", 0.25, float)),
        T=int(pick("T", "t", 512, int)),
        n_paths=int(pick("n_paths", "n_paths", 1000, int)),
        round_k=int(pick("round_k", "round_k", 2, int)),
        union_grid=bool(pick("union_grid", "union_grid", False,
                             lambda v: v.lower() in ("1", "true", "yes"))),
        kind=pick("kind", "kind", "coin"),
        mean=float(pick("mean", "mean", 0.3, float)),
        csv_path=pick("csv", "csv", None),
        jsonl_path=pick("jsonl", "jsonl", None),
    )
    if cfg.command == "validate-good-event" and cfg.union_grid and cfg.eta_eps is None:
        raise ConfigError("--union-grid needs --eta-eps for the grid base")
    if cfg.command == "validate-good-event" and cfg.eta_eps is None:
        cfg.eta_eps = cfg.eta
    cfg.validate()
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[cfg.command](cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
