"""Benchmark CLI: configure problems, run experiments, emit CSV/JSONL results.

Commands: tune, restart, validate-good-event, boundary-test, sweep. Configs
come from flags, optionally seeded from a flat INI file (section.key maps to
the flag of the same name; a key that names none of the command's flags is
a config error). Exit status is 0 iff no proven-inequality check reported a
bug.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import functools
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from .core import NumericalFailure, derive_stream
from .problems import ProblemSpec, default_x0, make_problem
from .restarts import restart_tune, total_budget
from .tuner import (Deterministic, NonAdaptive, Stochastic, ZeroFirstGradient,
                    damping_for_round, tune)
from .validation import (CheckLine, binom_upper, boundary_crossing_test,
                         check_theorem_bounds, good_event_frequency,
                         good_event_union_frequency, has_bug)

CSV_HEADER_COMMENT = "# stepfree-bench csv schema v1"
JSONL_HEADER = {"schema": "stepfree-bench jsonl v1"}
CSV_COLUMNS = ["run_id", "seed", "k_final", "T", "eta_o_exponent",
               "total_queries", "gap", "dist_to_opt", "case", "wall_ms"]
# the commands that write a per-run CSV; the others take no --csv or --reps
CSV_COMMANDS = ("tune", "restart", "sweep")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """A command's settings; each field but the first two is the flag of
    the same name (see :func:`config_from_args`)."""

    command: str
    problem: ProblemSpec
    budget: int = 64
    budgets: tuple = ()
    rounds: int = 4
    delta: float = 0.1
    epsilon: float = 1.0
    eta_eps: Optional[float] = None
    r_eps: Optional[float] = None
    mode: str = "deterministic"  # validate-good-event: "stochastic"
    seed: int = 0  # master seed
    reps: int = 1
    x0_dist: float = 1.0
    eta: float = 0.25
    T: int = 512
    n_paths: int = 1000
    round_k: int = 2
    union_grid: bool = False
    kind: str = "coin"
    mean: float = 0.3
    csv: Optional[str] = None
    jsonl: Optional[str] = None

    def validate(self):
        if self.reps < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.command in ("tune", "sweep"):
            if (self.eta_eps is None) == (self.r_eps is None):
                raise ConfigError("exactly one of eta_eps / r_eps is required")
        # checked here, before any output file is opened, where runs read it
        reads_delta = self.command == "restart" or (
            self.command in ("tune", "sweep") and self.mode != "deterministic")
        if reads_delta and not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta!r}")
        if self.command == "sweep":
            if len(self.budgets) < 4:
                raise ConfigError("sweep needs at least 4 budget points")
            if self.reps < 20:
                raise ConfigError("sweep needs at least 20 repetitions")


MODES = {"deterministic": lambda delta, L: Deterministic(),
         "stochastic": Stochastic, "nonadaptive": NonAdaptive}


def _mode_object(cfg: RunConfig, L: float):
    """The mode ``cfg.mode`` names, for a problem with gradient bound L."""
    if cfg.mode not in MODES:
        raise ConfigError(f"unknown mode {cfg.mode!r}")
    return MODES[cfg.mode](delta=cfg.delta, L=L)


class Outputs(contextlib.ExitStack):
    """A command's output files, the per-run CSV and the JSONL, each opened
    with its schema header at the first write: a command that fails before
    it writes leaves no file. Use in a ``with`` block, which closes them."""

    def __init__(self, cfg: RunConfig):
        super().__init__()
        self.cfg, self.opened = cfg, False
        self.writer = self.jsonl_file = None

    def _open(self):
        self.opened = True
        if self.cfg.csv:
            csv_file = self.enter_context(open(self.cfg.csv, "w", newline=""))
            csv_file.write(CSV_HEADER_COMMENT + "\n")
            self.writer = csv.DictWriter(csv_file, fieldnames=CSV_COLUMNS)
            self.writer.writeheader()
        if self.cfg.jsonl:
            self.jsonl_file = self.enter_context(open(self.cfg.jsonl, "w"))
        self.record(JSONL_HEADER)

    def row(self, row: dict, diag: dict):
        """One run: its CSV row and its JSONL record."""
        self.record(diag)
        if self.writer:
            self.writer.writerow(row)

    def record(self, diag: dict):
        if not self.opened:
            self._open()
        if self.jsonl_file:
            self.jsonl_file.write(json.dumps(diag, sort_keys=True) + "\n")


# the largest --round-k of validate-good-event --union-grid: its grid of
# 2^k + 1 step sizes is 2^k + 1 runs per path (513 at k = 9), and at k = 10
# its top step, eta_eps * 2.0 ** 1024, overflows
MAX_UNION_ROUND_K = 9

# cases of runs that end with a reason instead of a result
FAILED_CASES = ("numerical_failure", "zero_first_gradient")


def _row(run_id: int, seed: int, wall_ms: float, case: str, last=None,
         total_queries="", gap: float = math.nan,
         dist: float = math.nan) -> dict:
    """The CSV row of one run; ``last`` is the TunerResult of its last tuner
    call, None for a run that ended without a result."""
    tuned = ("", "", "") if last is None else (last.k_final, last.T,
                                                last.eta.exponent)
    return dict(zip(CSV_COLUMNS, (run_id, seed, *tuned, total_queries,
                                  repr(gap), repr(dist), case,
                                  f"{wall_ms:.3f}")))


def _failure_row(run_id: int, seed: int, t0: float, reason: str,
                 case: str = "numerical_failure"):
    """(csv row, jsonl record) of a run that ended without a result."""
    wall = (time.perf_counter() - t0) * 1e3
    return (_row(run_id, seed, wall, case),
            {"run_id": run_id, "case": case, "error": reason})


def _tune_once(cfg: RunConfig, run_id: int, budget: int):
    """One tuner repetition; returns (csv row, jsonl record, bug flag)."""
    seed = derive_stream(cfg.seed, "rep", run_id)
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
    checks = check_theorem_bounds(result, oracle)
    row = _row(run_id, seed, wall, result.case, result, result.total_queries,
               gap, dist)
    diag = {"run_id": run_id, "seed": seed, "case": result.case,
            "budget": budget, "eta_eps": result.eta_eps,
            "eta_o_exponent": result.eta.exponent, "gap": gap,
            "checks": [asdict(c) for c in checks]}
    return row, diag, has_bug(checks)


def cmd_tune(cfg: RunConfig) -> int:
    bug = False
    with Outputs(cfg) as out:
        for run_id in range(cfg.reps):
            row, diag, run_bug = _tune_once(cfg, run_id, cfg.budget)
            bug |= run_bug
            out.row(row, diag)
            print(f"run {run_id}: case={row['case']} gap={row['gap']} "
                  f"queries={row['total_queries']}")
    return 1 if bug else 0


def cmd_restart(cfg: RunConfig) -> int:
    bug = False
    with Outputs(cfg) as out:
        for run_id in range(cfg.reps):
            seed = derive_stream(cfg.seed, "rep", run_id)
            oracle, domain, x_star, f_star = make_problem(cfg.problem, seed)
            x0 = default_x0(domain, x_star, cfg.x0_dist, seed)
            bound = total_budget(cfg.rounds)
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
                out.row(row, diag)
                print(f"run {run_id}: case=numerical_failure ({diag['error']})")
                continue
            wall = (time.perf_counter() - t0) * 1e3
            total = sum(r.total_queries for r in records)
            gap = float(oracle.exact_value(x_final) - f_star)
            dist = float(np.linalg.norm(x_final - x_star))
            last = records[-1]
            check = CheckLine("restart_total_budget", total, bound,
                              "pass" if total <= bound else "bug")
            bug |= has_bug([check])
            row = _row(run_id, seed, wall, last.case, last, total, gap, dist)
            diag = {"run_id": run_id, "seed": seed, "rounds": cfg.rounds,
                    "gap": gap, "total_queries": total,
                    "checks": [asdict(check)],
                    "per_round": [{"m": m + 1, "case": r.case,
                                   "queries": r.total_queries,
                                   "gap": float(oracle.exact_value(r.x_bar)
                                                - f_star)}
                                  for m, r in enumerate(records)]}
            out.row(row, diag)
            print(f"run {run_id}: gap={gap:.6g} queries={total}")
    return 1 if bug else 0


def cmd_validate_good_event(cfg: RunConfig) -> int:
    if cfg.union_grid and cfg.round_k > MAX_UNION_ROUND_K:
        raise ConfigError(f"--union-grid takes --round-k <= "
                          f"{MAX_UNION_ROUND_K}, got {cfg.round_k}")
    oracle, domain, x_star, _ = make_problem(cfg.problem, cfg.seed)
    x0 = default_x0(domain, x_star, cfg.x0_dist, cfg.seed)
    L = oracle.norm_bound_L
    damping = damping_for_round(cfg.round_k, cfg.budget, cfg.delta, L,
                                _mode_object(cfg, L))
    if cfg.union_grid:
        etas = [cfg.eta_eps * 2.0 ** j for j in range(2 ** cfg.round_k + 1)]
        freq = good_event_union_frequency(oracle, domain, x0, x_star, etas,
                                          cfg.T, damping, cfg.n_paths,
                                          cfg.seed)
    else:
        freq = good_event_frequency(oracle, domain, x0, x_star, cfg.eta,
                                    cfg.T, damping, cfg.n_paths, cfg.seed)
    target = 1.0 - cfg.delta
    verdict = "pass" if freq >= target else "inconclusive"
    with Outputs(cfg) as out:
        out.record({"command": "validate-good-event", "frequency": freq,
                    "target": target, "n_paths": cfg.n_paths,
                    "verdict": verdict})
    print(f"good-event frequency {freq:.4f} (target >= {target:.4f}): {verdict}")
    return 0


def cmd_boundary_test(cfg: RunConfig) -> int:
    freq = boundary_crossing_test(cfg.kind, cfg.T, cfg.delta, cfg.n_paths,
                                  seed=cfg.seed, mean=cfg.mean)
    upper = binom_upper(round(freq * cfg.n_paths), cfg.n_paths)
    verdict = "pass" if upper <= cfg.delta else "inconclusive"
    with Outputs(cfg) as out:
        out.record({"command": "boundary-test", "kind": cfg.kind,
                    "frequency": freq, "upper_99": upper, "delta": cfg.delta,
                    "verdict": verdict})
    print(f"crossing frequency {freq:.4f} (99% upper {upper:.4f}, "
          f"delta {cfg.delta}): {verdict}")
    return 0


def fit_loglog_slope(budgets, medians):
    """Least-squares slope of log2(median gap) vs log2(B) with a 95% CI."""
    from scipy import stats  # loaded on first use
    x = np.log2(np.asarray(budgets, dtype=float))
    y = np.log2(np.asarray(medians, dtype=float))
    fit = stats.linregress(x, y)
    t_crit = stats.t.ppf(0.975, len(x) - 2) if len(x) > 2 else math.inf
    half = t_crit * fit.stderr
    return fit.slope, (fit.slope - half, fit.slope + half)


def cmd_sweep(cfg: RunConfig) -> int:
    bug = False
    medians, failures, zero_grads = [], [], []
    with Outputs(cfg) as out:
        run_id = 0
        for budget in cfg.budgets:
            gaps = []
            failed = dict.fromkeys(FAILED_CASES, 0)
            for _ in range(cfg.reps):
                row, diag, run_bug = _tune_once(cfg, run_id, budget)
                bug |= run_bug
                out.row(row, diag)
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
        out.record({"command": "sweep", "budgets": list(cfg.budgets),
                    "median_gaps": medians, "numerical_failures": failures,
                    "zero_first_gradients": zero_grads,
                    "slope": slope, "slope_ci": list(ci)})
        print(f"log-log slope {slope:.4f} (95% CI [{ci[0]:.4f}, {ci[1]:.4f}])")
    return 1 if bug else 0


COMMANDS = {
    "tune": cmd_tune,
    "restart": cmd_restart,
    "validate-good-event": cmd_validate_good_event,
    "boundary-test": cmd_boundary_test,
    "sweep": cmd_sweep,
}

# the conversion of a field's text (a flag or an INI value), by the field's
# annotation, which is a string as annotations are not evaluated here
_CONVERT = {
    "int": int, "float": float, "Optional[float]": float,
    "bool": lambda v: v.lower() in ("1", "true", "yes"),
    "tuple": lambda v: tuple(int(b) for b in v.split(",") if b.strip()),
}


def _add_common(p: argparse.ArgumentParser, command: str):
    p.add_argument("--config", help="INI file with [problem]/[run]/[output] sections")
    if command != "boundary-test":  # every other command builds a problem
        for f in fields(ProblemSpec):  # --family ... --reg
            p.add_argument("--" + f.name.replace("_", "-"),
                           type=_CONVERT.get(f.type, str), default=None)
        p.add_argument("--x0-dist", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="master seed")
    p.add_argument("--delta", type=float, default=None)
    if command in CSV_COMMANDS:
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--csv", default=None, help="per-run CSV output path")
    p.add_argument("--jsonl", default=None, help="diagnostics JSONL output path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepfree-bench",
        description="Parameter-free SGD step-size tuning benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune", help="run the step-size tuner")
    _add_common(p, "tune")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--eta-eps", type=float, default=None)
    p.add_argument("--r-eps", type=float, default=None,
                   help="relative mode: eta_eps = r_eps / (||g0|| B)")
    p.add_argument("--mode", choices=list(MODES), default=None)

    p = sub.add_parser("restart", help="doubling-budget restart chain")
    _add_common(p, "restart")
    p.add_argument("--rounds", type=int, default=None, help="number of rounds M")
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("validate-good-event", help="noise-event frequency check")
    _add_common(p, "validate-good-event")
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
    _add_common(p, "boundary-test")
    p.add_argument("--kind", choices=["zero", "coin", "bernoulli"], default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--n-paths", type=int, default=None)
    p.add_argument("--mean", type=float, default=None)

    p = sub.add_parser("sweep", help="gap-vs-budget rate fit")
    _add_common(p, "sweep")
    p.add_argument("--budgets", default=None,
                   help="comma-separated budget list (>= 4 points)")
    p.add_argument("--eta-eps", type=float, default=None)
    p.add_argument("--r-eps", type=float, default=None)
    p.add_argument("--mode", choices=list(MODES), default=None)
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


def _choices(command: str) -> dict:
    """{dest: choices} of the command's settings, the options but --config;
    choices is None where the option declares none."""
    (sub,) = (a for a in _parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.choices for a in sub.choices[command]._actions
            if a.dest not in ("help", "config")}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """Each field of ProblemSpec and RunConfig from its flag, else from the
    INI key of its name in lower case, else from its default. An INI key
    must name one of the command's flags, and its value must be one of the
    choices that flag declares."""
    ini = _load_ini(args.config) if getattr(args, "config", None) else {}
    choices = _choices(args.command)
    unknown = sorted(set(ini) - {dest.lower() for dest in choices})
    if unknown:
        raise ConfigError(f"{args.command} takes no setting "
                          f"{', '.join(unknown)}")
    defaults = {"family": "l1", "dimension": 1}
    if args.command == "validate-good-event":
        defaults["mode"] = "stochastic"

    def merged(cls) -> dict:
        values = {}
        for f in fields(cls):
            if f.name in ("command", "problem"):
                continue
            v = getattr(args, f.name, None)
            if v is None:
                v = ini.get(f.name.lower(), defaults.get(f.name, f.default))
                if v not in (choices.get(f.name) or [v]):
                    raise ConfigError(
                        f"{f.name} = {v!r} is not one of "
                        f"{', '.join(choices[f.name])} for {args.command}")
            # flags arrive converted, except the string of --budgets
            values[f.name] = (_CONVERT.get(f.type, str)(v)
                              if isinstance(v, str) else v)
        return values

    cfg = RunConfig(command=args.command,
                    problem=ProblemSpec(**merged(ProblemSpec)),
                    **merged(RunConfig))
    if cfg.command == "validate-good-event" and cfg.union_grid and cfg.eta_eps is None:
        raise ConfigError("--union-grid needs --eta-eps for the grid base")
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
        # the engine reports every non-finite value as a per-run outcome,
        # so numpy's overflow and invalid-value warnings are noise here
        with np.errstate(over="ignore", invalid="ignore"):
            return COMMANDS[cfg.command](cfg)
    except (ValueError, NumericalFailure, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
