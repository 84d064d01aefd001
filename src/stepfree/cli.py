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
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import NumericalFailure, derive_stream, norm
from .problems import ProblemSpec, default_x0, make_problem
from .restarts import restart_tune, total_budget
from .tuner import (Deterministic, NonAdaptive, Stochastic, ZeroFirstGradient,
                    damping_for_round, grid_step, tune)
from .validation import (CheckLine, binom_upper, boundary_crossing_test,
                         check_theorem_bounds, good_event_union_frequency,
                         has_bug)

CSV_HEADER_COMMENT = "# stepfree-bench csv schema v1"
JSONL_HEADER = {"schema": "stepfree-bench jsonl v1"}
CSV_COLUMNS = ["run_id", "seed", "k_final", "T", "eta_o_exponent",
               "total_queries", "gap", "dist_to_opt", "case", "wall_ms"]


class ConfigError(ValueError):
    pass


def check_settings(cfg: argparse.Namespace):
    """The checks across a command's settings, made before any output file
    is opened."""
    if (cfg.command == "validate-good-event" and cfg.union_grid
            and cfg.eta_eps is None):
        raise ConfigError("--union-grid needs --eta-eps for the grid base")
    if cfg.seed < 0:  # where runs mask it to 64 bits, the others fail
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.command in REP_COMMANDS and cfg.reps < 1:
        raise ConfigError("repetitions must be >= 1")
    if cfg.command in ("tune", "sweep"):
        if (cfg.eta_eps is None) == (cfg.r_eps is None):
            raise ConfigError("exactly one of eta_eps / r_eps is required")
    # checked here, before any output file is opened, where runs read it
    reads_delta = cfg.command == "restart" or (
        cfg.command in ("tune", "sweep") and cfg.mode != "deterministic")
    if reads_delta and not 0.0 < cfg.delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {cfg.delta!r}")
    if cfg.command == "sweep":
        if len(cfg.budgets) < 4:
            raise ConfigError("sweep needs at least 4 budget points")
        if cfg.reps < 20:
            raise ConfigError("sweep needs at least 20 repetitions")


MODES = {"deterministic": lambda delta, L: Deterministic(),
         "stochastic": Stochastic, "nonadaptive": NonAdaptive}


class Outputs(contextlib.ExitStack):
    """A command's output files, the per-run CSV and the JSONL, each opened
    with its schema header at the first write: a command that fails before
    it writes, or cannot open one of them, leaves no file. Use in a
    ``with`` block, which closes them."""

    def __init__(self, cfg: argparse.Namespace):
        super().__init__()
        self.csv_path, self.jsonl_path = getattr(cfg, "csv", None), cfg.jsonl
        self.opened = False
        self.writer = self.jsonl_file = None

    def _open(self):
        self.opened = True
        csv_file = None
        try:
            if self.csv_path:
                csv_file = self.enter_context(
                    open(self.csv_path, "w", newline=""))
            if self.jsonl_path:
                self.jsonl_file = self.enter_context(open(self.jsonl_path, "w"))
        except OSError:
            if csv_file:  # the JSONL failed: leave no CSV either
                csv_file.close()
                os.remove(self.csv_path)
            raise
        if csv_file:
            csv_file.write(CSV_HEADER_COMMENT + "\n")
            self.writer = csv.DictWriter(csv_file, fieldnames=CSV_COLUMNS)
            self.writer.writeheader()
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
# 2^k + 1 step sizes is 2^k + 1 runs per path (513 at k = 9)
MAX_UNION_ROUND_K = 9

# the errors that end a run with a failure row instead of a result, by the
# row's case
FAILED_CASES = {"numerical_failure": NumericalFailure,
                "zero_first_gradient": ZeroFirstGradient}


def _message(exc: Exception) -> str:
    """An error's message after its notes, such as the one restart_tune
    adds to name the round that raised it."""
    return ": ".join([*getattr(exc, "__notes__", ()), str(exc)])


def _tune(cfg, oracle, domain, x0, seed: int, budget: int):
    mode = MODES[cfg.mode](delta=cfg.delta, L=oracle.norm_bound_L)
    result = tune(oracle, domain, x0, budget=budget, eta_eps=cfg.eta_eps,
                  r_eps=cfg.r_eps, mode=mode, master_seed=seed)
    return result.x_bar, [result], check_theorem_bounds(result, oracle), {
        "case": result.case, "budget": budget, "eta_eps": result.eta_eps,
        "eta_o_exponent": result.eta.exponent}


def _restart(cfg, oracle, domain, x0, seed: int, _):
    x, records = restart_tune(oracle, domain, x0, M=cfg.rounds,
                              delta=cfg.delta, epsilon=cfg.epsilon,
                              L=oracle.norm_bound_L, master_seed=seed)
    total = sum(r.total_queries for r in records)
    bound = total_budget(cfg.rounds)  # (M + 1) bits, once the schedule held
    check = CheckLine("restart_total_budget", total, bound,
                      "pass" if total <= bound else "bug")
    f_star = oracle.optimum_info[1]
    return x, records, [check], {
        "rounds": cfg.rounds, "total_queries": total,
        "per_round": [{"m": m + 1, "case": r.case, "queries": r.total_queries,
                       "gap": float(oracle.exact_value(r.x_bar) - f_star)}
                      for m, r in enumerate(records)]}


# the commands that run reps and write a per-run CSV (the others take no
# --csv or --reps), each with its run, which returns (final point, the
# TunerResult of each tuner call, check lines, extra JSONL fields), and its
# stdout line per run, a result's and a failure's, formatted from the run's
# CSV row and JSONL record (sweep prints one per budget instead)
REP_COMMANDS = {
    "tune": (_tune, ("run {run_id}: case={case} gap={gap} "
                     "queries={total_queries}",) * 2),
    "restart": (_restart, ("run {run_id}: gap={gap:.6g} "
                           "queries={total_queries}",
                           "run {run_id}: case={case} ({error})")),
    "sweep": (_tune, None)}


def _reps(cfg: argparse.Namespace, out: Outputs, budgets):
    """The runs of tune, restart and sweep: cfg.reps per budget, run_id
    counting on across budgets. Each run writes its CSV row and JSONL
    record, a failure row where it raised one of FAILED_CASES. Yields, as
    each budget's runs end, (their CSV rows, whether a check read bug)."""
    run, lines = REP_COMMANDS[cfg.command]
    run_id = 0
    for budget in budgets:
        rows, bug = [], False
        for _ in range(cfg.reps):
            seed = derive_stream(cfg.seed, "rep", run_id)
            oracle, domain, x_star, f_star = make_problem(cfg.problem, seed)
            x0 = default_x0(domain, x_star, cfg.x0_dist, seed)
            t0 = time.perf_counter()
            try:
                outcome = run(cfg, oracle, domain, x0, seed, budget)
            except tuple(FAILED_CASES.values()) as exc:
                outcome = exc
            wall = (time.perf_counter() - t0) * 1e3
            if isinstance(outcome, Exception):
                case = next(case for case, kind in FAILED_CASES.items()
                            if isinstance(outcome, kind))
                tuned, gap, dist = ("",) * 4, math.nan, math.nan
                diag = {"run_id": run_id, "case": case,
                        "error": _message(outcome)}
            else:
                x, records, checks, fields = outcome
                last = records[-1]
                case = last.case
                tuned = (last.k_final, last.T, last.eta.exponent,
                         sum(r.total_queries for r in records))
                gap = float(oracle.exact_value(x) - f_star)
                dist = float(norm(x - x_star))
                bug |= has_bug(checks)
                diag = {"run_id": run_id, "seed": seed, "gap": gap,
                        "checks": [asdict(c) for c in checks], **fields}
            row = dict(zip(CSV_COLUMNS, (run_id, seed, *tuned, repr(gap),
                                         repr(dist), case, f"{wall:.3f}")))
            out.row(row, diag)
            if lines:
                print(lines["error" in diag].format_map({**row, **diag}))
            rows.append(row)
            run_id += 1
        yield rows, bug


def cmd_reps(cfg: argparse.Namespace) -> int:
    """tune and restart: cfg.reps runs, at tune's one budget."""
    with Outputs(cfg) as out:
        ((_, bug),) = _reps(cfg, out, [getattr(cfg, "budget", None)])
    return 1 if bug else 0


def cmd_validate_good_event(cfg: argparse.Namespace) -> int:
    if cfg.union_grid and cfg.round_k > MAX_UNION_ROUND_K:
        raise ConfigError(f"--union-grid takes --round-k <= "
                          f"{MAX_UNION_ROUND_K}, got {cfg.round_k}")
    name, step = (("eta_eps", cfg.eta_eps) if cfg.union_grid
                  else ("eta", cfg.eta))
    if not step > 0:  # written so that nan fails too
        raise ValueError(f"{name} must be positive, got {step!r}")
    if cfg.T < 1:  # checked before B = 2kT, which it makes nonpositive
        raise ValueError("T must be >= 1")
    oracle, domain, x_star, _ = make_problem(cfg.problem, cfg.seed)
    x0 = default_x0(domain, x_star, cfg.x0_dist, cfg.seed)
    L = oracle.norm_bound_L
    k = cfg.round_k  # the damping of the round that runs T steps: B = 2kT
    damping = damping_for_round(k, 2 * k * cfg.T, cfg.delta, L,
                                MODES[cfg.mode](delta=cfg.delta, L=L))
    etas = ([grid_step(cfg.eta_eps, j) for j in range(2 ** k + 1)]
            if cfg.union_grid else [cfg.eta])
    freq = good_event_union_frequency(oracle, domain, x0, x_star, etas, cfg.T,
                                      damping, cfg.n_paths, cfg.seed)
    target = 1.0 - cfg.delta
    verdict = "pass" if freq >= target else "inconclusive"
    with Outputs(cfg) as out:
        out.record({"command": "validate-good-event", "frequency": freq,
                    "target": target, "n_paths": cfg.n_paths,
                    "verdict": verdict})
    print(f"good-event frequency {freq:.4f} (target >= {target:.4f}): {verdict}")
    return 0


def cmd_boundary_test(cfg: argparse.Namespace) -> int:
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
    """Least-squares slope of log2(median gap) vs log2(B) with a 95% CI;
    every median gap must be positive, as at an optimum it has no log."""
    if not all(m > 0 for m in medians):
        raise ValueError(f"a log-log slope needs positive median gaps, got "
                         f"{list(medians)!r}")
    from scipy import stats  # loaded on first use
    x = np.log2(np.asarray(budgets, dtype=float))
    y = np.log2(np.asarray(medians, dtype=float))
    fit = stats.linregress(x, y)
    t_crit = stats.t.ppf(0.975, len(x) - 2) if len(x) > 2 else math.inf
    half = t_crit * fit.stderr
    return fit.slope, (fit.slope - half, fit.slope + half)


def cmd_sweep(cfg: argparse.Namespace) -> int:
    bug = False
    medians, failures, zero_grads = [], [], []
    with Outputs(cfg) as out:
        for budget, (rows, budget_bug) in zip(cfg.budgets,
                                              _reps(cfg, out, cfg.budgets)):
            bug |= budget_bug
            cases = [row["case"] for row in rows]
            gaps = [float(row["gap"]) for row in rows
                    if row["case"] not in FAILED_CASES]
            failures.append(cases.count("numerical_failure"))
            zero_grads.append(cases.count("zero_first_gradient"))
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


def int_list(text: str) -> tuple:
    """The ints of a comma-separated list, the type of --budgets."""
    return tuple(int(b) for b in text.split(",") if b.strip())


# the problem settings, a flag per ProblemSpec field, typed and defaulted by
# its default; with no problem flag the problem is the one-dimensional l1
PROBLEM = {"--" + f.name.replace("_", "-"): dict(type=type(default),
                                                 default=default)
           for f in fields(ProblemSpec)
           for default in [{"family": "l1", "dimension": 1}.get(
               f.name, f.default)]}

# the settings that several commands take, by flag: the keywords of their
# add_argument, which declare each one's default, type and choices once
SHARED = {
    "--config": dict(help="INI file with [problem]/[run]/[output] sections"),
    **PROBLEM,
    "--x0-dist": dict(type=float, default=1.0),
    "--seed": dict(type=int, default=0, help="master seed"),
    "--delta": dict(type=float, default=0.1),
    "--reps": dict(type=int, default=1),
    "--csv": dict(help="per-run CSV output path"),
    "--jsonl": dict(help="diagnostics JSONL output path"),
    "--budget": dict(type=int, default=64),
    "--eta-eps": dict(type=float),
    "--r-eps": dict(type=float,
                    help="relative mode: eta_eps = r_eps / (||g0|| B)"),
    "--mode": dict(choices=list(MODES), default="deterministic"),
    "--T": dict(type=int, default=512),
    "--n-paths": dict(type=int, default=1000),
}

# each command: its function, its help and the flags of its own settings,
# each a flag of SHARED or a (flag, keywords) pair that only it takes.
# Every command also takes --config, --seed, --delta and --jsonl; all but
# boundary-test build a problem, and the REP_COMMANDS take --reps and --csv.
COMMANDS = {
    "tune": (cmd_reps, "run the step-size tuner",
             ["--budget", "--eta-eps", "--r-eps", "--mode"]),
    "restart": (cmd_reps, "doubling-budget restart chain", [
        ("--rounds", dict(type=int, default=4, help="number of rounds M")),
        ("--epsilon", dict(type=float, default=1.0))]),
    "validate-good-event": (cmd_validate_good_event,
                            "noise-event frequency check", [
        ("--eta", dict(type=float, default=0.25)), "--eta-eps",
        "--T", "--n-paths", ("--round-k", dict(type=int, default=2)),
        ("--union-grid", dict(
            action="store_true",
            help="check the event jointly over the round's dyadic grid")),
        ("--mode", dict(choices=["stochastic", "nonadaptive"],
                        default="stochastic"))]),
    "boundary-test": (cmd_boundary_test, "stitched-boundary crossing check", [
        ("--kind", dict(choices=["zero", "coin", "bernoulli"],
                        default="coin")),
        "--T", "--n-paths", ("--mean", dict(type=float, default=0.3))]),
    "sweep": (cmd_sweep, "gap-vs-budget rate fit", [
        ("--budgets", dict(type=int_list, default=(),
                           help="comma-separated budget list (>= 4 points)")),
        "--eta-eps", "--r-eps", "--mode"]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepfree-bench",
        description="Parameter-free SGD step-size tuning benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, own) in COMMANDS.items():
        problem = [] if command == "boundary-test" else [*PROBLEM, "--x0-dist"]
        runs = ["--reps", "--csv"] if command in REP_COMMANDS else []
        p = sub.add_parser(command, help=help_text)
        for flag in ["--config", *problem, "--seed", "--delta", *runs,
                     "--jsonl", *own]:
            flag, keywords = ((flag, SHARED[flag]) if isinstance(flag, str)
                              else flag)
            p.add_argument(flag, **keywords)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing leaves it unchanged."""
    return build_parser()


def _settings(command: str, parser=None) -> dict:
    """{dest: action} of the command's settings in ``parser`` (by default
    the shared one): the command's options but --config."""
    (sub,) = (a for a in (parser or _parser())._actions
              if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions
            if a.dest not in ("help", "config")}


def _load_ini(path: str) -> dict:
    ini = configparser.ConfigParser()
    try:
        if not ini.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        return {key: value for section in ini.sections()
                for key, value in ini.items(section)}
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: "
                          f"{str(exc).splitlines()[0]}") from None


@dataclass(frozen=True)
class _IniValue:
    """An INI value in place of a setting's default: not a string, so the
    parser leaves it as it is where no flag overrides it."""
    text: str


def _from_ini(action: argparse.Action, text: str, command: str):
    """An INI value as its flag would give it: converted by the flag's type
    (a switch is on for 1, true or yes), and one of the flag's choices."""
    if action.nargs == 0:  # a switch, --union-grid
        value = text.lower() in ("1", "true", "yes")
    else:
        value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"{action.dest} = {text!r} is not one of "
                          f"{', '.join(action.choices)} for {command}")
    return value


def parse_config(argv=None) -> argparse.Namespace:
    """A command's settings: each from its flag, else from the INI key of
    its name in lower case, else its default; and ``problem``, the
    ProblemSpec of the problem settings, for every command but
    boundary-test. An INI key must name one of the command's settings; its
    value is converted and checked as the flag's would be, unless the flag
    overrides it."""
    args = _parser().parse_args(argv)
    if args.config is not None:
        ini = _load_ini(args.config)
        parser = build_parser()  # one of its own, as its defaults change
        settings = {dest.lower(): action for dest, action
                    in _settings(args.command, parser).items()}
        unknown = sorted(set(ini) - set(settings))
        if unknown:
            raise ConfigError(f"{args.command} takes no setting "
                              f"{', '.join(unknown)}")
        for key, text in ini.items():
            settings[key].default = _IniValue(text)
        args = parser.parse_args(argv)
        for action in settings.values():
            value = getattr(args, action.dest)
            if isinstance(value, _IniValue):
                setattr(args, action.dest,
                        _from_ini(action, value.text, args.command))
    if args.command != "boundary-test":
        args.problem = ProblemSpec(**{f.name: getattr(args, f.name)
                                      for f in fields(ProblemSpec)})
    check_settings(args)
    return args


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
    except ValueError as exc:  # ConfigError among them
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        # the engine reports every non-finite value as a per-run outcome,
        # so numpy's overflow and invalid-value warnings are noise here
        with np.errstate(over="ignore", invalid="ignore"):
            return COMMANDS[cfg.command][0](cfg)
    except Exception as exc:
        # MemoryError: a run record too large to allocate; a restart round's
        # error is reported with the round its note names
        if not isinstance(exc, (ValueError, NumericalFailure, OSError,
                                MemoryError)):
            raise
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
