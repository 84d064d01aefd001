"""Parameter-free SGD step-size tuning.

Implements the bisection certificate phi(eta) = r_bar / sqrt(alpha*G + beta),
a log-scale root-finding bisection over a dyadic grid of candidate step
sizes, and a doubling outer loop that keeps the total number of gradient
queries within a fixed budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .core import (ProjectionDomain, SgdTrace, StochasticOracle, run_step,
                   sgd_run)


# --------------------------------------------------------------------------
# damping parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DampingParams:
    """The (alpha, beta) pair defining the bisection target.

    ``mode`` selects the denominator: the default uses alpha*G + beta, the
    non-adaptive variant forgoes gradient-norm adaptivity and uses
    alpha * L^2 * T instead.
    """

    alpha: float
    beta: float
    mode: str = "deterministic"  # "deterministic" | "stochastic" | "nonadaptive"
    L: Optional[float] = None    # required in nonadaptive mode

    def denominator_sq(self, trace: SgdTrace) -> float:
        if self.mode == "nonadaptive":
            return self.alpha * self.L ** 2 * trace.T
        return self.alpha * trace.G + self.beta

    def denominator(self, trace: SgdTrace) -> float:
        return math.sqrt(self.denominator_sq(trace))


def round_constant(k: int, B: int, delta: float) -> float:
    """C_k = 2k + log2(60 * log2(6B)^2 / delta), strictly increasing in k."""
    return 2.0 * k + math.log2(60.0 * math.log2(6.0 * B) ** 2 / delta)


def damping_for_round(k: int, B: int, delta: Optional[float], L: Optional[float],
                      mode) -> DampingParams:
    """Per-round damping constants.

    Deterministic mode ignores all inputs and returns (3, 0). The stochastic
    constants are alpha_k = 32^2 * C_k and beta_k = (32 * C_k * L)^2. The
    non-adaptive variant reuses alpha_k but measures gradient mass by L^2 * T.
    """
    if isinstance(mode, Deterministic) or mode == "deterministic":
        return DampingParams(alpha=3.0, beta=0.0, mode="deterministic")
    if delta is None or not (0.0 < delta < 1.0):
        raise ValueError("stochastic modes need delta in (0, 1)")
    if L is None or L <= 0:
        raise ValueError("stochastic modes need a gradient norm bound L > 0")
    c_k = round_constant(k, B, delta)
    if isinstance(mode, NonAdaptive) or mode == "nonadaptive":
        return DampingParams(alpha=32.0 ** 2 * c_k, beta=0.0,
                             mode="nonadaptive", L=L)
    return DampingParams(alpha=32.0 ** 2 * c_k, beta=(32.0 * c_k * L) ** 2,
                         mode="stochastic", L=L)


# --------------------------------------------------------------------------
# candidate step sizes and the certificate
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSizeExp:
    """A candidate step size base * 2^exponent on the dyadic grid.

    Storing the integer exponent keeps geometric midpoints exact: the
    midpoint of two candidates with an even exponent gap is again a grid
    point, so floating point drift never breaks the grid.
    """

    base: float
    exponent: int

    @property
    def value(self) -> float:
        return self.base * (2.0 ** self.exponent)

    def midpoint(self, other: "StepSizeExp") -> "StepSizeExp":
        if self.base != other.base:
            raise ValueError("midpoint of candidates with different bases")
        gap = other.exponent - self.exponent
        if gap % 2 != 0:
            raise ValueError("geometric midpoint needs an even exponent gap")
        return StepSizeExp(self.base, (self.exponent + other.exponent) // 2)


def phi(trace: SgdTrace, damping: DampingParams) -> float:
    """The bisection target r_bar / sqrt(alpha*G + beta).

    Returns 0 when both numerator and denominator vanish (the d0 = 0
    degenerate case, where the target is identically zero).
    """
    denom_sq = damping.denominator_sq(trace)
    if denom_sq == 0.0:
        if trace.r_bar > 0.0:
            raise AssertionError("r_bar > 0 with zero certificate denominator")
        return 0.0
    return trace.r_bar / math.sqrt(denom_sq)


def passes(eta: float, trace: SgdTrace, damping: DampingParams) -> bool:
    """The certificate check eta <= phi(eta) of a candidate step size.

    A run whose r_bar and G both overflowed has phi = inf / inf = nan, which
    certifies nothing: such a candidate fails, wherever it is checked.
    """
    return eta <= phi(trace, damping)  # False when phi is nan


# --------------------------------------------------------------------------
# bisection
# --------------------------------------------------------------------------

@dataclass
class BisectionOutcome:
    """Result of one RootFindingBisection call.

    ``kind`` is "infeasible" (the upper limit failed its check and should be
    increased), "edge_low" (the lower limit failed its check and is returned
    as-is) or "selected". For a selected outcome the final interval satisfies
    eta_hi_star = 2 * eta_lo_star and eta_o is one of the endpoints.
    """

    kind: str
    evaluations: list = field(default_factory=list)  # (StepSizeExp, SgdTrace)
    fresh_queries: int = 0
    midpoint_evals: int = 0
    eta_o: Optional[StepSizeExp] = None
    eta_lo_star: Optional[StepSizeExp] = None
    eta_hi_star: Optional[StepSizeExp] = None
    branch: Optional[str] = None  # "hi" | "lo"
    trace: Optional[SgdTrace] = None
    trace_lo_star: Optional[SgdTrace] = None
    trace_hi_star: Optional[SgdTrace] = None


def verify_output_property(outcome: BisectionOutcome, damping: DampingParams,
                           rtol: float = 1e-9) -> bool:
    """Per-realization sandwich on a selected step size.

    Checks r_bar(eta_o) / (2 * denom(eta_hi*)) <= eta_o <= r_bar(eta_lo*) /
    denom(eta_o), together with r_bar(eta_o) <= r_bar(eta_lo*) and
    denom(eta_o) <= 2 * denom(eta_hi*). Valid in every mode, noisy or not.
    """
    if outcome.kind != "selected":
        raise ValueError("output property applies to selected outcomes only")
    tr_o = outcome.trace
    tr_lo = outcome.trace_lo_star
    tr_hi = outcome.trace_hi_star
    eta_o = outcome.eta_o.value
    den_o = damping.denominator(tr_o)
    den_hi = damping.denominator(tr_hi)
    tol = rtol * max(1.0, eta_o)
    ok = True
    # lower half of the sandwich: r_bar(eta_o) <= 2 * eta_o * denom(eta_hi*)
    ok &= tr_o.r_bar <= 2.0 * eta_o * den_hi * (1.0 + rtol) + tol
    # upper half: eta_o * denom(eta_o) <= r_bar(eta_lo*)
    ok &= eta_o * den_o <= tr_lo.r_bar * (1.0 + rtol) + tol
    ok &= tr_o.r_bar <= tr_lo.r_bar * (1.0 + rtol) + tol
    ok &= den_o <= 2.0 * den_hi * (1.0 + rtol) + tol
    return bool(ok)


def root_finding_bisection(oracle: StochasticOracle, domain: ProjectionDomain,
                           x0, eta_lo: StepSizeExp, eta_hi: StepSizeExp,
                           T: int, damping: DampingParams,
                           cache: Optional[dict] = None,
                           round_k: Optional[int] = None,
                           master_seed: int = 0,
                           record_full: bool = False,
                           debug: bool = True) -> BisectionOutcome:
    """Log-scale bisection for a step size with a sign change of phi(eta) - eta.

    The exponent gap of the input interval must be a power of two >= 2, so
    every geometric midpoint stays on the dyadic grid. Each candidate is
    evaluated at most once; traces are cached under (round_k, exponent) and
    reused at zero query cost. Runs do not track values; when the oracle has
    ``exact_value``, each trace's value statistics are replayed on first
    access.
    """
    if eta_lo.base != eta_hi.base:
        raise ValueError("interval endpoints must share a base step size")
    gap = eta_hi.exponent - eta_lo.exponent
    if gap < 2 or (gap & (gap - 1)) != 0:
        raise ValueError("eta_hi / eta_lo must equal 2^(2^k) with k >= 1")
    if cache is None:
        cache = {}

    outcome = BisectionOutcome(kind="selected")

    def evaluate(candidate: StepSizeExp) -> SgdTrace:
        key = (round_k, candidate.exponent)
        trace = cache.get(key)
        if trace is None:
            stream = oracle.run_stream(master_seed, "trace", round_k or 0,
                                       candidate.exponent)
            trace = sgd_run(oracle, domain, x0, candidate.value, T, stream,
                            record_full=record_full)
            if oracle.exact_value is not None:
                trace.replay = partial(sgd_run, oracle, domain, x0,
                                       candidate.value, T, stream,
                                       value_fn=oracle.exact_value)
            cache[key] = trace
            outcome.fresh_queries += trace.query_count
        outcome.evaluations.append((candidate, trace))
        return trace

    hi, lo = eta_hi, eta_lo
    tr_hi = evaluate(hi)
    if passes(hi.value, tr_hi, damping):
        outcome.kind = "infeasible"
        return outcome

    tr_lo = evaluate(lo)
    if not passes(lo.value, tr_lo, damping):
        outcome.kind = "edge_low"
        outcome.eta_o = lo
        outcome.trace = tr_lo
        return outcome

    # invariant: lo <= phi(lo) and hi > phi(hi)
    while hi.exponent - lo.exponent > 1:
        mid = lo.midpoint(hi)
        tr_mid = evaluate(mid)
        outcome.midpoint_evals += 1
        if passes(mid.value, tr_mid, damping):
            lo, tr_lo = mid, tr_mid
        else:
            hi, tr_hi = mid, tr_mid

    # selection rule: return eta_hi iff r_bar(hi) <= r_bar(lo) * phi(hi) / hi
    if tr_hi.r_bar <= tr_lo.r_bar * phi(tr_hi, damping) / hi.value:
        outcome.eta_o, outcome.trace, outcome.branch = hi, tr_hi, "hi"
    else:
        outcome.eta_o, outcome.trace, outcome.branch = lo, tr_lo, "lo"
    outcome.eta_lo_star, outcome.eta_hi_star = lo, hi
    outcome.trace_lo_star, outcome.trace_hi_star = tr_lo, tr_hi
    if debug and not verify_output_property(outcome, damping):
        raise AssertionError("bisection output property violated")
    return outcome


# --------------------------------------------------------------------------
# outer loop
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Deterministic:
    pass


@dataclass(frozen=True)
class Stochastic:
    delta: float
    L: float


@dataclass(frozen=True)
class NonAdaptive:
    delta: float
    L: float


@dataclass
class TunerResult:
    x_bar: np.ndarray
    eta: StepSizeExp
    T: int
    k_final: int
    total_queries: int
    case: str  # "normal" | "edge_low_step" | "budget_too_small"
    z: np.ndarray
    trace_cache: dict
    budget: int
    eta_eps: float
    x0: np.ndarray
    g0_norm: float
    side_queries: int
    mode: object
    master_seed: int
    final_outcome: Optional[BisectionOutcome] = None
    damping_final: Optional[DampingParams] = None

    @property
    def best_observed(self) -> Optional[tuple]:
        """(point, value) with the lowest exact value over every cached run,
        or None without ``oracle.exact_value`` or when the budget was too
        small. Replays each cached run that has not computed its values."""
        if self.case == "budget_too_small":
            return None
        best = min((tr for tr in self.trace_cache.values()
                    if tr.best_f is not None),
                   key=lambda tr: tr.best_f, default=None)
        return None if best is None else (best.best_x, best.best_f)

    @property
    def eta_prime_interval(self) -> tuple:
        return (self.eta.value, 2.0 * self.eta.value)


def select_output_z(result: TunerResult, trace_at_eps: Optional[SgdTrace]):
    """Post-processing rule: fall back to x0 when the edge step size fired
    and the first gradient is already small."""
    if (trace_at_eps is not None and result.eta.exponent == 0
            and result.g0_norm <= math.sqrt(trace_at_eps.G) / result.T):
        return result.x0
    return result.x_bar


def first_gradient_norm(oracle: StochasticOracle, x0, master_seed: int) -> float:
    """||g0||: one query at x0 on the run stream derive_stream(master_seed,
    "g0") (none if noiseless), a side query not charged to the budget."""
    g0 = np.empty(len(x0))
    run_step(oracle, oracle.run_stream(master_seed, "g0"), 1)(x0, 0, g0)
    return math.sqrt(g0.dot(g0))  # what np.linalg.norm computes


class ZeroFirstGradient(ValueError):
    """Relative mode's eta_eps is undefined: the first gradient is zero."""


def relative_eta_eps(r_eps: float, g0_norm: float, B: int) -> float:
    """Initial step size from a putative lower bound r_eps on d0."""
    if g0_norm <= 0:
        raise ZeroFirstGradient("relative eta_eps undefined with a zero "
                                 "first gradient")
    return r_eps / (g0_norm * B)


def eta_max_diagnostic(d0: float, g0_norm: float, damping: DampingParams) -> float:
    """Largest step size that can still pass the certificate check.

    Validation-only: above this value eta > phi(eta) is guaranteed, which
    bounds the terminal round of the doubling loop.
    """
    if d0 == 0:
        return 0.0
    a, b = damping.alpha, damping.beta
    denom_sq = a * g0_norm ** 2 + b
    if damping.mode == "deterministic":
        if a <= 1:
            raise ValueError("deterministic form needs alpha > 1")
        factor = 2.0 * a / (a - 1.0)
    else:
        if a <= 2:
            raise ValueError("stochastic form needs alpha > 2")
        factor = 4.0 * a / (a - 2.0)
    if denom_sq == 0:
        return math.inf
    return factor * d0 / math.sqrt(denom_sq)


def tune(oracle: StochasticOracle, domain: ProjectionDomain, x0, budget: int,
         eta_eps: Optional[float] = None, mode=Deterministic(),
         master_seed: int = 0, record_full: bool = False, debug: bool = True,
         r_eps: Optional[float] = None) -> TunerResult:
    """Budgeted parameter-free step-size tuning.

    Doubles the bisection's upper limit (2^(2^k) * eta_eps for k = 2, 4,
    8, ...) until the bisection succeeds, running SGD for T_k = floor(B/(2k))
    steps per evaluation. The total number of oracle queries never exceeds
    the budget; the single pre-tuning measurement of ||g0|| is reported
    separately and not charged against it.

    Takes exactly one of ``eta_eps`` and ``r_eps`` (relative mode: eta_eps =
    :func:`relative_eta_eps` of ||g0||, or :class:`ZeroFirstGradient`).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if (eta_eps is None) == (r_eps is None):
        raise ValueError("exactly one of eta_eps / r_eps is required")
    if eta_eps is not None and eta_eps <= 0:
        raise ValueError("eta_eps must be positive")
    if not isinstance(mode, (Deterministic, Stochastic, NonAdaptive)):
        raise ValueError(f"unknown mode {mode!r}")
    delta = getattr(mode, "delta", None)
    L = getattr(mode, "L", None)
    if isinstance(mode, (Stochastic, NonAdaptive)):
        # fail fast on invalid combinations
        damping_for_round(2, budget, delta, L, mode)

    x0 = domain.project(np.asarray(x0, dtype=float))
    g0_norm = first_gradient_norm(oracle, x0, master_seed)
    side_queries = 1
    if r_eps is not None:
        eta_eps = relative_eta_eps(r_eps, g0_norm, budget)

    cache: dict = {}
    total_queries = 0
    k = 2
    while True:
        if k > budget / 4:
            result = TunerResult(
                x_bar=x0.copy(), eta=StepSizeExp(eta_eps, 0), T=1, k_final=k,
                total_queries=total_queries, case="budget_too_small",
                z=x0.copy(), trace_cache=cache, budget=budget,
                eta_eps=eta_eps, x0=x0, g0_norm=g0_norm,
                side_queries=side_queries, mode=mode, master_seed=master_seed)
            return result
        T_k = budget // (2 * k)
        damping = damping_for_round(k, budget, delta, L, mode)
        outcome = root_finding_bisection(
            oracle, domain, x0,
            eta_lo=StepSizeExp(eta_eps, 0), eta_hi=StepSizeExp(eta_eps, 2 ** k),
            T=T_k, damping=damping, cache=cache, round_k=k,
            master_seed=master_seed, record_full=record_full, debug=debug)
        total_queries += outcome.fresh_queries
        if outcome.kind == "infeasible":
            k *= 2
            continue

        case = "normal" if outcome.kind == "selected" else "edge_low_step"
        result = TunerResult(
            x_bar=outcome.trace.x_avg.copy(), eta=outcome.eta_o, T=T_k,
            k_final=k, total_queries=total_queries, case=case,
            z=outcome.trace.x_avg.copy(), trace_cache=cache, budget=budget,
            eta_eps=eta_eps, x0=x0, g0_norm=g0_norm,
            side_queries=side_queries, mode=mode, master_seed=master_seed,
            final_outcome=outcome, damping_final=damping)
        result.z = select_output_z(result, cache.get((k, 0)))
        if total_queries > budget:
            raise AssertionError("query budget exceeded")  # accounting bug
        return result
