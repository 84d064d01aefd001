"""Parameter-free SGD step-size tuning.

Implements the bisection certificate phi(eta) = r_bar / sqrt(alpha*G + beta),
a root-finding bisection over the integer exponents j of the dyadic grid
eta_eps * 2^j of candidate step sizes, and a doubling outer loop that keeps
the total number of gradient queries within a fixed budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (NumericalFailure, ProjectionDomain, SgdTrace,
                   StochasticOracle, norm, run_step, sgd_run, square)


# --------------------------------------------------------------------------
# modes and damping parameters
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Deterministic:
    """Noiseless regime: damping (3, 0), every bound holds per run."""


@dataclass(frozen=True)
class Stochastic:
    """Bounded-noise regime: bounds hold with probability 1 - delta."""

    delta: float
    L: float

    def __post_init__(self):
        if self.delta is None or not (0.0 < self.delta < 1.0):
            raise ValueError("stochastic modes need delta in (0, 1)")
        if self.L is None or not self.L > 0:  # nan fails too
            raise ValueError("stochastic modes need a gradient norm bound L > 0")


@dataclass(frozen=True)
class NonAdaptive(Stochastic):
    """The stochastic regime measuring gradient mass by L^2 * T, not by G."""


@dataclass(frozen=True)
class DampingParams:
    """The (alpha, beta) pair defining the bisection target.

    ``mode`` selects the denominator: the default uses alpha*G + beta, the
    non-adaptive variant forgoes gradient-norm adaptivity and uses
    alpha * L^2 * T instead, with L from the mode.
    """

    alpha: float
    beta: float
    mode: Deterministic | Stochastic | NonAdaptive = Deterministic()

    def denominator_sq(self, trace: SgdTrace) -> float:
        if isinstance(self.mode, NonAdaptive):
            return self.alpha * square(self.mode.L) * trace.T
        return self.alpha * trace.G + self.beta

    def denominator(self, trace: SgdTrace) -> float:
        return math.sqrt(self.denominator_sq(trace))


# the Deterministic mode's damping, the same in every round
DETERMINISTIC_DAMPING = DampingParams(alpha=3.0, beta=0.0)


def round_constant(k: int, B: int, delta: float) -> float:
    """C_k = 2k + log2(60 * log2(6B)^2 / delta), strictly increasing in k."""
    return 2.0 * k + math.log2(60.0 * math.log2(6.0 * B) ** 2 / delta)


def damping_for_round(k: int, B: int, delta: Optional[float], L: Optional[float],
                      mode) -> DampingParams:
    """Per-round damping constants.

    Deterministic mode ignores all inputs and returns
    ``DETERMINISTIC_DAMPING``, (3, 0). The stochastic
    constants are alpha_k = 32^2 * C_k and beta_k = (32 * C_k * L)^2. The
    non-adaptive variant reuses alpha_k but measures gradient mass by L^2 * T.
    ``delta`` and ``L`` must equal the mode's own, the round k is >= 1 and
    the budget B is >= 1.
    """
    if k < 1:
        raise ValueError(f"round k must be >= 1, got {k}")
    if B < 1:
        raise ValueError(f"budget must be >= 1, got {B}")
    if isinstance(mode, Deterministic):
        return DETERMINISTIC_DAMPING
    if not isinstance(mode, Stochastic):  # NonAdaptive included
        raise ValueError(f"unknown mode {mode!r}")
    if (delta, L) != (mode.delta, mode.L):
        raise ValueError(f"delta and L differ from the mode's: {mode!r}")
    c_k = round_constant(k, B, delta)
    beta = 0.0 if isinstance(mode, NonAdaptive) else square(32.0 * c_k * L)
    return DampingParams(alpha=32.0 ** 2 * c_k, beta=beta, mode=mode)


# --------------------------------------------------------------------------
# candidate step sizes and the certificate
# --------------------------------------------------------------------------

def grid_step(eta_eps: float, j: int) -> float:
    """The step size eta_eps * 2^j of the dyadic grid, +inf past the float
    range: bit for bit ``eta_eps * 2.0 ** j`` wherever 2.0 ** j is a float
    (j < 1024), and total in j."""
    try:
        return math.ldexp(eta_eps, j)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class StepSizeExp:
    """A step size base * 2^exponent on the dyadic grid: the type of
    :attr:`TunerResult.eta`, the selected eta_eps * 2^j."""

    base: float
    exponent: int

    @property
    def value(self) -> float:
        return grid_step(self.base, self.exponent)


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


def passes(trace: SgdTrace, damping: DampingParams) -> bool:
    """The certificate check eta <= phi(eta) of a run at its step size.

    A run whose r_bar and G both overflowed has phi = inf / inf = nan, which
    certifies nothing: such a candidate fails, wherever it is checked.
    """
    return trace.eta <= phi(trace, damping)  # False when phi is nan


# --------------------------------------------------------------------------
# bisection
# --------------------------------------------------------------------------

@dataclass
class BisectionOutcome:
    """Result of one RootFindingBisection call over the exponents 0..2^k.

    ``kind`` is "infeasible" (the upper limit failed its check and should be
    increased), "edge_low_step" (the lower limit failed its check and is
    returned as-is, ``o`` = 0) or "normal", the tuner's names of the case.
    ``evaluations`` maps each exponent run to its trace, in run order. ``lo``
    and ``hi`` are the final interval; for a normal outcome hi = lo + 1 and
    the output exponent ``o`` is one of them.
    """

    kind: str
    evaluations: dict  # exponent -> SgdTrace
    o: Optional[int]  # None for an infeasible outcome
    lo: int
    hi: int


RTOL = 1e-12  # relative tolerance of every checked inequality


def verify_output_property(outcome: BisectionOutcome,
                           damping: DampingParams) -> bool:
    """Per-realization sandwich on a selected step size.

    Checks r_bar(eta_o) / (2 * denom(eta_hi*)) <= eta_o <= r_bar(eta_lo*) /
    denom(eta_o), together with r_bar(eta_o) <= r_bar(eta_lo*) and
    denom(eta_o) <= 2 * denom(eta_hi*). Valid in every mode, noisy or not.
    """
    if outcome.kind != "normal":
        raise ValueError("output property applies to selected outcomes only")
    runs = outcome.evaluations
    tr_o, tr_lo, tr_hi = runs[outcome.o], runs[outcome.lo], runs[outcome.hi]
    eta_o = tr_o.eta
    den_o = damping.denominator(tr_o)
    den_hi = damping.denominator(tr_hi)
    slack = 1.0 + RTOL  # relative, so it guards at every scale
    # lower half of the sandwich, r_bar(eta_o) <= 2 * eta_o * denom(eta_hi*),
    # then the upper half, eta_o * denom(eta_o) <= r_bar(eta_lo*)
    return bool(tr_o.r_bar <= 2.0 * eta_o * den_hi * slack
                and eta_o * den_o <= tr_lo.r_bar * slack
                and tr_o.r_bar <= tr_lo.r_bar * slack
                and den_o <= 2.0 * den_hi * slack)


def root_finding_bisection(oracle: StochasticOracle, domain: ProjectionDomain,
                           x0, eta_eps: float, k: int, T: int,
                           damping: DampingParams,
                           master_seed: Optional[int] = 0) -> BisectionOutcome:
    """Log-scale bisection for a step size with a sign change of phi(eta) - eta.

    Bisects the exponents j of the dyadic grid eta_eps * 2^j over 0..2^k
    (k >= 1), so every midpoint is an integer. Each candidate j is run once,
    at ``grid_step(eta_eps, j)`` (+inf past the float range), on the stream
    ``(master_seed, "trace", k, j)``, without value tracking; the runs go
    in the order 2^k, 0, then the midpoints.
    """
    if k < 1:
        raise ValueError(f"round k must be >= 1, got {k}")
    runs: dict = {}

    def run_passes(j: int) -> bool:
        stream = oracle.run_stream(master_seed, "trace", k, j)
        runs[j] = sgd_run(oracle, domain, x0, grid_step(eta_eps, j), T, stream)
        return passes(runs[j], damping)

    lo, hi = 0, 2 ** k
    if run_passes(hi):
        return BisectionOutcome("infeasible", runs, None, lo, hi)
    if not run_passes(lo):
        return BisectionOutcome("edge_low_step", runs, lo, lo, hi)

    # invariant: lo <= phi(lo) and hi > phi(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if run_passes(mid):
            lo = mid
        else:
            hi = mid

    # selection rule: return eta_hi iff r_bar(hi) <= r_bar(lo) * phi(hi) / hi;
    # where the product of lengths overflows, both r_bar are taken 2^-e
    # times, e the exponent of r_bar(lo): exact, so the comparison is the
    # one an unbounded exponent range would make
    tr_lo, tr_hi = runs[lo], runs[hi]
    r_lo, r_hi, phi_hi = tr_lo.r_bar, tr_hi.r_bar, phi(tr_hi, damping)
    product = r_lo * phi_hi
    if product == math.inf:
        e = math.frexp(r_lo)[1]
        r_lo, r_hi = math.ldexp(r_lo, -e), math.ldexp(r_hi, -e)
        product = r_lo * phi_hi
    choose_hi = r_hi <= product / tr_hi.eta
    outcome = BisectionOutcome("normal", runs, hi if choose_hi else lo, lo, hi)
    if not verify_output_property(outcome, damping):
        raise AssertionError("bisection output property violated")
    return outcome


# --------------------------------------------------------------------------
# outer loop
# --------------------------------------------------------------------------

@dataclass
class TunerResult:
    x_bar: np.ndarray
    eta: StepSizeExp
    T: int
    k_final: int
    total_queries: int
    case: str  # "normal" | "edge_low_step" | "budget_too_small"
    traces: dict  # (k, exponent) -> SgdTrace, every run of every round
    budget: int
    eta_eps: float
    x0: np.ndarray
    g0_norm: float  # from one side query, not charged to the budget
    mode: Deterministic | Stochastic | NonAdaptive
    final_outcome: Optional[BisectionOutcome] = None
    damping_final: Optional[DampingParams] = None


def select_output_z(result: TunerResult):
    """Post-processing rule: fall back to x0 when the edge step size fired
    and the first gradient is already small, as measured by the final
    round's run at eta_eps."""
    trace_at_eps = result.traces.get((result.k_final, 0))
    if (trace_at_eps is not None and result.eta.exponent == 0
            and result.g0_norm <= math.sqrt(trace_at_eps.G) / result.T):
        return result.x0
    return result.x_bar


def first_gradient_norm(oracle: StochasticOracle, x0,
                        master_seed: Optional[int]) -> float:
    """||g0||: one query at x0 on the run stream derive_stream(master_seed,
    "g0") (none if noiseless), a side query not charged to the budget."""
    g0 = np.empty(len(x0))
    run_step(oracle, oracle.run_stream(master_seed, "g0"), 1)(x0, 0, g0)
    g0_norm = math.sqrt(g0.dot(g0))  # what np.linalg.norm computes
    if g0_norm == math.inf:  # the square overflowed, the length maybe not
        return float(norm(g0))
    return g0_norm


class ZeroFirstGradient(ValueError):
    """Relative mode's eta_eps is undefined: the first gradient is zero."""


def relative_eta_eps(r_eps: float, g0_norm: float, B: int) -> float:
    """Initial step size r_eps / (||g0|| B) from a putative lower bound
    r_eps on d0. A zero ||g0|| raises :class:`ZeroFirstGradient`, a
    non-finite one the run's ``NumericalFailure(0, "gradient")``, and a
    quotient that underflows to 0 a ``ValueError``."""
    if g0_norm <= 0:
        raise ZeroFirstGradient("relative eta_eps undefined with a zero "
                                 "first gradient")
    if not g0_norm < math.inf:  # nan too
        raise NumericalFailure(0, "gradient")
    eta_eps = r_eps / (g0_norm * B)
    if not eta_eps > 0:
        raise ValueError(f"r_eps {r_eps!r} gives eta_eps = r_eps / (||g0|| B)"
                         f" = {eta_eps!r} for ||g0|| = {g0_norm!r} and "
                         f"B = {B}, not a positive float")
    return eta_eps


def eta_max_diagnostic(d0: float, g0_norm: float, damping: DampingParams) -> float:
    """Largest step size that can still pass the certificate check.

    Validation-only: above this value eta > phi(eta) is guaranteed, which
    bounds the terminal round of the doubling loop.
    """
    if d0 == 0:
        return 0.0
    a, b = damping.alpha, damping.beta
    denom_sq = a * square(g0_norm) + b
    if isinstance(damping.mode, Deterministic):
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
         master_seed: Optional[int] = 0,
         r_eps: Optional[float] = None) -> TunerResult:
    """Budgeted parameter-free step-size tuning.

    Doubles the bisection's upper limit (2^(2^k) * eta_eps for k = 2, 4,
    8, ...) until the bisection succeeds, running SGD for T_k = floor(B/(2k))
    steps per evaluation, each candidate once; ``traces`` keeps every run
    under (k, exponent). The total number of oracle queries never exceeds
    the budget; the single pre-tuning measurement of ||g0|| is reported
    separately and not charged against it.

    Takes exactly one of ``eta_eps`` and ``r_eps`` (relative mode: eta_eps =
    :func:`relative_eta_eps` of ||g0||, or the error it raises).
    ``master_seed`` keys the run streams and reaches only
    ``oracle.run_stream``; ``master_seed=None`` is allowed only for a
    noiseless oracle, whose runs read no stream (a noisy one raises
    ``ValueError``).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if (eta_eps is None) == (r_eps is None):
        raise ValueError("exactly one of eta_eps / r_eps is required")
    # written "not > 0" so that nan fails too
    for name, value in (("eta_eps", eta_eps), ("r_eps", r_eps)):
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be positive, got {value!r}")
    if not isinstance(mode, (Deterministic, Stochastic)):
        raise ValueError(f"unknown mode {mode!r}")
    delta = getattr(mode, "delta", None)
    L = getattr(mode, "L", None)

    x0 = domain.project(np.asarray(x0, dtype=float))
    g0_norm = first_gradient_norm(oracle, x0, master_seed)
    if r_eps is not None:
        eta_eps = relative_eta_eps(r_eps, g0_norm, budget)

    traces: dict = {}
    total_queries = 0
    k = 2
    while k <= budget / 4:
        T_k = budget // (2 * k)
        damping = damping_for_round(k, budget, delta, L, mode)
        outcome = root_finding_bisection(oracle, domain, x0, eta_eps, k, T_k,
                                         damping, master_seed)
        for j, trace in outcome.evaluations.items():
            traces[(k, j)] = trace
            total_queries += trace.T
        if outcome.kind != "infeasible":
            case = outcome.kind
            x_bar = outcome.evaluations[outcome.o].x_avg.copy()
            eta = StepSizeExp(eta_eps, outcome.o)
            break
        k *= 2
    else:  # no round fits the budget
        case, T_k = "budget_too_small", 1
        x_bar, eta = x0.copy(), StepSizeExp(eta_eps, 0)
        outcome = damping = None
    if total_queries > budget:
        raise AssertionError("query budget exceeded")  # accounting bug
    return TunerResult(
        x_bar=x_bar, eta=eta, T=T_k, k_final=k, total_queries=total_queries,
        case=case, traces=traces, budget=budget, eta_eps=eta_eps, x0=x0,
        g0_norm=g0_norm, mode=mode, final_outcome=outcome,
        damping_final=damping)
