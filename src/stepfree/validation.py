"""Executable checks of the guarantees on problems with known optima.

Covers the noise-margin "good event", the time-uniform stitched martingale
boundary, and per-run theorem inequality reports. Checks never throw on a
failed inequality; they report one line per check with a verdict in
{pass, fail, inconclusive, bug}. A "bug" verdict means a proven inequality
was violated; "inconclusive" means only a surrogate of the actual statement
failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import beta as beta_dist

from .core import (ProjectionDomain, SgdTrace, StochasticOracle, sgd_run,
                   trace_distances)
from .tuner import DampingParams, TunerResult, passes


def log2_plus(x: float) -> float:
    """Clipped logarithm max{2, log2(x)}; returns 2 for degenerate inputs."""
    if not np.isfinite(x) or x <= 0:
        return 2.0
    return max(2.0, math.log2(x))


def loglog_plus(x: float) -> float:
    return math.log2(log2_plus(x))


# --------------------------------------------------------------------------
# good event
# --------------------------------------------------------------------------

@dataclass
class GoodEventReport:
    eta: float
    alpha: float
    beta: float
    margins: np.ndarray  # margins[t-1] for t = 1..T
    held: bool
    worst_t: int


def good_event_margin(trace: SgdTrace, oracle: StochasticOracle, x_star,
                      damping: DampingParams) -> GoodEventReport:
    """Prefix margins of the noise event for one fully recorded run.

    margin_t = sum_{i<t} <Delta_i, x_i - x_star>
             + (1/4) max{dbar_t, eta*sqrt(beta)} * sqrt(alpha*G_t + beta),
    with Delta_i the gradient oracle error. The event holds iff every prefix
    margin is nonnegative; in noiseless runs the first term vanishes.
    """
    if not trace.has_full_record:
        raise ValueError("good_event_margin requires a full record")
    if oracle.exact_subgradient is None:
        raise ValueError("good_event_margin requires the exact-gradient side channel")
    x_star = np.asarray(x_star, dtype=float)
    T = trace.T
    xs, gs = trace.xs, trace.gs
    exact = np.stack([oracle.exact_subgradient(xs[i]) for i in range(T)])
    deltas = gs - exact
    inner = np.einsum("ij,ij->i", deltas, xs[:T] - x_star[None, :])
    prefix = np.cumsum(inner)
    dist = np.linalg.norm(xs - x_star[None, :], axis=1)
    dbar = np.maximum.accumulate(dist)          # dbar[t] includes x_t
    g_sq = np.cumsum(np.einsum("ij,ij->i", gs, gs))
    floor = trace.eta * math.sqrt(damping.beta)
    threshold = 0.25 * np.maximum(dbar[1:T + 1], floor) * np.sqrt(
        damping.alpha * g_sq + damping.beta)
    margins = prefix + threshold
    worst = int(np.argmin(margins)) + 1
    return GoodEventReport(eta=trace.eta, alpha=damping.alpha,
                           beta=damping.beta, margins=margins,
                           held=bool(margins.min() >= 0.0), worst_t=worst)


def good_event_frequency(oracle: StochasticOracle, domain: ProjectionDomain,
                         x0, x_star, eta: float, T: int,
                         damping: DampingParams, n_paths: int,
                         master_seed: int = 0) -> float:
    """Fraction of independent realizations on which the event holds."""
    held = 0
    for p in range(n_paths):
        trace = sgd_run(oracle, domain, x0, eta, T,
                        oracle.run_stream(master_seed, "goodevent", p),
                        record_full=True)
        if good_event_margin(trace, oracle, x_star, damping).held:
            held += 1
    return held / n_paths


def good_event_union_frequency(oracle: StochasticOracle,
                               domain: ProjectionDomain, x0, x_star,
                               etas, T: int, damping: DampingParams,
                               n_paths: int, master_seed: int = 0) -> float:
    """Fraction of path indices on which the event holds for every eta."""
    etas = list(etas)
    held = 0
    for p in range(n_paths):
        ok = True
        for j, eta in enumerate(etas):
            trace = sgd_run(oracle, domain, x0, eta, T,
                            oracle.run_stream(master_seed, "goodevent", j, p),
                            record_full=True)
            if not good_event_margin(trace, oracle, x_star, damping).held:
                ok = False
                break
        held += ok
    return held / n_paths


# --------------------------------------------------------------------------
# stitched martingale boundary
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryParams:
    t: int
    delta: float

    @property
    def A_t(self) -> float:
        return math.log2(60.0 * math.log2(6.0 * self.t) / self.delta)


def stitched_boundary(t: int, delta: float, sum_sq: float) -> float:
    """Time-uniform radius 4*sqrt(A_t * V + A_t^2), A_t = log2(60 log2(6t)/delta)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    if sum_sq < 0:
        raise ValueError("sum_sq must be nonnegative")
    a = BoundaryParams(t, delta).A_t
    return 4.0 * math.sqrt(a * sum_sq + a * a)


def boundary_crossing_test(kind: str, T: int, delta: float, n_paths: int,
                           seed: int = 0, mean: float = 0.3,
                           block: int = 500) -> float:
    """Monte Carlo crossing frequency of the stitched boundary.

    kind "zero": all-zero increments; "coin": fair +/-1 increments;
    "bernoulli": {0,1} increments with the given mean, centered in the
    statistic but not in the variance proxy (predictable X_hat = 0).
    Increments are bounded by 1, so the crossing probability is at most delta.
    """
    if kind == "zero":
        return 0.0
    ts = np.arange(1, T + 1, dtype=float)
    a_t = np.log2(60.0 * np.log2(6.0 * ts) / delta)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0B]))
    crossings = 0
    done = 0
    while done < n_paths:
        b = min(block, n_paths - done)
        if kind == "coin":
            x = rng.integers(0, 2, size=(b, T)).astype(float) * 2.0 - 1.0
            s = np.cumsum(x, axis=1)
            v = ts[None, :]
        elif kind == "bernoulli":
            x = (rng.random(size=(b, T)) < mean).astype(float)
            s = np.cumsum(x - mean, axis=1)
            v = np.cumsum(x * x, axis=1)
        else:
            raise ValueError(f"unknown martingale kind {kind!r}")
        bound = 4.0 * np.sqrt(a_t[None, :] * v + a_t[None, :] ** 2)
        crossings += int(np.any(np.abs(s) >= bound, axis=1).sum())
        done += b
    return crossings / n_paths


def binom_upper(successes: int, n: int, conf: float = 0.99) -> float:
    """Exact (Clopper-Pearson) one-sided upper confidence bound on a rate."""
    if successes >= n:
        return 1.0
    return float(beta_dist.ppf(conf, successes + 1, n - successes))


def binom_lower(successes: int, n: int, conf: float = 0.99) -> float:
    if successes <= 0:
        return 0.0
    return float(beta_dist.ppf(1.0 - conf, successes, n - successes + 1))


# --------------------------------------------------------------------------
# localization of certified traces
# --------------------------------------------------------------------------

def localization_check(trace: SgdTrace, x_star, alpha: float = 3.0):
    """Localization of a noiseless trace passing its certificate.

    Returns (applies, ok): applies iff eta <= phi(eta) at (alpha, 0); when it
    applies, ok asserts dbar <= (alpha+1)/(alpha-1) * d0 and
    r_bar <= 2*alpha/(alpha-1) * d0.
    """
    damping = DampingParams(alpha=alpha, beta=0.0)
    applies = passes(trace.eta, trace, damping)
    if not applies:
        return False, True
    d0, d_bar, _ = trace_distances(trace, x_star)
    tol = 1e-12 * max(1.0, d0)
    ok = (d_bar <= (alpha + 1.0) / (alpha - 1.0) * d0 + tol
          and trace.r_bar <= 2.0 * alpha / (alpha - 1.0) * d0 + tol)
    return True, bool(ok)


# --------------------------------------------------------------------------
# theorem-bound report
# --------------------------------------------------------------------------

@dataclass
class CheckLine:
    check_id: str
    realized: float
    bound: float
    verdict: str  # "pass" | "inconclusive" | "bug"

    def format(self) -> str:
        return (f"{self.check_id:<28s} realized={self.realized:<14.6g} "
                f"bound={self.bound:<14.6g} {self.verdict}")


@dataclass
class ProblemMeta:
    x_star: np.ndarray
    f_star: float
    L: Optional[float]
    mode: str  # "deterministic" | "stochastic" | "nonadaptive"
    value_fn: object = None


def _fail(meta: ProblemMeta) -> str:
    # deterministic-mode statements are proven per-run; stochastic ones hold
    # only with high probability, so a violation is not by itself a bug
    return "bug" if meta.mode == "deterministic" else "inconclusive"


def check_theorem_bounds(result: TunerResult, meta: ProblemMeta) -> list:
    """One line per inequality of the main guarantee for a finished run."""
    lines: list[CheckLine] = []
    x_star = np.asarray(meta.x_star, dtype=float)
    d0 = float(np.linalg.norm(result.x0 - x_star))
    gap = float(meta.value_fn(result.x_bar) - meta.f_star) if meta.value_fn else math.nan
    T, B = result.T, result.budget
    tol = 1e-9

    # 1. budget (deterministic accounting, any mode)
    lines.append(CheckLine("budget", result.total_queries, B,
                           "pass" if result.total_queries <= B else "bug"))

    # 2. T lower bound
    if meta.mode == "deterministic":
        denom = 12.0 * loglog_plus(d0 / (result.eta_eps * result.g0_norm)
                                   if result.g0_norm > 0 else math.inf)
        t_bound = max(B / denom, 1.0)
    else:
        if meta.L is None:
            t_bound = 1.0
        else:
            t_bound = max(B / (8.0 * loglog_plus(d0 / (result.eta_eps * meta.L))), 1.0)
    lines.append(CheckLine("T_lower_bound", T, t_bound,
                           "pass" if T + tol >= t_bound else _fail(meta)))

    if result.case == "budget_too_small":
        if meta.L is not None and not math.isnan(gap):
            bound = d0 * meta.L
            lines.append(CheckLine("gap_tiny_budget", gap, bound,
                                   "pass" if gap <= bound * (1 + tol) + tol
                                   else _fail(meta)))
        return lines

    damping = result.damping_final
    alpha = damping.alpha
    k = result.k_final
    e = result.eta.exponent
    tr = result.trace_cache.get((k, e))
    tr_2x = result.trace_cache.get((k, e + 1))

    def denom_of(trace):
        return damping.denominator(trace)

    if result.case == "normal":
        # localization
        loc_bound = (4.0 if meta.mode == "deterministic" else 6.0) * d0
        dist = float(np.linalg.norm(result.x_bar - x_star))
        lines.append(CheckLine("localization", dist, loc_bound,
                               "pass" if dist <= loc_bound * (1 + tol) + tol
                               else _fail(meta)))
        if math.isnan(gap):
            return lines
        if meta.mode == "deterministic":
            const = 2.0 * alpha / (alpha - 1.0)
        else:
            const = (9.0 * alpha - 2.0) / (2.0 * (alpha - 2.0))

        def l_surrogate_line():
            # the theorem's G(eta') is always <= L^2 T, so this one is implied
            l_denom = math.sqrt(alpha * meta.L ** 2 * T + damping.beta)
            l_bound = const * d0 * l_denom / T
            lines.append(CheckLine("gap_vs_L_surrogate", gap, l_bound,
                                   "pass" if gap <= l_bound * (1 + tol) + tol
                                   else _fail(meta)))

        if tr_2x is not None:
            # both endpoint traces of [eta, 2 eta] are cached; their max is a
            # heuristic surrogate for the unidentified eta' in that interval
            surrogate = const * d0 * max(denom_of(tr), denom_of(tr_2x)) / T
            if gap <= surrogate * (1 + tol) + tol:
                lines.append(CheckLine("gap_vs_endpoint_max", gap, surrogate,
                                       "pass"))
            else:
                lines.append(CheckLine("gap_vs_endpoint_max", gap, surrogate,
                                       "inconclusive"))
                if meta.L is not None:
                    l_surrogate_line()
        elif meta.L is not None:
            l_surrogate_line()
    else:  # edge_low_step: the low endpoint fired; either the normal-style
        # bound or the small-step bound must hold
        dist_x0 = float(np.linalg.norm(result.x_bar - result.x0))
        dist_star = float(np.linalg.norm(result.x_bar - x_star))
        den = denom_of(tr)
        edge_dist_ok = dist_x0 <= result.eta_eps * den * (1 + tol) + tol
        lines.append(CheckLine("edge_displacement", dist_x0,
                               result.eta_eps * den,
                               "pass" if edge_dist_ok else _fail(meta)))
        if math.isnan(gap):
            return lines
        if meta.mode == "deterministic":
            normal_ok = (dist_star <= 4.0 * d0 * (1 + tol) + tol
                         and gap <= math.sqrt(27.0) * d0 * math.sqrt(tr.G) / T
                         * (1 + tol) + tol)
            edge_gap_bound = 2.0 * result.eta_eps * tr.G / T
        else:
            normal_ok = (dist_star <= 6.0 * d0 * (1 + tol) + tol
                         and gap <= (9 * alpha - 2) / (2 * (alpha - 2))
                         * d0 * den / T * (1 + tol) + tol)
            edge_gap_bound = 1.25 * (d0 * den + result.eta_eps * den ** 2) / T
        edge_ok = gap <= edge_gap_bound * (1 + tol) + tol
        lines.append(CheckLine("edge_gap_dichotomy", gap, edge_gap_bound,
                               "pass" if (normal_ok or edge_ok) else _fail(meta)))
    return lines


def has_bug(lines) -> bool:
    return any(l.verdict == "bug" for l in lines)


def format_report(lines) -> str:
    return "\n".join(l.format() for l in lines)
