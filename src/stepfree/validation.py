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
import sys
from dataclasses import dataclass

import numpy as np

from .core import (ProjectionDomain, SgdTrace, StochasticOracle, norm,
                   row_squares, sgd_run, square)
from .tuner import (DETERMINISTIC_DAMPING, RTOL, DampingParams,
                    Deterministic, TunerResult, passes)


def log2_plus(x: float) -> float:
    """Clipped logarithm max{2, log2(x)}; returns 2 for degenerate inputs."""
    if not np.isfinite(x) or x <= 0:
        return 2.0
    return max(2.0, math.log2(x))


def loglog_plus(x: float, *den: float) -> float:
    """log2(log2_plus(x / (den[0] * den[1] * ...))). Where that quotient or
    its denominator leaves the float range while x and every den are
    positive and finite, log2 of the quotient is taken term by term."""
    d = math.prod(den)
    q = x / d if d else math.inf
    if not 0 < q < math.inf and all(0 < v < math.inf for v in (x, *den)):
        return math.log2(max(2.0, math.log2(x) - sum(map(math.log2, den))))
    return math.log2(log2_plus(q))


# --------------------------------------------------------------------------
# good event
# --------------------------------------------------------------------------

@dataclass
class GoodEventReport:
    margins: np.ndarray  # margins[t-1] for t = 1..T
    held: bool


def good_event_margin(trace: SgdTrace, oracle: StochasticOracle, x_star,
                      damping: DampingParams) -> GoodEventReport:
    """Prefix margins of the noise event along one run's record.

    margin_t = sum_{i<t} <Delta_i, x_i - x_star>
             + (1/4) max{dbar_t, eta*sqrt(beta)} * sqrt(alpha*G_t + beta),
    with Delta_i the gradient oracle error. The event holds iff every prefix
    margin is finite and nonnegative: a margin that overflowed to +inf
    shows nothing; in noiseless runs the first term vanishes.
    """
    if oracle.exact_subgradient is None:
        raise ValueError("good_event_margin requires the exact-gradient side channel")
    x_star = np.asarray(x_star, dtype=float)
    T = trace.T
    xs, gs = trace.xs, trace.gs
    deltas = gs - oracle.exact_subgradient(xs[:T])
    inner = np.einsum("ij,ij->i", deltas, xs[:T] - x_star[None, :])
    prefix = np.cumsum(inner)
    # dbar[t] includes x_t
    dbar = np.maximum.accumulate(norm(xs - x_star, axis=1))
    g_sq = np.cumsum(row_squares(gs))
    floor = trace.eta * math.sqrt(damping.beta)
    threshold = 0.25 * np.maximum(dbar[1:T + 1], floor) * np.sqrt(
        damping.alpha * g_sq + damping.beta)
    margins = prefix + threshold
    held = bool(np.isfinite(margins).all() and margins.min() >= 0.0)
    return GoodEventReport(margins=margins, held=held)


def good_event_union_frequency(oracle: StochasticOracle,
                               domain: ProjectionDomain, x0, x_star,
                               etas, T: int, damping: DampingParams,
                               n_paths: int, master_seed: int = 0) -> float:
    """Fraction of path indices on which the event holds for every eta;
    one eta gives the event at that step size. Path p of step size j runs
    on the stream ``(master_seed, "goodevent", j, p)``."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    etas = list(etas)
    if not etas:
        raise ValueError("etas must name at least one step size")
    held = 0
    for p in range(n_paths):
        ok = True
        for j, eta in enumerate(etas):
            trace = sgd_run(oracle, domain, x0, eta, T,
                            oracle.run_stream(master_seed, "goodevent", j, p))
            if not good_event_margin(trace, oracle, x_star, damping).held:
                ok = False
                break
        held += ok
    return held / n_paths


# --------------------------------------------------------------------------
# stitched martingale boundary
# --------------------------------------------------------------------------

def boundary_a_t(t, delta: float):
    """A_t = log2(60 log2(6t) / delta), the log term of the boundary, of
    each entry of ``t``."""
    return np.log2(60.0 * np.log2(6.0 * t) / delta)


def stitched_boundary(t, delta: float, sum_sq):
    """Time-uniform radius 4*sqrt(A_t * V + A_t^2), A_t from
    :func:`boundary_a_t`, of each entry of ``t`` and of ``sum_sq`` = V
    (numpy broadcasting)."""
    if np.any(np.less(t, 1)):
        raise ValueError("t must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    if np.any(np.less(sum_sq, 0)):
        raise ValueError("sum_sq must be nonnegative")
    a = boundary_a_t(t, delta)
    return 4.0 * np.sqrt(a * sum_sq + a * a)


BOUNDARY_BLOCK = 500  # paths drawn per batch of the crossing test


def boundary_crossing_test(kind: str, T: int, delta: float, n_paths: int,
                           seed: int = 0, mean: float = 0.3) -> float:
    """Monte Carlo crossing frequency of the stitched boundary.

    kind "zero": all-zero increments; "coin": fair +/-1 increments;
    "bernoulli": {0,1} increments with the given mean, centered in the
    statistic but not in the variance proxy (predictable X_hat = 0).
    Increments are bounded by 1, so the crossing probability is at most delta.
    Needs delta in (0, 1) and mean in [0, 1].
    """
    if n_paths < 1 or T < 1:
        raise ValueError(f"n_paths and T must be >= 1, got {n_paths}, {T}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta!r}")
    if not 0.0 <= mean <= 1.0:
        raise ValueError(f"mean must be in [0, 1], got {mean!r}")
    if kind == "zero":
        return 0.0
    ts = np.arange(1, T + 1, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0B]))
    crossings = 0
    done = 0
    while done < n_paths:
        b = min(BOUNDARY_BLOCK, n_paths - done)
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
        bound = stitched_boundary(ts[None, :], delta, v)
        crossings += int(np.any(np.abs(s) >= bound, axis=1).sum())
        done += b
    return crossings / n_paths


def binom_upper(successes: int, n: int, conf: float = 0.99) -> float:
    """Exact (Clopper-Pearson) one-sided upper confidence bound on a rate."""
    if successes >= n:
        return 1.0
    from scipy.stats import beta as beta_dist  # loaded on first use
    return float(beta_dist.ppf(conf, successes + 1, n - successes))


# --------------------------------------------------------------------------
# localization of certified traces
# --------------------------------------------------------------------------

def localization_check(trace: SgdTrace, x_star):
    """Localization of a noiseless trace passing its certificate.

    Returns (applies, ok): applies iff eta <= phi(eta) at the deterministic
    damping (alpha, 0); when it applies, ok asserts
    dbar <= (alpha+1)/(alpha-1) * d0 and r_bar <= 2*alpha/(alpha-1) * d0.
    """
    alpha = DETERMINISTIC_DAMPING.alpha
    applies = passes(trace, DETERMINISTIC_DAMPING)
    if not applies:
        return False, True
    dists = norm(trace.xs - x_star, axis=1)
    d0, d_bar = float(dists[0]), float(dists.max())
    slack = 1.0 + RTOL  # relative, so it guards at every scale
    ok = (d_bar <= (alpha + 1.0) / (alpha - 1.0) * d0 * slack
          and trace.r_bar <= 2.0 * alpha / (alpha - 1.0) * d0 * slack)
    return True, bool(ok)


# --------------------------------------------------------------------------
# theorem-bound report
# --------------------------------------------------------------------------

def rounding_absorbed(trace: SgdTrace) -> bool:
    """Whether rounding absorbed every step of a run: each x_i - eta g_i
    rounded back to x_i, with some g_i nonzero. Such a run stands still in
    floating point alone; the bounds, proven for exact steps, do not cover
    it. A run projected back onto where it stood is not absorbed."""
    xs = trace.xs[:trace.T]
    return bool(trace.gs.any()
                and np.array_equal(xs - trace.eta * trace.gs, xs))


@dataclass
class CheckLine:
    check_id: str
    realized: float
    bound: float
    verdict: str  # "pass" | "inconclusive" | "bug"


def _all(*oks):
    """Kleene AND over True, False and None (unknown)."""
    return False if False in oks else None if None in oks else True


def _any(*oks):
    """Kleene OR over True, False and None (unknown)."""
    return True if True in oks else None if None in oks else False


def check_theorem_bounds(result: TunerResult,
                         oracle: StochasticOracle) -> list:
    """One line per inequality of the main guarantee for a finished run.

    The optimum comes from ``oracle.optimum_info``, L from
    ``oracle.norm_bound_L`` and the gaps from ``oracle.exact_value``, all
    three required, and the mode from ``result.mode``. Each inequality holds
    up to the relative ``RTOL`` plus the rounding of its operands: x_err of
    a distance from x_bar, f_err of a gap. A check whose deciding limit is
    +inf or nan certifies nothing and reads "inconclusive", never "pass"
    or "bug", as does a failed check of a final run the bounds do not cover:
    one whose every step rounding absorbed (:func:`rounding_absorbed`), or
    whose G underflowed to 0 over a nonzero gradient.
    """
    missing = [name for name in ("optimum_info", "exact_value",
                                 "norm_bound_L")
               if getattr(oracle, name) is None]
    if missing:
        raise ValueError("check_theorem_bounds needs oracle."
                         + ", oracle.".join(missing))
    lines: list[CheckLine] = []
    x_star = np.asarray(oracle.optimum_info[0], dtype=float)
    f_star, L = oracle.optimum_info[1], oracle.norm_bound_L
    deterministic = isinstance(result.mode, Deterministic)
    # deterministic-mode statements are proven per-run; stochastic ones hold
    # only with high probability, so a violation is not by itself a bug
    fail = "bug" if deterministic else "inconclusive"
    d0 = float(norm(result.x0 - x_star))
    f_bar = float(oracle.exact_value(result.x_bar))
    gap = f_bar - f_star
    T, B = result.T, result.budget
    f_err = RTOL * max(abs(f_bar), abs(f_star))  # the values' own rounding

    def within(realized, bound, err):
        """Whether realized <= bound, up to RTOL and the rounding err of its
        operands; None (unknown) where that limit is +inf or nan."""
        limit = bound * (1 + RTOL) + err
        return bool(realized <= limit) if limit < math.inf else None

    def check(check_id, realized, bound, ok, failed=None) -> bool:
        verdict = ("pass" if ok else "inconclusive" if ok is None
                   else failed or fail)
        lines.append(CheckLine(check_id, realized, bound, verdict))
        return ok is True

    # 1. budget (deterministic accounting, any mode)
    check("budget", result.total_queries, B, result.total_queries <= B, "bug")

    # 2. T lower bound
    if deterministic:
        denom = 12.0 * loglog_plus(d0, result.eta_eps, result.g0_norm)
    else:
        denom = 8.0 * loglog_plus(d0, result.eta_eps, L)
    t_bound = max(B / denom, 1.0)
    check("T_lower_bound", T, t_bound, T >= t_bound * (1 - RTOL))

    if result.case == "budget_too_small":  # x_bar is x0 itself
        check("gap_tiny_budget", gap, d0 * L, within(gap, d0 * L, f_err))
        return lines

    damping = result.damping_final
    alpha = damping.alpha
    e = result.eta.exponent
    # the final round's runs at eta and at 2 eta (if it made one)
    tr = result.traces[(result.k_final, e)]
    tr_2x = result.traces.get((result.k_final, e + 1))
    if rounding_absorbed(tr) or (tr.G == 0.0 and tr.gs.any()):
        fail = "inconclusive"
    # x_bar, the sequential average of tr's first T iterates, is off by at
    # most their recursive-summation error (Higham, Accuracy and Stability
    # of Numerical Algorithms, sec. 4.2), and its gap by L times that
    x_err = (math.sqrt(x_star.size) * T * sys.float_info.epsilon
             * float(np.abs(tr.xs[:T]).max()))
    f_err += L * x_err
    # the normal case's localization bound and gap constant, which the edge
    # case's normal-style side shares
    dist = float(norm(result.x_bar - x_star))
    loc_bound = (4.0 if deterministic else 6.0) * d0
    if deterministic:
        const = 2.0 * alpha / (alpha - 1.0)
    else:
        const = (9.0 * alpha - 2.0) / (2.0 * (alpha - 2.0))
    den = damping.denominator(tr)

    if result.case == "normal":
        check("localization", dist, loc_bound, within(dist, loc_bound, x_err))
        endpoint_ok = False
        if tr_2x is not None:
            # the final round ran both ends of [eta, 2 eta]; their max is a
            # heuristic surrogate for the unidentified eta' in that interval
            surrogate = const * d0 * max(den, damping.denominator(tr_2x)) / T
            endpoint_ok = check("gap_vs_endpoint_max", gap, surrogate,
                                within(gap, surrogate, f_err), "inconclusive")
        if not endpoint_ok:
            # the theorem's G(eta') is always <= L^2 T, so this one is implied
            l_denom = math.sqrt(alpha * square(L) * T + damping.beta)
            l_bound = const * d0 * l_denom / T
            check("gap_vs_L_surrogate", gap, l_bound,
                  within(gap, l_bound, f_err))
    else:  # edge_low_step: the low endpoint fired; either the normal-style
        # bound or the small-step bound must hold
        dist_x0 = float(norm(result.x_bar - result.x0))
        check("edge_displacement", dist_x0, result.eta_eps * den,
              within(dist_x0, result.eta_eps * den, x_err))
        normal_ok = _all(within(dist, loc_bound, x_err),
                         within(gap, const * d0 * den / T, f_err))
        if deterministic:
            edge_gap_bound = 2.0 * result.eta_eps * tr.G / T
        else:
            edge_gap_bound = 1.25 * (d0 * den
                                     + result.eta_eps * square(den)) / T
        check("edge_gap_dichotomy", gap, edge_gap_bound,
              _any(normal_ok, within(gap, edge_gap_bound, f_err)))
    return lines


def has_bug(lines) -> bool:
    return any(l.verdict == "bug" for l in lines)
