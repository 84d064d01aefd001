"""Doubling-restart wrapper: the strongly convex rate without knowing mu.

Round m restarts the tuner from the previous output with budget 2^m, failure
probability delta/(m(m+1)) and initial step size epsilon/(L^2 * 2^m). Its
master seed ``derive_stream(master_seed, "restart", m)`` is derived only for
a noisy oracle; a noiseless oracle's rounds draw nothing and take None.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ProjectionDomain, StochasticOracle
from .tuner import Stochastic, TunerResult, tune


def total_budget(M: int) -> int:
    """The queries a chain of M rounds may make: the sum of 2^m, m = 1..M."""
    return 2 ** (M + 1) - 2


def restart_tune(oracle: StochasticOracle, domain: ProjectionDomain, x0,
                 M: int, delta: float, epsilon: float, L: float,
                 master_seed: int = 0):
    """Run M doubling-budget restart rounds; returns (x_M, per-round results).

    Rounds are strictly sequential; nothing (traces, g0 measurements) carries
    over between them. Rounds too small for the tuner simply return their
    input point, which is accepted behavior. Raises ``ValueError`` before
    the first round where some round's initial step size is not a positive
    float.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    if not (epsilon > 0 and L > 0):  # nan fails too
        raise ValueError(f"epsilon and L must be positive, got {epsilon!r} "
                         f"and {L!r}")
    # each round's initial step size, where it is a positive float: L^2
    # may underflow to 0 or overflow, and so may the whole quotient
    schedule = []
    for m in range(1, M + 1):
        try:
            schedule.append(epsilon / (L ** 2 * 2 ** m))
        except ArithmeticError:  # a division by 0, or an overflow
            schedule.append(math.nan)
        if not 0.0 < schedule[-1] < math.inf:
            raise ValueError(f"round {m}'s initial step size epsilon / (L^2 "
                             f"* 2^m) is not a positive float for epsilon "
                             f"{epsilon!r} and L {L!r}")
    x = domain.project(np.asarray(x0, dtype=float))
    records: list[TunerResult] = []
    total_queries = 0
    for m in range(1, M + 1):
        try:
            result = tune(oracle, domain, x, budget=2 ** m,
                          eta_eps=schedule[m - 1],
                          mode=Stochastic(delta=delta / (m * (m + 1)), L=L),
                          master_seed=oracle.run_stream(master_seed, "restart",
                                                        m))
        except Exception as exc:
            raise RuntimeError(f"restart round {m} failed") from exc
        total_queries += result.total_queries
        records.append(result)
        x = result.x_bar
    if total_queries > total_budget(M):
        raise AssertionError("restart chain exceeded its total budget")
    return x, records
