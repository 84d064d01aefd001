"""Doubling-restart wrapper: the strongly convex rate without knowing mu.

Round m restarts the tuner from the previous output with budget 2^m, failure
probability delta/(m(m+1)) and initial step size epsilon/(L^2 * 2^m). Its
master seed ``derive_stream(master_seed, "restart", m)`` is derived only for
a noisy oracle; a noiseless oracle's rounds draw nothing and take None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProjectionDomain, StochasticOracle
from .tuner import Stochastic, TunerResult, tune


@dataclass(frozen=True)
class RestartPlan:
    M: int
    epsilon: float
    delta: float
    L: float

    def budget(self, m: int) -> int:
        return 2 ** m

    def delta_m(self, m: int) -> float:
        return self.delta / (m * (m + 1))

    def eta_eps_m(self, m: int) -> float:
        return self.epsilon / (self.L ** 2 * self.budget(m))

    @property
    def total_budget(self) -> int:
        # sum of 2^m for m = 1..M
        return 2 ** (self.M + 1) - 2


def restart_tune(oracle: StochasticOracle, domain: ProjectionDomain, x0,
                 M: int, delta: float, epsilon: float, L: float,
                 master_seed: int = 0):
    """Run M doubling-budget restart rounds; returns (x_M, per-round results).

    Rounds are strictly sequential; nothing (traces, g0 measurements) carries
    over between them. Rounds too small for the tuner simply return their
    input point, which is accepted behavior.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    if not (epsilon > 0 and L > 0):  # nan fails too
        raise ValueError(f"epsilon and L must be positive, got {epsilon!r} "
                         f"and {L!r}")
    plan = RestartPlan(M=M, epsilon=epsilon, delta=delta, L=L)
    x = domain.project(np.asarray(x0, dtype=float))
    records: list[TunerResult] = []
    total_queries = 0
    for m in range(1, M + 1):
        try:
            result = tune(oracle, domain, x, budget=plan.budget(m),
                          eta_eps=plan.eta_eps_m(m),
                          mode=Stochastic(delta=plan.delta_m(m), L=L),
                          master_seed=oracle.run_stream(master_seed, "restart",
                                                        m))
        except Exception as exc:
            raise RuntimeError(f"restart round {m} failed") from exc
        total_queries += result.total_queries
        records.append(result)
        x = result.x_bar
    if total_queries > plan.total_budget:
        raise AssertionError("restart chain exceeded its total budget")
    return x, records
