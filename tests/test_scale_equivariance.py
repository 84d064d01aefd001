"""Noiseless l1 on the whole space, scaled by a power of two.

Scaling the center, x0 and eta_eps by 2^s scales every iterate, length, gap
and step size by exactly 2^s and leaves every gradient as it is, so the
tuner must take the same decisions and each check must report the same
verdict, its realized value and bound scaled by 2^s. At s = 520 and 1000
the squares of the lengths overflow while the lengths do not, and at
s = -520 and -600 they underflow while the lengths do not; at s <= -200
the values fall far below 1e-9, where the bisection's sandwich guard
and the theorem report, whose slack is relative to the run's own values,
must still tell a violated inequality.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from stepfree import (ProblemSpec, check_theorem_bounds, default_x0,
                      make_problem, tune)
from stepfree.tuner import verify_output_property

SCALES = [0, 200, 520, 1000, -200, -400, -520, -600]
COUNT_CHECKS = ("budget", "T_lower_bound")
# (seed, budget, eta_eps): a normal run in round 4 and one in round 2, an
# edge_low_step run and a budget_too_small run
CONFIGS = [(0, 64, 1e-3), (2, 12, 0.05), (0, 64, 0.3), (0, 12, 1e-3)]


def scaled_problem(seed, budget, eta_eps, s):
    spec = ProblemSpec(family="l1", dimension=3, center_scale=2.0 ** s)
    oracle, domain, x_star, _ = make_problem(spec, seed)
    x0 = default_x0(domain, x_star, 2.0 ** s, seed)
    result = tune(oracle, domain, x0, budget=budget,
                  eta_eps=math.ldexp(eta_eps, s), master_seed=seed)
    return result, oracle, x_star


def scaled_run(seed, budget, eta_eps, s):
    result, oracle, _ = scaled_problem(seed, budget, eta_eps, s)
    return result, check_theorem_bounds(result, oracle)


def discrete(result):
    return (result.case, result.k_final, result.T, result.eta.exponent,
            result.total_queries)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("config", CONFIGS)
def test_outputs_scale_with_the_problem(config):
    base, base_lines = scaled_run(*config, 0)
    # verdicts far from a tie, so that no slack decides them
    for line in base_lines:
        if line.check_id not in COUNT_CHECKS:
            assert abs(line.realized - line.bound) > 1e-6, line
    for s in SCALES[1:]:
        result, lines = scaled_run(*config, s)
        assert discrete(result) == discrete(base), s
        assert ([(l.check_id, l.verdict) for l in lines]
                == [(l.check_id, l.verdict) for l in base_lines]), s
        for line, base_line in zip(lines, base_lines):
            if line.check_id in COUNT_CHECKS:
                assert ((line.realized, line.bound)
                        == (base_line.realized, base_line.bound)), (s, line)
                continue
            for value, base_value in ((line.realized, base_line.realized),
                                      (line.bound, base_line.bound)):
                assert math.isfinite(value), (s, line)
                assert math.ldexp(value, -s) == pytest.approx(
                    base_value, rel=1e-12), (s, line)
        assert np.array_equal(np.ldexp(result.x_bar, -s), base.x_bar)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("config", CONFIGS[:2])  # the two normal runs
def test_sandwich_guard_at_every_scale(config):
    for s in SCALES:
        result, _ = scaled_run(*config, s)
        outcome, damping = result.final_outcome, result.damping_final
        assert verify_output_property(outcome, damping), s
        # r_bar(eta_lo*) / 8 breaks the upper half of the sandwich
        runs = dict(outcome.evaluations)
        runs[outcome.lo] = replace(runs[outcome.lo],
                                   r_bar=runs[outcome.lo].r_bar / 8)
        violated = replace(outcome, evaluations=runs)
        assert not verify_output_property(violated, damping), s


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_violated_bounds_read_bug_at_every_scale():
    # x_bar 8 times as far from x* as x0 breaks localization (4 d0) and the
    # gap's L surrogate of the normal run
    for s in SCALES:
        result, oracle, x_star = scaled_problem(*CONFIGS[0], s)
        far = replace(result, x_bar=x_star + 8.0 * (result.x0 - x_star))
        verdicts = {l.check_id: l.verdict
                    for l in check_theorem_bounds(far, oracle)}
        assert verdicts["localization"] == "bug", (s, verdicts)
        assert verdicts["gap_vs_L_surrogate"] == "bug", (s, verdicts)
