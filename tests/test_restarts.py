import math

import numpy as np
import pytest

from oracles import query_oracle
from stepfree import ProblemSpec, default_x0, make_problem, restart_tune
import stepfree.restarts as restarts
from stepfree.restarts import total_budget


def sc_problem(seed=0):
    spec = ProblemSpec(family="sc_quadratic", dimension=2, mu=1.0, L=1.0)
    oracle, domain, x_star, f_star = make_problem(spec, seed)
    x0 = default_x0(domain, x_star, 1.0, seed)
    return oracle, domain, x0, x_star, f_star


class TestPlan:
    """The schedule read off the rounds restart_tune actually runs."""

    def schedule(self, M, delta, epsilon=1.0, L=1.0):
        oracle, domain, x0, _, _ = sc_problem()
        _, records = restart_tune(oracle, domain, x0, M=M, delta=delta,
                                  epsilon=epsilon, L=L, master_seed=0)
        return records

    @pytest.mark.parametrize("epsilon, L, eta_eps", [
        (1.0, 1.0, [0.5, 0.25, 0.125]), (2.0, 2.0, [0.25, 0.125, 0.0625])])
    def test_schedule_values(self, epsilon, L, eta_eps):
        records = self.schedule(M=3, delta=0.06, epsilon=epsilon, L=L)
        assert [r.budget for r in records] == [2, 4, 8]
        assert [r.mode.delta for r in records] == \
            pytest.approx([0.03, 0.01, 0.005])
        assert [r.eta_eps for r in records] == pytest.approx(eta_eps)
        assert total_budget(3) == 14

    @pytest.mark.parametrize("M", [1, 4, 10])
    def test_delta_sum(self, M):
        total = sum(r.mode.delta for r in self.schedule(M=M, delta=0.2))
        assert total == pytest.approx(0.2 * (1 - 1 / (M + 1)))
        assert total <= 0.2

    def test_total_budget_formula(self):
        for M in range(1, 12):
            assert total_budget(M) == sum(2 ** m for m in range(1, M + 1))
            assert total_budget(M) <= 2 ** (M + 1)


class TestRestartTune:
    def test_runs_within_budget(self):
        oracle, domain, x0, _, _ = sc_problem()
        x_final, records = restart_tune(oracle, domain, x0, M=8, delta=0.1,
                                        epsilon=3.0, L=1.0, master_seed=0)
        assert len(records) == 8
        assert sum(r.total_queries for r in records) <= 2 ** 9

    def test_early_rounds_are_vacuous(self):
        # budgets 2 and 4 are below the tuner's minimum and return the input
        oracle, domain, x0, _, _ = sc_problem()
        _, records = restart_tune(oracle, domain, x0, M=3, delta=0.1,
                                  epsilon=1.0, L=1.0, master_seed=0)
        assert records[0].case == "budget_too_small"
        assert np.array_equal(records[0].x_bar, x0)

    def test_progress_on_strongly_convex(self):
        oracle, domain, x0, _, f_star = sc_problem(seed=5)
        x_final, _ = restart_tune(oracle, domain, x0, M=10, delta=0.1,
                                  epsilon=3.0, L=1.0, master_seed=5)
        start_gap = oracle.exact_value(x0) - f_star
        final_gap = oracle.exact_value(x_final) - f_star
        assert final_gap < 0.1 * start_gap

    def test_deterministic_given_seed(self):
        oracle, domain, x0, _, _ = sc_problem()
        a, _ = restart_tune(oracle, domain, x0, M=7, delta=0.1, epsilon=2.0,
                            L=1.0, master_seed=42)
        b, _ = restart_tune(oracle, domain, x0, M=7, delta=0.1, epsilon=2.0,
                            L=1.0, master_seed=42)
        assert np.array_equal(a, b)

    def test_invalid_inputs(self):
        oracle, domain, x0, _, _ = sc_problem()
        with pytest.raises(ValueError):
            restart_tune(oracle, domain, x0, M=0, delta=0.1, epsilon=1.0, L=1.0)
        with pytest.raises(ValueError):
            restart_tune(oracle, domain, x0, M=3, delta=1.2, epsilon=1.0, L=1.0)
        with pytest.raises(ValueError):
            restart_tune(oracle, domain, x0, M=3, delta=0.1, epsilon=0.0, L=1.0)

    @pytest.mark.parametrize("epsilon, L", [
        (math.nan, 1.0), (1.0, math.nan), (1.0, -1.0)])
    def test_epsilon_and_L_must_be_positive(self, epsilon, L):
        oracle, domain, x0, _, _ = sc_problem()
        with pytest.raises(ValueError, match="epsilon and L must be positive"):
            restart_tune(oracle, domain, x0, M=3, delta=0.1, epsilon=epsilon,
                         L=L)

    def test_round_index_in_errors(self):
        def boom(x, rng):
            raise FloatingPointError("synthetic oracle fault")

        _, domain, x0, _, _ = sc_problem()
        with pytest.raises(FloatingPointError,
                           match="synthetic oracle fault") as err:
            restart_tune(query_oracle(query=boom), domain, x0,
                         M=3, delta=0.1, epsilon=1.0, L=1.0)
        assert err.value.__notes__ == ["restart round 1 failed"]

    @pytest.mark.parametrize("epsilon, L, M, m", [
        (1.0, 1e-200, 3, 1),   # L^2 underflows to 0: epsilon / 0
        (1.0, 1e200, 3, 1),    # L^2 overflows
        (1e300, 1e-10, 3, 1),  # the quotient overflows to inf
        (1e-300, 1.0, 80, 79),  # it underflows to 0 at round 79
        (1.0, 1.0, 10 ** 9, 1024)])  # 2^m overflows a float at 1024
    def test_schedule_must_be_positive_floats(self, epsilon, L, M, m,
                                              monkeypatch):
        def no_round(*_, **__):
            raise AssertionError("a round ran")
        monkeypatch.setattr(restarts, "tune", no_round)
        oracle, domain, x0, _, _ = sc_problem()
        with pytest.raises(ValueError, match=f"round {m}'s initial step "
                                             "size"):
            restart_tune(oracle, domain, x0, M=M, delta=0.1,
                         epsilon=epsilon, L=L)
