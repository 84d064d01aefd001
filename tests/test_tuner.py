import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stepfree import (DampingParams, Deterministic, NonAdaptive,
                      ProjectionDomain, SgdTrace, StepSizeExp, Stochastic,
                      StochasticOracle, damping_for_round, eta_max_diagnostic,
                      phi, relative_eta_eps, root_finding_bisection,
                      select_output_z, sgd_run, tune, verify_output_property)
from stepfree.tuner import ZeroFirstGradient, round_constant

WHOLE = ProjectionDomain.whole_space()


def abs_oracle():
    grad = lambda x: np.sign(x)
    return StochasticOracle(dimension=1, query=lambda x, rng: grad(x),
                            norm_bound_L=1.0, exact_subgradient=grad,
                            exact_value=lambda x: float(np.abs(x).sum()),
                            optimum_info=(np.zeros(1), 0.0))


def fake_trace(r_bar, G, T=4, eta=0.1):
    return SgdTrace(eta=eta, T=T, x0=np.zeros(1), x_avg=np.zeros(1),
                    r_bar=r_bar, G=G, g0_norm=math.sqrt(G / T) if G else 0.0,
                    query_count=T, stream=0)


class TestPhi:
    def test_basic_value(self):
        assert phi(fake_trace(1.0, 4.0), DampingParams(3.0, 0.0)) == \
            pytest.approx(1 / math.sqrt(12), abs=1e-12)

    def test_degenerate_zero(self):
        assert phi(fake_trace(0.0, 0.0), DampingParams(3.0, 0.0)) == 0.0

    def test_with_beta(self):
        assert phi(fake_trace(2.0, 4.0), DampingParams(3.0, 4.0)) == 0.5

    def test_impossible_trace_rejected(self):
        with pytest.raises(AssertionError):
            phi(fake_trace(1.0, 0.0), DampingParams(3.0, 0.0))

    def test_nonadaptive_denominator(self):
        d = DampingParams(2.0, 0.0, mode="nonadaptive", L=3.0)
        assert phi(fake_trace(6.0, 100.0, T=2), d) == \
            pytest.approx(6.0 / math.sqrt(2 * 9 * 2), abs=1e-12)


class TestDamping:
    def test_deterministic(self):
        d = damping_for_round(8, 10**6, None, None, Deterministic())
        assert (d.alpha, d.beta) == (3.0, 0.0)

    def test_stochastic_values(self):
        d = damping_for_round(2, 1000, 0.1, 1.0, Stochastic(delta=0.1, L=1.0))
        c2 = 4 + math.log2(60 * math.log2(6000) ** 2 / 0.1)
        assert c2 == pytest.approx(20.53, abs=0.01)
        assert d.alpha == pytest.approx(32 ** 2 * c2, rel=1e-12)
        assert d.alpha == pytest.approx(21022, abs=5)
        assert d.beta == pytest.approx((32 * c2) ** 2, rel=1e-12)
        assert d.beta == pytest.approx(4.32e5, rel=2e-3)

    def test_beta_scales_with_L_squared(self):
        d1 = damping_for_round(2, 1000, 0.1, 1.0, Stochastic(delta=0.1, L=1.0))
        d5 = damping_for_round(2, 1000, 0.1, 5.0, Stochastic(delta=0.1, L=5.0))
        assert d5.beta == pytest.approx(25 * d1.beta, rel=1e-12)
        assert d5.alpha == d1.alpha

    @given(k=st.sampled_from([2, 4, 8, 16, 32]), B=st.integers(16, 1 << 20),
           delta=st.floats(1e-4, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_round_constant_increment(self, k, B, delta):
        assert round_constant(2 * k, B, delta) - round_constant(k, B, delta) \
            == pytest.approx(2 * k, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            damping_for_round(2, 100, 1.5, 1.0, Stochastic(delta=1.5, L=1.0))
        with pytest.raises(ValueError):
            damping_for_round(2, 100, 0.1, None, Stochastic(delta=0.1, L=None))


class TestStepSizeExp:
    def test_value(self):
        assert StepSizeExp(1 / 16, 4).value == 1.0

    def test_midpoint_exact(self):
        a, b = StepSizeExp(0.1, 0), StepSizeExp(0.1, 8)
        assert a.midpoint(b).exponent == 4

    def test_odd_gap_rejected(self):
        with pytest.raises(ValueError):
            StepSizeExp(0.1, 0).midpoint(StepSizeExp(0.1, 3))

    @given(e1=st.integers(0, 40), half_gap=st.integers(1, 10))
    @settings(max_examples=50)
    def test_midpoint_is_geometric_mean(self, e1, half_gap):
        a = StepSizeExp(0.37, e1)
        b = StepSizeExp(0.37, e1 + 2 * half_gap)
        m = a.midpoint(b)
        assert m.value == pytest.approx(math.sqrt(a.value * b.value), rel=1e-9)


class TestBisection:
    def test_hand_example(self):
        # |x| from x0=1, T=4: interval [1/16, 1] narrows to [1/4, 1/2] and
        # the selection rule picks the low endpoint
        out = root_finding_bisection(
            abs_oracle(), WHOLE, np.array([1.0]),
            eta_lo=StepSizeExp(1 / 16, 0), eta_hi=StepSizeExp(1 / 16, 4),
            T=4, damping=DampingParams(3.0, 0.0))
        assert out.kind == "selected"
        assert out.eta_o.value == 0.25
        assert out.branch == "lo"
        assert out.eta_lo_star.value == 0.25
        assert out.eta_hi_star.value == 0.5
        assert out.midpoint_evals == 2
        assert [e.value for e, _ in out.evaluations] == [1.0, 1 / 16, 1 / 4, 1 / 2]

    def test_upper_limit_infeasible(self):
        out = root_finding_bisection(
            abs_oracle(), WHOLE, np.array([1.0]),
            eta_lo=StepSizeExp(1 / 256, 0), eta_hi=StepSizeExp(1 / 256, 4),
            T=4, damping=DampingParams(3.0, 0.0))
        assert out.kind == "infeasible"
        assert len(out.evaluations) == 1

    def test_edge_low_at_optimum(self):
        out = root_finding_bisection(
            abs_oracle(), WHOLE, np.array([0.0]),
            eta_lo=StepSizeExp(0.5, 0), eta_hi=StepSizeExp(0.5, 4),
            T=4, damping=DampingParams(3.0, 0.0))
        assert out.kind == "edge_low"
        assert out.eta_o.value == 0.5
        assert len(out.evaluations) == 2

    def test_cache_reuse_is_free(self):
        cache = {}
        args = dict(eta_lo=StepSizeExp(1 / 16, 0),
                    eta_hi=StepSizeExp(1 / 16, 4), T=4,
                    damping=DampingParams(3.0, 0.0), cache=cache, round_k=2)
        first = root_finding_bisection(abs_oracle(), WHOLE, np.array([1.0]),
                                       **args)
        again = root_finding_bisection(abs_oracle(), WHOLE, np.array([1.0]),
                                       **args)
        assert first.fresh_queries == 16
        assert again.fresh_queries == 0
        assert again.eta_o.value == first.eta_o.value

    def test_bad_interval_rejected(self):
        for hi_exp in (1, 3, 6):
            with pytest.raises(ValueError):
                root_finding_bisection(
                    abs_oracle(), WHOLE, np.array([1.0]),
                    eta_lo=StepSizeExp(0.1, 0), eta_hi=StepSizeExp(0.1, hi_exp),
                    T=4, damping=DampingParams(3.0, 0.0))


class TestTune:
    def test_hand_example_b64(self):
        res = tune(abs_oracle(), WHOLE, np.array([1.0]), budget=64,
                   eta_eps=1 / 16)
        assert res.case == "normal"
        assert res.eta.value == 0.25
        assert res.T == 16
        assert res.x_bar[0] == 0.15625
        assert res.total_queries == 64
        assert res.k_final == 2
        assert res.eta_prime_interval == (0.25, 0.5)

    def test_budget_too_small(self):
        res = tune(abs_oracle(), WHOLE, np.array([1.0]), budget=4, eta_eps=1.0)
        assert res.case == "budget_too_small"
        assert res.T == 1
        assert res.total_queries == 0
        assert np.array_equal(res.x_bar, [1.0])

    def test_far_start_advances_rounds(self):
        res = tune(abs_oracle(), WHOLE, np.array([100.0]), budget=4096,
                   eta_eps=1 / 16)
        assert res.k_final >= 4
        assert res.total_queries <= 4096

    def test_output_property_verified(self):
        res = tune(abs_oracle(), WHOLE, np.array([1.0]), budget=64,
                   eta_eps=1 / 16, debug=True)
        assert verify_output_property(res.final_outcome, res.damping_final)

    def test_g0_not_charged(self):
        res = tune(abs_oracle(), WHOLE, np.array([1.0]), budget=64,
                   eta_eps=1 / 16)
        assert res.side_queries == 1
        assert res.total_queries == 64  # budget accounting excludes it

    def test_best_observed(self):
        res = tune(abs_oracle(), WHOLE, np.array([1.0]), budget=64,
                   eta_eps=1 / 16)
        point, value = res.best_observed
        assert value == 0.0

    @given(shift=st.integers(-2, 2), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_scale_equivariance(self, shift, seed):
        # rescaling the problem and eta_eps by a power of two rescales the
        # selected step size and output exactly (noiseless, same streams)
        s = 2.0 ** shift
        grad = lambda x: np.sign(x)
        oracle = StochasticOracle(dimension=1, query=lambda x, rng: grad(x))
        base = tune(oracle, WHOLE, np.array([1.0]), budget=128,
                    eta_eps=1 / 32, master_seed=seed)
        scaled = tune(oracle, WHOLE, np.array([s * 1.0]), budget=128,
                      eta_eps=s / 32, master_seed=seed)
        assert scaled.case == base.case
        if base.case == "normal":
            assert scaled.eta.exponent == base.eta.exponent
            assert scaled.eta.value == pytest.approx(s * base.eta.value)
            assert scaled.x_bar[0] == pytest.approx(s * base.x_bar[0],
                                                    rel=1e-12)

    def test_invalid_modes_rejected(self):
        with pytest.raises(ValueError):
            tune(abs_oracle(), WHOLE, np.array([1.0]), budget=64,
                 eta_eps=0.1, mode="stochastic")
        with pytest.raises(ValueError):
            tune(abs_oracle(), WHOLE, np.array([1.0]), budget=0, eta_eps=0.1)
        with pytest.raises(ValueError):
            tune(abs_oracle(), WHOLE, np.array([1.0]), budget=64, eta_eps=0.0)

    def test_nonadaptive_mode_runs(self):
        res = tune(abs_oracle(), WHOLE, np.array([1.0]), budget=512,
                   eta_eps=1 / 64, mode=NonAdaptive(delta=0.1, L=1.0))
        assert res.total_queries <= 512
        assert res.case in ("normal", "edge_low_step")


class TestPostProcessing:
    def test_z_default_is_average(self):
        res = tune(abs_oracle(), WHOLE, np.array([1.0]), budget=64,
                   eta_eps=1 / 16)
        assert res.eta.exponent > 0
        assert np.array_equal(res.z, res.x_bar)

    def test_z_rule_thresholds(self):
        result = tune(abs_oracle(), WHOLE, np.array([1.0]), budget=64,
                      eta_eps=1 / 16)
        result.eta = StepSizeExp(1 / 16, 0)
        result.T = 16
        trace = fake_trace(r_bar=0.5, G=16.0, T=16)
        result.g0_norm = 1.0  # sqrt(16)/16 = 0.25 < 1 -> keep x_bar
        assert np.array_equal(select_output_z(result, trace), result.x_bar)
        result.g0_norm = 0.2  # 0.2 <= 0.25 -> fall back to x0
        assert np.array_equal(select_output_z(result, trace), result.x0)

    def test_relative_eta_eps(self):
        assert relative_eta_eps(2.0, 4.0, 100) == pytest.approx(0.005)
        with pytest.raises(ValueError):
            relative_eta_eps(1.0, 0.0, 100)

    def test_relative_mode_makes_one_g0_query(self):
        calls = [0]

        def query(x, rng):
            calls[0] += 1
            return np.sign(x)
        oracle = StochasticOracle(dimension=1, query=query)
        result = tune(oracle, WHOLE, np.array([1.0]), budget=256, r_eps=0.5)
        assert result.eta_eps == relative_eta_eps(0.5, result.g0_norm, 256)
        assert calls[0] == result.total_queries + 1

    def test_relative_mode_zero_first_gradient(self):
        oracle = StochasticOracle(dimension=1,
                                  query=lambda x, rng: np.zeros(1))
        with pytest.raises(ZeroFirstGradient):
            tune(oracle, WHOLE, np.array([1.0]), budget=256, r_eps=0.5)

    def test_one_of_eta_eps_and_r_eps(self):
        oracle = abs_oracle()
        for kwargs in ({}, {"eta_eps": 0.1, "r_eps": 0.5}):
            with pytest.raises(ValueError, match="exactly one"):
                tune(oracle, WHOLE, np.array([1.0]), budget=256, **kwargs)


class TestEtaMaxDiagnostic:
    def test_deterministic(self):
        d = DampingParams(3.0, 0.0)
        assert eta_max_diagnostic(1.0, 1.0, d) == pytest.approx(math.sqrt(3))

    def test_zero_distance(self):
        assert eta_max_diagnostic(0.0, 1.0, DampingParams(3.0, 0.0)) == 0.0

    def test_stochastic(self):
        d = DampingParams(4.0, 0.0, mode="stochastic", L=1.0)
        assert eta_max_diagnostic(1.0, 1.0, d) == pytest.approx(4.0)

    def test_alpha_too_small_rejected(self):
        d = DampingParams(2.0, 0.0, mode="stochastic", L=1.0)
        with pytest.raises(ValueError):
            eta_max_diagnostic(1.0, 1.0, d)

    def test_bounds_terminal_round(self):
        # the doubling loop never needs k beyond 2 log2 log2+(eta_max/eta_eps)
        eta_eps = 1 / 16
        res = tune(abs_oracle(), WHOLE, np.array([1.0]), budget=4096,
                   eta_eps=eta_eps)
        eta_max = eta_max_diagnostic(1.0, 1.0, res.damping_final)
        cap = 2 * math.log2(max(2.0, math.log2(max(2.0, eta_max / eta_eps))))
        assert res.k_final <= max(2, math.ceil(cap))


def overflow_oracle(lo, hi):
    """l1 toward c = (1, 0) from x0 = 0, except that an iterate with first
    coordinate in (lo, hi) gets a gradient whose square overflows and whose
    step throws the next iterate ~eta * 1e200 away, so the run ends with
    r_bar = G = inf. Each candidate's first step lands on (eta, 0), so the
    window picks the step sizes whose runs overflow."""
    c = np.array([1.0, 0.0])

    def query(x, rng):
        if lo < x[0] < hi:
            return np.array([-1e200, 0.0])
        return np.sign(x - c)
    return StochasticOracle(dimension=2, query=query)


# runs of 12 steps from 0: eta = 1e-3 overflows in the first window, every
# eta >= 10 in the second; no other run on the dyadic grid from 1e-3 does
OVERFLOW_AT_LO = (0.0, 2e-3)
OVERFLOW_AT_HI = (10.0, 1e100)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflowedCandidates:
    """A run whose r_bar and G both overflow has phi = nan, and its candidate
    fails the check wherever the check is made."""

    def bisect(self, window):
        return root_finding_bisection(
            overflow_oracle(*window), WHOLE, np.zeros(2),
            StepSizeExp(1e-3, 0), StepSizeExp(1e-3, 16), T=12,
            damping=DampingParams(3.0, 0.0))

    def overflowed(self, outcome):
        return [c.exponent for c, tr in outcome.evaluations
                if math.isnan(phi(tr, DampingParams(3.0, 0.0)))]

    def test_at_lo_in_bisection(self):
        out = self.bisect(OVERFLOW_AT_LO)
        assert self.overflowed(out) == [0]
        assert out.kind == "edge_low" and out.eta_o.exponent == 0

    def test_at_hi_in_bisection(self):
        out = self.bisect(OVERFLOW_AT_HI)
        assert self.overflowed(out) == [16]
        assert out.kind == "selected"
        assert out.eta_hi_star.exponent == 8 and out.eta_o.exponent == 7

    def test_in_tune(self):
        # round 2 (T = 12) passes at its hi; round 4 (T = 6) decides
        res = tune(overflow_oracle(*OVERFLOW_AT_LO), WHOLE, np.zeros(2),
                   budget=48, eta_eps=1e-3)
        assert res.k_final == 4 and res.case == "edge_low_step"
        assert math.isinf(res.final_outcome.trace.r_bar)
        res = tune(overflow_oracle(*OVERFLOW_AT_HI), WHOLE, np.zeros(2),
                   budget=48, eta_eps=1e-3)
        assert res.k_final == 4 and res.case == "normal"
        assert math.isinf(res.trace_cache[(4, 16)].r_bar)
        assert res.eta.exponent == 7
