import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import abs_oracle, query_oracle
from stepfree import (DampingParams, ProblemSpec, ProjectionDomain, SgdTrace,
                      Stochastic, check_theorem_bounds, default_x0,
                      make_problem, sgd_run, tune)
from stepfree.tuner import Deterministic, NonAdaptive, damping_for_round, phi
from stepfree.validation import (binom_upper, boundary_a_t,
                                 boundary_crossing_test, good_event_margin,
                                 good_event_union_frequency, has_bug,
                                 localization_check, log2_plus, loglog_plus,
                                 rounding_absorbed, stitched_boundary)
from stepfree.validation import _all, _any

WHOLE = ProjectionDomain.whole_space()


def scripted_oracle(gs):
    """Oracle replaying a fixed gradient script; exact gradient is sign(x)."""
    gs = [np.atleast_1d(np.asarray(g, dtype=float)) for g in gs]
    state = {"i": 0}

    def query(x, rng):
        g = gs[state["i"] % len(gs)]
        state["i"] += 1
        return g

    return query_oracle(query=query,
                        exact_subgradient=lambda x: np.sign(x),
                        exact_value=lambda x: float(np.abs(x).sum()))


class TestGoodEvent:
    def test_noiseless_margins_equal_threshold(self):
        oracle = scripted_oracle([[1.0], [1.0], [1.0]])
        tr = sgd_run(oracle, WHOLE, np.array([1.0]), 0.25, 3, stream=0)
        rep = good_event_margin(tr, oracle, np.zeros(1),
                                DampingParams(3.0, 0.0))
        assert rep.held
        g_prefix = np.cumsum([1.0, 1.0, 1.0])
        dbar = np.array([1.0, 1.0, 1.0])
        expected = 0.25 * dbar * np.sqrt(3 * g_prefix)
        assert np.allclose(rep.margins, expected, atol=1e-12)

    def test_small_noise_held(self):
        # one step of eta=1 from x0=1 with sample 0.5 (error -0.5)
        oracle = scripted_oracle([[0.5]])
        tr = sgd_run(oracle, WHOLE, np.array([1.0]), 1.0, 1, stream=0)
        rep = good_event_margin(tr, oracle, np.zeros(1),
                                DampingParams(4.0, 4.0))
        # prefix -0.5, threshold (1/4) * max{1, 2} * sqrt(4*0.25 + 4)
        assert rep.margins[0] == pytest.approx(-0.5 + 0.5 * math.sqrt(5),
                                               abs=1e-12)
        assert rep.held

    def test_large_noise_detected(self):
        # sample -1 flips the step direction; tiny damping cannot absorb it
        oracle = scripted_oracle([[-1.0]])
        tr = sgd_run(oracle, WHOLE, np.array([1.0]), 1.0, 1, stream=0)
        rep = good_event_margin(tr, oracle, np.zeros(1),
                                DampingParams(0.01, 0.01))
        assert rep.margins[0] == pytest.approx(
            -2.0 + 0.25 * 2.0 * math.sqrt(0.02), abs=1e-12)
        assert not rep.held

    def test_overflowed_margin_does_not_hold(self):
        # from 1e308, dbar * sqrt(300 G) overflows: every margin is +inf
        oracle = scripted_oracle([[1.0]])
        with np.errstate(over="ignore"):
            tr = sgd_run(oracle, WHOLE, np.array([1e308]), 1.0, 2, stream=0)
            rep = good_event_margin(tr, oracle, np.zeros(1),
                                    DampingParams(300.0, 0.0))
        assert np.all(rep.margins == math.inf)
        assert not rep.held

    def test_margins_beyond_the_square_overflow(self):
        # from 2e155 the squared distances overflow, the distances do not:
        # the margins are the finite thresholds, and the event holds
        oracle = scripted_oracle([[1.0]])
        with np.errstate(over="ignore"):
            tr = sgd_run(oracle, WHOLE, np.array([2e155]), 1e155, 2, stream=0)
            rep = good_event_margin(tr, oracle, np.zeros(1),
                                    DampingParams(3.0, 0.0))
        expected = 0.25 * 2e155 * np.sqrt(3 * np.array([1.0, 2.0]))
        assert np.allclose(rep.margins, expected, rtol=1e-15, atol=0)
        assert rep.held

    def test_requires_side_channel(self):
        oracle = query_oracle(query=lambda x, rng: np.ones(1))
        tr = sgd_run(oracle, WHOLE, np.array([1.0]), 0.5, 2, stream=0)
        with pytest.raises(ValueError, match="side channel"):
            good_event_margin(tr, oracle, np.zeros(1), DampingParams(3, 0))

    def test_noiseless_frequency_is_one(self):
        spec = ProblemSpec(family="l1", dimension=2)
        oracle, domain, x_star, _ = make_problem(spec, seed=0)
        freq = good_event_union_frequency(oracle, domain,
                                          default_x0(domain, x_star, 1.0, 0),
                                          x_star, etas=[0.1], T=16,
                                          damping=DampingParams(3.0, 0.0),
                                          n_paths=20)
        assert freq == 1.0

    def test_tiny_damping_fails_under_noise(self):
        spec = ProblemSpec(family="l1", dimension=2, noise="sphere",
                           noise_param=4.0)
        oracle, domain, x_star, _ = make_problem(spec, seed=1)
        freq = good_event_union_frequency(oracle, domain,
                                          default_x0(domain, x_star, 1.0, 1),
                                          x_star, etas=[0.5], T=64,
                                          damping=DampingParams(0.01, 0.01),
                                          n_paths=50)
        assert freq < 1.0

    def test_union_frequency_stops_a_path_at_its_first_failing_eta(
            self, monkeypatch):
        # under sphere noise and damping (3, 0) the event breaks on about
        # one path in five at each eta of the grid
        spec = ProblemSpec(family="l1", dimension=3, noise="sphere",
                           noise_param=1.0)
        oracle, domain, x_star, _ = make_problem(spec, seed=0)
        x0 = default_x0(domain, x_star, 1.0, 0)
        damping = DampingParams(3.0, 0.0)
        etas, T, n_paths = [0.01 * 2.0 ** j for j in range(5)], 8, 12
        held = [[good_event_margin(
                     sgd_run(oracle, domain, x0, eta, T,
                             oracle.run_stream(0, "goodevent", j, p)),
                     oracle, x_star, damping).held
                 for j, eta in enumerate(etas)] for p in range(n_paths)]
        runs = [row.index(False) + 1 if False in row else len(etas)
                for row in held]
        assert 0 < sum(map(all, held)) < n_paths
        assert sum(runs) < n_paths * len(etas)

        calls = []

        def counted(*args):
            calls.append(args[3])
            return sgd_run(*args)

        monkeypatch.setattr("stepfree.validation.sgd_run", counted)
        freq = good_event_union_frequency(oracle, domain, x0, x_star, etas,
                                          T, damping, n_paths)
        assert freq == sum(map(all, held)) / n_paths
        assert calls == [eta for n in runs for eta in etas[:n]]


class TestStitchedBoundary:
    def test_zero_variance(self):
        a = boundary_a_t(10, 0.1)
        assert stitched_boundary(10, 0.1, 0.0) == pytest.approx(4 * a)

    def test_reference_value(self):
        a = math.log2(60 * math.log2(600) / 0.05)
        assert a == pytest.approx(13.435, abs=0.001)
        assert stitched_boundary(100, 0.05, 100.0) == \
            pytest.approx(4 * math.sqrt(a * 100 + a * a), rel=1e-12)
        assert stitched_boundary(100, 0.05, 100.0) == pytest.approx(156.2,
                                                                    abs=0.1)

    @given(t=st.integers(1, 10**6), delta=st.floats(0.001, 0.999),
           v1=st.floats(0, 1e6), v2=st.floats(0, 1e6))
    @settings(max_examples=100)
    def test_monotone(self, t, delta, v1, v2):
        lo, hi = sorted((v1, v2))
        assert stitched_boundary(t, delta, lo) <= stitched_boundary(t, delta, hi)
        assert stitched_boundary(t, delta, v1) <= \
            stitched_boundary(t + 1, delta, v1) + 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            stitched_boundary(0, 0.1, 1.0)
        with pytest.raises(ValueError):
            stitched_boundary(10, 1.5, 1.0)
        with pytest.raises(ValueError):
            stitched_boundary(10, 0.1, -1.0)


class TestBoundaryCrossing:
    def test_zero_increments(self):
        assert boundary_crossing_test("zero", 100, 0.1, 50) == 0.0

    def test_coin_small(self):
        freq = boundary_crossing_test("coin", 1000, 0.05, 500, seed=0)
        assert freq <= 0.05

    def test_recentered_bernoulli(self):
        freq = boundary_crossing_test("bernoulli", 1000, 0.05, 500, seed=1,
                                      mean=0.3)
        assert freq <= 0.05

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            boundary_crossing_test("cauchy", 10, 0.1, 10)

    @pytest.mark.parametrize("kind", ["zero", "coin", "bernoulli"])
    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
    def test_delta_outside_unit_interval(self, kind, delta):
        with pytest.raises(ValueError, match="delta must be in"):
            boundary_crossing_test(kind, 10, delta, 10)

    @pytest.mark.parametrize("kind", ["zero", "coin", "bernoulli"])
    @pytest.mark.parametrize("mean", [-0.1, 1.5, 2.0, math.nan])
    def test_mean_outside_unit_interval(self, kind, mean):
        with pytest.raises(ValueError, match="mean must be in"):
            boundary_crossing_test(kind, 10, 0.1, 10, mean=mean)

    @pytest.mark.parametrize("mean", [0.0, 1.0])
    def test_mean_at_the_ends(self, mean):
        # constant increments: centred, they never move
        assert boundary_crossing_test("bernoulli", 50, 0.1, 10,
                                      mean=mean) == 0.0


class TestPathCounts:
    """Counts that leave nothing to take a frequency over are refused."""

    @staticmethod
    def problem():
        spec = ProblemSpec(family="l1", dimension=2)
        oracle, domain, x_star, _ = make_problem(spec, seed=0)
        return oracle, domain, default_x0(domain, x_star, 1.0, 0), x_star

    @pytest.mark.parametrize("n_paths", [0, -1])
    def test_good_event_frequencies(self, n_paths):
        oracle, domain, x0, x_star = self.problem()
        damping = DampingParams(3.0, 0.0)
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            good_event_union_frequency(oracle, domain, x0, x_star,
                                       [0.1, 0.2], 16, damping, n_paths)

    def test_empty_union(self):
        # an empty union would hold on every path
        oracle, domain, x0, x_star = self.problem()
        with pytest.raises(ValueError, match="at least one step size"):
            good_event_union_frequency(oracle, domain, x0, x_star, [], 16,
                                       DampingParams(3.0, 0.0), 4)

    @pytest.mark.parametrize("kind", ["zero", "coin", "bernoulli"])
    @pytest.mark.parametrize("T,n_paths", [(10, 0), (10, -3), (0, 10),
                                           (-1, 10)])
    def test_boundary_crossing(self, kind, T, n_paths):
        with pytest.raises(ValueError, match="n_paths and T must be >= 1"):
            boundary_crossing_test(kind, T, 0.1, n_paths)

    @pytest.mark.parametrize("mode", [Deterministic(),
                                      Stochastic(delta=0.1, L=1.0),
                                      NonAdaptive(delta=0.1, L=1.0)])
    @pytest.mark.parametrize("B", [0, -4])
    def test_damping_budget(self, mode, B):
        delta, L = getattr(mode, "delta", None), getattr(mode, "L", None)
        with pytest.raises(ValueError, match="budget must be >= 1"):
            damping_for_round(2, B, delta, L, mode)


class TestBinomialBounds:
    def test_upper_covers_rate(self):
        assert binom_upper(0, 100) < 0.05
        assert binom_upper(100, 100) == 1.0
        assert binom_upper(5, 100) > 0.05



@pytest.mark.parametrize("a, b, both, either", [
    (True, True, True, True), (True, None, None, True),
    (True, False, False, True), (None, None, None, None),
    (None, False, False, None), (False, False, False, False)])
def test_unknown_verdict_logic(a, b, both, either):
    # None, a side whose bound is +inf or nan, neither holds nor fails: a
    # dichotomy whose other side fails is then unknown, not failed
    assert _all(a, b) is _all(b, a) is both
    assert _any(a, b) is _any(b, a) is either


class TestLog2Plus:
    def test_clipping(self):
        assert log2_plus(0.5) == 2.0
        assert log2_plus(-3.0) == 2.0
        assert log2_plus(32.0) == 5.0
        assert loglog_plus(2 ** 16) == 4.0
        assert loglog_plus(1.0) == 1.0  # log2 of the clipped value 2

    def test_quotient_in_range_is_direct(self):
        for num, a, b in [(3.0, 0.5, 0.25), (1e-3, 1e-3, 2.0), (0.0, 1.0, 1.0),
                          (1.0, 1.0, 0.0), (1.0, 1e-300, math.inf),
                          (math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0)]:
            q = num / (a * b) if a * b else math.inf
            assert loglog_plus(num, a, b) == loglog_plus(q)

    def test_quotient_outside_the_float_range(self):
        # a * b underflows to 0, and the quotient to 0 or inf
        assert loglog_plus(1e-100, 1e-300, 1e-100) == \
            pytest.approx(math.log2(300 * math.log2(10)))
        assert loglog_plus(1e300, 1e-300, 1e-300) == \
            pytest.approx(math.log2(900 * math.log2(10)))
        assert loglog_plus(1e-300, 1e300, 1e10) == 1.0


class TestLocalization:
    def test_certified_trace(self):
        oracle = abs_oracle()
        tr = sgd_run(oracle, WHOLE, np.array([1.0]), 0.25, 4, stream=0)
        assert tr.eta <= phi(tr, DampingParams(3.0, 0.0))
        applies, ok = localization_check(tr, np.zeros(1))
        assert applies and ok

    @pytest.mark.parametrize("s", [0, -200, -400])
    def test_violation_found_at_every_scale(self, s):
        # certified (0.1 <= 4 / sqrt(3)), but d_bar = 5 d0 passes the bound
        # 2 d0; an absolute slack would pass it where d0 = 2^s is small
        xs = np.ldexp([[1.0], [5.0]], s)
        tr = SgdTrace(eta=math.ldexp(0.1, s), T=1, x0=xs[0], x_avg=xs[0],
                      r_bar=math.ldexp(4.0, s), G=1.0, stream=None, xs=xs,
                      gs=np.array([[-1.0]]))
        assert localization_check(tr, np.zeros(1)) == (True, False)

    def test_uncertified_trace_skipped(self):
        oracle = abs_oracle()
        tr = sgd_run(oracle, WHOLE, np.array([1.0]), 2.0, 4, stream=0)
        applies, ok = localization_check(tr, np.zeros(1))
        assert not applies and ok


class TestTheoremChecks:
    def test_hand_run_report(self):
        oracle = abs_oracle()
        res = tune(oracle, WHOLE, np.array([1.0]), budget=64, eta_eps=1 / 16)
        lines = check_theorem_bounds(res, oracle)
        by_id = {l.check_id: l for l in lines}
        assert by_id["budget"].verdict == "pass"
        assert by_id["T_lower_bound"].realized == 16
        assert by_id["T_lower_bound"].bound == pytest.approx(64 / 24)
        assert by_id["localization"].bound == 4.0
        assert by_id["gap_vs_endpoint_max"].realized == pytest.approx(0.15625)
        assert by_id["gap_vs_endpoint_max"].bound == \
            pytest.approx(math.sqrt(27) * 2 / 16, rel=1e-9)
        assert "gap_vs_L_surrogate" not in by_id  # the endpoint check held
        assert not has_bug(lines)

    @pytest.mark.parametrize("x0, eta_eps", [(1.0, 1 / 16), (1.0, 4.0)])
    def test_report_reads_the_final_round_from_traces(self, x0, eta_eps):
        oracle = abs_oracle()
        res = tune(oracle, WHOLE, np.array([x0]), budget=64, eta_eps=eta_eps)
        lines = check_theorem_bounds(res, oracle)
        assert check_theorem_bounds(replace(res, final_outcome=None),
                                    oracle) == lines

    def test_trivial_at_optimum(self):
        oracle = abs_oracle()
        res = tune(oracle, WHOLE, np.array([0.0]), budget=64, eta_eps=1 / 16)
        lines = check_theorem_bounds(res, oracle)
        assert not has_bug(lines)

    def test_budget_violation_is_bug(self):
        oracle = abs_oracle()
        res = tune(oracle, WHOLE, np.array([1.0]), budget=64, eta_eps=1 / 16)
        res.total_queries = res.budget + 1
        lines = check_theorem_bounds(res, oracle)
        assert any(l.check_id == "budget" and l.verdict == "bug"
                   for l in lines)

    def test_budget_too_small_report(self):
        oracle = abs_oracle()
        res = tune(oracle, WHOLE, np.array([1.0]), budget=4, eta_eps=1.0)
        lines = check_theorem_bounds(res, oracle)
        by_id = {l.check_id: l for l in lines}
        assert by_id["gap_tiny_budget"].verdict == "pass"
        assert not has_bug(lines)

    def test_stochastic_failures_are_inconclusive(self):
        oracle = abs_oracle()
        res = tune(oracle, WHOLE, np.array([1.0]), budget=64, eta_eps=1 / 16)
        res.total_queries = 10  # make T_lower_bound unsatisfiable
        res.T = 1
        res.mode = Stochastic(delta=0.1, L=1.0)
        lines = check_theorem_bounds(res, oracle)
        by_id = {l.check_id: l for l in lines}
        assert by_id["T_lower_bound"].verdict == "inconclusive"
        assert not has_bug(lines)

    @pytest.mark.parametrize("mode, f_star, verdict", [
        (Deterministic(), -1.0, "pass"),
        (Deterministic(), -3.0, "bug"),
        (Stochastic(delta=0.1, L=1.0), -3.0, "pass"),
        (Stochastic(delta=0.1, L=1.0), -6.0, "inconclusive")])
    def test_L_surrogate_decides_after_a_failed_endpoint_check(
            self, mode, f_star, verdict):
        # a false f_star below the true 0 lifts the gap past the endpoint
        # surrogate; then the bound with G(eta') <= L^2 T is checked
        oracle = abs_oracle()
        res = tune(oracle, WHOLE, np.array([1.0]), budget=64, eta_eps=1 / 16)
        assert res.case == "normal"
        res.mode = mode  # the same run, read by the mode's constants
        oracle.optimum_info = (np.zeros(1), f_star)
        by_id = {l.check_id: l for l in check_theorem_bounds(res, oracle)}
        assert by_id["gap_vs_endpoint_max"].verdict == "inconclusive"
        alpha, beta = res.damping_final.alpha, res.damping_final.beta
        if isinstance(mode, Deterministic):
            const = 2.0 * alpha / (alpha - 1.0)
        else:
            const = (9.0 * alpha - 2.0) / (2.0 * (alpha - 2.0))
        d0, L, T = 1.0, 1.0, res.T
        line = by_id["gap_vs_L_surrogate"]
        assert line.realized == 0.15625 - f_star
        assert line.bound == pytest.approx(
            const * d0 * math.sqrt(alpha * L ** 2 * T + beta) / T, rel=1e-15)
        assert line.verdict == verdict

    @pytest.mark.parametrize("noise, noise_param, mode", [
        ("none", 0.0, NonAdaptive), ("sphere", 0.5, Stochastic)])
    def test_stochastic_run_reaching_normal(self, noise, noise_param, mode):
        # the stochastic rounds' alpha (~2e4) makes most runs end
        # edge_low_step; from B ~ 2^17 on, l1 runs select a step size
        spec = ProblemSpec(family="l1", dimension=5, noise=noise,
                           noise_param=noise_param)
        oracle, domain, x_star, _ = make_problem(spec, seed=0)
        x0 = default_x0(domain, x_star, dist=1.0, seed=0)
        res = tune(oracle, domain, x0, budget=2 ** 17, eta_eps=1e-6,
                   mode=mode(delta=0.1, L=oracle.norm_bound_L))
        assert (res.case, res.k_final, res.eta.exponent) == ("normal", 2, 3)
        lines = check_theorem_bounds(res, oracle)
        assert [(l.check_id, l.verdict) for l in lines] == [
            ("budget", "pass"), ("T_lower_bound", "pass"),
            ("localization", "pass"), ("gap_vs_endpoint_max", "pass")]
        by_id = {l.check_id: l for l in lines}
        d0 = 1.0
        assert by_id["localization"].bound == pytest.approx(6.0 * d0)
        assert by_id["localization"].realized == pytest.approx(0.733,
                                                               abs=1e-3)
        damping = res.damping_final
        alpha = damping.alpha
        den = max(damping.denominator(res.traces[(2, 3)]),
                  damping.denominator(res.traces[(2, 4)]))
        assert by_id["gap_vs_endpoint_max"].bound == pytest.approx(
            (9 * alpha - 2) / (2 * (alpha - 2)) * d0 * den / res.T)

    @pytest.mark.parametrize("field", ["optimum_info", "exact_value",
                                       "norm_bound_L"])
    def test_needs_a_known_optimum_values_and_L(self, field):
        oracle = abs_oracle()
        res = tune(oracle, WHOLE, np.array([1.0]), budget=64, eta_eps=1 / 16)
        setattr(oracle, field, None)
        with pytest.raises(ValueError, match=f"needs oracle.{field}$"):
            check_theorem_bounds(res, oracle)


class TestRoundingAbsorbed:
    """Checks of a run whose every step rounding absorbed, against one held
    in place by the projection."""

    def test_absorbed_run_is_inconclusive(self):
        # x - 1e-300 * sign(x) rounds back to x = 1: r_bar = 0 and the edge
        # case fires, with a gap far above 2 eta_eps G / T
        oracle = abs_oracle()
        res = tune(oracle, WHOLE, np.array([1.0]), budget=4096,
                   eta_eps=1e-300)
        assert res.case == "edge_low_step"
        tr = res.traces[(res.k_final, 0)]
        assert tr.r_bar == 0.0 and tr.G > 0 and rounding_absorbed(tr)
        by_id = {l.check_id: l for l in check_theorem_bounds(res, oracle)}
        assert by_id["edge_gap_dichotomy"].verdict == "inconclusive"
        assert by_id["budget"].verdict == "pass"
        assert not has_bug(by_id.values())

    def test_run_stuck_on_a_ball_boundary_keeps_its_verdicts(self):
        # f(x) = -x on [-1, 1]: each step from x0 = 1 leaves the ball and is
        # projected back, so r_bar = 0 too; a false f_star = -5 makes the
        # edge gap check fail, which no rounding excuses
        grad = lambda x: -np.ones(1)
        oracle = query_oracle(query=lambda x, rng: grad(x), noiseless=True,
                              norm_bound_L=1.0, exact_subgradient=grad,
                              exact_value=lambda x: -float(x[0]),
                              optimum_info=(np.ones(1), -5.0))
        ball = ProjectionDomain.ball(np.zeros(1), 1.0)
        res = tune(oracle, ball, np.ones(1), budget=64, eta_eps=1 / 16)
        assert res.case == "edge_low_step"
        tr = res.traces[(res.k_final, 0)]
        assert tr.r_bar == 0.0 and not rounding_absorbed(tr)
        by_id = {l.check_id: l for l in check_theorem_bounds(res, oracle)}
        assert by_id["edge_gap_dichotomy"].verdict == "bug"
        assert by_id["edge_displacement"].verdict == "pass"

    def test_zero_gradients_are_not_absorbed(self):
        oracle = query_oracle(query=lambda x, rng: np.zeros(1),
                              noiseless=True)
        tr = sgd_run(oracle, WHOLE, np.array([1.0]), 0.5, 4, stream=None)
        assert not rounding_absorbed(tr)
