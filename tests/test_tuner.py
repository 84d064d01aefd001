import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepfree.tuner as tuner
from oracles import abs_oracle, per_sample, query_oracle
from stepfree import (DampingParams, Deterministic, NonAdaptive,
                      NumericalFailure, ProblemSpec, ProjectionDomain,
                      SgdTrace, Stochastic, ZeroFirstGradient,
                      default_x0, make_problem, sgd_run, tune)
from stepfree.core import norm, square
from stepfree.tuner import (damping_for_round, grid_step, passes, phi,
                            relative_eta_eps, root_finding_bisection,
                            round_constant, verify_output_property)

WHOLE = ProjectionDomain.whole_space()


def fake_trace(r_bar, G, T=4, eta=0.1):
    return SgdTrace(eta=eta, T=T, x0=np.zeros(1), x_avg=np.zeros(1),
                    r_bar=r_bar, G=G, stream=0, xs=np.zeros((T + 1, 1)),
                    gs=np.zeros((T, 1)))


class TestPhi:
    def test_basic_value(self):
        assert phi(fake_trace(1.0, 4.0), DampingParams(3.0, 0.0)) == \
            pytest.approx(1 / math.sqrt(12), abs=1e-12)

    def test_degenerate_zero(self):
        assert phi(fake_trace(0.0, 0.0), DampingParams(3.0, 0.0)) == 0.0

    def test_with_beta(self):
        assert phi(fake_trace(2.0, 4.0), DampingParams(3.0, 4.0)) == 0.5

    def test_impossible_trace_rejected(self):
        # r_bar > 0 over G = 0, which only squares that underflowed give
        trace = fake_trace(1.0, 0.0)
        assert math.isnan(phi(trace, DampingParams(3.0, 0.0)))
        assert not passes(trace, DampingParams(3.0, 0.0))

    def test_nonadaptive_denominator(self):
        d = DampingParams(2.0, 0.0, mode=NonAdaptive(delta=0.1, L=3.0))
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

    @pytest.mark.parametrize("cls", [Stochastic, NonAdaptive])
    @pytest.mark.parametrize("delta, L, message", [
        (0.0, 1.0, "delta in"), (1.0, 1.0, "delta in"),
        (None, 1.0, "delta in"), (0.1, 0.0, "L > 0"), (0.1, -1.0, "L > 0"),
        (0.1, None, "L > 0"), (0.1, math.nan, "L > 0")])
    def test_invalid_mode_construction(self, cls, delta, L, message):
        with pytest.raises(ValueError, match=message):
            cls(delta=delta, L=L)

    @pytest.mark.parametrize("mode", [
        Deterministic(), Stochastic(delta=0.1, L=1.0),
        NonAdaptive(delta=0.1, L=1.0)])
    @pytest.mark.parametrize("k", [0, -1])
    def test_round_below_one_rejected(self, mode, k):
        delta, L = getattr(mode, "delta", None), getattr(mode, "L", None)
        with pytest.raises(ValueError, match="round k must be >= 1"):
            damping_for_round(k, 100, delta, L, mode)

    def test_modes_only(self):
        for mode in ("deterministic", "stochastic", "nonadaptive"):
            with pytest.raises(ValueError, match="unknown mode"):
                damping_for_round(2, 100, 0.1, 1.0, mode)

    def test_delta_and_L_must_match_the_mode(self):
        with pytest.raises(ValueError, match="differ"):
            damping_for_round(2, 100, 0.2, 1.0, Stochastic(delta=0.1, L=1.0))
        with pytest.raises(ValueError, match="differ"):
            damping_for_round(2, 100, 0.1, 2.0, NonAdaptive(delta=0.1, L=1.0))

    def test_nonadaptive_values(self):
        mode = NonAdaptive(delta=0.1, L=2.0)
        d = damping_for_round(4, 1000, 0.1, 2.0, mode)
        assert d.alpha == 32 ** 2 * round_constant(4, 1000, 0.1)
        assert d.beta == 0.0 and d.mode is mode

    @pytest.mark.parametrize("mode", [
        Deterministic(), Stochastic(delta=0.1, L=1.0),
        NonAdaptive(delta=0.1, L=1.0)])
    def test_one_damping_per_round_run(self, mode, monkeypatch):
        rounds = []
        real = tuner.damping_for_round

        def counted(k, *args):
            rounds.append(k)
            return real(k, *args)
        monkeypatch.setattr(tuner, "damping_for_round", counted)
        # x0 = 100 is far enough that rounds 2 and 4 end infeasible
        res = tune(abs_oracle(), WHOLE, np.array([100.0]), budget=4096,
                   eta_eps=1 / 16, mode=mode)
        assert rounds == [2 ** j for j in range(1, res.k_final.bit_length())]
        if isinstance(mode, Deterministic):
            assert len(rounds) >= 2


class TestStepSizeExp:
    @pytest.mark.parametrize("eta_eps", [1e-3, 1 / 16, 0.3, 1e140, 5e-324,
                                         1e308])
    def test_grid_step_is_the_product_where_2_to_j_is_a_float(self, eta_eps):
        for j in range(1024):
            assert (np.float64(grid_step(eta_eps, j)).tobytes()
                    == np.float64(eta_eps * 2.0 ** j).tobytes())

    def test_grid_step_is_total(self):
        # 2.0 ** j raises OverflowError from j = 1024 on
        assert grid_step(1e-300, 1024) == math.ldexp(1e-300, 1024) < math.inf
        for j in (1024, 1100, 2 ** 16, 2 ** 40):
            assert grid_step(1.0, j) == math.inf

    def test_candidate_past_the_float_range_is_a_numerical_failure(self):
        # from x0 = 0 toward c = 1e300 every top candidate up to 2^256 walks
        # straight and passes, so round 16 runs j = 2^16, at +inf
        c = np.array([1e300])
        oracle = query_oracle(query=lambda x, rng: np.sign(x - c))
        with pytest.raises(NumericalFailure) as info:
            tune(oracle, WHOLE, np.zeros(1), budget=64, eta_eps=1.0)
        assert (info.value.step, info.value.what) == (0, "iterate")


class TestBisection:
    def test_hand_example(self):
        # |x| from x0=1, T=4: interval [1/16, 1] narrows to [1/4, 1/2] and
        # the selection rule picks the low endpoint
        out = root_finding_bisection(
            abs_oracle(), WHOLE, np.array([1.0]), eta_eps=1 / 16, k=2, T=4,
            damping=DampingParams(3.0, 0.0))
        assert out.kind == "normal"
        assert out.evaluations[out.o].eta == 0.25
        assert (out.o, out.lo, out.hi) == (2, 2, 3)  # the low endpoint
        assert list(out.evaluations) == [4, 0, 2, 3]
        assert [tr.eta for tr in out.evaluations.values()] == \
            [1.0, 1 / 16, 1 / 4, 1 / 2]

    def test_upper_limit_infeasible(self):
        out = root_finding_bisection(
            abs_oracle(), WHOLE, np.array([1.0]), eta_eps=1 / 256, k=2, T=4,
            damping=DampingParams(3.0, 0.0))
        assert out.kind == "infeasible"
        assert len(out.evaluations) == 1

    def test_edge_low_at_optimum(self):
        out = root_finding_bisection(
            abs_oracle(), WHOLE, np.array([0.0]), eta_eps=0.5, k=2, T=4,
            damping=DampingParams(3.0, 0.0))
        assert out.kind == "edge_low_step"
        assert out.o == 0 and out.evaluations[0].eta == 0.5
        assert len(out.evaluations) == 2

    def test_output_property_needs_a_selected_outcome(self):
        out = root_finding_bisection(
            abs_oracle(), WHOLE, np.array([1.0]), eta_eps=1 / 256, k=2, T=4,
            damping=DampingParams(3.0, 0.0))
        assert out.kind == "infeasible"
        with pytest.raises(ValueError, match="selected outcomes only"):
            verify_output_property(out, DampingParams(3.0, 0.0))

    def test_round_below_one_rejected(self):
        for k in (0, -1):
            with pytest.raises(ValueError, match="round k must be >= 1"):
                root_finding_bisection(
                    abs_oracle(), WHOLE, np.array([1.0]), eta_eps=0.1, k=k,
                    T=4, damping=DampingParams(3.0, 0.0))


MEMBERS = [("l1", "none", 0.0), ("l1", "sphere", 0.5),
           ("quadratic", "sphere", 0.5), ("huber", "signflip", 0.2),
           ("sc_quadratic", "none", 0.0), ("logistic", "none", 0.0)]
_members = {}


def member_problem(member):
    if member not in _members:
        family, noise, param = member
        spec = ProblemSpec(family=family, dimension=3, noise=noise,
                           noise_param=param, n_samples=50)
        _members[member] = make_problem(spec, 0)
    return _members[member]


class TestEachCandidateRunsOnce:
    """Each round's bisection runs every candidate once, and ``traces`` holds
    exactly the runs ``tune`` made and charged."""

    @given(member=st.sampled_from(MEMBERS),
           mode=st.sampled_from(["deterministic", "stochastic",
                                 "nonadaptive"]),
           budget=st.integers(1, 600), log2_eta_eps=st.integers(-12, 0),
           dist=st.sampled_from([0.0, 0.5, 4.0]), seed=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_runs_equal_traces(self, member, mode, budget, log2_eta_eps,
                               dist, seed):
        oracle, domain, x_star, _ = member_problem(member)
        L = oracle.norm_bound_L
        mode = {"deterministic": Deterministic(),
                "stochastic": Stochastic(delta=0.1, L=L),
                "nonadaptive": NonAdaptive(delta=0.1, L=L)}[mode]
        runs, outcomes, runs_per_bisection = [], [], []
        real_run, real_bisect = tuner.sgd_run, tuner.root_finding_bisection

        def counted_run(*args, **kwargs):
            runs.append(real_run(*args, **kwargs))
            return runs[-1]

        def recorded_bisect(*args, **kwargs):
            before = len(runs)
            outcomes.append(real_bisect(*args, **kwargs))
            runs_per_bisection.append(len(runs) - before)
            return outcomes[-1]
        tuner.sgd_run, tuner.root_finding_bisection = (counted_run,
                                                       recorded_bisect)
        try:
            result = tune(oracle, domain, default_x0(domain, x_star, dist, 0),
                          budget=budget, eta_eps=2.0 ** log2_eta_eps,
                          mode=mode, master_seed=seed)
        finally:
            tuner.sgd_run, tuner.root_finding_bisection = (real_run,
                                                           real_bisect)
        # a rerun of a candidate would overwrite its entry, not add one
        assert runs_per_bisection == [len(o.evaluations) for o in outcomes]
        assert len(runs) == len(result.traces)
        assert sorted(map(id, runs)) == sorted(map(id, result.traces.values()))
        assert result.total_queries == sum(
            tr.T for tr in result.traces.values())


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestIntegerBisection:
    """The bisection over the exponents 0..2^k of the grid eta_eps * 2^j."""

    @given(member=st.sampled_from(MEMBERS), k=st.integers(1, 5),
           stochastic=st.booleans(), T=st.integers(1, 16),
           log2_eta_eps=st.integers(-12, 0),
           dist=st.sampled_from([0.0, 0.5, 4.0]), seed=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_runs_on_the_grid(self, member, k, stochastic, T, log2_eta_eps,
                              dist, seed):
        oracle, domain, x_star, _ = member_problem(member)
        L = oracle.norm_bound_L
        mode = Stochastic(delta=0.1, L=L) if stochastic else Deterministic()
        damping = damping_for_round(k, 64, 0.1, L, mode)
        x0 = default_x0(domain, x_star, dist, 0)
        eta_eps = 2.0 ** log2_eta_eps
        out = root_finding_bisection(oracle, domain, x0, eta_eps, k, T,
                                     damping, master_seed=seed)
        runs = out.evaluations
        for j, tr in runs.items():
            assert tr.eta == eta_eps * 2.0 ** j and tr.T == T
        if 0 in runs:  # the run at eta_eps reads the stream of (k, 0)
            again = sgd_run(oracle, domain, x0, eta_eps, T,
                            oracle.run_stream(seed, "trace", k, 0))
            assert np.array_equal(again.xs, runs[0].xs, equal_nan=True)
        # replay: 2^k first, then 0, then the midpoint of the interval left
        lo, hi = 0, 2 ** k
        order = [hi]
        if not passes(runs[hi], damping):
            order.append(lo)
            if passes(runs[lo], damping):
                while hi - lo > 1:
                    order.append((lo + hi) // 2)
                    if passes(runs[order[-1]], damping):
                        lo = order[-1]
                    else:
                        hi = order[-1]
        assert list(runs) == order
        if out.kind == "normal":
            assert out.hi == out.lo + 1 and out.o in (out.lo, out.hi)
            assert len(runs) == k + 2
            assert verify_output_property(out, damping)


class TestTune:
    def test_hand_example_b64(self):
        res = tune(abs_oracle(), WHOLE, np.array([1.0]), budget=64,
                   eta_eps=1 / 16)
        assert res.case == "normal"
        assert grid_step(res.eta_eps, res.eta.exponent) == 0.25
        assert res.T == 16
        assert res.x_bar[0] == 0.15625
        assert res.total_queries == 64
        assert res.k_final == 2

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
                   eta_eps=1 / 16)
        assert verify_output_property(res.final_outcome, res.damping_final)

    def test_g0_not_charged(self):
        calls = [0]

        def counted(x, rng):
            calls[0] += 1
            return np.sign(x)
        oracle = replace(abs_oracle(), sampler=per_sample(counted))
        res = tune(oracle, WHOLE, np.array([1.0]), budget=64, eta_eps=1 / 16)
        assert res.total_queries == 64  # budget accounting excludes it
        assert calls[0] == 64 + 1

    @given(shift=st.integers(-2, 2), seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_scale_equivariance(self, shift, seed):
        # rescaling the problem and eta_eps by a power of two rescales the
        # selected step size and output exactly (noiseless, same streams)
        s = 2.0 ** shift
        grad = lambda x: np.sign(x)
        oracle = query_oracle(query=lambda x, rng: grad(x))
        base = tune(oracle, WHOLE, np.array([1.0]), budget=128,
                    eta_eps=1 / 32, master_seed=seed)
        scaled = tune(oracle, WHOLE, np.array([s * 1.0]), budget=128,
                      eta_eps=s / 32, master_seed=seed)
        assert scaled.case == base.case
        if base.case == "normal":
            assert scaled.eta.exponent == base.eta.exponent
            assert (grid_step(scaled.eta_eps, scaled.eta.exponent)
                    == pytest.approx(s * grid_step(base.eta_eps,
                                                   base.eta.exponent)))
            assert scaled.x_bar[0] == pytest.approx(s * base.x_bar[0],
                                                    rel=1e-12)

    def test_runs_stay_in_a_ball_below_the_square_underflow(self):
        # tune --family quadratic --dimension 2 --radius 1e-170
        # --center-scale 0 --x0-dist 1.5e-170: x0 starts outside the ball,
        # where squared distances underflow, and is projected onto it
        spec = ProblemSpec(family="quadratic", dimension=2, radius=1e-170,
                           center_scale=0.0)
        oracle, domain, x_star, _ = make_problem(spec, seed=0)
        x0 = default_x0(domain, x_star, 1.5e-170, seed=0)
        res = tune(oracle, domain, x0, budget=256, eta_eps=1e-3)
        limit = spec.radius * (1 + tuner.RTOL)
        assert norm(res.x0 - domain.center) <= limit
        for tr in res.traces.values():
            assert norm(tr.xs - domain.center, axis=1).max() <= limit

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

    def test_started_at_the_optimum(self):
        # at the optimum of |x| every step size fails its check (phi = 0)
        # and the first gradient is 0
        res = tune(abs_oracle(), WHOLE, np.array([0.0]), budget=64,
                   eta_eps=1 / 16)
        assert res.case == "edge_low_step" and res.eta.exponent == 0
        assert res.g0_norm == 0.0

    def test_g0_side_query_is_not_a_run(self):
        # the g0 side query sees a zero gradient, every later query sign(x);
        # eta_eps = 4 overshoots |x| from 1, so round 2 ends edge_low_step
        calls = [0]

        def query(x, rng):
            calls[0] += 1
            return np.zeros(1) if calls[0] == 1 else np.sign(x)
        oracle = query_oracle(query=query)
        res = tune(oracle, WHOLE, np.array([1.0]), budget=64, eta_eps=4.0)
        assert res.case == "edge_low_step" and res.eta.exponent == 0
        assert res.g0_norm == 0.0
        assert not np.array_equal(res.x_bar, res.x0)


class TestInitialStepSize:
    def test_relative_eta_eps(self):
        assert relative_eta_eps(2.0, 4.0, 100) == pytest.approx(0.005)
        with pytest.raises(ValueError):
            relative_eta_eps(1.0, 0.0, 100)

    def test_relative_mode_makes_one_g0_query(self):
        calls = [0]

        def query(x, rng):
            calls[0] += 1
            return np.sign(x)
        oracle = query_oracle(query=query)
        result = tune(oracle, WHOLE, np.array([1.0]), budget=256, r_eps=0.5)
        assert result.eta_eps == relative_eta_eps(0.5, result.g0_norm, 256)
        assert calls[0] == result.total_queries + 1

    @pytest.mark.parametrize("g0_norm", [math.inf, math.nan])
    def test_relative_mode_non_finite_first_gradient(self, g0_norm):
        with pytest.raises(NumericalFailure,
                           match="non-finite gradient at step 0"):
            relative_eta_eps(1.0, g0_norm, 64)

    @pytest.mark.parametrize("r_eps, g0_norm", [(5e-324, 1.0),
                                                (1.0, 1e308)])
    def test_relative_mode_eta_eps_underflow(self, r_eps, g0_norm):
        with pytest.raises(ValueError, match="r_eps .* not a positive float"):
            relative_eta_eps(r_eps, g0_norm, 64)

    def test_relative_mode_first_gradient_below_the_square_underflow(self):
        # ||g0|| = 2^-540, whose square underflows to 0, is not a zero length
        spec = ProblemSpec(family="quadratic", dimension=3, center_scale=0.0)
        oracle, domain, _, _ = make_problem(spec, 0)
        res = tune(oracle, domain, np.array([2.0 ** -540, 0.0, 0.0]),
                   budget=64, r_eps=2.0 ** -560)
        assert res.g0_norm == 2.0 ** -540
        assert res.eta_eps == relative_eta_eps(2.0 ** -560, 2.0 ** -540, 64)

    def test_relative_mode_zero_first_gradient(self):
        oracle = query_oracle(query=lambda x, rng: np.zeros(1))
        with pytest.raises(ZeroFirstGradient):
            tune(oracle, WHOLE, np.array([1.0]), budget=256, r_eps=0.5)

    @pytest.mark.parametrize("setting", ["eta_eps", "r_eps"])
    @pytest.mark.parametrize("value", [math.nan, 0.0])
    def test_step_size_settings_must_be_positive(self, setting, value):
        with pytest.raises(ValueError, match=f"{setting} must be positive"):
            tune(abs_oracle(), WHOLE, np.array([1.0]), budget=64,
                 **{setting: value})

    def test_one_of_eta_eps_and_r_eps(self):
        oracle = abs_oracle()
        for kwargs in ({}, {"eta_eps": 0.1, "r_eps": 0.5}):
            with pytest.raises(ValueError, match="exactly one"):
                tune(oracle, WHOLE, np.array([1.0]), budget=256, **kwargs)


def eta_max_diagnostic(d0: float, g0_norm: float,
                       damping: DampingParams) -> float:
    """Largest step size that can still pass the certificate check: above
    it eta > phi(eta) is guaranteed, which bounds the terminal round of the
    doubling loop."""
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


class TestEtaMaxDiagnostic:
    def test_deterministic(self):
        d = DampingParams(3.0, 0.0)
        assert eta_max_diagnostic(1.0, 1.0, d) == pytest.approx(math.sqrt(3))

    def test_zero_distance(self):
        assert eta_max_diagnostic(0.0, 1.0, DampingParams(3.0, 0.0)) == 0.0

    def test_stochastic(self):
        d = DampingParams(4.0, 0.0, mode=Stochastic(delta=0.1, L=1.0))
        assert eta_max_diagnostic(1.0, 1.0, d) == pytest.approx(4.0)

    def test_alpha_too_small_rejected(self):
        d = DampingParams(2.0, 0.0, mode=Stochastic(delta=0.1, L=1.0))
        with pytest.raises(ValueError, match="stochastic form needs alpha"):
            eta_max_diagnostic(1.0, 1.0, d)
        with pytest.raises(ValueError, match="deterministic form needs alpha"):
            eta_max_diagnostic(1.0, 1.0, DampingParams(1.0, 0.0))

    def test_zero_gradient_has_no_largest_step(self):
        assert eta_max_diagnostic(1.0, 0.0, DampingParams(3.0, 0.0)) == \
            math.inf

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
    G = inf and a finite r_bar ~ eta * 1e200. Each candidate's first step
    lands on (eta, 0), so the window picks the step sizes whose runs
    overflow."""
    c = np.array([1.0, 0.0])

    def query(x, rng):
        if lo < x[0] < hi:
            return np.array([-1e200, 0.0])
        return np.sign(x - c)
    return query_oracle(query=query)


# runs of 12 steps from 0: eta = 1e-3 overflows in the first window, every
# eta >= 10 in the second; no other run on the dyadic grid from 1e-3 does
OVERFLOW_AT_LO = (0.0, 2e-3)
OVERFLOW_AT_HI = (10.0, 1e100)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestOverflowedCandidates:
    """A run whose G overflows has phi = r_bar / inf = 0 (nan where r_bar
    overflows too), and its candidate fails the check wherever the check is
    made."""

    def bisect(self, window):
        return root_finding_bisection(
            overflow_oracle(*window), WHOLE, np.zeros(2), eta_eps=1e-3, k=4,
            T=12, damping=DampingParams(3.0, 0.0))

    def overflowed(self, outcome):
        return [j for j, tr in outcome.evaluations.items()
                if math.isinf(tr.G) and math.isfinite(tr.r_bar)
                and phi(tr, DampingParams(3.0, 0.0)) == 0.0]

    def test_at_lo_in_bisection(self):
        out = self.bisect(OVERFLOW_AT_LO)
        assert self.overflowed(out) == [0]
        assert out.kind == "edge_low_step" and out.o == 0

    def test_at_hi_in_bisection(self):
        out = self.bisect(OVERFLOW_AT_HI)
        assert self.overflowed(out) == [16]
        assert out.kind == "normal"
        assert out.hi == 8 and out.o == 7

    def test_in_tune(self):
        # round 2 (T = 12) passes at its hi; round 4 (T = 6) decides
        res = tune(overflow_oracle(*OVERFLOW_AT_LO), WHOLE, np.zeros(2),
                   budget=48, eta_eps=1e-3)
        assert res.k_final == 4 and res.case == "edge_low_step"
        assert math.isinf(res.traces[(4, res.eta.exponent)].G)
        res = tune(overflow_oracle(*OVERFLOW_AT_HI), WHOLE, np.zeros(2),
                   budget=48, eta_eps=1e-3)
        assert res.k_final == 4 and res.case == "normal"
        assert math.isinf(res.traces[(4, 16)].G)
        assert res.eta.exponent == 7
