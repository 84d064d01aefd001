import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import abs_oracle, query_oracle
from stepfree import NumericalFailure, ProjectionDomain, derive_stream, sgd_run
from stepfree.core import TINY_LENGTH, norm, row_squares, square


def zero_oracle(d=3):
    return query_oracle(query=lambda x, rng: np.zeros(d))


WHOLE = ProjectionDomain.whole_space()


class TestSgdRun:
    @pytest.mark.parametrize("eta", [0.0, -0.25])
    def test_nonpositive_step_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be positive"):
            sgd_run(abs_oracle(), WHOLE, np.array([1.0]), eta, 4, stream=0)

    def test_zero_gradient(self):
        x0 = np.array([1.0, -2.0, 0.5])
        tr = sgd_run(zero_oracle(), WHOLE, x0, 0.7, 5, stream=0)
        assert tr.r_bar == 0.0
        assert tr.G == 0.0
        assert np.array_equal(tr.x_avg, x0)

    def test_abs_quarter_step(self):
        tr = sgd_run(abs_oracle(), WHOLE, np.array([1.0]), 0.25, 4, stream=0)
        assert np.array_equal(tr.xs.ravel(), [1.0, 0.75, 0.5, 0.25, 0.0])
        assert tr.G == 4.0
        assert tr.r_bar == 1.0
        assert tr.x_avg[0] == 0.625

    def test_G_is_the_correctly_rounded_sum(self):
        # four squares whose Kahan (compensated) sum is one ulp above the
        # correctly rounded 4.677252341560799
        rows = iter([[-0.12853466, 1.36646347], [-0.66519467, 0.35151007],
                     [0.90347018, 0.0940123], [-0.74349925, -0.92172538]])
        oracle = query_oracle(query=lambda x, rng: next(rows), noiseless=True)
        tr = sgd_run(oracle, WHOLE, np.zeros(2), 1e-3, 4, stream=None)
        assert tr.G == math.fsum(g.dot(g) for g in tr.gs)
        assert tr.G == 4.677252341560799

    def test_G_past_the_float_range(self):
        # each square 1e308 is finite; their sum is not
        oracle = query_oracle(query=lambda x, rng: np.array([1e154, 0.0]),
                              noiseless=True)
        tr = sgd_run(oracle, WHOLE, np.zeros(2), 1e-3, 2, stream=None)
        assert all(math.isfinite(g.dot(g)) for g in tr.gs)
        assert tr.G == math.inf

    def test_abs_oscillating(self):
        tr = sgd_run(abs_oracle(), WHOLE, np.array([1.0]), 2.0, 4, stream=0)
        assert np.array_equal(tr.xs.ravel(), [1.0, -1.0, 1.0, -1.0, 1.0])
        assert tr.G == 4.0
        assert tr.r_bar == 2.0
        assert tr.x_avg[0] == 0.0

    def test_projection_interval(self):
        # f(x) = x on [0, 2]: one step reaches the boundary and stays
        oracle = query_oracle(query=lambda x, rng: np.ones(1))
        dom = ProjectionDomain.ball(np.ones(1), 1.0)
        tr = sgd_run(oracle, dom, np.array([0.5]), 1.0, 2, stream=0)
        assert np.array_equal(tr.xs.ravel(), [0.5, 0.0, 0.0])
        assert tr.G == 2.0
        assert tr.r_bar == 0.5

    def test_determinism(self):
        spec = dict(x0=np.array([2.0, -1.0]), eta=0.1, T=20, stream=987654321)
        noisy = query_oracle(query=lambda x, rng: x + rng.standard_normal(2))
        a = sgd_run(noisy, WHOLE, **spec)
        b = sgd_run(noisy, WHOLE, **spec)
        assert a.G == b.G and a.r_bar == b.r_bar
        assert np.array_equal(a.x_avg, b.x_avg)

    def test_numerical_failure_reports_step(self):
        def bad_query(x, rng):
            return np.full(1, np.nan) if bad_query.n == 3 else np.ones(1)
        bad_query.n = 0

        def counting(x, rng):
            g = bad_query(x, rng)
            bad_query.n += 1
            return g

        oracle = query_oracle(query=counting)
        with pytest.raises(NumericalFailure) as err:
            sgd_run(oracle, WHOLE, np.zeros(1), 0.1, 10, stream=0)
        assert err.value.step == 3

    def test_records_own_their_memory(self):
        # a trace holds its two records and no buffer behind them
        T, d = 8, 3
        tr = sgd_run(abs_oracle(), WHOLE, np.ones(d), 0.25, T, stream=0)
        assert tr.xs.base is None and tr.gs.base is None
        assert tr.xs.nbytes + tr.gs.nbytes == (2 * T + 1) * d * 8

    def test_r_bar_below_the_square_underflow_rounds_as_per_row_norms(self):
        # every displacement square underflows; r_bar is still the largest
        # ||x_i - x_0||, each rounded as np.linalg.norm rounds one row
        rng = np.random.default_rng(0)
        for _ in range(50):
            g, x0 = rng.standard_normal(5), rng.standard_normal(5) * 1e-200
            oracle = query_oracle(query=lambda x, rng, g=g: g,
                                  noiseless=True)
            tr = sgd_run(oracle, WHOLE, x0, 1e-200, 4, stream=None)
            assert tr.r_bar == 2.0 ** -600 * max(
                float(np.linalg.norm((x - x0) * 2.0 ** 600))
                for x in tr.xs[1:])

    def test_value_tracking(self):
        oracle = abs_oracle()
        tr = sgd_run(oracle, WHOLE, np.array([1.0]), 0.25, 4, stream=0,
                     value_fn=oracle.exact_value)
        assert tr.best_f == 0.0
        assert tr.best_x[0] == 0.0
        assert tr.value_avg == (1.0 + 0.75 + 0.5 + 0.25) / 4


class TestTraceInvariants:
    @given(eta=st.floats(0.01, 4.0), T=st.integers(1, 30),
           seed=st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_summary_bounds(self, eta, T, seed):
        rng = np.random.default_rng(seed)
        d = 3
        c = rng.standard_normal(d)
        oracle = query_oracle(
            query=lambda x, r: np.sign(x - c) + 0.3 * r.standard_normal(d))
        tr = sgd_run(oracle, WHOLE, rng.standard_normal(d), eta, T,
                     stream=seed)
        assert len(tr.gs) == T  # one recorded gradient per query
        assert tr.r_bar <= eta * np.sqrt(T * tr.G) + 1e-9
        assert tr.G >= tr.gs[0] @ tr.gs[0] - 1e-12
        if tr.r_bar > 0:
            assert tr.G > 0
        # summaries recompute exactly from the record
        assert np.allclose(tr.x_avg, tr.xs[:T].mean(axis=0), atol=1e-12)
        r_rec = max(np.linalg.norm(tr.xs - tr.xs[0], axis=1))
        assert tr.r_bar == pytest.approx(r_rec, abs=1e-12)
        g_rec = float(np.sum(tr.gs * tr.gs))
        assert tr.G == pytest.approx(g_rec, rel=1e-12)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_per_step_subgradient_inequality(self, seed):
        rng = np.random.default_rng(seed)
        d, T, eta = 4, 20, 0.2
        c = rng.standard_normal(d)
        grad = lambda x: x - c
        oracle = query_oracle(query=lambda x, r: grad(x),
                              exact_subgradient=grad)
        tr = sgd_run(oracle, WHOLE, rng.standard_normal(d) * 2, eta, T,
                     stream=seed)
        series = norm(tr.xs - c, axis=1)
        d0 = series[0]
        for i in range(T):
            lhs = series[i + 1] ** 2
            rhs = (series[i] ** 2
                   - 2 * eta * float(tr.gs[i] @ (tr.xs[i] - c))
                   + eta ** 2 * float(tr.gs[i] @ tr.gs[i]))
            assert lhs <= rhs + 1e-9
        # noiseless bounded growth: d_t^2 <= d0^2 + eta^2 G_t
        g_prefix = np.cumsum(np.sum(tr.gs * tr.gs, axis=1))
        for t in range(1, T + 1):
            assert series[t] ** 2 <= d0 ** 2 + eta ** 2 * g_prefix[t - 1] + 1e-9

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_error_bound_realization(self, seed):
        # mean suboptimality <= r_bar d0 / (eta T) + eta G / (2 T) noiselessly
        rng = np.random.default_rng(seed)
        d, T, eta = 3, 25, 0.1
        c = rng.standard_normal(d)
        grad = lambda x: np.sign(x - c)
        val = lambda x: float(np.abs(x - c).sum())
        oracle = query_oracle(query=lambda x, r: grad(x),
                              exact_subgradient=grad, exact_value=val)
        tr = sgd_run(oracle, WHOLE, rng.standard_normal(d), eta, T,
                     stream=seed, value_fn=val)
        d0 = float(np.linalg.norm(tr.x0 - c))
        f_star = 0.0
        bound = tr.r_bar * d0 / (eta * T) + eta * tr.G / (2 * T)
        assert tr.value_avg - f_star <= bound + 1e-9


class TestTraceDistances:
    def test_at_optimum(self):
        tr = sgd_run(zero_oracle(1), WHOLE, np.zeros(1), 1.0, 3, stream=0)
        series = norm(tr.xs - np.zeros(1), axis=1)
        d0, d_bar = series[0], series.max()
        assert d0 == 0.0 and d_bar == 0.0

    def test_abs_series(self):
        tr = sgd_run(abs_oracle(), WHOLE, np.array([1.0]), 0.25, 4, stream=0)
        series = norm(tr.xs - np.zeros(1), axis=1)
        d0, d_bar = series[0], series.max()
        assert d0 == 1.0 and d_bar == 1.0
        assert np.array_equal(series, [1.0, 0.75, 0.5, 0.25, 0.0])

    def test_oscillating_series(self):
        tr = sgd_run(abs_oracle(), WHOLE, np.array([1.0]), 2.0, 4, stream=0)
        series = norm(tr.xs - np.zeros(1), axis=1)
        d_bar = series.max()
        assert d_bar == 1.0
        assert np.all(series == 1.0)

    def test_beyond_the_square_overflow(self):
        # the squares of entries beyond ~1.3e154 overflow; their distances
        # do not
        with np.errstate(over="ignore"):
            tr = sgd_run(abs_oracle(), WHOLE, np.array([2e155]), 1e155, 2,
                         stream=0)
            series = norm(tr.xs - np.zeros(1), axis=1)
            d0, d_bar = series[0], series.max()
            assert (d0, d_bar) == (2e155, 2e155)
            assert np.array_equal(series, [2e155, 1e155, 0.0])
            tr = sgd_run(zero_oracle(2), WHOLE, np.array([3e155, -4e155]),
                         1.0, 1, stream=0)
            series = norm(tr.xs - np.zeros(2), axis=1)
        assert series == pytest.approx([5e155, 5e155], rel=1e-15)


class TestSquare:
    def test_power_bits_where_finite(self):
        # the bits of the ** it replaces, which where pow is not correctly
        # rounded (glibc's) differ from x * x's on a few inputs, the first
        # two here among them
        x = [0.3624182010806754, 1.8871580461934296, -3.0, 1e150, 5e-324]
        assert [square(v) for v in x] == [v ** 2 for v in x]

    @pytest.mark.parametrize("x", [1.4e154, -1e160, 1.7e308, math.inf])
    def test_inf_past_the_float_range(self, x):
        assert square(x) == math.inf


class TestNorm:
    @given(v=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_linalg_bits_where_finite(self, v):
        # np.linalg.norm's bits where no square can have underflowed (the
        # length is 0 or at least TINY_LENGTH), hypot's length elsewhere
        v = np.array(v)
        rows = np.stack([v, -v, 0.5 * v])
        ref = np.linalg.norm(rows, axis=1)
        kept = (ref >= TINY_LENGTH) | ~rows.any(axis=1)
        lengths = norm(rows, axis=1)
        assert lengths[kept].tobytes() == ref[kept].tobytes()
        if kept[0]:  # a 1-D v, as an array and as a list of floats
            for one in (v, v.tolist()):
                assert (np.float64(norm(one)).tobytes()
                        == np.linalg.norm(v).tobytes())
        for row, length in zip(rows[~kept], lengths[~kept]):
            assert length == pytest.approx(math.hypot(*row), rel=1e-15,
                                           abs=2.0 ** -1073)

    def test_strided_1d_takes_linalg_bits(self):
        # a strided view sums in another order than its contiguous copy
        # unless it is raveled first, as np.linalg.norm does
        A = np.random.default_rng(1).standard_normal((200, 3))
        for v in (A[:, 1], A[::-1, 2], A[::-3, 0]):
            assert (np.float64(norm(v)).tobytes()
                    == np.linalg.norm(v).tobytes())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("s", [0, 200, 520, 1000, -520, -540])
    def test_scales_by_the_power_of_two(self, s):
        v = np.array([0.3, -0.7, 1.1])
        assert norm(np.ldexp(v, s)) == np.ldexp(norm(v), s)
        rows = np.ldexp(np.array([v, [3.0, 4.0, 0.0]]), s)
        assert np.array_equal(norm(rows, axis=1),
                              np.ldexp(norm(rows / 2.0 ** s, axis=1), s))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_beyond_the_square_overflow(self):
        assert norm(np.array([3e200, -4e200])) == pytest.approx(5e200,
                                                               rel=1e-15)
        # +inf only past the float range or at an inf entry, nan at a nan
        rows = np.array([[1.5e308, 1.5e308], [np.inf, 1.0], [np.nan, 1e300],
                         [3.0, 4.0], [1e308, 0.0]])
        assert np.array_equal(norm(rows, axis=1),
                              [np.inf, np.inf, np.nan, 5.0, 1e308],
                              equal_nan=True)
        assert np.array_equal(norm(rows.T, axis=0), norm(rows, axis=1),
                              equal_nan=True)

    def test_below_the_square_underflow(self):
        # the squares of 2^-540 and of 2^-600 underflow to 0
        assert norm(np.array([2.0 ** -540, 0.0, 0.0])) == 2.0 ** -540
        rows = np.array([[2.0 ** -600, 2.0 ** -601, 0.0], [0.0, 0.0, 0.0],
                         [5e-324, 0.0, 0.0]])
        assert np.array_equal(norm(rows, axis=1),
                              [math.ldexp(math.sqrt(1.25), -600), 0.0,
                               5e-324])


class TestRowSquares:
    @given(d=st.integers(1, 50), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_ddot_bits_per_row(self, d, data):
        entry = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from([0.0, -0.0, 5e-324, -2.0 ** -1060, 1e300,
                             -1.3e154, math.inf, -math.inf, math.nan]))
        n = data.draw(st.integers(1, 4))
        M = np.array(data.draw(st.lists(
            st.lists(entry, min_size=d, max_size=d), min_size=n,
            max_size=n)))
        with np.errstate(all="ignore"):
            ref = np.array([row.dot(row) for row in M])
            assert row_squares(M).tobytes() == ref.tobytes()


class TestProjections:
    @given(x=st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           y=st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_nonexpansive(self, x, y):
        x, y = np.array(x), np.array(y)
        domains = [
            ProjectionDomain.whole_space(),
            ProjectionDomain.ball(np.array([1.0, 0.0, -1.0]), 2.0),
        ]
        for dom in domains:
            px, py = dom.project(x), dom.project(y)
            assert np.allclose(dom.project(px), px, atol=1e-12)
            assert (np.linalg.norm(px - py)
                    <= np.linalg.norm(x - y) + 1e-12)
            assert np.linalg.norm(dom.project(px) - px) <= 1e-9

    def test_ball_projection_exact(self):
        dom = ProjectionDomain.ball(np.zeros(2), 1.0)
        p = dom.project(np.array([3.0, 4.0]))
        assert np.allclose(p, [0.6, 0.8])

    @pytest.mark.parametrize("build", [
        lambda: ProjectionDomain.ball(np.zeros(2), -1.0),
        lambda: ProjectionDomain.ball(np.zeros(2), np.nan),
        lambda: ProjectionDomain.ball(np.zeros(2), np.inf),
        lambda: ProjectionDomain.ball(np.array([0.0, np.nan]), 1.0),
        lambda: ProjectionDomain.ball(np.array([np.inf, 0.0]), 1.0),
        # doubling the extent overflows: a projection could round to inf
        lambda: ProjectionDomain.ball(np.array([1e308, 0.0]), 1e307),
        lambda: ProjectionDomain(kind="sphere"),
        lambda: ProjectionDomain(kind="box"),
    ])
    def test_degenerate_domains_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_edge_domains_accepted(self):
        ProjectionDomain.ball(np.zeros(2), 0.0)
        ProjectionDomain.ball(np.array([4e307, -4e307]), 4e307)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_ball_beyond_the_square_overflow(self):
        # finite points whose squared distance to the center overflows:
        # inside the ball they stay where they are, outside they land on
        # the sphere
        for center in (np.zeros(2), np.array([1e199, -3e199])):
            dom = ProjectionDomain.ball(center, 1e200)
            for offset in ([1e190, 0.0], [6e199, -7e199], [-2e185, 3e185]):
                x = center + np.array(offset)
                assert np.array_equal(dom.project(x), x)
                assert not dom.project_in_place(x.copy())  # a failed screen
            for offset in ([3e200, 4e200], [1e300, -1e250], [-1e201, 0.0]):
                x = center + np.array(offset)
                p = dom.project(x)
                assert norm(p - center) == pytest.approx(1e200, rel=1e-15)
                assert np.allclose((p - center) / 1e200,
                                   (x - center) / norm(x - center),
                                   rtol=1e-12, atol=1e-15)
        dom = ProjectionDomain.ball(np.zeros(2), 1e200)
        assert np.array_equal(dom.project([1e160, 0.0]), [1e160, 0.0])

    @pytest.mark.parametrize("radius, x", [
        (1e-170, [1.5e-170, 0.0]), (2.0 ** -560, [2.0 ** -559, 0.0])])
    def test_ball_below_the_square_underflow(self, radius, x):
        # the squared distance underflows to 0 (or to a subnormal); the
        # point still lies outside the ball and lands on its sphere
        dom = ProjectionDomain.ball(np.zeros(2), radius)
        p = dom.project(x)
        assert norm(p) == pytest.approx(radius, rel=1e-15, abs=0.0)
        assert p[1] == 0.0
        inside = np.array([0.5 * radius, 0.0])
        assert np.array_equal(dom.project(inside), inside)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("dom", [
        WHOLE, ProjectionDomain.ball(np.array([1.0, -1.0]), 2.0)])
    def test_screen(self, dom):
        # the projection is project's, and a pass proves both points finite
        for x in ([0.5, 7.0], [-0.0, 1e-300], [3e200, 1.0], [1e154, 1e154],
                  [np.nan, 0.0], [np.inf, 1.0], [-np.inf, np.inf]):
            x = np.array(x)
            y = x.copy()
            finite = dom.project_in_place(y)
            assert np.array_equal(y, dom.project(x), equal_nan=True)
            if finite:
                assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
            elif np.all(np.isfinite(x)):  # only an overflowed square fails
                assert np.abs(x).max() > 1e150


class TestStreams:
    def test_derive_stream_is_pure(self):
        assert derive_stream(7, "trace", 2, 3) == derive_stream(7, "trace", 2, 3)

    def test_distinct_labels_distinct_streams(self):
        seen = {derive_stream(0, "trace", k, j)
                for k in range(4) for j in range(16)}
        assert len(seen) == 64

    def test_128_bit_range(self):
        s = derive_stream(0, "g0")
        assert 0 <= s < 1 << 128
