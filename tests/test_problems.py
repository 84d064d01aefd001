import math

import numpy as np
import pytest

from stepfree import ProblemSpec, default_x0, make_problem, sgd_run, stream_rng
from stepfree.problems import FAMILIES, grid_search_baseline


def draws(oracle, x, n, seed=0):
    rng = stream_rng(seed)
    return np.stack([oracle.query(x, rng) for _ in range(n)])


class TestConstruction:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_optimum_is_exact(self, family):
        spec = ProblemSpec(family=family, dimension=4)
        oracle, domain, x_star, f_star = make_problem(spec, seed=3)
        assert oracle.exact_value(x_star) == pytest.approx(f_star, abs=1e-12)
        grad_tol = 1e-6 if family == "logistic" else 1e-12
        assert np.linalg.norm(oracle.exact_subgradient(x_star)) <= grad_tol
        assert np.linalg.norm(domain.project(x_star) - x_star) <= 1e-9
        # no interior point can beat f_star
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = domain.project(x_star + rng.standard_normal(4))
            assert oracle.exact_value(x) >= f_star - 1e-9

    def test_quadratic_gradient(self):
        spec = ProblemSpec(family="quadratic", dimension=3, center_scale=0.0,
                           smoothness=1.0)
        oracle, _, x_star, f_star = make_problem(spec, seed=0)
        x = np.array([1.0, -2.0, 0.5])
        assert np.allclose(oracle.exact_subgradient(x), x)
        assert np.array_equal(x_star, np.zeros(3))
        assert f_star == 0.0

    def test_l1_norm_bound(self):
        spec = ProblemSpec(family="l1", dimension=9)
        oracle, _, _, _ = make_problem(spec, seed=0)
        assert oracle.norm_bound_L == pytest.approx(3.0)

    def test_sc_quadratic_domain_radius(self):
        spec = ProblemSpec(family="sc_quadratic", dimension=2, mu=2.0, L=6.0)
        _, domain, _, _ = make_problem(spec, seed=0)
        assert domain.radius == pytest.approx(3.0)

    def test_sc_quadratic_rejects_noise(self):
        spec = ProblemSpec(family="sc_quadratic", dimension=2, noise="sphere",
                           noise_param=0.1)
        with pytest.raises(ValueError):
            make_problem(spec, seed=0)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            make_problem(ProblemSpec(family="cubic", dimension=2), seed=0)
        with pytest.raises(ValueError):
            make_problem(ProblemSpec(family="l1", dimension=0), seed=0)
        with pytest.raises(ValueError):
            make_problem(ProblemSpec(family="logistic", dimension=60), seed=0)
        with pytest.raises(ValueError):
            make_problem(ProblemSpec(family="logistic", dimension=5, reg=0.0),
                         seed=0)
        with pytest.raises(ValueError):
            make_problem(ProblemSpec(family="l1", dimension=2,
                                     noise="signflip", noise_param=0.5),
                         seed=0)

    @pytest.mark.parametrize("field,value", [
        ("dimension", 0), ("n_samples", 0), ("mu", 0.0), ("mu", -1.0),
        ("L", -1.0), ("smoothness", -1.0), ("radius", -1.0),
        ("radius", math.nan), ("radius", math.inf), ("center_scale", math.nan),
        ("center_scale", math.inf), ("noise_param", math.nan),
        ("noise_param", -0.1), ("reg", math.nan), ("reg", -1.0)])
    def test_parameters_without_a_convex_problem_rejected(self, field,
                                                          value):
        with pytest.raises(ValueError, match=field):
            ProblemSpec(**{"family": "quadratic", "dimension": 2,
                           field: value})

    def test_sc_quadratic_radius_must_fit_in_floats(self):
        spec = ProblemSpec(family="sc_quadratic", dimension=2, mu=1e-300,
                           L=1e300)
        with pytest.raises(ValueError, match="ball"):
            make_problem(spec, seed=0)


class TestNoiseModels:
    def test_signflip_p0_is_noiseless(self):
        noisy = ProblemSpec(family="l1", dimension=3, noise="signflip",
                            noise_param=0.0)
        oracle, _, _, _ = make_problem(noisy, seed=2)
        rng = stream_rng(0)
        x = np.array([0.5, -1.0, 2.0])
        for _ in range(10):
            assert np.array_equal(oracle.query(x, rng),
                                  oracle.exact_subgradient(x))

    @pytest.mark.parametrize("spec", [
        ProblemSpec(family="l1", dimension=4, noise="sphere", noise_param=1.0),
        ProblemSpec(family="l1", dimension=4, noise="signflip", noise_param=0.2),
        ProblemSpec(family="huber", dimension=4, noise="sphere", noise_param=0.5),
        ProblemSpec(family="quadratic", dimension=4, noise="signflip",
                    noise_param=0.1),
    ])
    def test_unbiased(self, spec):
        oracle, domain, x_star, _ = make_problem(spec, seed=11)
        rng = np.random.default_rng(4)
        n = 10_000
        for p in range(10):
            x = domain.project(x_star + rng.standard_normal(spec.dimension))
            sample = draws(oracle, x, n, seed=p)
            exact = oracle.exact_subgradient(x)
            se = sample.std(axis=0, ddof=1) / math.sqrt(n)
            assert np.all(np.abs(sample.mean(axis=0) - exact)
                          <= 4 * se + 1e-12)

    @pytest.mark.parametrize("spec", [
        ProblemSpec(family="l1", dimension=3, noise="sphere", noise_param=2.0),
        ProblemSpec(family="quadratic", dimension=3, noise="signflip",
                    noise_param=0.3),
    ])
    def test_norm_bound_holds(self, spec):
        oracle, domain, x_star, _ = make_problem(spec, seed=13)
        rng = np.random.default_rng(9)
        worst = 0.0
        for p in range(10):
            x = domain.project(x_star + 3 * rng.standard_normal(spec.dimension))
            g = draws(oracle, x, 10_000, seed=100 + p)
            worst = max(worst, float(np.linalg.norm(g, axis=1).max()))
        assert worst <= oracle.norm_bound_L


class TestExactSubgradientBlock:
    """A (k, d) block of points gives the per-row subgradients bit for bit."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("k", [1, 2, 33])
    def test_block_equals_rows(self, family, k):
        spec = ProblemSpec(family=family, dimension=5, noise="none")
        oracle, _, x_star, _ = make_problem(spec, seed=2)
        rng = np.random.default_rng(k)
        block = x_star + 2.0 * rng.standard_normal((k, 5))
        block[0, :2] = -0.0
        block[-1, 3:] = 0.0
        if k > 2:
            block[1] = x_star  # every l1 and huber coordinate at its kink
            block[2] = -0.0
        rows = np.stack([oracle.exact_subgradient(x) for x in block])
        got = oracle.exact_subgradient(block)
        assert got.shape == (k, 5)
        assert got.tobytes() == rows.tobytes()
        # a (d,) point still gives a (d,) subgradient
        assert oracle.exact_subgradient(block[0]).shape == (5,)


class TestHelpers:
    def test_default_x0_distance(self):
        spec = ProblemSpec(family="l1", dimension=6)
        _, domain, x_star, _ = make_problem(spec, seed=0)
        x0 = default_x0(domain, x_star, 2.5, seed=1)
        assert np.linalg.norm(x0 - x_star) == pytest.approx(2.5)

    def test_grid_single_element_is_plain_sgd(self):
        spec = ProblemSpec(family="l1", dimension=1, center_scale=0.0)
        oracle, domain, _, f_star = make_problem(spec, seed=0)
        gaps = grid_search_baseline(oracle, domain, np.array([1.0]), B=64,
                                    grid=[0.25], master_seed=0)
        assert list(gaps) == [0.25]
        assert gaps[0.25] >= 0.0

    def test_grid_budget_split(self):
        spec = ProblemSpec(family="l1", dimension=1, center_scale=0.0)
        oracle, domain, _, _ = make_problem(spec, seed=0)
        grid = [2.0 ** -j for j in range(4, -1, -1)]
        gaps = grid_search_baseline(oracle, domain, np.array([1.0]), B=64,
                                    grid=grid, master_seed=0)
        assert len(gaps) == 5  # each candidate ran floor(64/5) = 12 steps
        assert min(gaps.values()) >= 0.0

    def test_grid_rejects_empty(self):
        spec = ProblemSpec(family="l1", dimension=1)
        oracle, domain, _, _ = make_problem(spec, seed=0)
        with pytest.raises(ValueError):
            grid_search_baseline(oracle, domain, np.zeros(1), B=64, grid=[])
