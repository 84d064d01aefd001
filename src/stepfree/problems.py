"""Synthetic convex problems with known optima and bounded-noise oracles.

Every family exposes an exact-subgradient side channel, an optimum, and a
declared norm bound L that holds for every possible oracle sample. Noise
models are constructed so the sample is unbiased and never exceeds L.

The optimum is analytic for every family but logistic, whose optimum is
L-BFGS-B's, unchecked. Over 300 seeds at d = 5, n = 200 its gradient norm
was at most 3.3e-9 (median 8.8e-12), ``x_star`` lay within 2.2e-8 of a
Newton-polished optimum, and ``f_star`` within 2 ulps of its value there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ProjectionDomain, StochasticOracle, norm, sgd_run

FAMILIES = ("l1", "quadratic", "huber", "sc_quadratic", "logistic")


@dataclass(frozen=True)
class ProblemSpec:
    family: str
    dimension: int
    noise: str = "none"
    noise_param: float = 0.0      # sigma for sphere, flip prob for signflip
    center_scale: float = 1.0     # scale of the randomly drawn optimum location
    smoothness: float = 1.0       # S, quadratic family
    mu: float = 1.0               # sc_quadratic family
    L: float = 1.0                # declared bound, sc_quadratic family
    radius: float = 100.0         # ball radius, quadratic / logistic families
    n_samples: int = 200          # logistic family
    reg: float = 0.1              # logistic ridge term

    def __post_init__(self):
        # parameters that give no convex problem, or none with a finite
        # optimum and domain, whatever the family
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        for name in ("noise_param", "center_scale", "smoothness", "mu", "L",
                     "radius", "reg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got "
                                 f"{getattr(self, name)!r}")
        for name in ("noise_param", "smoothness", "L", "radius", "reg"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got "
                                 f"{getattr(self, name)!r}")
        if self.mu <= 0:
            raise ValueError(f"mu must be > 0, got {self.mu!r}")


def _noise_sampler(spec: ProblemSpec, grad_into, sup_grad_norm: float):
    """Build (tape, declared_L) applying the spec's noise model to the exact
    gradient ``grad_into(x, out)``, which writes into ``out``.

    ``tape(rng, T)`` draws the noise of a T-step run from ``rng`` at once, as
    one row per step that ``combine`` applies to the gradient, and returns
    its step function ``step(x, i, out)``; it is the oracle's sampler (see
    :class:`StochasticOracle`), and a single query is its one-row case, so
    both give the same samples bit for bit. Without noise it draws nothing
    and takes ``rng=None``. sphere: adds a uniformly random direction of
    radius sigma; sigma must not exceed the headroom L - sup||grad||, so no
    clipping ever occurs and the sample stays exactly unbiased. signflip:
    flips the gradient's sign with probability p and rescales by 1/(1-2p)
    to stay unbiased.
    """
    if spec.noise == "none":
        step = lambda x, i, out: grad_into(x, out)  # noqa: E731
        return (lambda rng, T: step), sup_grad_norm
    if spec.noise == "sphere":
        sigma = spec.noise_param
        d = spec.dimension

        def draw(rng, T):
            V = rng.standard_normal((T, d))
            # one ddot per row, bit for bit np.linalg.norm(v) of each row;
            # np.linalg.norm(V, axis=1) rounds differently
            nrm = np.sqrt(np.matmul(V[:, None, :], V[:, :, None]).ravel())
            return sigma * (V / np.where(nrm > 0, nrm, 1.0)[:, None])
        combine, L = np.add, sup_grad_norm + sigma
    elif spec.noise == "signflip":
        p = spec.noise_param
        if not (0.0 <= p < 0.5):
            raise ValueError("signflip noise needs p in [0, 0.5)")
        scale = 1.0 / (1.0 - 2.0 * p)

        # each sign as a (d,) row, cheaper to multiply by than a scalar
        signs = (np.full(spec.dimension, -scale), np.full(spec.dimension, scale))

        def draw(rng, T):
            return [signs[keep] for keep in (rng.random(T) >= p).tolist()]
        combine, L = np.multiply, sup_grad_norm * scale
    else:
        raise ValueError(f"unknown noise model {spec.noise!r}")

    def tape(rng, T):
        rows = draw(rng, T)

        def step(x, i, out):
            grad_into(x, out)
            combine(out, rows[i], out)
        return step
    return tape, L


def make_problem(spec: ProblemSpec, seed: int):
    """Instantiate a problem: (oracle, domain, x_star, f_star)."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    d = spec.dimension
    # grad_into(x, out), each family's one gradient, writes into out and
    # takes scalar factors and bounds as (d,) arrays, which numpy combines
    # with less call overhead than scalars, with the same roundings

    def exact_grad(x):
        # grad_into, allocating its result. A (k, d) block of points gets a
        # row each: every family's grad_into is elementwise and takes the
        # block as it is, but logistic's, whose yA.dot(x) takes one point.
        out = np.empty(np.shape(x))
        if out.ndim == 2 and spec.family == "logistic":
            for row, out_row in zip(x, out):
                grad_into(row, out_row)
        else:
            grad_into(x, out)
        return out

    if spec.family == "l1":
        c = spec.center_scale * rng.standard_normal(d)

        def grad_into(x, out):
            # subgradient of |.| fixed to 0 at the kink, making it absorbing
            np.subtract(x, c, out)
            np.sign(out, out)

        def value(x):
            return float(np.abs(x - c).sum())

        domain = ProjectionDomain.whole_space()
        x_star, f_star = c, 0.0
        tape, L = _noise_sampler(spec, grad_into, math.sqrt(d))

    elif spec.family == "quadratic":
        c = spec.center_scale * rng.standard_normal(d)
        S = spec.smoothness
        S_vec = np.full(d, S)

        def grad_into(x, out):
            np.subtract(x, c, out)
            np.multiply(S_vec, out, out)

        def value(x):
            return 0.5 * S * float(np.dot(x - c, x - c))

        domain = ProjectionDomain.ball(c, spec.radius)
        x_star, f_star = c, 0.0
        tape, L = _noise_sampler(spec, grad_into, S * spec.radius)

    elif spec.family == "huber":
        c = spec.center_scale * rng.standard_normal(d)
        lo, hi = np.full(d, -1.0), np.full(d, 1.0)

        def grad_into(x, out):
            np.subtract(x, c, out)
            np.maximum(out, lo, out=out)  # np.clip, cheaper
            np.minimum(out, hi, out=out)

        def value(x):
            u = np.abs(x - c)
            return float(np.where(u <= 1.0, 0.5 * u * u, u - 0.5).sum())

        domain = ProjectionDomain.whole_space()
        x_star, f_star = c, 0.0
        tape, L = _noise_sampler(spec, grad_into, math.sqrt(d))

    elif spec.family == "sc_quadratic":
        # mu-strongly-convex quadratic on the ball of radius L/mu around the
        # optimum; the gradient norm attains exactly L on the boundary, so
        # there is no headroom for noise and only the noiseless oracle is valid.
        if spec.noise != "none":
            raise ValueError("sc_quadratic admits only the noiseless oracle "
                             "(declared L leaves no noise headroom)")
        mu, L = spec.mu, spec.L
        radius = L / mu
        mu_vec = np.full(d, mu)

        def grad_into(x, out):
            np.multiply(mu_vec, x, out)

        def value(x):
            return 0.5 * mu * float(np.dot(x, x))

        domain = ProjectionDomain.ball(np.zeros(d), radius)
        x_star, f_star = np.zeros(d), 0.0
        tape, L = _noise_sampler(spec, grad_into, L)

    else:  # logistic
        n = spec.n_samples
        if d > 50 or n > 1000:
            raise ValueError("logistic instances are desk-scale: d <= 50, n <= 1000")
        A = rng.standard_normal((n, d)) / math.sqrt(d)
        w_true = rng.standard_normal(d)
        y = np.sign(A @ w_true + 0.3 * rng.standard_normal(n))
        y[y == 0] = 1.0
        reg = spec.reg
        if reg <= 0:
            raise ValueError("logistic instances must be regularized (reg > 0)")

        def value(x):
            z = -y * (A @ x)
            return float(np.logaddexp(0.0, z).mean() + 0.5 * reg * np.dot(x, x))

        # the labels folded into A: a +-1 factor commutes with rounding, so
        # yA @ x equals -z and yA.T @ sig equals A.T @ (y * sig) bit for bit
        # (exp(-z) sees at most the sign of a zero change)
        yA = y[:, None] * A

        ones, minus_n, reg_vec = np.ones(n), np.full(d, -n, float), np.full(d, reg)

        def grad_into(x, out):
            # (yA.T @ (1 / (1 + exp(yA @ x)))) / -n + reg * x
            e = np.exp(yA.dot(x))
            e += ones
            np.divide(ones, e, e)
            np.dot(e, yA, out)
            out /= minus_n
            out += reg_vec * x

        # scipy loads here, on first use: every other family needs only numpy
        from scipy.optimize import minimize
        sol = minimize(value, np.zeros(d), jac=exact_grad, method="L-BFGS-B",
                       options={"gtol": 1e-14, "ftol": 0.0, "maxiter": 5000})
        x_star = sol.x
        f_star = float(sol.fun)
        if norm(x_star) >= spec.radius:
            raise ValueError("logistic optimum falls outside the domain ball")
        domain = ProjectionDomain.ball(np.zeros(d), spec.radius)
        sup_grad = float(norm(A, axis=1).max()) + reg * spec.radius
        tape, L = _noise_sampler(spec, grad_into, sup_grad)

    oracle = StochasticOracle(
        sampler=tape, norm_bound_L=L, noiseless=spec.noise == "none",
        exact_subgradient=exact_grad, exact_value=value,
        optimum_info=(np.asarray(x_star, dtype=float), float(f_star)))
    return oracle, domain, np.asarray(x_star, dtype=float), float(f_star)


def default_x0(domain: ProjectionDomain, x_star, dist: float, seed: int) -> np.ndarray:
    """A starting point at the requested distance from the optimum."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD1CE]))
    v = rng.standard_normal(len(x_star))
    v /= norm(v)
    return domain.project(np.asarray(x_star) + dist * v)


def grid_search_baseline(oracle: StochasticOracle, domain: ProjectionDomain,
                         x0, B: int, grid, master_seed: int = 0) -> dict:
    """Plain SGD over a fixed step-size grid at equal total budget.

    Splits B evenly over the grid and reports the optimality gap of the
    averaged iterates for each candidate. Comparison baseline only.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    if oracle.exact_value is None or oracle.optimum_info is None:
        raise ValueError("baseline needs exact values and a known optimum")
    T = B // len(grid)
    if T < 1:
        raise ValueError("budget too small for the grid")
    f_star = oracle.optimum_info[1]
    gaps = {}
    for i, eta in enumerate(grid):
        trace = sgd_run(oracle, domain, x0, eta, T,
                        oracle.run_stream(master_seed, "grid", i))
        gaps[eta] = oracle.exact_value(trace.x_avg) - f_star
    return gaps
