"""Synthetic convex problems with known optima and bounded-noise oracles.

Every family exposes an exact-subgradient side channel, an analytic (or
offline high-precision) optimum, and a declared norm bound L that holds for
every possible oracle sample. Noise models are constructed so the sample is
unbiased and never exceeds L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.optimize import minimize

from .core import ProjectionDomain, StochasticOracle, derive_stream, sgd_run

FAMILIES = ("l1", "quadratic", "huber", "sc_quadratic", "logistic")
NOISE_MODELS = ("none", "sphere", "signflip")


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

    def to_config(self) -> dict:
        return {
            "family": self.family,
            "dimension": str(self.dimension),
            "noise": self.noise,
            "noise_param": repr(self.noise_param),
            "center_scale": repr(self.center_scale),
            "smoothness": repr(self.smoothness),
            "mu": repr(self.mu),
            "L": repr(self.L),
            "radius": repr(self.radius),
            "n_samples": str(self.n_samples),
            "reg": repr(self.reg),
        }

    @staticmethod
    def from_config(cfg: dict) -> "ProblemSpec":
        return ProblemSpec(
            family=cfg["family"],
            dimension=int(cfg["dimension"]),
            noise=cfg.get("noise", "none"),
            noise_param=float(cfg.get("noise_param", 0.0)),
            center_scale=float(cfg.get("center_scale", 1.0)),
            smoothness=float(cfg.get("smoothness", 1.0)),
            mu=float(cfg.get("mu", 1.0)),
            L=float(cfg.get("L", 1.0)),
            radius=float(cfg.get("radius", 100.0)),
            n_samples=int(cfg.get("n_samples", 200)),
            reg=float(cfg.get("reg", 0.1)),
        )


def _sign_zero(u: np.ndarray) -> np.ndarray:
    # subgradient of |.| fixed to 0 at the kink, making it absorbing
    return np.sign(u)


def _noise_sampler(spec: ProblemSpec, exact_grad, sup_grad_norm: float):
    """Build (sampler, declared_L) applying the spec's noise model.

    ``sampler(rng, T)`` draws the noise of a T-step run as one tape and
    returns its step function (see :class:`StochasticOracle`); a single query
    is the tape's one-row case, so both give the same samples bit for bit.
    sphere: adds a uniformly random direction of radius sigma; sigma must not
    exceed the headroom L - sup||grad||, so no clipping ever occurs and the
    sample stays exactly unbiased. signflip: flips the gradient's sign with
    probability p and rescales by 1/(1-2p) to stay unbiased.
    """
    if spec.noise == "none":
        def sampler(rng, T):
            return lambda x, i: exact_grad(x)
        return sampler, sup_grad_norm
    if spec.noise == "sphere":
        sigma = spec.noise_param
        if sigma < 0:
            raise ValueError("sphere noise needs sigma >= 0")
        d = spec.dimension

        def sampler(rng, T):
            V = rng.standard_normal((T, d))
            # one ddot per row, bit for bit np.linalg.norm(v) of each row;
            # np.linalg.norm(V, axis=1) rounds differently
            nrm = np.sqrt(np.matmul(V[:, None, :], V[:, :, None]).ravel())
            noise = sigma * (V / np.where(nrm > 0, nrm, 1.0)[:, None])
            return lambda x, i: exact_grad(x) + noise[i]
        return sampler, sup_grad_norm + sigma
    if spec.noise == "signflip":
        p = spec.noise_param
        if not (0.0 <= p < 0.5):
            raise ValueError("signflip noise needs p in [0, 0.5)")
        scale = 1.0 / (1.0 - 2.0 * p)

        def sampler(rng, T):
            signs = np.where(rng.random(T) >= p, scale, -scale).tolist()
            return lambda x, i: signs[i] * exact_grad(x)
        return sampler, sup_grad_norm * scale
    raise ValueError(f"unknown noise model {spec.noise!r}")


def make_problem(spec: ProblemSpec, seed: int):
    """Instantiate a problem: (oracle, domain, x_star, f_star)."""
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}")
    if spec.dimension < 1:
        raise ValueError("dimension must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    d = spec.dimension

    if spec.family == "l1":
        c = spec.center_scale * rng.standard_normal(d)

        def exact_grad(x):
            return _sign_zero(x - c)

        def value(x):
            return float(np.abs(x - c).sum())

        domain = ProjectionDomain.whole_space()
        x_star, f_star = c, 0.0
        sampler, L = _noise_sampler(spec, exact_grad, math.sqrt(d))

    elif spec.family == "quadratic":
        c = spec.center_scale * rng.standard_normal(d)
        S = spec.smoothness

        def exact_grad(x):
            return S * (x - c)

        def value(x):
            return 0.5 * S * float(np.dot(x - c, x - c))

        domain = ProjectionDomain.ball(c, spec.radius)
        x_star, f_star = c, 0.0
        sampler, L = _noise_sampler(spec, exact_grad, S * spec.radius)

    elif spec.family == "huber":
        c = spec.center_scale * rng.standard_normal(d)

        def exact_grad(x):
            return np.minimum(np.maximum(x - c, -1.0), 1.0)  # np.clip, cheaper

        def value(x):
            u = np.abs(x - c)
            return float(np.where(u <= 1.0, 0.5 * u * u, u - 0.5).sum())

        domain = ProjectionDomain.whole_space()
        x_star, f_star = c, 0.0
        sampler, L = _noise_sampler(spec, exact_grad, math.sqrt(d))

    elif spec.family == "sc_quadratic":
        # mu-strongly-convex quadratic on the ball of radius L/mu around the
        # optimum; the gradient norm attains exactly L on the boundary, so
        # there is no headroom for noise and only the noiseless oracle is valid.
        if spec.noise != "none":
            raise ValueError("sc_quadratic admits only the noiseless oracle "
                             "(declared L leaves no noise headroom)")
        mu, L = spec.mu, spec.L
        radius = L / mu

        def exact_grad(x):
            return mu * x

        def value(x):
            return 0.5 * mu * float(np.dot(x, x))

        domain = ProjectionDomain.ball(np.zeros(d), radius)
        x_star, f_star = np.zeros(d), 0.0
        sampler, L = _noise_sampler(spec, exact_grad, L)

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

        def exact_grad(x):
            sig = 1.0 / (1.0 + np.exp(yA @ x))
            return (yA.T @ sig) / -n + reg * x

        sol = minimize(value, np.zeros(d), jac=exact_grad, method="L-BFGS-B",
                       options={"gtol": 1e-14, "ftol": 0.0, "maxiter": 5000})
        x_star = sol.x
        f_star = float(sol.fun)
        if np.linalg.norm(x_star) >= spec.radius:
            raise ValueError("logistic optimum falls outside the domain ball")
        domain = ProjectionDomain.ball(np.zeros(d), spec.radius)
        sup_grad = float(np.linalg.norm(A, axis=1).max()) + reg * spec.radius
        sampler, L = _noise_sampler(spec, exact_grad, sup_grad)

    def query(x, rng):
        return sampler(rng, 1)(x, 0)

    oracle = StochasticOracle(
        dimension=d, query=query, sampler=sampler, norm_bound_L=L,
        exact_subgradient=exact_grad, exact_value=value,
        optimum_info=(np.asarray(x_star, dtype=float), float(f_star)))
    return oracle, domain, np.asarray(x_star, dtype=float), float(f_star)


def default_x0(domain: ProjectionDomain, x_star, dist: float, seed: int) -> np.ndarray:
    """A starting point at the requested distance from the optimum."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xD1CE]))
    v = rng.standard_normal(len(x_star))
    v /= np.linalg.norm(v)
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
                        derive_stream(master_seed, "grid", i))
        gaps[eta] = oracle.exact_value(trace.x_avg) - f_star
    return gaps
