"""Test oracles stated as a per-sample function ``query(x, rng)``.

A :class:`StochasticOracle` takes a sampler, which serves a whole run. Many
tests state their gradient point by point instead; :func:`per_sample` turns
such a function into a sampler whose every step writes ``query(x, rng)``
into the step's row, on the run's generator.
"""

import numpy as np

from stepfree import StochasticOracle


def per_sample(query):
    """The sampler whose steps are successive ``query(x, rng)`` calls."""
    def sampler(rng, T):
        def step(x, i, out):
            out[...] = np.asarray(query(x, rng), dtype=float)
        return step
    return sampler


def query_oracle(query, **fields):
    """The oracle whose samples are ``query(x, rng)``, with the other
    fields given; unless ``noiseless=True`` is among them, its runs need a
    stream id."""
    return StochasticOracle(sampler=per_sample(query), **fields)


def abs_oracle():
    """f(x) = |x| in one dimension; subgradient 0 at the kink."""
    grad = lambda x: np.sign(x)
    return query_oracle(query=lambda x, rng: grad(x),
                        norm_bound_L=1.0, exact_subgradient=grad,
                        exact_value=lambda x: float(np.abs(x).sum()),
                        optimum_info=(np.zeros(1), 0.0))
