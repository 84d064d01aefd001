"""Run streams: the key-built Philox generator, the generators a run builds,
and the g0 side query."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stepfree
from stepfree import (ProblemSpec, StochasticOracle, default_x0, make_problem,
                      restart_tune, sgd_run, stream_rng, tune)
from stepfree.cli import main as cli_main
from stepfree.tuner import Stochastic, first_gradient_norm


def equal_states(a, b):
    """Bit generator states compared field by field (arrays by value)."""
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            equal_states(a[key], b[key])
        else:
            assert np.array_equal(a[key], b[key]), key


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 128 - 1))
@example(0)
@example(1)
@example(2 ** 64 - 1)
@example(2 ** 64)
@example(2 ** 128 - 1)
def test_stream_rng_is_philox_of_the_key(key):
    fast = stream_rng(key)
    ref = np.random.Generator(np.random.Philox(key=key))
    equal_states(fast.bit_generator.state, ref.bit_generator.state)
    assert fast.random(5).tobytes() == ref.random(5).tobytes()
    assert fast.standard_normal((3, 4)).tobytes() == \
        ref.standard_normal((3, 4)).tobytes()
    equal_states(fast.bit_generator.state, ref.bit_generator.state)


def test_stream_rng_masks_to_128_bits():
    assert stream_rng(-1).random(3).tobytes() == \
        stream_rng(2 ** 128 - 1).random(3).tobytes()


@pytest.fixture
def generators(monkeypatch):
    """A list that gets one entry per np.random.Generator built."""
    built = []
    make = np.random.Generator

    def counting(*args, **kwargs):
        built.append(None)
        return make(*args, **kwargs)
    monkeypatch.setattr(np.random, "Generator", counting)
    return built


def problem(family, noise, seed=0):
    spec = ProblemSpec(family=family, dimension=3, noise=noise,
                       noise_param={"none": 0.0, "sphere": 0.5,
                                    "signflip": 0.2}[noise])
    oracle, domain, x_star, _ = make_problem(spec, seed)
    return oracle, domain, default_x0(domain, x_star, 1.0, seed)


def fresh_runs(result):
    """SGD runs of a tune call, its g0 side query included."""
    return len(result.trace_cache) + 1


@pytest.mark.parametrize("family,noise", [
    ("l1", "none"), ("logistic", "none"), ("sc_quadratic", "none"),
    ("l1", "sphere"), ("huber", "signflip")])
def test_tune_builds_a_generator_per_noisy_run(generators, family, noise):
    oracle, domain, x0 = problem(family, noise)
    result = tune(oracle, domain, x0, budget=512, eta_eps=1e-3,
                  mode=Stochastic(delta=0.1, L=oracle.norm_bound_L))
    assert len(result.trace_cache) > 1
    assert len(generators) == (0 if noise == "none" else fresh_runs(result))


@pytest.mark.parametrize("family,noise", [("sc_quadratic", "none"),
                                          ("l1", "sphere")])
def test_restart_tune_builds_a_generator_per_noisy_run(generators, family,
                                                       noise):
    oracle, domain, x0 = problem(family, noise)
    _, records = restart_tune(oracle, domain, x0, M=6, delta=0.1,
                              epsilon=3.0, L=oracle.norm_bound_L)
    runs = sum(fresh_runs(r) for r in records)
    assert runs > 6
    assert len(generators) == (0 if noise == "none" else runs)


def test_query_only_oracle_builds_a_generator_per_run(generators):
    oracle, domain, x0 = problem("l1", "none")
    # assigning query drops the sampler: the run goes through query
    oracle.query = lambda x, rng: np.sign(x)
    result = tune(oracle, domain, x0, budget=64, eta_eps=1e-3)
    assert len(generators) == fresh_runs(result)


def test_noise_free_relative_tune_cli_builds_no_generator(generators,
                                                          tmp_path):
    assert cli_main(["tune", "--family", "l1", "--dimension", "3",
                     "--budget", "256", "--r-eps", "0.5", "--reps", "2",
                     "--csv", str(tmp_path / "out.csv")]) == 0
    assert generators == []


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(st.lists(finite | st.sampled_from([np.inf, -np.inf, np.nan]),
                min_size=1, max_size=8))
@example([0.0])
@example([-0.0, 0.0])
@example([1e200, 1e-200])
@example([3e-170, 4e-170])
def test_g0_norm_is_linalg_norm(g):
    g = np.array(g)
    oracle = StochasticOracle(dimension=len(g), query=lambda x, rng: g)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = first_gradient_norm(oracle, np.zeros(len(g)), 0)
        ref = float(np.linalg.norm(g))
    assert np.array([norm]).tobytes() == np.array([ref]).tobytes()


@pytest.fixture
def derived(monkeypatch):
    """A list that gets the labels of every stream id derived."""
    labels = []
    derive = stepfree.core.derive_stream

    def counting(master_seed, *parts):
        labels.append(parts)
        return derive(master_seed, *parts)
    for name in ("core", "tuner", "restarts", "validation", "problems"):
        module = getattr(stepfree, name)
        if hasattr(module, "derive_stream"):
            monkeypatch.setattr(module, "derive_stream", counting)
    return labels


@pytest.mark.parametrize("family,noise", [
    ("l1", "none"), ("logistic", "none"), ("sc_quadratic", "none"),
    ("l1", "sphere")])
def test_tune_derives_a_stream_per_noisy_run(derived, family, noise):
    oracle, domain, x0 = problem(family, noise)
    assert oracle.noiseless == (noise == "none")
    result = tune(oracle, domain, x0, budget=512, eta_eps=1e-3)
    assert len(result.trace_cache) > 1
    if oracle.noiseless:
        assert derived == []
        assert all(tr.stream is None for tr in result.trace_cache.values())
    else:
        assert len(derived) == fresh_runs(result)


def test_noiseless_restart_tune_derives_only_round_seeds(derived):
    oracle, domain, x0 = problem("sc_quadratic", "none")
    restart_tune(oracle, domain, x0, M=6, delta=0.1, epsilon=3.0,
                 L=oracle.norm_bound_L)
    assert derived == [("restart", m) for m in range(1, 7)]


def test_assigned_query_derives_streams_again(derived):
    oracle, domain, x0 = problem("l1", "none")
    oracle.query = lambda x, rng: np.sign(x)
    assert not oracle.noiseless
    result = tune(oracle, domain, x0, budget=64, eta_eps=1e-3)
    assert len(derived) == fresh_runs(result)
    assert all(tr.stream is not None for tr in result.trace_cache.values())


@pytest.mark.parametrize("noise", ["sphere", "signflip"])
def test_noisy_run_needs_a_stream(noise):
    oracle, domain, x0 = problem("l1", noise)
    with pytest.raises(ValueError, match="stream id"):
        sgd_run(oracle, domain, x0, 0.1, 4, None)
    query_only = StochasticOracle(dimension=3,
                                  query=lambda x, rng: rng.standard_normal(3))
    with pytest.raises(ValueError, match="stream id"):
        sgd_run(query_only, domain, x0, 0.1, 4, None)
