"""Run streams: the key-built Philox generator, the generators a run builds,
and the g0 side query."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stepfree
from oracles import per_sample, query_oracle
from stepfree import (ProblemSpec, default_x0, make_problem, restart_tune,
                      sgd_run, stream_rng, tune)
from stepfree.cli import main as cli_main
from stepfree.core import norm as core_norm
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


# known answers, recorded with numpy 2.4.6: they pin the ids and draws
# independently of any reference copy of the code under test
@pytest.mark.parametrize("labels,stream", [
    ((1, -3), 0x7a6a6ff223b5b3b89e9c891fd5971c3c),
    ((1, "tune"), 0x775be84ee77e7952acc89ced1fb96a1),
    ((1, 2 ** 64), 0x6d6791ff672d8ee54eb1072c8ae19ca1),
    ((42,), 0xcd540ab79f1e2e6d79fb94b6d57873dc),
    ((7, "restart", 3, -1, 2 ** 64 + 5),
     0x668b4d7a4f5bfc092fa0f8272c0e1998),
])
def test_derive_stream_known_answers(labels, stream):
    assert stepfree.derive_stream(*labels) == stream


@pytest.mark.parametrize("key,uniform,normal", [
    (0, "c0264720d3a5873f6054ce8515ebce3f",
     "bdec7238cb63c43f1c839c801363fcbfb017e7856439f53f"),
    (2 ** 64, "3a347f18ff06ea3f20846933e80ae83f",
     "15afa24c01cfe7bfc011c058a68a8dbfc5763905302ce03f"),
    (2 ** 128 - 1, "2e7c9c03b351db3f51f3272dd449e23f",
     "626d45b84c34e43f14bc03ebe28af2bfeb7da1fa05f3f6bf"),
])
def test_stream_rng_known_answers(key, uniform, normal):
    assert stream_rng(key).random(2).tobytes().hex() == uniform
    assert stream_rng(key).standard_normal(3).tobytes().hex() == normal


def test_stream_rng_masks_to_128_bits():
    assert stream_rng(-1).random(3).tobytes() == \
        stream_rng(2 ** 128 - 1).random(3).tobytes()


@pytest.fixture
def generators(monkeypatch):
    """A list that gets one entry per np.random.Generator built.

    The counting stand-in is a subclass, so it is still a type: code that
    uses np.random.Generator as one while the patch is on (scipy's import
    does, in ``... | np.random.Generator``) keeps working.
    """
    built = []

    class Counting(np.random.Generator):
        def __init__(self, *args, **kwargs):
            built.append(None)
            super().__init__(*args, **kwargs)
    monkeypatch.setattr(np.random, "Generator", Counting)
    return built


def problem(family, noise, seed=0):
    spec = ProblemSpec(family=family, dimension=3, noise=noise,
                       noise_param={"none": 0.0, "sphere": 0.5,
                                    "signflip": 0.2}[noise])
    oracle, domain, x_star, _ = make_problem(spec, seed)
    return oracle, domain, default_x0(domain, x_star, 1.0, seed)


def fresh_runs(result):
    """SGD runs of a tune call, its g0 side query included."""
    return len(result.traces) + 1


@pytest.mark.parametrize("family,noise", [
    ("l1", "none"), ("logistic", "none"), ("sc_quadratic", "none"),
    ("l1", "sphere"), ("huber", "signflip")])
def test_tune_builds_a_generator_per_noisy_run(generators, family, noise):
    oracle, domain, x0 = problem(family, noise)
    result = tune(oracle, domain, x0, budget=512, eta_eps=1e-3,
                  mode=Stochastic(delta=0.1, L=oracle.norm_bound_L))
    assert len(result.traces) > 1
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
    # a per-sample oracle not declared noiseless: each run, the g0 side
    # query's included, builds its generator
    oracle = replace(oracle, sampler=per_sample(lambda x, rng: np.sign(x)),
                     noiseless=False)
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
    oracle = query_oracle(query=lambda x, rng: g)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = first_gradient_norm(oracle, np.zeros(len(g)), 0)
        ref = float(np.linalg.norm(g))
        if ref == np.inf:  # a square overflowed: the length by core.norm
            ref = float(core_norm(g))
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
    assert len(result.traces) > 1
    if oracle.noiseless:
        assert derived == []
        assert all(tr.stream is None for tr in result.traces.values())
    else:
        assert len(derived) == fresh_runs(result)


def test_noiseless_restart_tune_derives_nothing(derived):
    oracle, domain, x0 = problem("sc_quadratic", "none")
    _, records = restart_tune(oracle, domain, x0, M=6, delta=0.1,
                              epsilon=3.0, L=oracle.norm_bound_L)
    assert derived == []
    traces = [tr for r in records for tr in r.traces.values()]
    assert len(traces) > 6
    assert all(tr.stream is None for tr in traces)


def test_noisy_restart_tune_derives_round_seeds_in_order(derived):
    oracle, domain, x0 = problem("l1", "sphere")
    _, records = restart_tune(oracle, domain, x0, M=6, delta=0.1,
                              epsilon=3.0, L=oracle.norm_bound_L)
    assert [p for p in derived if p[0] == "restart"] == \
        [("restart", m) for m in range(1, 7)]
    # each round's seed comes before the streams of its own runs
    rounds = [i for i, p in enumerate(derived) if p[0] == "restart"]
    runs = [rounds[m + 1] - rounds[m] - 1 for m in range(5)]
    assert runs == [fresh_runs(r) for r in records[:5]]


@pytest.mark.parametrize("noise", ["sphere", "signflip"])
def test_noisy_run_needs_a_stream(noise):
    oracle, domain, x0 = problem("l1", noise)
    with pytest.raises(ValueError, match="stream id"):
        sgd_run(oracle, domain, x0, 0.1, 4, None)


def test_noisy_tune_needs_an_integer_master_seed():
    oracle, domain, x0 = problem("l1", "sphere")
    with pytest.raises(ValueError, match="noisy oracle needs an integer "
                                         "master seed"):
        tune(oracle, domain, x0, budget=64, eta_eps=1e-3, master_seed=None)


def test_noiseless_tune_runs_without_a_master_seed():
    oracle, domain, x0 = problem("l1", "none")
    unseeded = tune(oracle, domain, x0, budget=64, eta_eps=1e-3,
                    master_seed=None)
    seeded = tune(oracle, domain, x0, budget=64, eta_eps=1e-3, master_seed=7)
    assert unseeded.x_bar.tobytes() == seeded.x_bar.tobytes()
    assert (unseeded.case, unseeded.eta, unseeded.total_queries) == \
        (seeded.case, seeded.eta, seeded.total_queries)
