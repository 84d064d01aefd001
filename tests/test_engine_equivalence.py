"""The engine against a reference copy of its straightforward per-step loop.

``reference_sgd_run`` checks finiteness elementwise, takes a length (by
``core.norm``) and calls the projection on every step. ``sgd_run`` must
give the same realization bit for bit: the same trace, or the same
``NumericalFailure`` at the same step.
"""

import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stepfree
from oracles import per_sample, query_oracle
from stepfree import (NumericalFailure, ProblemSpec, ProjectionDomain,
                      SgdTrace, default_x0, derive_stream, make_problem,
                      sgd_run, stream_rng, tune)
from stepfree.core import norm
from stepfree.tuner import Deterministic, Stochastic


def reference_sgd_run(oracle, domain, x0, eta, T, stream, value_fn=None):
    if T < 1:
        raise ValueError("T must be >= 1")
    if eta <= 0:
        raise ValueError("eta must be positive")
    x0 = domain.project(np.asarray(x0, dtype=float))
    rng = stream_rng(stream)

    x = x0.copy()
    x_sum = np.zeros_like(x0)
    r_bar = 0.0
    G = 0.0
    G_comp = 0.0
    best_x = None
    best_f = np.inf
    xs = [x0.copy()]
    gs = []

    value_sum = 0.0
    fx = None
    if value_fn is not None:
        fx = float(value_fn(x0))
        best_f = fx
        best_x = x0.copy()

    for i in range(T):
        g = np.asarray(oracle.query(x, rng), dtype=float)
        if not np.all(np.isfinite(g)):
            raise NumericalFailure(i, "gradient")
        gsq = float(g @ g)
        y = gsq - G_comp
        t = G + y
        G_comp = (t - G) - y if t != np.inf else 0.0  # saturate at +inf
        G = t
        x_sum += x
        x = domain.project(x - eta * g)
        if not np.all(np.isfinite(x)):
            raise NumericalFailure(i, "iterate")
        r_bar = max(r_bar, float(norm(x - x0)))
        gs.append(g)
        xs.append(x.copy())
        if value_fn is not None:
            value_sum += fx
            fx = float(value_fn(x))
            if fx < best_f:
                best_f = fx
                best_x = x.copy()

    return SgdTrace(
        eta=float(eta), T=T, x0=x0, x_avg=x_sum / T, r_bar=r_bar, G=G,
        stream=stream, xs=np.array(xs), gs=np.array(gs),
        best_x=best_x, best_f=(best_f if value_fn is not None else None),
        value_avg=(value_sum / T if value_fn is not None else None),
    )


FIELDS = ("eta", "T", "stream", "x0", "x_avg", "r_bar", "G", "xs", "gs",
          "best_x", "best_f", "value_avg")


def bits(v):
    """Exact identity of a field: None, or dtype, shape and raw bytes."""
    if v is None or isinstance(v, int):
        return v
    a = np.asarray(v, dtype=float)
    return a.shape, a.tobytes()


def assert_same_trace(a, b):
    for name in FIELDS:
        assert bits(getattr(a, name)) == bits(getattr(b, name)), name


def outcome(engine, *args, **kwargs):
    """("fail", step, what) or ("trace", field bits) of one engine call."""
    try:
        tr = engine(*args, **kwargs)
    except NumericalFailure as exc:
        return ("fail", exc.step, exc.what)
    return ("trace",) + tuple(bits(getattr(tr, f)) for f in FIELDS)


FAMILY_NOISE = [("l1", "none", 0.0), ("l1", "sphere", 1.0),
                ("quadratic", "none", 0.0), ("quadratic", "sphere", 1.0),
                ("huber", "signflip", 0.2), ("sc_quadratic", "none", 0.0),
                ("logistic", "none", 0.0), ("logistic", "signflip", 0.1)]
_problems = {}


def problem(family, noise, param, seed):
    key = (family, noise, param, seed)
    if key not in _problems:
        spec = ProblemSpec(family=family, dimension=3, noise=noise,
                           noise_param=param)
        _problems[key] = make_problem(spec, seed)
    return _problems[key]


def domain_of(kind, x_star):
    if kind == "whole":
        return ProjectionDomain.whole_space()
    # small enough that projections are active
    return ProjectionDomain.ball(x_star + 0.3, 0.8)


class TestEngineEquivalence:
    @given(member=st.sampled_from(FAMILY_NOISE), seed=st.integers(0, 3),
           kind=st.sampled_from(["whole", "ball"]),
           log2_eta=st.floats(-10.0, 3.0), T=st.integers(1, 60),
           stream=st.integers(0, 2 ** 128 - 1), track_values=st.booleans(),
           dist=st.floats(0.0, 4.0))
    @settings(max_examples=150, deadline=None)
    def test_bitwise_equal_to_reference(self, member, seed, kind, log2_eta, T,
                                        stream, track_values, dist):
        oracle, _, x_star, _ = problem(*member, seed)
        domain = domain_of(kind, x_star)
        x0 = x_star + dist * np.array([0.6, -0.8, 0.0])
        value_fn = oracle.exact_value if track_values else None
        args = (oracle, domain, x0, 2.0 ** log2_eta, T, stream)
        assert (outcome(sgd_run, *args, value_fn=value_fn)
                == outcome(reference_sgd_run, *args, value_fn=value_fn))

    @pytest.mark.parametrize("member", FAMILY_NOISE)
    @pytest.mark.parametrize("mode", ["deterministic", "stochastic"])
    def test_tune_traces_equal_plain_runs(self, member, mode):
        oracle, domain, x_star, _ = problem(*member, 0)
        calls = [0]
        exact_value = oracle.exact_value

        def counted(x):
            calls[0] += 1
            return exact_value(x)

        oracle.exact_value = counted
        try:
            x0 = default_x0(domain, x_star, 2.0, 0)
            mode_obj = (Deterministic() if mode == "deterministic"
                        else Stochastic(delta=0.1, L=oracle.norm_bound_L))
            result = tune(oracle, domain, x0, budget=512, eta_eps=1e-3,
                          mode=mode_obj, master_seed=7)
        finally:
            oracle.exact_value = exact_value
        assert calls[0] == 0  # no value is computed on tune's path
        assert len(result.traces) > 1
        for tr in result.traces.values():
            assert_same_trace(tr, sgd_run(oracle, domain, result.x0, tr.eta,
                                          tr.T, tr.stream))

    def test_no_exact_value_no_stats(self):
        oracle = query_oracle(query=lambda x, rng: np.sign(x))
        result = tune(oracle, ProjectionDomain.whole_space(), np.array([1.0]),
                      budget=64, eta_eps=1 / 16)
        assert all(tr.best_f is None and tr.value_avg is None
                   for tr in result.traces.values())


def scripted(grads):
    """Oracle returning grads[i] at the i-th query, then ones; it must never
    be queried at a non-finite iterate."""
    grads = [np.asarray(g, dtype=float) for g in grads]

    def query(x, rng):
        assert np.all(np.isfinite(x)), "queried at a non-finite iterate"
        i = query.n
        query.n += 1
        return grads[i] if i < len(grads) else np.ones_like(x)
    query.n = 0
    return query


SCRIPTS = {
    "nan_gradient": [[1.0, 0.5], [0.5, np.nan]],
    "inf_gradient": [[1.0, 0.5], [np.inf, 0.0]],
    "neg_inf_gradient": [[-np.inf, 1.0]],
    # the squares of the gradient and of the displacement overflow
    "square_overflows": [[1e200, 0.0], [0.5, 1e160]],
    "iterate_overflows": [[1.0, 1.0], [1e308, 0.0]],
    # eta * g overflows to -inf from finite gradients, so the step is +inf
    "step_overflows": [[-1e308, 0.5], [1.0, -1e308], [0.25, 0.25]],
}
NUMERIC_DOMAINS = {
    "whole": ProjectionDomain.whole_space(),
    "ball": ProjectionDomain.ball(np.array([0.5, -0.5]), 4.0),
    # centred at +0.0, where the projection skips subtracting the center
    "origin_ball": ProjectionDomain.ball(np.zeros(2), 4.0),
    # the squared distance of a point on its boundary overflows, so a
    # failed screen there is a projected finite point, not a failure
    "wide_ball": ProjectionDomain.ball(np.array([0.5, -0.5]), 1e200),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNumericalFailure:
    @pytest.mark.parametrize("name", sorted(SCRIPTS))
    @pytest.mark.parametrize("kind", sorted(NUMERIC_DOMAINS))
    # at eta = 10 the big entries overflow the step, at 0.5 they do not
    @pytest.mark.parametrize("eta", [10.0, 0.5])
    @pytest.mark.parametrize("track_values", [False, True])
    def test_same_outcome_as_reference(self, name, kind, eta, track_values):
        domain = NUMERIC_DOMAINS[kind]
        value_fn = (lambda x: float(np.abs(x).sum())) if track_values else None
        results = []
        for engine in (reference_sgd_run, sgd_run):
            oracle = query_oracle(query=scripted(SCRIPTS[name]))
            results.append(outcome(engine, oracle, domain, np.zeros(2), eta,
                                   4, stream=0, value_fn=value_fn))
        assert results[0] == results[1]

    def test_expected_outcomes(self):
        def run(name, kind="whole"):
            oracle = query_oracle(query=scripted(SCRIPTS[name]))
            return outcome(sgd_run, oracle, NUMERIC_DOMAINS[kind],
                           np.zeros(2), 10.0, 4, 0)

        assert run("nan_gradient") == ("fail", 1, "gradient")
        assert run("inf_gradient") == ("fail", 1, "gradient")
        assert run("neg_inf_gradient") == ("fail", 0, "gradient")
        assert run("iterate_overflows") == ("fail", 1, "iterate")
        # finite entries whose squares overflow are not a failure
        assert run("square_overflows")[0] == "trace"
        # a step that overflows to inf is a failure on every domain
        for kind in NUMERIC_DOMAINS:
            assert run("step_overflows", kind) == ("fail", 0, "iterate")
        # a step whose square overflows lands on the wide ball's boundary
        tr = sgd_run(query_oracle(query=scripted(SCRIPTS["square_overflows"])),
                     NUMERIC_DOMAINS["wide_ball"], np.zeros(2), 10.0, 4, 0)
        assert np.all(np.isfinite(tr.xs))
        assert norm(tr.xs[1] - NUMERIC_DOMAINS["wide_ball"].center) == \
            pytest.approx(1e200)


def run_optimized(script: str) -> list:
    """The stdout lines of ``script`` run under ``python -O``, after a
    first line that shows asserts are stripped there."""
    src = os.path.dirname(os.path.dirname(stepfree.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c",
                           'print("debug", __debug__)\n'
                           + textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "debug False"
    return lines[1:]


def test_bisection_check_survives_optimize_flag():
    # the output-property check must raise even where asserts are stripped
    script = """
        import numpy as np
        import stepfree.tuner as tuner
        from stepfree import DampingParams, ProjectionDomain, StochasticOracle
        tuner.verify_output_property = lambda outcome, damping: False
        step = lambda x, i, out: np.sign(x, out)
        oracle = StochasticOracle(sampler=lambda rng, T: step)
        try:
            out = tuner.root_finding_bisection(
                oracle, ProjectionDomain.whole_space(), np.array([1.0]),
                eta_eps=1 / 16, k=2, T=4, damping=DampingParams(3.0, 0.0))
        except AssertionError as exc:
            print("raised", exc)
        else:
            print("returned", out.kind)
    """
    assert run_optimized(script) == [
        "raised bisection output property violated"]


# each budget guard, and the call whose queries are over-reported to it
BUDGET_GUARDS = {
    "tune": ("""
        tuner.sgd_run = lambda *a, **k: replace(sgd_run(*a, **k), T=10 ** 6)
        call = lambda: tuner.tune(oracle, domain, np.array([1.0]), budget=64,
                                  eta_eps=1 / 16)
        """, "query budget exceeded"),
    "restart_tune": ("""
        tune = restarts.tune
        restarts.tune = lambda *a, **k: replace(
            tune(*a, **k), total_queries=k["budget"] + 1)
        call = lambda: restarts.restart_tune(oracle, domain, np.array([1.0]),
                                             M=4, delta=0.1, epsilon=1.0,
                                             L=1.0)
        """, "restart chain exceeded its total budget")}


@pytest.mark.parametrize("guarded", list(BUDGET_GUARDS))
def test_budget_guards_survive_optimize_flag(guarded):
    # the budget is a proven bound: its checks must raise where asserts
    # are stripped
    patch, message = BUDGET_GUARDS[guarded]
    script = """
        from dataclasses import replace
        import numpy as np
        import stepfree.restarts as restarts
        import stepfree.tuner as tuner
        from stepfree import ProjectionDomain, StochasticOracle, sgd_run
        step = lambda x, i, out: np.sign(x, out)
        oracle = StochasticOracle(sampler=lambda rng, T: step)
        domain = ProjectionDomain.whole_space()
    """ + patch + """
        try:
            call()
        except AssertionError as exc:
            print("raised", exc)
        else:
            print("returned")
    """
    assert run_optimized(script) == [f"raised {message}"]


def test_overflowed_G_saturates_at_inf():
    # the square of the first gradient overflows; G stays +inf, not nan
    oracle = query_oracle(query=scripted(SCRIPTS["square_overflows"]))
    with np.errstate(over="ignore"):
        trace = sgd_run(oracle, ProjectionDomain.whole_space(), np.zeros(2),
                        10.0, 4, stream=0)
    assert trace.G == np.inf


# --------------------------------------------------------------------------
# noise tapes against the per-query oracles they replace
# --------------------------------------------------------------------------

def old_family_grad(spec, seed):
    """The exact gradient make_problem built before the tapes: the same
    draws, with np.clip and the labels applied per call."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
    d = spec.dimension
    if spec.family == "sc_quadratic":
        return lambda x: spec.mu * x
    if spec.family == "logistic":
        n = spec.n_samples
        A = rng.standard_normal((n, d)) / np.sqrt(d)
        w_true = rng.standard_normal(d)
        y = np.sign(A @ w_true + 0.3 * rng.standard_normal(n))
        y[y == 0] = 1.0

        def logistic(x):
            z = -y * (A @ x)
            sig = 1.0 / (1.0 + np.exp(-z))
            return -(A.T @ (y * sig)) / n + spec.reg * x
        return logistic
    c = spec.center_scale * rng.standard_normal(d)
    if spec.family == "l1":
        return lambda x: np.sign(x - c)
    if spec.family == "quadratic":
        return lambda x: spec.smoothness * (x - c)
    return lambda x: np.clip(x - c, -1.0, 1.0)  # huber


def old_query(spec, exact_grad):
    """The per-query noise closures make_problem used before the tapes."""
    if spec.noise == "none":
        return lambda x, rng: exact_grad(x)
    if spec.noise == "sphere":
        sigma = spec.noise_param

        def query(x, rng):
            v = rng.standard_normal(spec.dimension)
            nrm = np.linalg.norm(v)
            u = v / nrm if nrm > 0 else v
            return exact_grad(x) + sigma * u
        return query
    p = spec.noise_param
    scale = 1.0 / (1.0 - 2.0 * p)

    def query(x, rng):
        s = 1.0 if rng.random() >= p else -1.0
        return (s * scale) * exact_grad(x)
    return query


NOISE_PARAMS = {"none": 0.0, "sphere": 0.5, "signflip": 0.2}
TAPE_MEMBERS = [(f, n) for f in ("l1", "quadratic", "huber", "logistic")
                for n in NOISE_PARAMS] + [("sc_quadratic", "none")]


class TestNoiseTapes:
    @pytest.mark.parametrize("family,noise", TAPE_MEMBERS)
    @pytest.mark.parametrize("T", [1, 2, 2048])
    def test_sampler_equals_successive_queries(self, family, noise, T):
        spec = ProblemSpec(family=family, dimension=5, noise=noise,
                           noise_param=NOISE_PARAMS[noise])
        oracle, _, x_star, _ = make_problem(spec, 3)
        exact_grad = old_family_grad(spec, 3)
        query = old_query(spec, exact_grad)
        points = x_star + 2.0 * np.random.default_rng(T).standard_normal(
            (T, 5))
        for stream in (0, 2 ** 127 + 12345):
            step = oracle.sampler(stream_rng(stream), T)
            rng = stream_rng(stream)
            out = np.empty(5)
            for i, x in enumerate(points):
                step(x, i, out)
                assert bits(out) == bits(query(x, rng)), i
        # a single query is the tape's one-row case
        x = points[0]
        assert bits(oracle.query(x, stream_rng(5))) == \
            bits(query(x, stream_rng(5)))
        assert bits(oracle.exact_subgradient(x)) == bits(exact_grad(x))

    @pytest.mark.parametrize("family,noise", TAPE_MEMBERS)
    def test_step_leaves_x_unchanged(self, family, noise):
        spec = ProblemSpec(family=family, dimension=5, noise=noise,
                           noise_param=NOISE_PARAMS[noise])
        oracle, _, x_star, _ = make_problem(spec, 3)
        points = x_star + 2.0 * np.random.default_rng(0).standard_normal(
            (16, 5))
        points[0] = -0.0
        step = oracle.sampler(stream_rng(9), len(points))
        out = np.empty(5)
        for i, x in enumerate(points):
            before = x.tobytes()
            step(x, i, out)
            assert x.tobytes() == before, i

    @pytest.mark.parametrize("member", FAMILY_NOISE)
    def test_long_run_equal_to_reference(self, member):
        # tune runs reach T = 2048; the property test above stops at 60
        oracle, domain, x_star, _ = problem(*member, 1)
        x0 = default_x0(domain, x_star, 2.0, 1)
        for eta in (1e-3, 0.25):
            args = (oracle, domain, x0, eta, 2048, 2 ** 100 + 7)
            assert outcome(sgd_run, *args) == outcome(reference_sgd_run, *args)

    def test_long_one_dimensional_run_equal_to_reference(self):
        # with d = 1 a plain sum over the iterates would be pairwise
        spec = ProblemSpec(family="l1", dimension=1, noise="sphere",
                           noise_param=0.5)
        oracle, domain, x_star, _ = make_problem(spec, 0)
        args = (oracle, domain, x_star + 3.0, 1e-2, 2048, 11)
        assert outcome(sgd_run, *args) == outcome(reference_sgd_run, *args)

    def test_replaced_sampler_drives_the_run(self):
        spec = ProblemSpec(family="l1", dimension=3, noise="sphere",
                           noise_param=0.5)
        oracle, domain, x_star, _ = make_problem(spec, 0)
        oracle = replace(oracle, sampler=per_sample(
            lambda x, rng: np.full(len(x), 2.0)))
        trace = sgd_run(oracle, domain, x_star, 0.5, 10, stream=1)
        assert bits(trace.gs) == bits(np.full((10, 3), 2.0))
        assert trace.G == 120.0


# ±0, subnormal and tiny, ordinary, and huge values (exp(yA @ x) overflows
# once yA @ x passes ~709.8)
LEAF_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 710.0,
                     -710.0, 1e308, -1e308]),
    st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False))
LOGISTIC_SHAPES = [(1, 1), (3, 2), (200, 5), (64, 17), (1000, 50)]
_leaves = {}


def leaf_pair(family, n, d, seed=4):
    """(the family's exact gradient, its expression before the in-place,
    array-operand rewrite, built from make_problem's draws)."""
    key = (family, n, d)
    if key not in _leaves:
        spec = ProblemSpec(family=family, dimension=d, n_samples=n,
                           smoothness=0.7, mu=2.5)
        oracle = make_problem(spec, seed)[0]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0FFEE]))
        if family == "logistic":
            A = rng.standard_normal((n, d)) / np.sqrt(d)
            w_true = rng.standard_normal(d)
            y = np.sign(A @ w_true + 0.3 * rng.standard_normal(n))
            y[y == 0] = 1.0
            yA = y[:, None] * A

            def old(x):
                sig = 1.0 / (1.0 + np.exp(yA @ x))
                return (yA.T @ sig) / -n + spec.reg * x
        elif family == "sc_quadratic":
            old = lambda x: spec.mu * x
        else:
            c = spec.center_scale * rng.standard_normal(d)
            old = {"l1": lambda x: np.sign(x - c),
                   "quadratic": lambda x: spec.smoothness * (x - c),
                   "huber": lambda x: np.minimum(np.maximum(x - c, -1.0), 1.0),
                   }[family]
        _leaves[key] = (oracle.exact_subgradient, old)
    return _leaves[key]


class TestLeafFunctions:
    def test_projections_equal_old_versions(self):
        rng = np.random.default_rng(0)
        center = rng.standard_normal(3)
        ball = ProjectionDomain.ball(center, 1.0)
        points = center + 3.0 * rng.standard_normal((5000, 3))
        points[:10] = 0.0
        points[10:20] = -0.0
        for x in points:
            diff = x - center
            nrm = float(np.linalg.norm(diff))
            want = x if nrm <= 1.0 else center + diff * (1.0 / nrm)
            assert bits(ball.project(x)) == bits(want)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_logistic_gradient_equals_old_expression(self, data):
        n, d = data.draw(st.sampled_from(LOGISTIC_SHAPES))
        x = np.array(data.draw(st.lists(LEAF_FLOATS, min_size=d, max_size=d)))
        grad, old = leaf_pair("logistic", n, d)
        with np.errstate(all="ignore"):  # exp overflows for huge x
            assert bits(grad(x)) == bits(old(x))

    @pytest.mark.parametrize("family",
                             ["l1", "quadratic", "huber", "sc_quadratic"])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_gradient_equals_old_expression(self, family, data):
        d = data.draw(st.sampled_from([1, 3, 5, 17]))
        x = np.array(data.draw(st.lists(LEAF_FLOATS, min_size=d, max_size=d)))
        grad, old = leaf_pair(family, 200, d)
        with np.errstate(all="ignore"):
            assert bits(grad(x)) == bits(old(x))

    @pytest.mark.parametrize("n,d", LOGISTIC_SHAPES)
    def test_logistic_gradient_edge_points(self, n, d):
        grad, old = leaf_pair("logistic", n, d)
        with np.errstate(all="ignore"):
            for v in (0.0, -0.0, 5e-324, -1e-300, 700.0, -800.0, 1e308):
                x = np.full(d, v)
                x[::2] *= -1.0
                assert bits(grad(x)) == bits(old(x)), v
                assert bits(grad(-x)) == bits(old(-x)), v

def old_derive_stream(master_seed, *parts):
    """derive_stream as it was when SeedSequence coerced the entropy."""
    entropy = [int(master_seed) & ((1 << 64) - 1)]
    for p in parts:
        if isinstance(p, str):
            entropy.extend(p.encode())
        else:
            entropy.append(int(p) & ((1 << 64) - 1))
    words = np.random.SeedSequence(entropy).generate_state(4, np.uint32)
    out = 0
    for w in words:
        out = (out << 32) | int(w)
    return out


@given(master=st.integers(-2 ** 70, 2 ** 70),
       parts=st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70), st.text()),
                      max_size=40))
@settings(max_examples=300, deadline=None)
def test_derive_stream_equals_old_version(master, parts):
    assert derive_stream(master, *parts) == old_derive_stream(master, *parts)


QUERY_ONLY = {
    # the iterate itself, which the engine must copy before it steps
    "input_array": (3, lambda x, rng: x),
    "list": (3, lambda x, rng: [float(v) for v in np.sign(x)]),
    "shape_1": (1, lambda x, rng: np.array([rng.standard_normal()])),
}


@pytest.mark.parametrize("name", sorted(QUERY_ONLY))
@pytest.mark.parametrize("kind", ["whole", "ball"])
def test_query_only_oracles_equal_reference(name, kind):
    d, query = QUERY_ONLY[name]
    oracle = query_oracle(query=query)
    x_star = np.zeros(d)
    args = (oracle, domain_of(kind, x_star), np.linspace(1.0, -2.0, d), 0.3,
            20, 77)
    assert outcome(sgd_run, *args) == outcome(reference_sgd_run, *args)


def test_zero_centred_ball_projects_as_the_old_formula():
    points = np.array([[3.0, -0.0, -4.0], [-0.0, -0.0, 2.0],
                       [0.5, -0.0, 0.0], [-0.0, -0.0, -0.0]])
    for center in (np.zeros(3), np.array([-0.0, 0.0, -0.0])):
        ball = ProjectionDomain.ball(center, 1.0)
        for x in points:
            diff = x - center
            nrm = float(np.linalg.norm(diff))
            want = x if nrm <= 1.0 else center + diff * (1.0 / nrm)
            assert bits(ball.project(x)) == bits(want)
            y = x.copy()
            assert ball.project_in_place(y)
            assert bits(y) == bits(want)
    # outside the ball a -0.0 entry comes back +0.0, inside it stays
    ball = ProjectionDomain.ball(np.zeros(3), 1.0)
    assert not np.signbit(ball.project(points[0]))[1]
    assert np.signbit(ball.project(points[2]))[1]


def test_negative_zero_column_averages_to_positive_zero():
    # the iterates' second coordinate stays -0.0; a sum started from 0.0
    # makes its average +0.0
    oracle = query_oracle(query=lambda x, rng: np.array([1.0, 0.0]))
    args = (oracle, ProjectionDomain.whole_space(), np.array([0.0, -0.0]),
            0.5, 5, 0)
    assert outcome(sgd_run, *args) == outcome(reference_sgd_run, *args)
    assert not np.signbit(sgd_run(*args).x_avg[1])
