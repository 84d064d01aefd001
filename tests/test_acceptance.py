"""Acceptance gate: eleven end-to-end criteria with pinned tolerances.

Each test prints one summary line. Criterion 11 is informational and never
gates; everything else fails the suite on violation.
"""

import importlib.util
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import linregress

from oracles import abs_oracle
from stepfree import (Deterministic, NonAdaptive, ProblemSpec,
                      ProjectionDomain, Stochastic, check_theorem_bounds,
                      default_x0, derive_stream, make_problem, sgd_run, tune)
from stepfree.problems import grid_search_baseline
from stepfree.restarts import total_budget
from stepfree.tuner import (damping_for_round, grid_step,
                            verify_output_property)
from stepfree.validation import (binom_upper, boundary_crossing_test,
                                 good_event_union_frequency, has_bug,
                                 localization_check)

WHOLE = ProjectionDomain.whole_space()


def random_config(rng):
    family = rng.choice(["l1", "quadratic", "huber", "sc_quadratic"],
                        p=[0.3, 0.3, 0.3, 0.1])
    noise = "none"
    noise_param = 0.0
    if family != "sc_quadratic" and rng.random() < 0.5:
        noise = rng.choice(["sphere", "signflip"])
        noise_param = 0.5 if noise == "sphere" else 0.2
    spec = ProblemSpec(family=str(family), dimension=int(rng.integers(1, 8)),
                       noise=str(noise), noise_param=noise_param,
                       smoothness=float(2.0 ** rng.integers(-1, 2)))
    budget = int(2 ** rng.uniform(4, 14))
    eta_eps = float(2.0 ** rng.uniform(-12, -2))
    x0_dist = float(2.0 ** rng.uniform(-2, 3))
    if noise == "none":
        mode_name = str(rng.choice(["deterministic", "stochastic",
                                    "nonadaptive"]))
    else:
        mode_name = str(rng.choice(["stochastic", "nonadaptive"]))
    return spec, budget, eta_eps, x0_dist, mode_name


@pytest.fixture(scope="module")
def random_tune_runs():
    """Criterion 1's 500 tune runs on random configurations, shared with
    criterion 5: ([(budget, result)] per run, the seconds they took)."""
    rng = np.random.default_rng(20260823)
    start = time.perf_counter()
    runs = []
    for i in range(500):
        spec, budget, eta_eps, x0_dist, mode_name = random_config(rng)
        oracle, domain, x_star, _ = make_problem(spec, seed=i)
        x0 = default_x0(domain, x_star, x0_dist, seed=i)
        mode = {"deterministic": Deterministic(),
                "stochastic": Stochastic(delta=0.1, L=oracle.norm_bound_L),
                "nonadaptive": NonAdaptive(delta=0.1, L=oracle.norm_bound_L),
                }[mode_name]
        runs.append((budget, tune(oracle, domain, x0, budget=budget,
                                  eta_eps=eta_eps, mode=mode, master_seed=i)))
    return runs, time.perf_counter() - start


def test_criterion_01_budget_and_structure(random_tune_runs):
    runs, elapsed = random_tune_runs
    n_selected = 0
    for budget, result in runs:
        assert result.total_queries <= budget
        assert 16 <= budget <= 2 ** 14
        if result.case == "normal":
            n_selected += 1
            assert result.T == budget // (2 * result.k_final)
            assert len(result.final_outcome.evaluations) - 2 == result.k_final
        elif result.case == "budget_too_small":
            assert result.T == 1
            assert np.array_equal(result.x_bar, result.x0)
    assert elapsed < 60.0
    assert n_selected >= 50
    print(f"\ncriterion 1: pass - {len(runs)} runs within budget, "
          f"{n_selected} selected rounds with exact midpoint counts, "
          f"{elapsed:.1f}s")


def test_criterion_02_hand_simulated_traces():
    oracle = abs_oracle()
    x0 = np.array([1.0])
    expected = {
        # (eta, T) -> (G, r_bar, x_avg), all dyadic, zero tolerance
        (1 / 16, 4): (4.0, 1 / 4, 29 / 32),
        (1 / 16, 16): (16.0, 1.0, 17 / 32),
        (1 / 4, 4): (4.0, 1.0, 5 / 8),
        (1 / 4, 16): (4.0, 1.0, 5 / 32),
        (1 / 2, 4): (2.0, 1.0, 3 / 8),
        (1 / 2, 16): (2.0, 1.0, 3 / 32),
        (1.0, 4): (1.0, 1.0, 1 / 4),
        (1.0, 16): (1.0, 1.0, 1 / 16),
        (2.0, 4): (4.0, 2.0, 0.0),
        (2.0, 16): (16.0, 2.0, 0.0),
    }
    for (eta, T), (G, r_bar, x_avg) in expected.items():
        tr = sgd_run(oracle, WHOLE, x0, eta, T, stream=0)
        assert tr.G == G, (eta, T)
        assert tr.r_bar == r_bar, (eta, T)
        assert tr.x_avg[0] == x_avg, (eta, T)
    result = tune(oracle, WHOLE, x0, budget=64, eta_eps=1 / 16)
    assert grid_step(result.eta_eps, result.eta.exponent) == 1 / 4
    assert result.x_bar[0] == 0.15625
    assert result.total_queries == 64
    print("\ncriterion 2: pass - 10 hand-simulated traces exact, "
          "B=64 tune returns eta=1/4, gap=0.15625, 64 queries")


NOISELESS_SUITE = [
    ProblemSpec(family="l1", dimension=3),
    ProblemSpec(family="quadratic", dimension=4, smoothness=2.0),
    ProblemSpec(family="huber", dimension=3),
    ProblemSpec(family="sc_quadratic", dimension=2, mu=1.0, L=1.0),
    ProblemSpec(family="logistic", dimension=8, n_samples=100),
]


def test_criterion_03_deterministic_theorem_suite():
    start = time.perf_counter()
    n_checks = 0
    for spec in NOISELESS_SUITE:
        for seed in range(100):
            oracle, domain, x_star, f_star = make_problem(spec, seed)
            x0 = default_x0(domain, x_star, 1.0, seed)
            result = tune(oracle, domain, x0, budget=512, eta_eps=2 ** -8,
                          master_seed=seed)
            lines = check_theorem_bounds(result, oracle)
            assert not has_bug(lines), (spec.family, seed,
                                        [(l.check_id, l.verdict)
                                         for l in lines])
            n_checks += len(lines)
    print(f"\ncriterion 3: pass - {n_checks} theorem inequalities across "
          f"{len(NOISELESS_SUITE)}x100 noiseless runs, no bug verdicts, "
          f"{time.perf_counter() - start:.1f}s")


def test_criterion_04_localization():
    n_traces, n_certified = 0, 0
    specs = [s for s in NOISELESS_SUITE if s.family != "logistic"]
    seed = 0
    while n_traces < 10_000:
        spec = specs[seed % len(specs)]
        oracle, domain, x_star, _ = make_problem(spec, seed)
        x0 = default_x0(domain, x_star, float(2.0 ** (seed % 5 - 2)), seed)
        result = tune(oracle, domain, x0, budget=96,
                      eta_eps=float(2.0 ** -(4 + seed % 6)),
                      master_seed=seed)
        for trace in result.traces.values():
            n_traces += 1
            applies, ok = localization_check(trace, x_star)
            n_certified += applies
            assert ok, (spec.family, seed, trace.eta)
        seed += 1
    assert n_certified >= 1000
    print(f"\ncriterion 4: pass - {n_certified} certified traces out of "
          f"{n_traces} localized within (2 d0, 3 d0)")


def test_criterion_05_output_property(random_tune_runs):
    selected = [result for _, result in random_tune_runs[0]
                if result.case == "normal"]
    assert len(selected) >= 50
    for result in selected:
        assert verify_output_property(result.final_outcome,
                                      result.damping_final)
    print(f"\ncriterion 5: pass - output property verified on "
          f"{len(selected)} selected outcomes across all modes")


def test_criterion_06_good_event():
    start = time.perf_counter()
    spec = ProblemSpec(family="l1", dimension=5, noise="sphere",
                       noise_param=1.0)
    oracle, domain, x_star, _ = make_problem(spec, seed=7)
    x0 = default_x0(domain, x_star, 1.0, seed=7)
    k, T, delta, L = 2, 512, 0.1, oracle.norm_bound_L
    # the damping and step sizes of validate-good-event --union-grid
    damping = damping_for_round(k, 2 * k * T, delta, L,
                                Stochastic(delta=delta, L=L))
    etas = [grid_step(2.0 ** -8, j) for j in range(2 ** k + 1)]
    freq = good_event_union_frequency(oracle, domain, x0, x_star, etas, T,
                                      damping, n_paths=1000, master_seed=7)
    elapsed = time.perf_counter() - start
    assert freq >= 0.9
    assert elapsed < 300.0
    print(f"\ncriterion 6: pass - union good-event frequency {freq:.3f} "
          f">= 0.9 over {len(etas)} step sizes x 1000 paths, {elapsed:.0f}s")


def test_criterion_07_boundary_crossing():
    results = []
    for delta in (0.05, 0.2):
        freq = boundary_crossing_test("coin", T=10_000, delta=delta,
                                      n_paths=10_000, seed=3)
        upper = binom_upper(round(freq * 10_000), 10_000, conf=0.99)
        assert upper <= delta, (delta, freq, upper)
        results.append(f"delta={delta}: freq={freq:.4f} (99% upper {upper:.4f})")
    print("\ncriterion 7: pass - " + "; ".join(results))


def _sweep_medians(spec, budgets, eta_eps, reps):
    """Per-budget median gaps: (mean-iterate suboptimality, output point)."""
    mean_meds, out_meds = [], []
    for budget in budgets:
        mean_vals, out_vals = [], []
        for rep in range(reps):
            seed = derive_stream(0, "sweep", budget, rep)
            oracle, domain, x_star, f_star = make_problem(spec, seed)
            x0 = default_x0(domain, x_star, 1.0, seed)
            result = tune(oracle, domain, x0, budget=budget, eta_eps=eta_eps,
                          master_seed=seed)
            # the mean of f over the selected run's x_0, ..., x_{T-1}, read
            # off its record in the order sgd_run's value_fn sums it
            trace = result.traces[(result.k_final, result.eta.exponent)]
            value_sum = 0.0
            for row in trace.xs[:trace.T]:
                value_sum += oracle.exact_value(row)
            mean_vals.append(value_sum / trace.T - f_star)
            out_vals.append(oracle.exact_value(result.x_bar) - f_star)
        mean_meds.append(float(np.median(mean_vals)))
        out_meds.append(float(np.median(out_vals)))
    return mean_meds, out_meds


def test_criterion_08_smoothness_rate():
    start = time.perf_counter()
    spec = ProblemSpec(family="quadratic", dimension=5, smoothness=1.0)
    budgets = [2 ** b for b in range(10, 17)]
    # the smooth-rate guarantee bounds the mean iterate suboptimality, which
    # realizes the predicted 1/B; the averaged point itself super-converges
    # on quadratics, so it is only checked against the one-sided window edge
    mean_meds, out_meds = _sweep_medians(spec, budgets, 0.25, 20)
    mean_fit = linregress(np.log2(budgets), np.log2(mean_meds))
    out_fit = linregress(np.log2(budgets), np.log2(out_meds))
    elapsed = time.perf_counter() - start
    assert -1.2 <= mean_fit.slope <= -0.8, mean_fit.slope
    assert out_fit.slope <= -0.8, out_fit.slope
    assert elapsed < 120.0
    print(f"\ncriterion 8: pass - mean-iterate slope {mean_fit.slope:.3f} in "
          f"[-1.2, -0.8]; output-point slope {out_fit.slope:.3f} <= -0.8; "
          f"{elapsed:.0f}s")


def test_criterion_09_nonsmooth_rate():
    start = time.perf_counter()
    spec = ProblemSpec(family="l1", dimension=5)
    budgets = [2 ** b for b in range(10, 17)]
    _, medians = _sweep_medians(spec, budgets, 2.0 ** -14, 20)
    fit = linregress(np.log2(budgets), np.log2(medians))
    elapsed = time.perf_counter() - start
    assert -0.7 <= fit.slope <= -0.3, fit.slope
    print(f"\ncriterion 9: pass - nonsmooth gap slope {fit.slope:.3f} in "
          f"[-0.7, -0.3], {elapsed:.0f}s")


def test_criterion_10_strong_convexity_restarts():
    start = time.perf_counter()
    path = Path(__file__).parent.parent / "scripts/run_restart_experiment.py"
    spec = importlib.util.spec_from_file_location("restart_script", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    _, cases, fit, queries = script.restart_chains(
        chains=100, max_rounds=14, min_round=8, epsilon=3.0, delta=0.1,
        dimension=3, seed=0)
    elapsed = time.perf_counter() - start
    assert max(queries) <= total_budget(14)
    assert -1.3 <= fit.slope <= -0.7, fit.slope
    assert elapsed < 600.0
    counts = "; ".join(f"{m}: {'/'.join(map(str, n.values()))}"
                       for m, n in cases.items())
    print(f"\ncriterion 10: pass - restart gap slope {fit.slope:.3f} in "
          f"[-1.3, -0.7] over M=8..14, 100 chains, {elapsed:.0f}s; cases "
          f"normal/edge_low_step/budget_too_small by round {counts}")


def test_criterion_11_baseline_comparison_informational():
    budget = 4096
    grid = [2.0 ** -j for j in range(11, -1, -2)]  # six dyadic candidates
    lines = []
    for spec in NOISELESS_SUITE:
        tuner_gaps, grid_gaps = [], []
        for seed in range(10):
            oracle, domain, x_star, f_star = make_problem(spec, seed)
            x0 = default_x0(domain, x_star, 1.0, seed)
            result = tune(oracle, domain, x0, budget=budget, eta_eps=2 ** -11,
                          master_seed=seed)
            tuner_gaps.append(oracle.exact_value(result.x_bar) - f_star)
            baseline = grid_search_baseline(oracle, domain, x0, budget, grid,
                                            master_seed=seed)
            grid_gaps.append(min(baseline.values()))
        ratio = np.median(tuner_gaps) / max(np.median(grid_gaps), 1e-300)
        within = "within 10x" if ratio <= 10.0 else f"outside 10x"
        lines.append(f"{spec.family}: ratio {ratio:.2f} ({within})")
    print("\ncriterion 11 (informational, non-gating): "
          + "; ".join(lines))
