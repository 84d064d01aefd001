#!/usr/bin/env python3
"""Strong-convexity restart experiment: gap vs. number of doubling rounds.

Runs many independent restart chains on the unit-ball quadratic (mu = L = 1)
and fits the slope of log2(median gap) against the round index. The doubling
schedule predicts a slope near -1. Each round's line also counts how the
chains' tuner calls of that round ended (normal, edge_low_step,
budget_too_small).
"""

import argparse
import sys

import numpy as np
from scipy.stats import linregress

from stepfree import (ProblemSpec, default_x0, derive_stream, make_problem,
                      restart_tune)

CASES = ("normal", "edge_low_step", "budget_too_small")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chains", type=int, default=100)
    parser.add_argument("--max-rounds", type=int, default=14)
    parser.add_argument("--min-round", type=int, default=8)
    parser.add_argument("--epsilon", type=float, default=3.0)
    parser.add_argument("--delta", type=float, default=0.1)
    parser.add_argument("--dimension", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = ProblemSpec(family="sc_quadratic", dimension=args.dimension,
                       mu=1.0, L=1.0)
    rounds = range(args.min_round, args.max_rounds + 1)
    gaps = {m: [] for m in rounds}
    cases = {m: dict.fromkeys(CASES, 0) for m in rounds}
    for rep in range(args.chains):
        seed = derive_stream(args.seed, "restart-rep", rep)
        oracle, domain, x_star, f_star = make_problem(spec, seed)
        x0 = default_x0(domain, x_star, 1.0, seed)
        _, records = restart_tune(oracle, domain, x0, M=args.max_rounds,
                                  delta=args.delta, epsilon=args.epsilon,
                                  L=1.0, master_seed=seed)
        for m in rounds:
            gaps[m].append(oracle.exact_value(records[m - 1].x_bar) - f_star)
            cases[m][records[m - 1].case] += 1

    medians = [float(np.median(gaps[m])) for m in rounds]
    for m, med in zip(rounds, medians):
        counts = ", ".join(f"{case} {n}" for case, n in cases[m].items())
        print(f"M={m:2d} (budget 2^{m + 1}): median gap {med:.6g} ({counts})")
    fit = linregress(list(rounds), np.log2(medians))
    print(f"slope of log2(median gap) vs M: {fit.slope:.4f} "
          f"(stderr {fit.stderr:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
