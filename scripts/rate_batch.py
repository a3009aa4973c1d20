#!/usr/bin/env python3
"""Convergence-rate study over a batch of random markets.

For each seeded market, runs a high-accuracy reference solve, then both
pricing schemes at the default tolerance, and reports iteration counts
and fitted log-log rate slopes. The schemes' O(1/t) and O(1/t^2) rates
are upper bounds on the gap; near the optimum the gap decays
geometrically, so a fitted slope depends on the gap floor of the fit
and is usually much steeper than -1 or -2, and basic can read steeper
than accelerated.
"""

import argparse
import time

from marketclear import specio
from marketclear.solvers import (RateFitError, SolverConfig, fit_rate, reference_solve,
                                 solve_many)


def slope(trace, ter_star):
    try:
        return f"{fit_rate(trace, ter_star):8.3f}"
    except RateFitError:
        return "     n/a"


def run_markets(seeds):
    """One row per seed; both schemes of every market run in one lockstep
    call (`solve_many`), which gives each run the trace it has alone."""
    markets = [specio.market_from_document(specio.batch_market(seed)) for seed in seeds]
    ter_stars = [m.ter(reference_solve(m).price) for m in markets]
    traces = solve_many([(m, SolverConfig(scheme=scheme))
                         for m in markets for scheme in ("basic", "accelerated")])
    return [(m.n, len(m.consumers), len(m.suppliers), m.smoothness_constant(),
             basic.iterations, accel.iterations, slope(basic, ter_star), slope(accel, ter_star))
            for m, ter_star, basic, accel in zip(markets, ter_stars, traces[0::2], traces[1::2])]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--markets", type=int, default=20)
    parser.add_argument("--seed0", type=int, default=0)
    args = parser.parse_args()

    print(f"{'seed':>4} {'n':>3} {'J':>2} {'K':>2} {'Lip':>8} "
          f"{'basic':>7} {'accel':>7} {'slope_b':>8} {'slope_a':>8}")
    t0 = time.monotonic()
    accel_fewer = 0
    seeds = range(args.seed0, args.seed0 + args.markets)
    for seed, (n, j, k, lip, ib, ia, sb, sa) in zip(seeds, run_markets(seeds)):
        accel_fewer += ia < ib
        print(f"{seed:>4} {n:>3} {j:>2} {k:>2} {lip:>8.1f} {ib:>7} {ia:>7} {sb} {sa}")
    print(f"\naccelerated needed fewer iterations on {accel_fewer}/{args.markets} "
          f"markets; total {time.monotonic() - t0:.1f}s")


if __name__ == "__main__":
    main()
