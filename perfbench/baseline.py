#!/usr/bin/env python3
"""Re-derive the ROADMAP's baseline figures with the benchmark's code.

    python3 perfbench/baseline.py [--out FILE]

Run from the checkout root (about three minutes). It times the full
acceptance batch exactly as tests/test_acceptance.py builds it (market
seeds 0..19, a reference solve and then both schemes per market), the
seed-17 market's oracle single-point against a 4096-point batch, the
in-process `verify --suite all` on specs/market_n6.json, and the Monte
Carlo sampler at n = 6. Prints one JSON object; --out also writes it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import run

run.import_package()

import numpy as np  # noqa: E402

import workloads as w  # noqa: E402
from marketclear import sampling, specio, verify  # noqa: E402
from marketclear.solvers import SolverConfig, reference_solve, solve  # noqa: E402
from speed import probe_time  # noqa: E402


def per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median over repeats of the raw mean seconds per call (the ROADMAP
    figures are raw wall times)."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return sorted(times)[len(times) // 2]


def acceptance_batch() -> dict:
    rows = []
    for slot in range(w.BATCH_SLOTS):
        m = specio.market_from_document(specio.generate_market(*w.batch_dims(slot), seed=slot))
        row = {"slot": slot, "dims": w.batch_dims(slot)}
        for label in ("reference", "basic", "accelerated"):
            t0 = perf_counter()
            if label == "reference":
                trace = reference_solve(m)
            else:
                trace = solve(m, SolverConfig(scheme=label))
            row[label] = {"s": perf_counter() - t0, "iterations": trace.iterations,
                          "converged": trace.converged}
        rows.append(row)
        print(json.dumps(row), file=sys.stderr, flush=True)
    total = {k: sum(r[k]["s"] for r in rows) for k in ("reference", "basic", "accelerated")}
    iters = {k: sum(r[k]["iterations"] for r in rows)
             for k in ("reference", "basic", "accelerated")}
    return {
        "total_s": sum(total.values()),
        "seconds": total,
        "iterations": iters,
        "us_per_iter": 1e6 * sum(total.values()) / sum(iters.values()),
        "markets": rows,
    }


def oracle_seed17() -> dict:
    m = specio.market_from_document(specio.generate_market(*w.batch_dims(17), seed=17))
    rng = np.random.default_rng(0)
    p = rng.uniform(0.0, 5.0, m.n)
    block = rng.uniform(0.0, 5.0, (4096, m.n))
    single = per_call(lambda: (m.ter(p), m.ter_gradient(p)), 200, 5)
    grad_pt = per_call(lambda: m.ter_gradient(block), 1, 5) / 4096
    both_pt = per_call(lambda: (m.ter(block), m.ter_gradient(block)), 1, 5) / 4096
    return {
        "dims": w.batch_dims(17),
        "single_ter_plus_gradient_us": 1e6 * single,
        "batched_gradient_us_per_pt": 1e6 * grad_pt,
        "batched_ter_plus_gradient_us_per_pt": 1e6 * both_pt,
        "single_over_batched": single / both_pt,
    }


def audit_and_sampler() -> dict:
    m = specio.load_market(str(Path("specs") / "market_n6.json"))
    t0 = perf_counter()
    results = verify.run_suites(verify.SUITES, m, 1_000_000, 0)
    suites_s = perf_counter() - t0
    ct = m.consumers[0]
    mc_s = per_call(
        lambda: sampling.monte_carlo_choice_frequencies(ct.nests, ct.a, 1_000_000, 0), 1, 3)
    return {"verify_all_s": suites_s, "verify_all_ok": all(r.ok for r in results),
            "montecarlo_s_per_1e6_samples_n6": mc_s}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    before = {kind: probe_time(kind) for kind in ("small", "block")}
    out = {"env": run.environment(), "oracle_seed17": oracle_seed17(),
           "audit": audit_and_sampler(), "acceptance_batch": acceptance_batch()}
    # speed-probe times at start and end, to relate these raw times to the
    # benchmark's calibrated ones
    out["speed_probe_s"] = {kind: [t, probe_time(kind)] for kind, t in before.items()}
    text = json.dumps(out, indent=1)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
