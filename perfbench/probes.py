"""Per-layer microbenchmarks on a workload's markets.

Each probe times one public function of one layer with tracing off and
reports the median over the probed markets (consumer types, suppliers)
of the calibrated per-call or per-point cost (see speed.py). Single-point
calls show per-call overhead, (SWEEP_ROWS, n) blocks show per-point
arithmetic.
"""

from __future__ import annotations

import statistics

import numpy as np

from marketclear import nested_logit, sampling, solvers, specio, supply

from speed import Speed
from workloads import SWEEP_ROWS, Inputs

PROBE_MARKETS = 6
SINGLE_CALLS = 50
BATCH_REPEATS = 3
SOLVE_ITERS = 100
SAMPLES = 1 << 17


def run_probes(inp: Inputs) -> dict[str, float]:
    speed = Speed()

    def per_call(fn, calls: int, repeats: int = 3, kind: str = "small") -> float:
        """Median over repeats of the calibrated mean seconds per call;
        single-point calls are probed as "small" work, blocks as "block"."""
        def loop():
            for _ in range(calls):
                fn()
        return statistics.median(speed.timed(loop, kind)[0] / calls for _ in range(repeats))

    def per_point(fn) -> float:
        return per_call(fn, 1, BATCH_REPEATS, "block") / SWEEP_ROWS

    markets = inp.markets[:PROBE_MARKETS]
    rng = np.random.default_rng([inp.seed, 3])
    cost: dict[str, list[float]] = {}

    def add(key, value):
        cost.setdefault(key, []).append(value)

    for m in markets:
        p = rng.uniform(0.0, 5.0, m.n)
        block = rng.uniform(0.0, 5.0, (SWEEP_ROWS, m.n))
        add("market.ter_us", 1e6 * per_call(lambda: m.ter(p), SINGLE_CALLS))
        add("market.ter_gradient_us", 1e6 * per_call(lambda: m.ter_gradient(p), SINGLE_CALLS))
        add("market.ter_ns_per_pt", 1e9 * per_point(lambda: m.ter(block)))
        add("market.ter_gradient_ns_per_pt", 1e9 * per_point(lambda: m.ter_gradient(block)))
        for ct in m.consumers:
            v, vb = ct.a - p, ct.a - block
            ns = ct.nests
            add("nested_logit.surplus_us",
                1e6 * per_call(lambda: nested_logit.surplus(ns, v), SINGLE_CALLS))
            add("nested_logit.choice_probabilities_us",
                1e6 * per_call(lambda: nested_logit.choice_probabilities(ns, v), SINGLE_CALLS))
            add("nested_logit.surplus_ns_per_pt",
                1e9 * per_point(lambda: nested_logit.surplus(ns, vb)))
            add("nested_logit.choice_probabilities_ns_per_pt",
                1e9 * per_point(lambda: nested_logit.choice_probabilities(ns, vb)))
        for s in m.suppliers:
            add("supply.best_response_us",
                1e6 * per_call(lambda: supply.best_response(s, p), SINGLE_CALLS))
            add("supply.profit_us", 1e6 * per_call(lambda: supply.profit(s, p), SINGLE_CALLS))
        for scheme in solvers.SCHEMES:
            # a fixed number of iterations: tol=0 never stops early
            config = solvers.SolverConfig(scheme=scheme, tol=0.0, max_iters=SOLVE_ITERS)
            add(f"solvers.us_per_iter.{scheme}",
                1e6 * per_call(lambda: solvers.solve(m, config), 1, 1) / SOLVE_ITERS)

    out = {key: statistics.median(vals) for key, vals in cost.items()}
    out["market.single_over_batched"] = (
        (out["market.ter_us"] + out["market.ter_gradient_us"]) * 1e3
        / (out["market.ter_ns_per_pt"] + out["market.ter_gradient_ns_per_pt"])
    )

    ct = markets[0].consumers[0]
    v = ct.a - rng.uniform(0.0, 2.0, markets[0].n)
    out["sampling.choice_samples_per_s"] = SAMPLES / per_call(
        lambda: sampling.monte_carlo_choice_frequencies(ct.nests, v, SAMPLES, inp.seed), 1,
        kind="block")
    out["sampling.moment_samples_per_s"] = SAMPLES / per_call(
        lambda: sampling.empirical_error_covariance(ct.nests, SAMPLES, inp.seed), 1,
        kind="block")

    gen, parse = [], []
    for doc in inp.docs[:PROBE_MARKETS]:
        n, j, k = doc["n"], len(doc["consumers"]), len(doc["suppliers"])
        gen.append(1e3 * per_call(lambda: specio.generate_market(n, j, k, seed=inp.seed), 1))
        parse.append(1e3 * per_call(lambda: specio.market_from_document(doc), 5))
    out["specio.generate_ms"] = statistics.median(gen)
    out["specio.parse_ms"] = statistics.median(parse)
    return out
