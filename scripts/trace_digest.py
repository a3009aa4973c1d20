#!/usr/bin/env python3
"""Digests of solver traces, for checking that two checkouts solve bit
for bit alike.

Solves each acceptance-batch market (`specio.batch_market`) and each
shipped spec under `specs/` with both pricing schemes at their default
settings, one `solve` per run, and prints one line per run:

    <market> <scheme> iterations=<T> stop=<stop> oracle_evals=<T'> blocks=<B> digest=<hex>

Then it solves all of those runs again in one `solve_many` call, in
lockstep, and prints the same line for each, prefixed `lockstep `. A
lockstep run must give the bits of its single run; its stacked layout,
and every re-stack as runs stop, builds its own bound kernels.

The digest is a 16-byte blake2b of the raw float64 bytes of the trace
columns ter, grad_norm, min_excess, complementarity and steps and of the
final price, in that order. Run it in two checkouts and diff the output:

    PYTHONPATH=src python3 scripts/trace_digest.py > digests.txt
"""

import argparse
import hashlib
from pathlib import Path

import numpy as np

from marketclear import specio
from marketclear.solvers import SCHEMES, SolverConfig, solve, solve_many

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
COLUMNS = ("ter", "grad_norm", "min_excess", "complementarity", "steps", "price")


def digest(trace) -> str:
    """blake2b (16 bytes) of the trace's COLUMNS, each as float64 bytes."""
    h = hashlib.blake2b(digest_size=16)
    for name in COLUMNS:
        h.update(np.ascontiguousarray(getattr(trace, name), dtype=np.float64).tobytes())
    return h.hexdigest()


def line(name, t) -> str:
    """The output line of the run `name` with trace t."""
    return (f"{name} iterations={t.iterations} stop={t.stop} "
            f"oracle_evals={t.oracle_evals} blocks={t.blocks} digest={digest(t)}")


def markets(count):
    """(label, market) pairs: the first count batch markets, then the specs."""
    for seed in range(count):
        yield f"batch{seed}", specio.market_from_document(specio.batch_market(seed))
    for path in sorted(SPEC_DIR.glob("*.json")):
        yield path.name, specio.load_market(str(path))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--markets", type=int, default=20, help="batch markets (default 20)")
    args = parser.parse_args(argv)
    runs = [(f"{label} {scheme}", market, SolverConfig(scheme=scheme))
            for label, market in markets(args.markets) for scheme in SCHEMES]
    for name, market, config in runs:
        print(line(name, solve(market, config)), flush=True)
    traces = solve_many([(market, config) for _, market, config in runs])
    for (name, _, _), t in zip(runs, traces):
        print(line(f"lockstep {name}", t), flush=True)


if __name__ == "__main__":
    main()
