#!/usr/bin/env python3
"""Digests of solver traces, for checking that two checkouts solve bit
for bit alike.

Solves each acceptance-batch market (`specio.batch_market`) and each
shipped spec under `specs/` with both pricing schemes at their default
settings, one `solve` per run, and prints one line per run:

    <market> <scheme> iterations=<T> stop=<stop> oracle_evals=<T'> blocks=<B> digest=<hex>

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
from marketclear.solvers import SCHEMES, SolverConfig, solve

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
COLUMNS = ("ter", "grad_norm", "min_excess", "complementarity", "steps", "price")


def digest(trace) -> str:
    """blake2b (16 bytes) of the trace's COLUMNS, each as float64 bytes."""
    h = hashlib.blake2b(digest_size=16)
    for name in COLUMNS:
        h.update(np.ascontiguousarray(getattr(trace, name), dtype=np.float64).tobytes())
    return h.hexdigest()


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
    for label, market in markets(args.markets):
        for scheme in SCHEMES:
            t = solve(market, SolverConfig(scheme=scheme))
            print(f"{label} {scheme} iterations={t.iterations} stop={t.stop} "
                  f"oracle_evals={t.oracle_evals} blocks={t.blocks} digest={digest(t)}",
                  flush=True)


if __name__ == "__main__":
    main()
