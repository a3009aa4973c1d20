"""Command-line front end: gen, solve, verify, rate.

Exit codes: 0 success; 1 for a MarketclearError or OSError, reported by
`main` as one `error: ...` line on stderr; 2 when `solve` stops without
converging, at the iteration cap (stop "max_iters") or on a repeated
iterate (stop "stalled"); the trace is still written.
MARKETCLEAR_LOG={error|info|debug} controls logging verbosity on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import specio, verify
from .rules import ConfigError, MarketclearError
from .solvers import SCHEMES, SolverConfig, _fit_rate_window, solve

log = logging.getLogger("marketclear.cli")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    level = os.environ.get("MARKETCLEAR_LOG", "error").lower()
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _cmd_gen(args) -> int:
    doc = specio.generate_market(args.n, args.consumers, args.suppliers, args.seed)
    if args.out:
        specio.save_document(doc, args.out)
    else:
        sys.stdout.write(specio.dumps_document(doc))
    return 0


def _cmd_solve(args) -> int:
    market = specio.load_market(args.market)
    # the solver converts and checks the document
    p0 = specio.read_json(args.p0, ConfigError, "p0") if args.p0 else None
    config = SolverConfig(
        scheme=args.scheme,
        step=args.step,
        max_iters=args.max_iters,
        tol=args.tol,
        p0=p0,
    )
    trace = solve(market, config)
    if args.trace:
        specio.write_trace(trace, args.trace)
    # the trace's last row already holds the residuals and TER of trace.price
    print(
        f"scheme={trace.scheme} iters={trace.iterations} "
        f"converged={str(trace.converged).lower()} residual={trace.grad_norm[-1]:.3e} "
        f"min_excess={trace.min_excess[-1]:.3e} "
        f"complementarity={trace.complementarity[-1]:.3e} ter={trace.ter[-1]:.17g}"
    )
    return 0 if trace.converged else 2


def _cmd_verify(args) -> int:
    names = verify.SUITES if args.suite == "all" else (args.suite,)
    market = specio.load_market(args.market)
    results = verify.run_suites(names, market, args.samples, args.seed)
    width = max(len(f"{r.suite}: {r.name}") for r in results)
    failures = 0
    for r in results:
        rel = "|value| <=" if r.relation == "abs<=" else "value <="
        status = "pass" if r.ok else "FAIL"
        failures += 0 if r.ok else 1
        print(f"{(r.suite + ': ' + r.name).ljust(width)}  "
              f"{r.value: .6e}  ({rel} {r.bound:g})  {status}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def _cmd_rate(args) -> int:
    trace = specio.read_trace(args.trace)
    slope, mask = _fit_rate_window(trace, args.ter_star)
    t = trace.iters[mask]
    print(f"slope={slope:.6f} window=[{t.min()}, {t.max()}] points={t.size}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketclear",
        description="Equilibrium prices for differentiated goods by convex "
                    "potential minimization under nested logit demand.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random market spec")
    gen.add_argument("--n", type=int, required=True, help="number of goods")
    gen.add_argument("--consumers", type=int, required=True, help="consumer types")
    gen.add_argument("--suppliers", type=int, required=True, help="suppliers")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="write the spec here instead of stdout")
    gen.set_defaults(func=_cmd_gen)

    slv = sub.add_parser("solve", help="compute equilibrium prices")
    slv.add_argument("--market", required=True, help="market spec file")
    slv.add_argument("--scheme", choices=SCHEMES, default="basic")
    slv.add_argument("--step", type=float, default=None,
                     help="step size; must not exceed 1/smoothness constant")
    slv.add_argument("--max-iters", type=int, default=SolverConfig().max_iters)
    slv.add_argument("--tol", type=float, default=SolverConfig().tol)
    slv.add_argument("--trace", help="write the per-iteration trace CSV here")
    slv.add_argument("--p0", help="JSON file with the initial price vector")
    slv.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="run verification suites on a market")
    ver.add_argument("--market", required=True, help="market spec file")
    ver.add_argument("--suite", required=True,
                     help=f"one of {', '.join(verify.SUITES)} or all")
    ver.add_argument("--samples", type=int, default=1_000_000,
                     help="Monte Carlo sample count")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=_cmd_verify)

    rate = sub.add_parser("rate", help="fit a convergence rate to a trace")
    rate.add_argument("--trace", required=True, help="trace CSV file")
    rate.add_argument("--ter-star", type=float, required=True,
                      help="reference optimum from a high-accuracy solve")
    rate.set_defaults(func=_cmd_rate)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MarketclearError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
