"""Workload inputs, passes and correctness checks.

Every workload is a closed loop: one client in one process issues the
next operation when the previous one has returned. A pass is a fixed
list of operations; a run repeats passes.

clear  one operation is one solve. The markets are the first
       CLEAR_SLOTS markets of the acceptance batch (tests/
       test_acceptance.py: market seed = slot, dims drawn from
       default_rng(1000 + slot)), each solved from p0 = 0 by `basic`
       and then `accelerated` at the default tolerance.
sweep  one operation is one market of the full acceptance batch
       evaluated on a (SWEEP_ROWS, n) block of prices: Market.ter,
       Market.ter_gradient and, per consumer type, nested_logit.surplus
       and choice_probabilities.
audit  one operation is one verify suite of run_suites(SUITES, ...) on
       specs/market_n6.json with AUDIT_SAMPLES samples.

The workload seed relabels the goods of every batch market (a seeded
permutation applied to the spec document), draws the sweep price
blocks and is the verify seed of the audit. Relabelling keeps the cost
of each solve fixed across seeds: solve times of freshly drawn markets
range over two orders of magnitude (0.09 s to 23 s per solve at the
seed commit), so a run-sized sample of fresh markets would measure the
draw, not the program.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from marketclear import nested_logit, solvers, specio, verify
from marketclear.solvers import DEFAULT_TOL, SCHEMES, SolverConfig

BATCH_SLOTS = 20
CLEAR_SLOTS = 4
SWEEP_ROWS = 4096
CHECK_ROWS = 16  # rows per market compared against single-point calls
FD_ROWS = 2  # rows per market compared against finite differences
AUDIT_SPEC = Path("specs") / "market_n6.json"
AUDIT_SAMPLES = 1_000_000

# speed-probe kind of each verify suite's work (see speed.py): the bounds
# suite is solves; sampling mixes random generation, small reductions and
# block arithmetic and tracks both kernels best
SUITE_KIND = {"bounds": "small"}

TER_AGREE_RTOL = 1e-8
BATCH_RTOL = 1e-12


def batch_dims(slot: int) -> tuple[int, int, int]:
    """(n, consumer types, suppliers) of an acceptance-batch market."""
    srng = np.random.default_rng(1000 + slot)
    return int(srng.integers(6, 21)), int(srng.integers(1, 6)), int(srng.integers(1, 6))


def relabel_goods(doc: dict, perm: np.ndarray) -> dict:
    """Spec document with good perm[i] renamed i; the market is unchanged."""
    inv = np.argsort(perm)
    take = lambda xs: [xs[int(k)] for k in perm]  # noqa: E731
    out = json.loads(json.dumps(doc))
    for c in out["consumers"]:
        c["utilities"] = take(c["utilities"])
        for nest in c["nests"]:
            nest["members"] = sorted(int(inv[m - 1]) + 1 for m in nest["members"])
    for s in out["suppliers"]:
        s["y_nat"] = take(s["y_nat"])
        s["capacity"] = {k: take(v) for k, v in s["capacity"].items()}
        s["base_cost"] = {k: take(v) if isinstance(v, list) else v
                          for k, v in s["base_cost"].items()}
    return out


def batch_document(slot: int, seed: int) -> dict:
    n, j, k = batch_dims(slot)
    doc = specio.generate_market(n, j, k, seed=slot)
    return relabel_goods(doc, np.random.default_rng([seed, slot]).permutation(n))


def price_block(seed: int, slot: int, n: int) -> np.ndarray:
    """Seeded prices; every fourth row is shifted below zero in places,
    because the accelerated scheme evaluates off the orthant."""
    p = np.random.default_rng([seed, slot, 1]).uniform(0.0, 5.0, (SWEEP_ROWS, n))
    p[::4] -= 1.0
    return p


@dataclass
class Inputs:
    workload: str
    seed: int
    markets: list  # Market objects the passes use
    docs: list = field(default_factory=list)  # their spec documents
    blocks: list = field(default_factory=list)  # sweep price blocks


def build_inputs(workload: str, seed: int, root: Path) -> Inputs:
    """Generate or load the workload's markets (this is the timed set-up)."""
    if workload == "audit":
        doc = json.loads((root / AUDIT_SPEC).read_text(encoding="utf-8"))
        return Inputs(workload, seed, [specio.market_from_document(doc)], [doc])
    slots = range(CLEAR_SLOTS if workload == "clear" else BATCH_SLOTS)
    docs = [batch_document(slot, seed) for slot in slots]
    markets = [specio.market_from_document(d) for d in docs]
    blocks = []
    if workload == "sweep":
        blocks = [price_block(seed, slot, m.n) for slot, m in zip(slots, markets)]
    return Inputs(workload, seed, markets, docs, blocks)


@dataclass
class Op:
    name: str
    seconds: float  # calibrated, see speed.py
    raw_seconds: float
    output: object


# ---------------------------------------------------------------------------
# passes: `timed(fn, kind)` runs one operation and returns (calibrated
# seconds, raw seconds, result); kind names the speed probe that matches
# the operation's work (see speed.py)


def clear_pass(inp: Inputs, timed) -> list[Op]:
    ops = []
    for slot, m in enumerate(inp.markets):
        for scheme in SCHEMES:
            config = SolverConfig(scheme=scheme)
            ops.append(Op(f"market{slot}/{scheme}",
                          *timed(lambda: solvers.solve(m, config), "small")))
    return ops


def sweep_eval(m, p: np.ndarray):
    """TER, z and per-consumer (surplus, choice probabilities) at prices p."""
    per_type = [
        (nested_logit.surplus(ct.nests, ct.a - p),
         nested_logit.choice_probabilities(ct.nests, ct.a - p))
        for ct in m.consumers
    ]
    return m.ter(p), m.ter_gradient(p), per_type


def sweep_pass(inp: Inputs, timed) -> list[Op]:
    return [Op(f"market{slot}", *timed(lambda: sweep_eval(m, p), "block"))
            for slot, (m, p) in enumerate(zip(inp.markets, inp.blocks))]


def audit_pass(inp: Inputs, timed) -> list[Op]:
    return [Op(suite, *timed(lambda: verify.run_suites((suite,), inp.markets[0],
                                                       AUDIT_SAMPLES, inp.seed),
                             SUITE_KIND.get(suite, "both")))
            for suite in verify.SUITES]


PASSES = {"clear": clear_pass, "sweep": sweep_pass, "audit": audit_pass}


# ---------------------------------------------------------------------------
# correctness checks: each returns one failure flag per operation


def solve_ok(market, trace) -> bool:
    """Converged, and the natural-map residual at the price is within tol."""
    return bool(trace.converged) and (
        market.equilibrium_residual(trace.price).grad_norm <= DEFAULT_TOL
    )


def ter_agree(ter_a: float, ter_b: float) -> bool:
    return abs(ter_a - ter_b) <= TER_AGREE_RTOL * max(1.0, abs(ter_a))


def clear_failures(inp: Inputs, ops: list[Op]) -> list[bool]:
    """Each solve must pass `solve_ok`; the accelerated solve of a market
    also fails when its TER disagrees with the basic solve's."""
    failed = []
    for slot, m in enumerate(inp.markets):
        basic, accel = ops[2 * slot].output, ops[2 * slot + 1].output
        failed.append(not solve_ok(m, basic))
        failed.append(not (solve_ok(m, accel) and ter_agree(basic.ter[-1], accel.ter[-1])))
    return failed


def _close(batched, single, rtol: float) -> bool:
    batched, single = np.asarray(batched), np.asarray(single)
    scale = max(1.0, float(np.max(np.abs(single))))
    return bool(np.max(np.abs(batched - single)) <= rtol * scale)


def sweep_ok(m, p: np.ndarray, out, rows) -> bool:
    """Rows of the batched outputs against single-point calls (1e-12
    relative); on the first FD_ROWS of `rows`, z against central finite
    differences of TER (verify.FD_RTOL, scaled as in suite_gradient)."""
    ter, z, per_type = out
    for r in rows:
        if not (_close(ter[r], m.ter(p[r]), BATCH_RTOL)
                and _close(z[r], m.ter_gradient(p[r]), BATCH_RTOL)):
            return False
        for ct, (e, q) in zip(m.consumers, per_type):
            v = ct.a - p[r]
            if not (_close(e[r], nested_logit.surplus(ct.nests, v), BATCH_RTOL)
                    and _close(q[r], nested_logit.choice_probabilities(ct.nests, v),
                               BATCH_RTOL)):
                return False
    for r in rows[:FD_ROWS]:
        fd = verify.fd_gradient(m.ter, p[r])
        if not _close(z[r], fd, verify.FD_RTOL):
            return False
    return True


def fingerprint(out) -> bytes:
    ter, z, per_type = out
    h = hashlib.blake2b(digest_size=16)
    for arr in (ter, z, *[a for pair in per_type for a in pair]):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.digest()


class SweepChecker:
    """Checks the first pass row by row and later passes by fingerprint
    (the outputs are deterministic, so every pass must repeat the first)."""

    def __init__(self):
        self.reference: list[bytes | None] = []

    def __call__(self, inp: Inputs, ops: list[Op]) -> list[bool]:
        first = not self.reference
        failed = []
        for slot, (m, p, op) in enumerate(zip(inp.markets, inp.blocks, ops)):
            fp = fingerprint(op.output)
            if first:
                rows = np.random.default_rng([inp.seed, slot, 2]).choice(
                    SWEEP_ROWS, CHECK_ROWS, replace=False)
                ok = sweep_ok(m, p, op.output, rows)
                self.reference.append(fp if ok else None)
                failed.append(not ok)
            else:
                failed.append(self.reference[slot] != fp)
        return failed


def audit_failures(inp: Inputs, ops: list[Op]) -> list[bool]:
    return [not all(r.ok for r in op.output) for op in ops]


def checker(workload: str):
    if workload == "sweep":
        return SweepChecker()
    return {"clear": clear_failures, "audit": audit_failures}[workload]
