"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import json
import subprocess
import time
from dataclasses import dataclass

import numpy as np
import pytest

import marketclear as mc
from marketclear import specio
from marketclear.nested_logit import choice_probabilities, conjugate, fenchel_gap, surplus
from marketclear.sampling import (
    empirical_error_covariance,
    monte_carlo_choice_frequencies,
)
from marketclear.solvers import SolverConfig, fit_rate, reference_solve, solve
from marketclear.verify import fd_gradient

from conftest import BATCH_SEEDS, PYTHON, SPEC_DIR, random_instance

GUMBEL_VAR = np.pi**2 / 6.0
N_INSTANCES = 1000


def _report(num, name, detail=""):
    print(f"ACCEPTANCE {num} ({name}): PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def instances():
    """1000 random nested logit instances, n <= 12, L <= 4."""
    return [random_instance(seed) for seed in range(N_INSTANCES)]


@dataclass
class BatchEntry:
    market: object
    ter_star: float
    p_star: np.ndarray
    basic: object
    accel: object


@pytest.fixture(scope="module")
def market_batch(lockstep_batch):
    """20 random markets (n <= 20, J <= 5, K <= 5): reference + both schemes,
    the 40 scheme runs the batch's part of the one lockstep call of
    `lockstep_batch`, whose wall time (building the markets and solving
    them) `elapsed` includes."""
    runs, traces, lockstep_s = lockstep_batch
    t0 = time.monotonic()
    markets = [m for m, _ in runs[0:2 * len(BATCH_SEEDS):2]]
    refs = []
    for m in markets:
        ref = reference_solve(m)
        assert ref.converged
        refs.append(ref)
    batch = traces[:2 * len(BATCH_SEEDS)]
    entries = [
        BatchEntry(market=m, ter_star=m.ter(ref.price), p_star=ref.price,
                   basic=basic, accel=accel)
        for m, ref, basic, accel in zip(markets, refs, batch[0::2], batch[1::2])
    ]
    elapsed = time.monotonic() - t0 + lockstep_s
    return entries, elapsed


def test_criterion_1_gradient_identity(instances):
    t0 = time.monotonic()
    worst = 0.0
    for ns, v in instances:
        q = choice_probabilities(ns, v)
        fd = fd_gradient(lambda x: surplus(ns, x), v)
        worst = max(worst, float(np.max(np.abs(q - fd)) / np.max(q)))
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6
    assert elapsed < 10.0
    _report(1, "gradient identity", f"max rel err {worst:.2e} in {elapsed:.1f}s")


def test_criterion_2_conjugate_duality(instances):
    worst = max(float(fenchel_gap(ns, v)) for ns, v in instances)
    assert worst <= 1e-9
    _report(2, "conjugate duality", f"max fenchel gap {worst:.2e}")


def test_criterion_3_smoothness_moduli(instances):
    pairs = 10_000
    worst_ratio = -np.inf
    worst_violation = -np.inf
    for idx in range(20):
        ns, _ = instances[idx * 37]
        rng = np.random.default_rng(5000 + idx)
        moduli = mc.smoothness_moduli(ns)
        v = rng.uniform(-5, 5, (pairs, ns.n))
        vbar = rng.uniform(-5, 5, (pairs, ns.n))
        dq = np.abs(choice_probabilities(ns, v) - choice_probabilities(ns, vbar)).sum(-1)
        dv = np.abs(v - vbar).max(-1)
        worst_ratio = max(worst_ratio, float(np.max(dq - moduli.smoothness * dv)))
        q = rng.dirichlet(np.ones(ns.n), size=pairs)
        qbar = rng.dirichlet(np.ones(ns.n), size=pairs)
        lam = rng.uniform(0, 1, pairs)
        mix = lam[:, None] * q + (1 - lam[:, None]) * qbar
        lhs = conjugate(ns, mix)
        rhs = (
            lam * conjugate(ns, q)
            + (1 - lam) * conjugate(ns, qbar)
            - 0.5 * moduli.strong_convexity * lam * (1 - lam)
            * np.abs(q - qbar).sum(-1) ** 2
        )
        worst_violation = max(worst_violation, float(np.max(lhs - rhs)))
    assert worst_ratio <= 0.0  # zero violations of the l1/linf bound
    assert worst_violation <= 1e-12  # midpoint inequality holds to rounding
    _report(3, "smoothness moduli",
            f"lipschitz slack {worst_ratio:.2e}, convexity slack {worst_violation:.2e}")


def test_criterion_4_error_correlations():
    t0 = time.monotonic()
    structures = [
        mc.NestStructure(3, ((0, 1), (2,)), (0.5, 1.0)),
        mc.NestStructure(6, ((0, 1, 2), (3, 4), (5,)), (0.3, 0.7, 1.0)),
        mc.NestStructure.single(4, mu=1.0),
        mc.NestStructure(5, ((0, 1, 2, 3, 4),), (0.5,)),
    ]
    samples = 10**6
    worst_within = 0.0
    worst_cross = 0.0
    worst_var = 0.0
    for i, ns in enumerate(structures):
        cov = empirical_error_covariance(ns, samples, seed=42 + i)
        sd = np.sqrt(np.diag(cov))
        corr = cov / np.outer(sd, sd)
        worst_var = max(worst_var, float(np.max(np.abs(np.diag(cov) - GUMBEL_VAR))))
        nest_of = np.empty(ns.n, dtype=int)
        for l, nest in enumerate(ns.nests):
            nest_of[list(nest)] = l
        for a in range(ns.n):
            for b in range(a + 1, ns.n):
                if nest_of[a] == nest_of[b]:
                    target = 1.0 - ns.mu[nest_of[a]] ** 2
                    worst_within = max(worst_within, abs(corr[a, b] - target))
                else:
                    worst_cross = max(worst_cross, abs(corr[a, b]))
    elapsed = time.monotonic() - t0
    assert worst_within <= 0.02
    assert worst_cross <= 0.01
    assert worst_var <= 0.02
    assert elapsed < 60.0
    _report(4, "nest correlations",
            f"within dev {worst_within:.4f}, cross {worst_cross:.4f}, "
            f"var dev {worst_var:.4f} in {elapsed:.1f}s")


def test_criterion_5_monte_carlo_demand():
    worst = 0.0
    for seed in range(10):
        ns, v = random_instance(seed * 101 + 11, v_bound=2.0)
        freq = monte_carlo_choice_frequencies(ns, v, 10**6, seed=seed)
        worst = max(worst, float(np.max(np.abs(freq - choice_probabilities(ns, v)))))
    assert worst <= 0.005
    _report(5, "monte carlo demand", f"max frequency gap {worst:.4f}")


def test_criterion_6_equilibrium_residuals(market_batch, single_good_market):
    entries, _ = market_batch
    for e in entries:
        for trace in (e.basic, e.accel):
            assert trace.converged
            r = e.market.equilibrium_residual(trace.price)
            assert r.min_excess >= -1e-6
            assert abs(r.complementarity) <= 1e-6
            assert r.grad_norm <= 1e-8
    for scheme in ("basic", "accelerated"):
        trace = solve(single_good_market, SolverConfig(scheme=scheme, tol=1e-10))
        assert trace.price[0] == pytest.approx(3.0, abs=1e-8)
    _report(6, "equilibrium residuals", f"{len(entries)} markets + analytic market")


def test_criterion_7_convergence_bounds(market_batch):
    entries, _ = market_batch
    worst_basic = -np.inf
    worst_accel = -np.inf
    for e in entries:
        dist2 = float(np.dot(e.p_star, e.p_star))  # p0 = 0
        t = e.basic.iters
        worst_basic = max(worst_basic, float(np.max(
            (e.basic.ter - e.ter_star) - dist2 / (2.0 * t * e.basic.step)
        )))
        t = e.accel.iters
        worst_accel = max(worst_accel, float(np.max(
            (e.accel.ter - e.ter_star) - 2.0 * dist2 / (e.accel.step * (t + 1.0) ** 2)
        )))
    assert worst_basic <= 0.0
    assert worst_accel <= 0.0
    _report(7, "potential gap bounds",
            f"basic slack {worst_basic:.2e}, accelerated slack {worst_accel:.2e}")


def test_criterion_8_rate_separation(market_batch):
    entries, elapsed = market_batch
    slopes_basic = []
    slopes_accel = []
    fewer = 0
    for e in entries:
        slopes_basic.append(fit_rate(e.basic, e.ter_star))
        slopes_accel.append(fit_rate(e.accel, e.ter_star))
        fewer += e.accel.iterations < e.basic.iterations
    assert max(slopes_basic) <= -0.85
    assert max(slopes_accel) <= -1.75
    assert fewer >= 18
    assert elapsed < 300.0
    _report(8, "rate separation",
            f"basic slope <= {max(slopes_basic):.2f}, accel slope <= "
            f"{max(slopes_accel):.2f}, fewer on {fewer}/20, batch {elapsed:.0f}s")


def test_criterion_9_cli_contract(tmp_path):
    def run(*args):
        return subprocess.run([PYTHON, "-m", "marketclear", *args],
                              capture_output=True, text=True)

    # spec round-trip is byte-identical
    out = tmp_path / "gen.json"
    r = run("gen", "--n", "5", "--consumers", "2", "--suppliers", "2",
            "--seed", "13", "--out", str(out))
    assert r.returncode == 0
    text = out.read_text()
    market = specio.market_from_document(json.loads(text))
    assert specio.dumps_document(specio.market_to_document(market)) == text

    # documented exit codes on malformed input
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("solve", "--market", str(bad)).returncode == 1
    doc = json.loads(text)
    doc["consumers"][0]["nests"][0]["mu"] = 1.5
    bad_mu = tmp_path / "bad_mu.json"
    bad_mu.write_text(specio.dumps_document(doc))
    r = run("solve", "--market", str(bad_mu))
    assert r.returncode == 1 and "mu out of range" in r.stderr
    assert run("verify", "--market", str(out), "--suite", "bogus").returncode == 1
    single = str(SPEC_DIR / "single_good.json")
    assert run("solve", "--market", single, "--step", "0.5").returncode == 1
    r = run("solve", "--market", single, "--max-iters", "3",
            "--trace", str(tmp_path / "t.csv"))
    assert r.returncode == 2
    assert specio.read_trace(str(tmp_path / "t.csv")).iterations == 3

    # verify --suite all exits 0 on the shipped demo specs
    for name in ("single_good.json", "market_n6.json"):
        r = run("verify", "--market", str(SPEC_DIR / name), "--suite", "all")
        assert r.returncode == 0, f"{name}:\n{r.stdout}\n{r.stderr}"
    _report(9, "cli contract", "round-trip, exit codes, verify all suites")
