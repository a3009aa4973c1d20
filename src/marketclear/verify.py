"""Verification suites: every analytic claim checked against an oracle.

Each suite runs on a concrete market and returns measured values with
the bound they must satisfy. Oracles are independent of the code paths
they check: central finite differences for gradients, Monte Carlo for
choice probabilities and correlations, the per-agent functions of
`nested_logit` and `supply` for the market's fused kernel, and a
projected Newton reference solve, which runs neither pricing scheme, for
the convergence bounds.
`fd_gradient` and its step FD_STEP live in `solvers`, whose reference
solve takes its Hessian with them, and are imported here unchanged.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import sampling
from .market import Market
from .nested_logit import (
    NestStructure,
    choice_probabilities,
    conjugate,
    fenchel_gap,
    smoothness_moduli,
    surplus,
)
from .rules import ConfigError, integer
from .solvers import (FD_STEP, REFERENCE_TOL, SolverConfig, fd_gradient, reference_solve,
                      solve_many)
from .supply import best_response, profit

log = logging.getLogger("marketclear.verify")

FD_RTOL = 1e-6
SMOOTHNESS_PAIRS = 10_000  # random point pairs per smoothness audit
FENCHEL_TOL = 1e-9
# midpoint inequalities hold exactly in real arithmetic; allow rounding
# noise (degenerate pairs evaluate both sides to within a few ulps)
ROUNDING_SLACK = 1e-12
CORR_WITHIN_TOL = 0.02
CORR_CROSS_TOL = 0.01
VARIANCE_TOL = 0.02
GUMBEL_VARIANCE = math.pi**2 / 6.0


@dataclass
class CheckResult:
    """One verified claim: the measured value against its bound."""

    suite: str
    name: str
    value: float
    bound: float
    ok: bool
    # "<=" means value must not exceed bound; "abs<=" bounds |value|.
    relation: str = "<="


def _check(suite: str, name: str, value: float, bound: float,
           relation: str = "<=") -> CheckResult:
    if relation == "abs<=":
        ok = abs(value) <= bound
    else:
        ok = value <= bound
    return CheckResult(suite, name, float(value), float(bound), bool(ok), relation)


def gradient_error(ns: NestStructure, v: np.ndarray) -> float:
    """Sup-norm FD mismatch of the choice probabilities, relative to ||q||_inf."""
    q = choice_probabilities(ns, v)
    fd = fd_gradient(lambda x: surplus(ns, x), v)
    return float(np.max(np.abs(q - fd)) / np.max(np.abs(q)))


def _per_agent_oracle(market: Market, p: np.ndarray) -> tuple[float, np.ndarray]:
    """TER and z at p summed agent by agent, from the per-type functions
    that share no code with the market's fused kernel:
    sum_k profit_k + sum_j count_j E_j(a_j - p), and
    sum_k y_k - sum_j count_j x_j(a_j - p)."""
    ter = sum(profit(s, p) for s in market.suppliers)
    z = sum(best_response(s, p) for s in market.suppliers)
    for ct in market.consumers:
        ter += ct.count * surplus(ct.nests, ct.a - p)
        z -= ct.count * choice_probabilities(ct.nests, ct.a - p)
    return ter, z


def suite_gradient(market: Market, samples: int, seed: int) -> list[CheckResult]:
    """Choice probabilities and excess supply against finite differences,
    and the market's kernel against the per-agent functions."""
    rng = np.random.default_rng(seed)
    results = []
    # np.max, unlike Python's max, lets a NaN measurement through to the check
    for j, ct in enumerate(market.consumers):
        err = np.max([
            gradient_error(ct.nests, rng.uniform(-5.0, 5.0, market.n))
            for _ in range(20)
        ])
        results.append(_check("gradient", f"consumer[{j}] surplus gradient", err, FD_RTOL))
    errs, ter_errs, z_errs = [], [], []
    for _ in range(20):
        p = rng.uniform(0.0, 5.0, market.n)
        z = market.ter_gradient(p)
        fd = fd_gradient(market.ter, p)
        errs.append(np.max(np.abs(z - fd)) / max(1.0, np.max(np.abs(z))))
        ter, z_sum = _per_agent_oracle(market, p)
        ter_errs.append(abs(market.ter(p) - ter) / max(1.0, abs(ter)))
        z_errs.append(np.max(np.abs(z - z_sum)) / max(1.0, np.max(np.abs(z_sum))))
    results.append(_check("gradient", "market excess supply", np.max(errs), FD_RTOL))
    results.append(_check("gradient", "market potential vs per-agent sum",
                          np.max(ter_errs), FD_RTOL))
    results.append(_check("gradient", "market excess supply vs per-agent sum",
                          np.max(z_errs), FD_RTOL))
    return results



def suite_duality(market: Market, samples: int, seed: int) -> list[CheckResult]:
    """Fenchel equality E(v) + E*(grad E(v)) = <grad E(v), v> at random v."""
    rng = np.random.default_rng(seed)
    results = []
    for j, ct in enumerate(market.consumers):
        v = rng.uniform(-20.0, 20.0, (200, market.n))
        gap = float(np.max(fenchel_gap(ct.nests, v)))
        results.append(_check("duality", f"consumer[{j}] fenchel gap", gap, FENCHEL_TOL))
    return results


def _smoothness_ratio(ns: NestStructure, v: np.ndarray, vbar: np.ndarray) -> float:
    """max over pairs of ||grad E(v)-grad E(vbar)||_1 / (B ||v-vbar||_inf)."""
    b = smoothness_moduli(ns).smoothness
    dq = np.abs(choice_probabilities(ns, v) - choice_probabilities(ns, vbar)).sum(axis=-1)
    dv = np.abs(v - vbar).max(axis=-1)
    return float(np.max(dq / (b * dv)))


def _convexity_violation(ns: NestStructure, rng: np.random.Generator) -> float:
    """Largest violation of the strong-convexity midpoint inequality of E*."""
    beta = smoothness_moduli(ns).strong_convexity
    q = rng.dirichlet(np.ones(ns.n), size=SMOOTHNESS_PAIRS)
    qbar = rng.dirichlet(np.ones(ns.n), size=SMOOTHNESS_PAIRS)
    lam = rng.uniform(0.0, 1.0, SMOOTHNESS_PAIRS)
    mix = lam[:, None] * q + (1.0 - lam[:, None]) * qbar
    lhs = conjugate(ns, mix)
    rhs = (
        lam * conjugate(ns, q)
        + (1.0 - lam) * conjugate(ns, qbar)
        - 0.5 * beta * lam * (1.0 - lam) * np.abs(q - qbar).sum(axis=-1) ** 2
    )
    return float(np.max(lhs - rhs))


def suite_smoothness(market: Market, samples: int, seed: int) -> list[CheckResult]:
    """Gradient Lipschitz bounds and conjugate strong convexity, by audit."""
    rng = np.random.default_rng(seed)
    results = []
    for j, ct in enumerate(market.consumers):
        v = rng.uniform(-5.0, 5.0, (SMOOTHNESS_PAIRS, market.n))
        vbar = rng.uniform(-5.0, 5.0, (SMOOTHNESS_PAIRS, market.n))
        ratio = _smoothness_ratio(ct.nests, v, vbar)
        results.append(
            _check("smoothness", f"consumer[{j}] gradient lipschitz ratio", ratio, 1.0)
        )
        violation = _convexity_violation(ct.nests, rng)
        results.append(
            _check("smoothness", f"consumer[{j}] conjugate convexity violation",
                   violation, ROUNDING_SLACK)
        )
    lip = market.smoothness_constant()
    p = rng.uniform(0.0, 5.0, (SMOOTHNESS_PAIRS, market.n))
    pbar = rng.uniform(0.0, 5.0, (SMOOTHNESS_PAIRS, market.n))
    dz = np.linalg.norm(market.ter_gradient(p) - market.ter_gradient(pbar), axis=-1)
    dp = np.linalg.norm(p - pbar, axis=-1)
    ratio = float(np.max(dz / (lip * dp)))
    # the analytic constant is conservative; the measured ratio doubles
    # as an empirical Lipschitz estimate (value * constant)
    results.append(_check("smoothness", "market gradient lipschitz ratio", ratio, 1.0))
    return results


def suite_montecarlo(market: Market, samples: int, seed: int) -> list[CheckResult]:
    """Empirical argmax frequencies against closed-form probabilities."""
    rng = np.random.default_rng(seed)
    bound = 4.0 * math.sqrt(0.25 / samples)
    results = []
    for j, ct in enumerate(market.consumers):
        p = rng.uniform(0.0, 2.0, market.n)
        err = sampling.monte_carlo_max_error(
            ct.nests, ct.a - p, samples, seed + 1000 + j
        )
        results.append(
            _check("montecarlo", f"consumer[{j}] frequency gap", err, bound)
        )
    return results


def suite_correlation(market: Market, samples: int, seed: int) -> list[CheckResult]:
    """Error correlations: 1 - mu^2 inside a nest, zero across nests.

    Tolerances are calibrated for 1e6 samples; proportionally fewer
    samples widen the sampling noise beyond them.
    """
    results = []
    for j, ct in enumerate(market.consumers):
        ns = ct.nests
        cov = sampling.empirical_error_covariance(ns, samples, seed + j)
        corr = sampling.correlation_from_covariance(cov)
        var_dev = float(np.max(np.abs(np.diag(cov) - GUMBEL_VARIANCE)))
        results.append(
            _check("correlation", f"consumer[{j}] marginal variance dev",
                   var_dev, VARIANCE_TOL)
        )
        nest_of = np.empty(ns.n, dtype=int)
        for l, nest in enumerate(ns.nests):
            nest_of[list(nest)] = l
        pairs = np.triu(np.ones((ns.n, ns.n), dtype=bool), k=1)
        same = nest_of[:, None] == nest_of[None, :]
        target = 1.0 - np.asarray(ns.mu)[nest_of] ** 2  # per row a of pair (a, b)
        # reductions over the pair masks propagate a NaN entry into the check
        within = pairs & same
        if within.any():
            within_dev = np.max(np.abs(corr - target[:, None])[within])
            results.append(
                _check("correlation", f"consumer[{j}] within-nest corr dev",
                       within_dev, CORR_WITHIN_TOL)
            )
        if ns.n_nests > 1:
            cross_dev = np.max(np.abs(corr[pairs & ~same]))
            results.append(
                _check("correlation", f"consumer[{j}] cross-nest corr",
                       cross_dev, CORR_CROSS_TOL)
            )
    return results


def suite_bounds(market: Market, samples: int, seed: int) -> list[CheckResult]:
    """Solver convergence bounds against a high-accuracy reference solve.

    The reference is checked first: a reference solve that stopped short
    of REFERENCE_TOL fails here instead of silently moving TER*. Both
    schemes run in lockstep (`solve_many`), bit for bit as alone.
    """
    ref = reference_solve(market)
    results = [_check("bounds", "reference residual",
                      market.equilibrium_residual(ref.price).grad_norm, REFERENCE_TOL)]
    ter_star = market.ter(ref.price)
    dist2 = float(np.dot(ref.price, ref.price))  # runs start from p0 = 0
    schemes = ("basic", "accelerated")
    traces = solve_many([(market, SolverConfig(scheme=scheme)) for scheme in schemes])
    for scheme, trace in zip(schemes, traces):
        h = trace.step
        t = trace.iters
        gap = trace.ter - ter_star
        if scheme == "basic":
            bound_curve = dist2 / (2.0 * t * h)
        else:
            bound_curve = 2.0 * dist2 / (h * (t + 1.0) ** 2)
        worst = float(np.max(gap - bound_curve))
        results.append(_check("bounds", f"{scheme} potential-gap bound slack", worst, 0.0))
        res = market.equilibrium_residual(trace.price)
        results.append(_check("bounds", f"{scheme} final residual",
                              res.grad_norm, SolverConfig().tol))
        results.append(_check("bounds", f"{scheme} min excess supply",
                              -res.min_excess, 1e-6))
        results.append(_check("bounds", f"{scheme} complementarity",
                              res.complementarity, 1e-6, relation="abs<="))
    return results


_SUITE_FNS = {
    "gradient": suite_gradient,
    "duality": suite_duality,
    "smoothness": suite_smoothness,
    "montecarlo": suite_montecarlo,
    "correlation": suite_correlation,
    "bounds": suite_bounds,
}
SUITES = tuple(_SUITE_FNS)  # the canonical order of run_suites


def run_suites(names, market: Market, samples: int, seed: int) -> list[CheckResult]:
    """Run the named suites (or the one named) in canonical order and pool their checks;
    a ConfigError for a name not in SUITES, samples < 2, seed < 0 or a non-integer."""
    names = (names,) if isinstance(names, str) else names
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    samples = integer(samples, "samples", 2, ConfigError)
    seed = integer(seed, "seed", 0, ConfigError)
    logging_info = log.isEnabledFor(logging.INFO)
    results = []
    for name in SUITES:
        if name in names:
            start = time.perf_counter()
            checks = _SUITE_FNS[name](market, samples, seed)
            if logging_info:
                log.info("suite %s: checks=%d failed=%d wall_s=%.3f", name, len(checks),
                         sum(not c.ok for c in checks), time.perf_counter() - start)
            results.extend(checks)
    return results
