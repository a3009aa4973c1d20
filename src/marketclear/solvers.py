"""First-order pricing schemes over the nonnegative orthant.

Two schemes minimize the market potential: plain projected gradient

    p_{t+1} = [p_t - h * z(p_t)]_+,

and its accelerated variant, which takes the gradient step at an
extrapolated point q_t and then applies momentum

    p_{t+1} = [q_t - h * z(q_t)]_+,
    g_{t+1} = (1 + sqrt(1 + 4 g_t^2)) / 2,
    q_{t+1} = p_{t+1} + ((g_t - 1) / g_{t+1}) (p_{t+1} - p_t).

The extrapolated points q_t may leave the orthant; the potential and
its gradient extend smoothly to all of R^n, so they are evaluated there
without projection. Only p_{t+1} is projected. No restarts: restarts
would contaminate rate diagnostics.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .market import Market

log = logging.getLogger("marketclear.solvers")

DEFAULT_MAX_ITERS = 100_000
DEFAULT_TOL = 1e-8

# Reference solves run the accelerated scheme to this residual with a
# 10x iteration budget; the result serves as the optimum for bound and
# rate audits.
REFERENCE_TOL = 1e-12
REFERENCE_MAX_ITERS = 10 * DEFAULT_MAX_ITERS

SCHEMES = ("basic", "accelerated")


class ConfigError(ValueError):
    """Invalid solver configuration."""


class UnproductiveMarketError(RuntimeError):
    """Supply cannot dominate demand; the potential may be unbounded below."""


class DivergedError(RuntimeError):
    """Non-finite values encountered during iteration."""

    def __init__(self, iteration: int, what: str = "iterate"):
        super().__init__(f"non-finite {what} at iteration {iteration}")
        self.iteration = iteration


class RateFitError(RuntimeError):
    """Trace has too few qualifying iterations for a rate fit."""


@dataclass
class SolverConfig:
    """Scheme selection and stopping rule.

    step=None selects h = 1 / smoothness_constant(market); an explicit
    step may only be smaller, never larger. p0=None starts from zero
    prices.
    """

    scheme: str = "basic"
    step: float | None = None
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL
    p0: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.step is not None and self.step <= 0:
            raise ConfigError(f"step size must be positive, got {self.step}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.tol < 0:
            raise ConfigError(f"tolerance must be >= 0, got {self.tol}")
        if self.p0 is not None:
            p0 = np.asarray(self.p0, dtype=float)
            if np.any(p0 < 0) or not np.all(np.isfinite(p0)):
                raise ConfigError("initial prices must be finite and nonnegative")
            self.p0 = p0


@dataclass
class Trace:
    """Per-iteration solver record; row t describes the iterate p_t, t >= 1.

    grad_norm is the natural-map residual ||p_t - [p_t - z(p_t)]_+||_2,
    the direct measure of the market-clearing conditions.
    """

    scheme: str
    step: float
    ter: np.ndarray
    grad_norm: np.ndarray
    min_excess: np.ndarray
    complementarity: np.ndarray
    steps: np.ndarray
    price: np.ndarray
    converged: bool = False

    @property
    def iterations(self) -> int:
        return len(self.ter)

    @property
    def iters(self) -> np.ndarray:
        """Iteration indices 1..T matching the record arrays."""
        return np.arange(1, len(self.ter) + 1)


def step_basic(market: Market, p: np.ndarray, h: float) -> np.ndarray:
    """One projected-gradient price update [p - h z(p)]_+."""
    return np.maximum(p - h * market.ter_gradient(p), 0.0)


def gamma_next(gamma_t: float) -> float:
    """Momentum parameter update (1 + sqrt(1 + 4 g^2)) / 2."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * gamma_t * gamma_t))


def resolve_step(market: Market, step: float | None) -> float:
    """Auto-select h = 1/Lip, or validate a user step against that cap."""
    lip = market.smoothness_constant()
    cap = 1.0 / lip
    if step is None:
        return cap
    if step > cap:
        raise ConfigError(
            f"step {step} exceeds 1/smoothness_constant = {cap} "
            f"(smoothness constant {lip}); larger steps forfeit convergence"
        )
    return step


class _Recorder:
    """Accumulates per-iteration rows and the divergence check."""

    def __init__(self, h: float):
        self.h = h
        self.rows: list[tuple[float, float, float, float]] = []

    def record(self, p: np.ndarray, z: np.ndarray, value: float) -> float:
        """Append the row of iterate p, with z = z(p) and value = TER(p),
        and return its clearing residual."""
        t = len(self.rows) + 1
        if not (np.isfinite(p).all() and np.isfinite(z).all()):
            raise DivergedError(t)
        if not math.isfinite(value):
            raise DivergedError(t, "potential value (TER)")
        natural = p - np.maximum(p - z, 0.0)
        residual = math.sqrt(np.dot(natural, natural))
        self.rows.append((value, residual, float(z.min()), float(np.dot(p, z))))
        return residual

    def finish(self, scheme: str, price: np.ndarray, converged: bool) -> Trace:
        cols = np.array(self.rows).reshape(len(self.rows), 4)
        return Trace(
            scheme=scheme,
            step=self.h,
            ter=cols[:, 0].copy(),
            grad_norm=cols[:, 1].copy(),
            min_excess=cols[:, 2].copy(),
            complementarity=cols[:, 3].copy(),
            steps=np.full(len(self.rows), self.h),
            price=price.copy(),
            converged=converged,
        )


def solve(market: Market, config: SolverConfig | None = None) -> Trace:
    """Run the configured pricing scheme until the clearing residual
    drops below tol or max_iters is reached.

    Refuses to run when the productivity check fails, since the
    potential may then be unbounded below. Raises DivergedError if
    iterates or the potential value become non-finite, so a run never
    reports convergence at a non-finite TER.
    """
    config = config or SolverConfig()
    if not market.productivity_check():
        raise UnproductiveMarketError(
            "productivity check failed: feasible supply cannot strictly exceed "
            "total expected demand"
        )
    h = resolve_step(market, config.step)
    p = np.zeros(market.n) if config.p0 is None else config.p0.astype(float).copy()
    if p.shape != (market.n,):
        raise ConfigError(f"initial prices have shape {p.shape}, expected ({market.n},)")
    rec = _Recorder(h)
    log.info("solve scheme=%s h=%g tol=%g max_iters=%d", config.scheme, h,
             config.tol, config.max_iters)

    converged = False
    if config.scheme == "basic":
        z = market.ter_gradient(p)
        for _ in range(config.max_iters):
            p = np.maximum(p - h * z, 0.0)
            value, z = market.value_and_grad(p)
            if rec.record(p, z, value) <= config.tol:
                converged = True
                break
    else:
        q = p.copy()
        p_prev = p.copy()
        gamma = 1.0
        for _ in range(config.max_iters):
            zq = market.ter_gradient(q)  # q may sit outside the orthant; z extends there
            p = np.maximum(q - h * zq, 0.0)
            gamma_n = gamma_next(gamma)
            q = p + ((gamma - 1.0) / gamma_n) * (p - p_prev)
            gamma = gamma_n
            p_prev = p
            value, z = market.value_and_grad(p)
            if rec.record(p, z, value) <= config.tol:
                converged = True
                break

    trace = rec.finish(config.scheme, p, converged)
    log.info("solve done: iters=%d converged=%s residual=%.3e",
             trace.iterations, converged, trace.grad_norm[-1])
    return trace


def reference_solve(market: Market, p0: np.ndarray | None = None) -> Trace:
    """High-accuracy accelerated solve used as the optimum for audits."""
    return solve(
        market,
        SolverConfig(
            scheme="accelerated",
            tol=REFERENCE_TOL,
            max_iters=REFERENCE_MAX_ITERS,
            p0=p0,
        ),
    )


def qualifying_window(ter_values: np.ndarray, ter_star: float) -> np.ndarray:
    """Boolean mask of iterations whose optimality gap is resolvable.

    Gaps below 10 machine epsilons of |ter_star| are indistinguishable
    from rounding noise and are excluded from rate fits.
    """
    gap = np.asarray(ter_values, dtype=float) - ter_star
    return gap > 10.0 * np.finfo(float).eps * abs(ter_star)


def fit_rate(trace, ter_star: float) -> float:
    """Least-squares slope of ln(TER(p_t) - ter_star) against ln t.

    A slope near -1 is the plain projected-gradient rate, near -2 the
    accelerated rate. Requires at least 50 qualifying iterations.
    """
    ter = np.asarray(trace.ter, dtype=float)
    mask = qualifying_window(ter, ter_star)
    if mask.sum() < 50:
        raise RateFitError(
            f"only {int(mask.sum())} iterations have a resolvable gap; need >= 50"
        )
    t = np.arange(1, len(ter) + 1)[mask]
    gap = ter[mask] - ter_star
    slope, _ = np.polyfit(np.log(t), np.log(gap), 1)
    return float(slope)
