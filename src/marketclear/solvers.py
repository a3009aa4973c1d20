"""First-order pricing schemes over the nonnegative orthant.

Both schemes minimize the market potential from the start p_0 by one
projected gradient step, taken at an extrapolated point,

    p_{t+1} = [q_t - h * z(q_t)]_+,   q_t = p_t + b_t (p_t - p_{t-1}),

and differ only in their momentum b_t: 0 for plain projected gradient
(basic), and for the accelerated scheme b_0 = 0 and

    b_t = (g_t - 1) / g_{t+1},   g_1 = 1,   g_{t+1} = (1 + sqrt(1 + 4 g_t^2)) / 2,

so b_1 = 0 as well. `solve` runs one loop for both: a zero momentum
reuses z(p_t) from the previous iteration, any other calls the oracle
at q_t. The step and the stop test need z only, so the loop asks the
oracle for z alone: T iterations make T + 1 single-point calls under
basic and 2T - 1 (T >= 2) under accelerated. The trace's TER column is
filled afterwards, 64 iterates per call of the batched `Market.ter`,
so ceil(T / 64) more calls; the closing log line reports both counts.

The extrapolated points q_t may leave the orthant; the potential and
its gradient extend smoothly to all of R^n, so they are evaluated there
without projection. Only p_{t+1} is projected. No restarts: restarts
would contaminate rate diagnostics.

The audits of these schemes need the optimum TER* from a solver that
runs neither of them. `reference_solve` is a damped projected
Newton method (Bertsekas 1982) on the box p >= 0. Each iteration takes
the Hessian of the potential as `fd_gradient` of the analytic excess
supply (central differences with step FD_STEP = 1e-5, one batched
oracle call on 2n shifted rows), splits the goods into an
epsilon-active set {p_i <= min(1e-3, r), z_i > 0} and a free set,
where r is the natural-map residual, and moves along

    p(a) = [p + a d]_+,   d_free = -(H_free + lam I)^{-1} z_free,
                          d_active = -z_active / (diag H + lam)_active,

with the Levenberg term lam = min(r, 1e-2): the consumer Hessian is
singular along the all-ones direction, and so is the free-set Hessian
of a single consumer type whose suppliers are clipped. The step a
halves from 1 until Armijo's condition holds along the projection arc,
or until the residual at least halves; the second rule keeps the
search moving once the potential's decrease falls below rounding.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .market import Market, clearing_residuals
from .nested_logit import DomainError, MarketclearError, StructureError, integer, real

log = logging.getLogger("marketclear.solvers")

DEFAULT_MAX_ITERS = 100_000
DEFAULT_TOL = 1e-8

# Reference solves run projected Newton to this residual within this
# many Newton iterations; the result serves as the optimum for bound
# and rate audits.
REFERENCE_TOL = 1e-12
REFERENCE_MAX_ITERS = 100
FD_STEP = 1e-5  # central-difference step of fd_gradient
_ACTIVE_EPS = 1e-3  # upper cap of the epsilon-active set threshold
_LEVENBERG_MAX = 1e-2  # upper cap of the Levenberg term
_ARMIJO_SIGMA = 1e-4
_MAX_HALVINGS = 60

SCHEMES = ("basic", "accelerated")


class ConfigError(MarketclearError, ValueError):
    """Invalid solver configuration."""


class UnproductiveMarketError(MarketclearError, RuntimeError):
    """Supply cannot dominate demand; the potential may be unbounded below."""


class DivergedError(MarketclearError, RuntimeError):
    """Non-finite values encountered during iteration."""

    def __init__(self, iteration: int, what: str = "iterate"):
        super().__init__(f"non-finite {what} at iteration {iteration}")
        self.iteration = iteration


class RateFitError(MarketclearError, RuntimeError):
    """Trace has too few qualifying iterations for a rate fit."""


@dataclass
class SolverConfig:
    """Scheme selection and stopping rule.

    step=None selects h = 1 / smoothness_constant(market); an explicit
    step may only be smaller, never larger. p0=None starts from zero
    prices; a given p0 is checked once, when the solve starts.
    """

    scheme: str = "basic"
    step: float | None = None
    max_iters: int = DEFAULT_MAX_ITERS
    tol: float = DEFAULT_TOL
    p0: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if self.step is not None:
            self.step = _real_option(self.step, "step", "step size")
            if not self.step > 0:
                raise ConfigError(f"step size must be positive, got {self.step}")
        self.max_iters = integer_option(self.max_iters, "max_iters", 1)
        self.tol = _real_option(self.tol, "tol", "tolerance")
        if not 0 <= self.tol < math.inf:
            raise ConfigError(f"tolerance must be finite and >= 0, got {self.tol}")


def _real_option(value, field: str, what: str) -> float:
    """A scalar option as a float, by the package's rule of what a number is."""
    try:
        return float(real(value, field, ()))
    except StructureError as exc:
        raise ConfigError(f"{what} must be a number: {exc}") from exc


def integer_option(value, field: str, least: int) -> int:
    """A count or seed option as an int, by the package's rule of what an integer is."""
    try:
        return integer(value, field, least)
    except StructureError as exc:
        raise ConfigError(f"{field} {exc.message}") from exc


@dataclass
class Trace:
    """Per-iteration solver record; row t describes the iterate p_t, t >= 1.

    grad_norm is the natural-map residual ||p_t - [p_t - z(p_t)]_+||_2,
    the direct measure of the market-clearing conditions. `solve` takes
    the ter column from the batched `Market.ter` in blocks of iterates,
    so it agrees with single-point TER(p_t) to 1e-12 * max(1, |TER|),
    not bit for bit; the other columns come from the loop's own z.
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


def gamma_next(gamma_t: float) -> float:
    """Momentum parameter update (1 + sqrt(1 + 4 g^2)) / 2."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * gamma_t * gamma_t))


def _nesterov_momentum() -> Iterator[float]:
    """The accelerated scheme's momentum b_0, b_1, ... (module docstring)."""
    yield 0.0
    gamma = 1.0
    while True:
        gamma_n = gamma_next(gamma)
        yield (gamma - 1.0) / gamma_n
        gamma = gamma_n


def _require_productive(market: Market) -> None:
    if not market.productivity_check():
        raise UnproductiveMarketError(
            "productivity check failed: feasible supply cannot strictly exceed "
            "total expected demand"
        )


def _initial_prices(market: Market, p0: np.ndarray | None) -> np.ndarray:
    """The start prices, zero by default; the one check of a given p0."""
    if p0 is None:
        return np.zeros(market.n)
    try:
        p = real(p0, "p0")
    except StructureError as exc:
        raise ConfigError(f"initial prices must be a numeric array: {exc}") from exc
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ConfigError("initial prices must be finite and nonnegative")
    if p.shape != (market.n,):
        raise ConfigError(f"initial prices have shape {p.shape}, expected ({market.n},)")
    return p


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


# Rows per deferred TER call (see _Recorder). The block kernel's
# temporaries grow with the rows priced at once: 256-row blocks raised the
# peak RSS of the `clear` benchmark by about 1 MB, 64-row blocks did not.
_TER_BLOCK = 64


class _Recorder:
    """Accumulates per-iteration rows and the divergence check.

    A row recorded without its TER keeps a copy of its iterate; the TER
    of such rows is filled in blocks of _TER_BLOCK, by one call of the
    batched `ter` each, when a block is full and at `finish`.
    """

    def __init__(self, h: float, ter_of=None):
        self.h = h
        self.ter_of = ter_of  # batched TER over (R, n) price blocks
        self.rows: list[tuple[float, float, float, float]] = []
        self.ter: list[float] = []  # TER of rows[:len(ter)]
        self.blocks = 0  # calls of ter_of
        self.pending: np.ndarray | None = None  # iterates of rows[len(ter):]

    def record(self, p: np.ndarray, z: np.ndarray, value: float | None = None,
               step: float | None = None) -> float:
        """Append the row of iterate p, with z = z(p), value = TER(p) or
        None to defer it, and the step that reached it (default h), and
        return its clearing residual."""
        t = len(self.rows) + 1
        residual, min_excess, complementarity = clearing_residuals(p, z)
        # a NaN or +-inf in p or z makes the residual or <p, z> non-finite:
        # z_i = +inf leaves the natural map finite but gives p_i * inf
        if not math.isfinite(residual + complementarity):
            self._fill()  # a non-finite TER of an earlier row is reported first
            raise DivergedError(t)
        if value is not None:
            self._fill()
            self._append_ter(np.array([value]))
        self.rows.append((residual, min_excess, complementarity,
                          self.h if step is None else step))
        if value is None:
            k = len(self.rows) - len(self.ter)  # rows waiting for their TER
            if self.pending is None:
                self.pending = np.empty((_TER_BLOCK, p.size))
            self.pending[k - 1] = p
            if k == _TER_BLOCK:
                self._fill()
        return residual

    def _fill(self) -> None:
        """The TER of the rows recorded without one, in one batched call."""
        k = len(self.rows) - len(self.ter)
        if k:
            self.blocks += 1
            self._append_ter(self.ter_of(self.pending[:k]))

    def _append_ter(self, values: np.ndarray) -> None:
        bad = ~np.isfinite(values)
        if bad.any():
            raise DivergedError(len(self.ter) + 1 + int(bad.argmax()), "potential value (TER)")
        self.ter.extend(values.tolist())

    def finish(self, scheme: str, price: np.ndarray, converged: bool) -> Trace:
        self._fill()
        # columns in row order: grad_norm, min_excess, complementarity, steps
        cols = np.array(self.rows).reshape(len(self.rows), 4).T
        return Trace(scheme, self.h, np.array(self.ter), *(c.copy() for c in cols),
                     price.copy(), converged)


def solve(market: Market, config: SolverConfig | None = None) -> Trace:
    """Run the configured pricing scheme until the clearing residual
    drops below tol or max_iters is reached.

    Refuses to run when the productivity check fails, since the
    potential may then be unbounded below. Raises DivergedError if
    iterates or the potential value become non-finite, so a run never
    reports convergence at a non-finite TER.
    """
    config = config or SolverConfig()
    start = time.perf_counter()
    _require_productive(market)
    h = resolve_step(market, config.step)
    p = _initial_prices(market, config.p0)
    rec = _Recorder(h, market.ter)
    log.info("solve scheme=%s h=%g tol=%g max_iters=%d", config.scheme, h,
             config.tol, config.max_iters)

    momentum = itertools.repeat(0.0) if config.scheme == "basic" else _nesterov_momentum()
    # p is checked by _initial_prices and every iterate by the recorder,
    # so the loop calls the market's unchecked oracle on one price vector;
    # the step needs z only, and the recorder fills in TER in blocks
    oracle = market._flat.kernel
    z = oracle(p, False, True)[1]
    evals = 1
    p_prev = p
    converged = False
    for beta in itertools.islice(momentum, config.max_iters):
        if beta == 0.0:
            q, zq = p, z
        else:  # q may sit outside the orthant; z extends there
            q = p + beta * (p - p_prev)
            zq = oracle(q, False, True)[1]
            evals += 1
        p_prev = p
        p = np.maximum(q - h * zq, 0.0)
        z = oracle(p, False, True)[1]
        evals += 1
        if rec.record(p, z) <= config.tol:
            converged = True
            break

    trace = rec.finish(config.scheme, p, converged)
    log.info("solve done: iters=%d converged=%s residual=%.3e oracle_evals=%d ter_blocks=%d "
             "wall_s=%.3f", trace.iterations, converged, trace.grad_norm[-1], evals,
             rec.blocks, time.perf_counter() - start)
    return trace


def fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central finite differences of f, row i from x +- FD_STEP e_i; one call
    of f on the 2n rows, interleaved (+, -, ...) as a row's rounding in a
    batched call depends on its position."""
    x = np.asarray(x, dtype=float)
    shift = FD_STEP * np.eye(x.size)
    vals = f(np.stack((x + shift, x - shift), axis=1).reshape(2 * x.size, x.size))
    return (vals[0::2] - vals[1::2]) / (2.0 * FD_STEP)


def _fd_hessian(market: Market, p: np.ndarray) -> np.ndarray:
    """Symmetrised central-difference Jacobian of z."""
    jac = fd_gradient(market.ter_gradient, p)
    return 0.5 * (jac + jac.T)


def reference_solve(market: Market, p0: np.ndarray | None = None) -> Trace:
    """High-accuracy optimum for the audits, by damped projected Newton.

    Runs no pricing scheme (see the module docstring). Row t of the
    trace is Newton iterate t and `steps` holds its accepted step
    length; when no step is taken (the start meets REFERENCE_TOL, or no
    step is acceptable) the start is recorded as one row with step 0.
    `converged` is true only at a residual <= REFERENCE_TOL.
    """
    _require_productive(market)
    p = _initial_prices(market, p0)
    rec = _Recorder(1.0)
    value, z = market.value_and_grad(p)
    r = clearing_residuals(p, z)[0]
    evals, hessians = 1, 0
    while r > REFERENCE_TOL and len(rec.rows) < REFERENCE_MAX_ITERS:
        hess = _fd_hessian(market, p)
        hessians += 1
        lam = min(r, _LEVENBERG_MAX)
        active = (p <= min(_ACTIVE_EPS, r)) & (z > 0)
        free = ~active
        d = np.empty_like(p)
        d[free] = -np.linalg.solve(
            hess[np.ix_(free, free)] + lam * np.eye(int(free.sum())), z[free])
        d[active] = -z[active] / (np.maximum(np.diag(hess)[active], 0.0) + lam)
        descent = -np.dot(z[free], d[free])
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.maximum(p + alpha * d, 0.0)
            t_value, t_z = market.value_and_grad(trial)
            evals += 1
            t_r = clearing_residuals(trial, t_z)[0]
            armijo = _ARMIJO_SIGMA * (
                alpha * descent + np.dot(z[active], p[active] - trial[active]))
            if value - t_value >= armijo or t_r <= 0.5 * r:
                break
            alpha *= 0.5
        else:
            break  # no acceptable step along the arc
        p, value, z, r = trial, t_value, t_z, t_r
        rec.record(p, z, value, step=alpha)
    if not rec.rows:  # the start met the tolerance, or its first search failed
        rec.record(p, z, value, step=0.0)
    converged = r <= REFERENCE_TOL
    log.info("reference done: newton_iters=%d oracle_evals=%d hessian_rows=%d "
             "residual=%.3e converged=%s", len(rec.rows), evals,
             2 * market.n * hessians, r, converged)
    return rec.finish("reference", p, converged)


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
    ter_star = float(real(ter_star, "ter_star", ()))
    if not math.isfinite(ter_star):
        raise DomainError(f"ter_star must be finite, got {ter_star}")
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
