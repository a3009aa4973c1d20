"""First-order pricing schemes over the nonnegative orthant.

Both schemes minimize the market potential from the start p_0 by one
projected gradient step, taken at an extrapolated point,

    p_{t+1} = [q_t - h * z(q_t)]_+,   q_t = p_t + b_t (p_t - p_{t-1}),

and differ only in their momentum b_t: 0 for plain projected gradient
(basic), and for the accelerated scheme b_0 = 0 and

    b_t = (g_t - 1) / g_{t+1},   g_1 = 1,   g_{t+1} = (1 + sqrt(1 + 4 g_t^2)) / 2,

so b_1 = 0 as well. `solve` runs one loop for both, in blocks of 64
iterations; the scheme chooses the momentum sequence and nothing else.
Each iteration makes one single-point call for z(q_t), with q_t = p_t
where the momentum is zero. At the end of a block one batched call of
the market's unchecked evaluator prices all of its iterates, and one
call of `clearing_residuals` gives the stop test and every trace column;
the residual is the natural map's closed form ||min(p, z)||_2.
The first row whose residual is at most tol ends the solve, and the rows
after it are dropped. A block whose last three iterates are equal ends
it too, with stop "stalled", not converged: with p_{t-2} = p_{t-1} = p_t
the momentum term b (p - p_prev) is exactly 0, under either scheme, in
the step that made p_t and in the next, so both take q = p_t. Then
p_t = [p_t - h z(p_t)]_+ is the next iterate, and no later one can
differ. This ends a start so far above z that p - h z(p) rounds to p.
A non-finite iterate ends its block: the rows
before it are priced, and unless one of them meets tol the solve raises
DivergedError there. With T the iterations kept and T' those run (T
rounded up to a multiple of 64, at most max_iters), each scheme makes
T' single-point oracle calls and ceil(T / 64) block calls; the trace and
the closing log line report both counts, and under debug logging each
block writes one progress line.

Each step is taken in place. q is formed in one buffer as
(p - p_prev) b + p, z(q) is scaled by h in its own array and subtracted
from q there, and [.]_+ is written straight into the block's row for
the iterate. Every operation keeps its operands and their order, up to
swapping those of a * or a +, which is exact, so every bit is that of
the formula above. Its array operands are bound once per stack of
runs: h as a per-good vector, a zero vector for [.]_+ and a list of the
block's row views, since a numpy call with a Python scalar operand
costs more than one with an array. p and p_prev are then rows of the
block; before the divergence branch zeroes a run's goods it copies
both, since those rows may still be priced.

The loop tests an iterate's finiteness by one sum, its dot product with
a vector of ones. Every iterate is >= 0 or NaN, so the sum is finite
exactly when every price is, as long as it cannot overflow, and it
cannot. Start prices and market data have magnitude at most
M = `rules.MAX_MAGNITUDE` = 1e50. A step h <= 1 / Lip is at most gamma_k
for every supplier and at most min_l mu_jl / count_j for every consumer
type; a response lies in its box and a type's demand is at most its
count, so a step moves a price by h |z_i| <= D = (K + J) M^2. The
projection is 1-Lipschitz and b_t < 1, so iterates t and t + 1 differ
by at most (t + 1) D, and every price is at most M + t^2 D up to
rounding. The sum over n goods reaches the float maximum 1.8e308 only
if n (K + J) t^2 > 1e208, that is after more than 10^94 iterations on
any market with n (K + J) < 10^20.

`solve` is the one-run case of `solve_many`, which runs that loop for
a list of runs in lockstep. The runs' markets form one separable
problem in their concatenated goods, laid out as one stacked market
(`market._FlatMarket` of the list): consumer segments and types
concatenated with each market's goods offset, supplier arrays padded to
(K_max, sum n) with rows whose box is [0, 0]. So one single-point call
of the stacked kernel gives every run's z(q), with the bits of its own
market's call: each nest, type and per-good sum runs over the same
elements in the same order, segment maxima are exact, and a padded row
adds an exact zero after the run's own suppliers. h is the per-good
vector of the runs' steps, and b_t becomes a per-good vector where the
runs' schemes differ (b_t on an accelerated run's goods, 0 on a basic
run's, where q = p exactly). Every run keeps its own recorder, its own
blocks priced by its own market's evaluator, its own stop test, stall
check and divergence error, and its own T' and block counts, so its
trace is bit for bit that of its single run.
A run leaves the stack at the end of the block in which it stops, and
the rest are stacked again; each stacked layout binds its own kernels.

The extrapolated points q_t may leave the orthant; the potential and
its gradient extend smoothly to all of R^n, so they are evaluated there
without projection. Only p_{t+1} is projected. No restarts: restarts
would contaminate rate diagnostics.

The audits of these schemes need the optimum TER* from a solver that
runs neither of them. `reference_solve` is a damped projected
Newton method (Bertsekas 1982) on the box p >= 0. Each iteration takes
the Hessian H of the potential as `fd_gradient` of the analytic excess
supply (central differences with step FD_STEP = 1e-5, one batched
oracle call on 2n shifted rows), splits the goods into an
epsilon-active set {p_i <= min(1e-3, r), z_i > 0} and a free set,
where r is the natural-map residual, and moves along

    p(a) = [p + a d]_+,   d_free = the minimiser of the model m below,
                          d_active = -z_active / (diag H + lam)_active,

with the Levenberg term lam = min(r, 1e-2): the consumer Hessian is
singular along the all-ones direction, and so is the free-set Hessian
of a single consumer type whose suppliers are clipped. The step a
halves from 1 until Armijo's condition holds along the projection arc,
or until the residual at least halves while TER does not rise beyond
rounding; the second rule keeps the search moving once the potential's
decrease falls below rounding.

That rounding allowance is 1e-12 max(1, |TER(p)|), derived as follows.
The kernel computes TER as a sum of m = K n + J terms, a profit per
supplier and good and a surplus per consumer type, each within a few
roundings, so a computed TER is within about (m + 4) u A of the exact
one (Higham 2002, section 4.2), with u = 2^-53 and A the sum of the
terms' magnitudes. Write A = kappa max(1, |TER|), kappa >= 1 measuring
the cancellation among the terms. A step whose exact TER does not rise
then reads a rise of at most 2 (m + 4) kappa u max(1, |TER|), and the
allowance is this bound for (m + 4) kappa up to 4500. At the optimum
and at zero prices, (m + 4) kappa is at most 1,780 on the 20 batch
markets and on 200 markets generate_market(6, 2, 2, seed) whose gammas
are scaled by 10^U(-3, 0). A smaller allowance would
refuse steps on rounding alone; a larger one lets the search accept a
step that raises TER, and two such steps can alternate for ever, each
halving the residual the other doubles. With the rule, every accepted
step either meets Armijo's condition or both halves the residual and
keeps TER within the allowance, so a cycle of iterates can only lie
where Armijo's decrease is itself below the allowance.

A supplier's response y_i is linear in p_i between the kinks where it
meets lo_i and hi_i, with slope 1 / (d_i + 2 gamma); a small gamma makes
that slope steep, and where a central difference straddles a kink the
differenced Hessian averages the two pieces' slopes. So the free goods'
Newton model keeps the suppliers' piecewise-linear responses in place
of their differenced slopes,

    m(d) = d^T (H_c + lam I) d / 2 + z^T d + sum_k int_0^d (y_k(p + s) - y_k(p)) ds,

H_c the free goods' differenced Hessian less the suppliers' differenced
slopes, and y_k the response as the kernel computes it from the
market's flat layout. m is convex, and d_free is its minimiser, found
by Newton steps on m with the slopes of the pieces each point lies in
(one element of the generalized Jacobian; Qi and Sun 1993). Each step
is halved until the slope of m along it is <= 0 at its end; m is
convex along the step, so it fell, and no value of m, whose terms
cancel, is ever compared. A full step that keeps every response on
its piece ends at the minimiser and is the last. Away from kinks the
first step does so, and it is the plain Newton step
-(H + lam I)^{-1} z up to the rounding of the differenced slopes.

Where gamma is tiny and d = 0, the responses are so steep that doubles
2 u |p_i| apart (u = 2^-53) leave z_i up to about
B = u max(1, ||p||_inf) sum_k max_i 1 / (d_ki + 2 gamma_k) from zero at
every price, so a residual near B may be the least any price reaches;
a search that finds no acceptable step there stops with "no_step".
README gives the Newton-step counts measured on the batch markets and
on random sweeps.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .market import Market, _FlatMarket, clearing_residuals
from .rules import ConfigError, DomainError, MarketclearError, integer, real, require_finite

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
_TER_ROUNDING = 1e-12  # TER rise a residual-halving step may read (module docstring)
_MAX_HALVINGS = 60
_MAX_PIECES = 50  # Newton steps on the piecewise-linear supply model

SCHEMES = ("basic", "accelerated")


class UnproductiveMarketError(MarketclearError, RuntimeError):
    """Supply cannot dominate demand; the potential may be unbounded below."""


class DivergedError(MarketclearError, RuntimeError):
    """Non-finite values encountered during iteration. Raised by
    `solve_many`, it holds in `results` each run's Trace or DivergedError."""

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
            self.step = float(real(self.step, "step", (), ConfigError))
            if not self.step > 0:
                raise ConfigError(f"step size must be positive, got {self.step}")
        self.max_iters = integer(self.max_iters, "max_iters", 1, ConfigError)
        self.tol = float(real(self.tol, "tol", (), ConfigError))
        if not 0 <= self.tol < math.inf:
            raise ConfigError(f"tolerance must be finite and >= 0, got {self.tol}")


@dataclass
class Trace:
    """Per-iteration solver record; row t describes the iterate p_t, and
    `iters` (t = 1..T) is the one iteration index of every trace.

    grad_norm is the natural-map residual ||p_t - [p_t - z(p_t)]_+||_2,
    the direct measure of the market-clearing conditions, computed as its
    closed form ||min(p_t, z(p_t))||_2 (`clearing_residuals`). `solve` takes
    the ter column from batched calls of the market's unchecked
    evaluator, 64 iterates each, so it agrees with single-point TER(p_t)
    to 1e-12 * max(1, |TER|), not bit for bit; z comes from the same
    calls, and has the bits of the single-point oracle.

    The run itself: its `scheme` and step h, `oracle_evals` single-point
    oracle calls (T', the iterations run: the rows kept rounded up to a
    multiple of 64, at most max_iters) and `blocks` batched calls (one
    per 64 rows kept), its `wall_s` (under `solve_many`, from the call's
    start to the end of the run's last block), and why it stopped, `stop`: "tol"
    (then it `converged`), "stalled" (a block ended on three equal
    iterates, a fixed point that misses tol) or "max_iters". A
    reference solve counts its line-search points in `oracle_evals` and
    its Hessians, one batched call on 2n rows each, in `blocks`, and
    stops with "no_step" when no step is acceptable. A trace not made by a solver (a test's, or one
    read back from a file by `specio.read_trace`) keeps the defaults.
    """

    ter: np.ndarray
    grad_norm: np.ndarray
    min_excess: np.ndarray
    complementarity: np.ndarray
    steps: np.ndarray
    price: np.ndarray
    scheme: str = ""
    step: float = math.nan
    oracle_evals: int = 0
    blocks: int = 0
    wall_s: float = 0.0
    stop: str | None = None

    @property
    def converged(self) -> bool:
        return self.stop == "tol"

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
    """The start prices, zero by default; the one check of a given p0.
    Its entries follow the rule of market data, finite and at most
    MAX_MAGNITUDE: the potential and <p, z> at a larger price can
    overflow."""
    if p0 is None:
        return np.zeros(market.n)
    p = real(p0, "p0", error=ConfigError)
    if np.any(p < 0):
        raise ConfigError("initial prices must be nonnegative")
    if p.shape != (market.n,):
        raise ConfigError(f"initial prices have shape {p.shape}, expected ({market.n},)")
    require_finite(ConfigError, p0=p)
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


# Iterations per block of `solve`, and rows per batched call. The block
# kernel's temporaries grow with the rows priced at once: 256-row blocks
# raised the peak RSS of the `clear` benchmark by about 1 MB, 64-row
# blocks did not.
_TER_BLOCK = 64


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry of mask, or len(mask) if there is none."""
    return int(mask.argmax()) if mask.any() else len(mask)


class _Recorder:
    """The trace's rows, appended a block of priced iterates at a time,
    and the divergence checks of their excess supply and TER."""

    def __init__(self, h: float):
        self.h = h
        self.cols: list[tuple[np.ndarray, ...]] = []  # per block, in Trace's column order
        self.iterations = 0  # rows kept
        self.last: np.ndarray | None = None  # the iterate of the last row kept

    def record(self, p: np.ndarray, value: np.ndarray, z: np.ndarray,
               steps: np.ndarray | None = None, tol: float = -1.0) -> bool:
        """Append the rows of the finite iterates p, shape (R, n), with TER
        value (R,) and excess supply z (R, n), up to the first whose
        clearing residual is <= tol, and return whether there was one.

        steps holds the step that reached each row (default h). Raises
        DivergedError at the first kept row whose z or TER is not finite;
        where both fail on one row, z is reported, as a non-finite iterate.
        """
        residual, min_excess, complementarity = clearing_residuals(p, z)
        stop = residual <= tol  # a bad row that meets tol is still reported below
        kept = _first(stop) + 1 if stop.any() else len(p)
        # a NaN or +-inf in z makes the residual or <p, z> non-finite:
        # z_i = +inf leaves the natural map finite but gives p_i * inf
        bad_z = _first(~np.isfinite(residual[:kept] + complementarity[:kept]))
        bad_ter = _first(~np.isfinite(value[:kept]))
        if bad_z < kept and bad_z <= bad_ter:
            raise DivergedError(self.iterations + bad_z + 1)
        if bad_ter < kept:
            raise DivergedError(self.iterations + bad_ter + 1, "potential value (TER)")
        steps = np.full(kept, self.h) if steps is None else steps[:kept]
        self.cols.append((value[:kept], residual[:kept], min_excess[:kept],
                          complementarity[:kept], steps))
        self.iterations += kept
        self.last = p[kept - 1].copy()
        return bool(stop.any())

    def finish(self, scheme: str, **run) -> Trace:
        """The trace of the rows kept, ending at the last one's iterate;
        `run` fills the Trace fields that describe the run."""
        cols = (np.concatenate(c) for c in zip(*self.cols))
        return Trace(*cols, self.last, scheme, self.h, **run)


def solve(market: Market, config: SolverConfig | None = None) -> Trace:
    """Run the configured pricing scheme until the clearing residual
    drops below tol or max_iters is reached: `solve_many` of this one run.

    Refuses to run when the productivity check fails, since the
    potential may then be unbounded below. Raises DivergedError if
    iterates or the potential value become non-finite, so a run never
    reports convergence at a non-finite TER.
    """
    return solve_many([(market, config)])[0]


class _Run:
    """One run of `solve_many`: its market, configuration and step h, its
    record, and the counts and outcome that its trace reports."""

    def __init__(self, market: Market, config: SolverConfig | None):
        self.market = market
        self.config = config = config or SolverConfig()
        _require_productive(market)
        self.h = resolve_step(market, config.step)
        self.p0 = _initial_prices(market, config.p0)
        self.rec = _Recorder(self.h)
        self.run = self.blocks = 0  # iterations run (one oracle call each), batched calls
        self.result: Trace | DivergedError | None = None
        log.info("solve scheme=%s h=%g tol=%g max_iters=%d", config.scheme, self.h,
                 config.tol, config.max_iters)

    def close_block(self, iterates: np.ndarray, rows: int, finite: int, start: float,
                    debug: bool) -> bool:
        """Count the block's `rows` iterations, price and record its first
        `finite` iterates (the rows of `iterates`, this run's goods) and
        return whether the run ended; then `result` holds its trace or
        its DivergedError."""
        config, rec = self.config, self.rec
        self.run += rows
        stop = None
        try:
            if finite:
                self.blocks += 1
                p = np.ascontiguousarray(iterates[:finite])
                value, z = self.market._flat.evaluate(p, True, True)
                if rec.record(p, value, z, tol=config.tol):
                    stop = "tol"
                if debug:
                    log.debug("solve block: scheme=%s iter=%d residual=%.3e ter=%.17g step=%g",
                              config.scheme, rec.iterations, rec.cols[-1][1][-1],
                              rec.cols[-1][0][-1], self.h)
            if finite < rows and stop is None:
                raise DivergedError(rec.iterations + 1)
        except DivergedError as exc:
            self.result = exc
            return True
        if (stop is None and rows >= 3 and np.array_equal(iterates[rows - 3], iterates[rows - 2])
                and np.array_equal(iterates[rows - 2], iterates[rows - 1])):
            stop = "stalled"  # a fixed point of both schemes (module docstring)
        if stop is None and self.run < config.max_iters:
            return False
        trace = self.result = rec.finish(config.scheme, oracle_evals=self.run,
                                         blocks=self.blocks, wall_s=time.perf_counter() - start,
                                         stop=stop or "max_iters")
        log.info("solve done: iters=%d converged=%s stop=%s residual=%.3e oracle_evals=%d "
                 "ter_blocks=%d wall_s=%.3f", trace.iterations, trace.converged, trace.stop,
                 trace.grad_norm[-1], trace.oracle_evals, trace.blocks, trace.wall_s)
        return True


def solve_many(runs: Sequence[tuple[Market, SolverConfig | None]]) -> list[Trace]:
    """`solve` of each (market, config) run, all of them in lockstep:
    their traces, in the order given (none for no runs).

    The runs' markets, each a separable problem in its own goods, are
    priced as one stacked market (`_FlatMarket` of all of them), so one
    iteration makes one single-point kernel call for every run. The
    stack's step is per good, each run's own h, and so is its momentum
    where its runs' schemes differ: b_t on an accelerated run's goods
    and 0 on a basic run's, where q = p exactly. Each run's part of z
    has the bits of its own market's kernel call (see the `market`
    docstring), so each run keeps every bit of its single `solve`. Every
    run prices its own 64-row blocks with its own market's evaluator and
    keeps its own stop test, `stalled` check, divergence error and
    counts: `oracle_evals` is the iterations it ran (T'), `blocks` its
    batched calls, `wall_s` the time from this call's start to the end
    of its last block. A run leaves the stack at the end of the block in
    which it stops, and the rest are stacked again; a run whose iterate
    turns non-finite is stopped there, and its goods restart from zero
    prices, never priced, for the rest of the block.

    A ConfigError or UnproductiveMarketError of the first run that has
    one is raised before any iteration. If runs diverge, every other run
    still runs to its end, and then the DivergedError of the first of
    them in the order given is raised; its `results` holds each run's
    Trace or DivergedError, in that order.
    """
    start = time.perf_counter()
    debug = log.isEnabledFor(logging.DEBUG)
    states = [_Run(market, config) for market, config in runs]
    if not states:
        return []
    active = states
    momentum = (_nesterov_momentum() if any(r.config.scheme == "accelerated" for r in active)
                else itertools.repeat(0.0))
    p = p_prev = np.concatenate([r.p0 for r in active])
    t = 0  # iterations run by every active run
    while active:
        # stack the active runs; one run is priced by its own market's kernel
        flat = active[0].market._flat if len(active) == 1 else _FlatMarket(
            [r.market for r in active])
        oracle = flat.kernel  # unchecked: every iterate is checked before it is priced
        bounds = list(itertools.accumulate((r.market.n for r in active), initial=0))
        goods = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        h = np.concatenate([np.full(r.market.n, r.h) for r in active])
        # b_t on the goods of accelerated runs; a stack of basic runs only
        # takes its zero momentum from itertools.repeat
        accelerated = [r.config.scheme == "accelerated" for r in active]
        mask = None if all(accelerated) or not any(accelerated) else np.concatenate(
            [np.full(r.market.n, float(a)) for r, a in zip(active, accelerated)])
        iterates = np.empty((_TER_BLOCK, flat.n))
        slots = list(iterates)  # the block's rows, one view each
        extrapolated = np.empty(flat.n)
        zero, ones = np.zeros(flat.n), np.ones(flat.n)
        ended = []
        while not ended:
            rows = [min(_TER_BLOCK, r.config.max_iters - t) for r in active]
            finite = rows[:]  # each run's iterates before its first non-finite one
            for k, beta in zip(range(max(rows)), momentum):
                # q = p + b (p - p_prev), in place; q may sit outside the
                # orthant, and z extends there
                q = p
                if beta != 0.0:
                    q = np.subtract(p, p_prev, out=extrapolated)
                    q *= beta if mask is None else beta * mask
                    q += p
                # p = [q - h z(q)]_+, written into the block's row k
                z = oracle(q, False, True)[1]
                z *= h
                np.subtract(q, z, out=z)
                p_prev = p
                p = np.maximum(z, zero, out=slots[k])
                if not math.isfinite(p.dot(ones)):  # p >= 0: see the module docstring
                    # both are rows of the block, and may still be priced
                    p, p_prev = p.copy(), p_prev.copy()
                    for i, g in enumerate(goods):
                        if not math.isfinite(np.maximum.reduce(p[g])):
                            if k < finite[i] == rows[i]:
                                finite[i], rows[i] = k, k + 1
                            p[g] = p_prev[g] = 0.0
                    if max(rows) <= k + 1:
                        break
            t += max(rows)
            ended = [r for r, g, n, f in zip(active, goods, rows, finite)
                     if r.close_block(iterates[:, g], n, f, start, debug)]
        kept = [(r, g) for r, g in zip(active, goods) if r.result is None]
        active = [r for r, _ in kept]
        if active:
            p = np.concatenate([p[g] for _, g in kept])
            p_prev = np.concatenate([p_prev[g] for _, g in kept])
        if not any(r.config.scheme == "accelerated" for r in active):
            momentum = itertools.repeat(0.0)
    results = [r.result for r in states]
    errors = [r for r in results if isinstance(r, DivergedError)]
    if errors:
        errors[0].results = results
        raise errors[0]
    return results


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
    jac = fd_gradient(lambda x: market._flat.evaluate(x, False, True)[1], p)
    return 0.5 * (jac + jac.T)


def _newton_step(market: Market, p: np.ndarray, z: np.ndarray, hess: np.ndarray, lam: float,
                 free: np.ndarray) -> np.ndarray:
    """The free goods' Newton step: the minimiser of the Newton model with
    the suppliers' piecewise-linear responses (module docstring), found
    by Newton steps on the model, each halved until the model's slope
    along it is <= 0 at its end. A full step that keeps every response
    on its piece ends at the model's minimiser, and is the last."""
    flat = market._flat
    offset, inv_slope, lo, hi = (a[:, free] for a in (flat.offset, flat.inv_slope, flat.lo,
                                                       flat.hi))
    q = p[free]

    def responses(d):  # each supplier's response at p + d, as the kernel computes it
        return np.clip((q + d + offset) * inv_slope, lo, hi)

    def pieces(y):  # 0 at or below lo, 1 inside, 2 at or above hi
        return np.where(y >= hi, 2, y > lo)

    # the consumers' part of H + lam I: less the suppliers' differenced slopes
    hc = hess[np.ix_(free, free)] + lam * np.eye(q.size) - np.diag(
        (responses(FD_STEP).sum(axis=0) - responses(-FD_STEP).sum(axis=0)) / (2.0 * FD_STEP))
    y = responses(0.0)
    g = z[free] - y.sum(axis=0)  # the model's gradient at d is g + hc d + sum_k y_k(p + d)
    d, grad = np.zeros_like(q), z[free]
    for _ in range(_MAX_PIECES):
        piece = pieces(y)
        step = -np.linalg.solve(hc + np.diag((inv_slope * (piece == 1)).sum(axis=0)), grad)
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            y = responses(d + t * step)
            if t == 1.0 and np.array_equal(pieces(y), piece):
                return d + step  # m is quadratic along it: d + step is its minimiser
            grad = g + hc @ (d + t * step) + y.sum(axis=0)
            if grad @ step <= 0.0:  # m is convex: it fell along the step
                break
            t *= 0.5
        else:
            break
        d = d + t * step
    return d


def reference_solve(market: Market, p0: np.ndarray | None = None) -> Trace:
    """High-accuracy optimum for the audits, by damped projected Newton.

    Runs no pricing scheme (see the module docstring). Row t of the
    trace is Newton iterate t and `steps` holds its accepted step
    length; when no step is taken (the start meets REFERENCE_TOL, or no
    step is acceptable) the start is recorded as one row with step 0.
    It stops with "tol" only at a residual <= REFERENCE_TOL. The trace
    counts line-search points in `oracle_evals` and Hessians in `blocks`.
    """
    start = time.perf_counter()
    _require_productive(market)
    p = _initial_prices(market, p0)
    rec = _Recorder(1.0)
    evaluate = market._flat.evaluate  # unchecked: p is checked once, above
    value, z = evaluate(p, True, True)
    r = clearing_residuals(p, z)[0]
    evals, hessians = 1, 0
    stop = "max_iters"
    while r > REFERENCE_TOL and rec.iterations < REFERENCE_MAX_ITERS:
        hess = _fd_hessian(market, p)
        hessians += 1
        lam = min(r, _LEVENBERG_MAX)
        active = (p <= min(_ACTIVE_EPS, r)) & (z > 0)
        free = ~active
        d = np.empty_like(p)
        d[active] = -z[active] / (np.maximum(np.diag(hess)[active], 0.0) + lam)
        d[free] = _newton_step(market, p, z, hess, lam, free)
        descent = -np.dot(z[free], d[free])
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.maximum(p + alpha * d, 0.0)
            t_value, t_z = evaluate(trial, True, True)
            evals += 1
            t_r = clearing_residuals(trial, t_z)[0]
            armijo = _ARMIJO_SIGMA * (
                alpha * descent + np.dot(z[active], p[active] - trial[active]))
            if value - t_value >= armijo or (t_r <= 0.5 * r and t_value <= value
                                             + _TER_ROUNDING * max(1.0, abs(value))):
                break
            alpha *= 0.5
        else:
            stop = "no_step"  # no acceptable step along the arc
            break
        p, value, z, r = trial, t_value, t_z, t_r
        rec.record(p[None], np.array([value]), z[None], np.array([alpha]))
    if not rec.iterations:  # the start met the tolerance, or its first search failed
        rec.record(p[None], np.array([value]), z[None], np.zeros(1))
    trace = rec.finish("reference", oracle_evals=evals, blocks=hessians,
                       wall_s=time.perf_counter() - start,
                       stop="tol" if r <= REFERENCE_TOL else stop)
    log.info("reference done: newton_iters=%d oracle_evals=%d hessian_rows=%d "
             "residual=%.3e converged=%s stop=%s", trace.iterations, trace.oracle_evals,
             2 * market.n * trace.blocks, trace.grad_norm[-1], trace.converged, trace.stop)
    return trace


def qualifying_window(ter_values: np.ndarray, ter_star: float) -> np.ndarray:
    """Boolean mask of iterations whose optimality gap is resolvable.

    Gaps below 10 machine epsilons of |ter_star| are indistinguishable
    from rounding noise and are excluded from rate fits.
    """
    gap = np.asarray(ter_values, dtype=float) - ter_star
    return gap > 10.0 * np.finfo(float).eps * abs(ter_star)


def fit_rate(trace: Trace, ter_star: float) -> float:
    """Least-squares slope of ln(TER(p_t) - ter_star) against ln t, with
    t from `trace.iters`, over the rows of `qualifying_window`.

    The schemes' O(1/t) and O(1/t^2) rates bound the gap from above;
    near the optimum it decays geometrically, so the slope also depends
    on the window's floor. Requires at least 50 qualifying iterations.
    """
    return _fit_rate_window(trace, ter_star)[0]


def _fit_rate_window(trace: Trace, ter_star: float) -> tuple[float, np.ndarray]:
    """`fit_rate`'s slope and the `qualifying_window` mask it fitted."""
    ter_star = float(real(ter_star, "ter_star", (), DomainError))
    if not math.isfinite(ter_star):
        raise DomainError(f"ter_star must be finite, got {ter_star}")
    mask = qualifying_window(trace.ter, ter_star)
    if mask.sum() < 50:
        raise RateFitError(
            f"only {int(mask.sum())} iterations have a resolvable gap; need >= 50"
        )
    slope, _ = np.polyfit(np.log(trace.iters[mask]), np.log(trace.ter[mask] - ter_star), 1)
    return float(slope), mask
