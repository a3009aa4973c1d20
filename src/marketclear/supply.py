"""Quantity-rigid suppliers: strongly convex cost, best response, profit.

A supplier's total cost is the convex base cost plus a quadratic
penalty for deviating from the natural supply level:

    cost(y) = <c, y> + 0.5 * <d, y*y> + gamma * ||y - y_nat||_2^2.

Base costs are restricted to linear (d = 0) and diagonal-quadratic
forms, which keeps the profit-maximizing supply exact: it is the
componentwise clip of the stationary point onto the capacity box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .rules import (
    CODE_BOUNDS,
    CODE_GAMMA,
    CODE_MALFORMED,
    GAMMA_MIN,
    check_array,
    real,
    require,
    require_finite,
)


@dataclass(frozen=True)
class Supplier:
    """Supply side of one producer over n goods.

    Attributes:
        y_nat: natural supply level, deviations from it are penalized.
        gamma: adjustment-cost weight, >= GAMMA_MIN.
        lo, hi: capacity box, 0 <= lo <= hi componentwise.
        c: linear base-cost coefficients.
        d: diagonal-quadratic base-cost coefficients, >= 0 (all zero
           means a linear base cost).
    Every entry must be finite.
    """

    y_nat: np.ndarray
    gamma: float
    lo: np.ndarray
    hi: np.ndarray
    c: np.ndarray
    d: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "y_nat", real(self.y_nat, "y_nat"))
        n = self.y_nat.shape
        require(len(n) == 1, CODE_MALFORMED, "y_nat", f"expected a vector, got shape {n}")
        for name in ("lo", "hi", "c"):
            object.__setattr__(self, name, real(getattr(self, name), name, n))
        d = np.zeros(n) if self.d is None else real(self.d, "d", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "gamma", float(real(self.gamma, "gamma", ())))
        require_finite(gamma=self.gamma, y_nat=self.y_nat, lo=self.lo, hi=self.hi,
                       c=self.c, d=self.d)
        require(self.gamma >= GAMMA_MIN, CODE_GAMMA, "gamma",
                f"adjustment weight must be at least {GAMMA_MIN:g}, got {self.gamma}")
        require(self.lo >= 0, CODE_BOUNDS, "lo", "capacity lower bounds must be nonnegative")
        require(self.hi >= self.lo, CODE_BOUNDS, "hi", "capacity box is empty: lo > hi")
        require(self.d >= 0, CODE_MALFORMED, "d",
                "quadratic cost coefficients must be nonnegative")

    @property
    def n(self) -> int:
        return self.y_nat.shape[0]


def total_cost(s: Supplier, y) -> float | np.ndarray:
    """Base cost plus quantity-adjustment penalty at supply y."""
    y = check_array(y, s.n, "supply")
    out = (
        (s.c * y).sum(axis=-1)
        + 0.5 * (s.d * y * y).sum(axis=-1)
        + s.gamma * ((y - s.y_nat) ** 2).sum(axis=-1)
    )
    return float(out) if out.ndim == 0 else out


def _best_response_raw(s: Supplier, p: np.ndarray) -> np.ndarray:
    # valid maximizer for any real p; the market gradient extends off
    # the nonnegative orthant through this path
    y = (p - s.c + 2.0 * s.gamma * s.y_nat) / (s.d + 2.0 * s.gamma)
    return np.clip(y, s.lo, s.hi)


def _profit_raw(s: Supplier, p: np.ndarray):
    y = _best_response_raw(s, p)
    return (p * y).sum(axis=-1) - total_cost(s, y)


def best_response(s: Supplier, p) -> np.ndarray:
    """Profit-maximizing supply at prices p (batched over leading axes).

    The objective <p, y> - cost(y) is separable and strictly concave, so
    the maximizer is the stationary point (p - c + 2 gamma y_nat) /
    (d + 2 gamma) clipped onto [lo, hi].
    """
    return _best_response_raw(s, check_array(p, s.n, "prices", nonnegative=True))


def profit(s: Supplier, p) -> float | np.ndarray:
    """Optimal profit <p, y(p)> - cost(y(p)); convex with gradient y(p)."""
    out = _profit_raw(s, check_array(p, s.n, "prices", nonnegative=True))
    return float(out) if out.ndim == 0 else out
