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

from .nested_logit import DomainError, StructureError


@dataclass(frozen=True)
class Supplier:
    """Supply side of one producer over n goods.

    Attributes:
        y_nat: natural supply level, deviations from it are penalized.
        gamma: adjustment-cost weight, > 0.
        lo, hi: capacity box, 0 <= lo <= hi componentwise.
        c: linear base-cost coefficients.
        d: diagonal-quadratic base-cost coefficients, >= 0 (all zero
           means a linear base cost).
    """

    y_nat: np.ndarray
    gamma: float
    lo: np.ndarray
    hi: np.ndarray
    c: np.ndarray
    d: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        for name in ("y_nat", "lo", "hi", "c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        d = np.zeros_like(self.c) if self.d is None else np.asarray(self.d, dtype=float)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "gamma", float(self.gamma))
        n = self.y_nat.shape
        for name in ("lo", "hi", "c", "d"):
            if getattr(self, name).shape != n:
                raise StructureError(f"supplier field {name} has shape "
                                     f"{getattr(self, name).shape}, expected {n}")
        if self.gamma <= 0:
            raise StructureError(f"adjustment weight must be positive, got {self.gamma}")
        if np.any(self.lo < 0):
            raise StructureError("capacity lower bounds must be nonnegative")
        if np.any(self.lo > self.hi):
            raise StructureError("capacity box is empty: lo > hi somewhere")
        if np.any(self.d < 0):
            raise StructureError("quadratic cost coefficients must be nonnegative")

    @property
    def n(self) -> int:
        return self.y_nat.shape[0]


def check_prices(p, n: int, nonnegative: bool = True) -> np.ndarray:
    """Validate a (batched) price vector: finite, length n, and >= 0 if asked."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 0 or p.shape[-1] != n:
        raise StructureError(f"price vector must have last dimension {n}")
    if not np.isfinite(p).all():
        raise DomainError("prices must be finite")
    if nonnegative and np.any(p < 0):
        raise DomainError("prices must be nonnegative")
    return p


def total_cost(s: Supplier, y) -> float | np.ndarray:
    """Base cost plus quantity-adjustment penalty at supply y."""
    y = np.asarray(y, dtype=float)
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
    return _best_response_raw(s, check_prices(p, s.n))


def profit(s: Supplier, p) -> float | np.ndarray:
    """Optimal profit <p, y(p)> - cost(y(p)); convex with gradient y(p)."""
    out = _profit_raw(s, check_prices(p, s.n))
    return float(out) if out.ndim == 0 else out
