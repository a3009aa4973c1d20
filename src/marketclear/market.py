"""Market aggregation: the total expected revenue potential and its gradient.

The market's convex potential is

    TER(p) = sum_k profit_k(p) + sum_j count_j * E_j(a_j - p),

whose gradient is the excess supply sum_k y_k(p) - sum_j count_j x_j(p)
and whose minimizers over p >= 0 are exactly the prices that clear the
market on average.

`Market.value_and_grad` returns TER and z together from one pass over a
flat layout that the market builds once, at construction:

- Consumers. Every (consumer type, nest) pair is one contiguous segment
  of a flat array of J * n elements; each element holds one good of one
  type. The layout keeps the good of each element (a gather from the
  price vector), its utility and the 1/mu of its nest, the segment
  starts and each segment's mu. One `np.maximum.reduceat` and one
  `np.add.reduceat` give every nest's log-sum-exp, hence its inclusive
  value; a second pair over the segments of each type gives the
  surplus per type. The choice probabilities reuse the same
  exponentials.
- Suppliers. Their data are stacked into (K, n) arrays, so the best
  responses of all suppliers are one clip and their profits one sum.

One body, `_FlatMarket.kernel`, evaluates the layout, and the rank of
the prices picks the only two things that differ. One price vector of
shape (n,) reads the constants as they are and sums demand per good
with one `np.bincount`, which keeps the per-call numpy overhead of the
solver loop low. A block with the goods on the first axis and
evaluation points on the second reads column views of the same
constants (`_FlatMarket.col`) and sums demand per good through a
precomputed inverse gather; `Market` evaluates a block of prices in
chunks of `_CHUNK_ROWS` rows, which bounds the flat and stacked
temporaries alive at once. Both give bit-identical results on one price
vector. `Market.ter` and `Market.ter_gradient` call the same kernel and
compute only their own half.

The solvers check their start prices once and then call the kernel
directly, without the input checks of the public methods.
`clearing_residuals` computes the natural-map residual, min z and
<p, z> of one price vector for `Market.equilibrium_residual` and the
solver records alike. The public per-type functions of `nested_logit`
keep their own per-nest code and serve as the independent oracle this
layout is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .nested_logit import CODE_MALFORMED, NestStructure, check_array, require, require_finite
from .supply import Supplier

# Rows of a price block evaluated per kernel pass. The pass keeps
# several (J*n, rows) and (K, n, rows) temporaries alive together, and
# 256 rows keeps them cache-sized: a whole 4096-row block at once was
# 38% slower on the 20 acceptance-batch markets and raised peak memory,
# while 512 or 1024 rows were within 7% of 256.
_CHUNK_ROWS = 256


@dataclass(frozen=True)
class ConsumerType:
    """A population of identical consumers.

    Attributes:
        count: population size, finite and > 0.
        a: observable utilities of the n goods, finite.
        nests: nest structure of the random utility errors.
    """

    count: float
    a: np.ndarray
    nests: NestStructure

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", float(self.count))
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        require(self.a.shape == (self.nests.n,), CODE_MALFORMED, "a",
                f"utilities have shape {self.a.shape}, expected ({self.nests.n},)")
        require_finite(count=self.count, a=self.a)
        require(self.count > 0, CODE_MALFORMED, "count",
                f"population count must be positive, got {self.count}")


@dataclass(frozen=True)
class EquilibriumResidual:
    """How far a price vector is from clearing the market.

    min_excess: most negative component of excess supply.
    complementarity: <p, z(p)>, zero at an equilibrium.
    grad_norm: natural-map residual ||p - [p - z(p)]_+||_2.
    """

    min_excess: float
    complementarity: float
    grad_norm: float


def clearing_residuals(p: np.ndarray, z: np.ndarray) -> tuple[float, float, float]:
    """Natural-map residual ||p - [p - z]_+||_2, min_i z_i and <p, z> of
    one price vector p with excess supply z."""
    natural = p - np.maximum(p - z, 0.0)
    return math.sqrt(np.dot(natural, natural)), float(z.min()), float(np.dot(p, z))


@dataclass(frozen=True)
class ProductivityCheck:
    """Outcome of the strict supply-dominance test, with a witness.

    Truthy iff feasible supply can strictly exceed total expected demand
    in every good; then `supply` (one vector per supplier, the box upper
    corners) and `shares` (one simplex point used by every consumer
    type) witness the strict inequality.
    """

    ok: bool
    supply: tuple[np.ndarray, ...] | None = None
    shares: np.ndarray | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class Market:
    """Full market instance: J consumer types, K suppliers, n goods."""

    n: int
    consumers: tuple[ConsumerType, ...]
    suppliers: tuple[Supplier, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "consumers", tuple(self.consumers))
        object.__setattr__(self, "suppliers", tuple(self.suppliers))
        for name in ("consumers", "suppliers"):
            require(len(getattr(self, name)) > 0, CODE_MALFORMED, name,
                    "market needs at least one consumer type and one supplier")
        require([ct.nests.n == self.n for ct in self.consumers], CODE_MALFORMED, "consumers",
                f"consumer type dimension differs from the market's {self.n}")
        require([s.n == self.n for s in self.suppliers], CODE_MALFORMED, "suppliers",
                f"supplier dimension differs from the market's {self.n}")
        object.__setattr__(self, "_flat", _FlatMarket(self))

    @property
    def total_population(self) -> float:
        return sum(ct.count for ct in self.consumers)

    def value_and_grad(self, p) -> tuple[float | np.ndarray, np.ndarray]:
        """TER(p) and the excess supply z(p) from one kernel pass.

        Batched over leading axes like `ter` and `ter_gradient`, and
        equal to the pair of them.
        """
        return self._evaluate(p, value=True, grad=True)

    def ter(self, p) -> float | np.ndarray:
        """Total expected revenue at prices p (batched over leading axes).

        Defined for all finite p: the potential extends smoothly off the
        nonnegative orthant, which the accelerated scheme relies on.
        """
        return self._evaluate(p, value=True, grad=False)[0]

    def ter_gradient(self, p) -> np.ndarray:
        """Excess supply z(p) = sum_k y_k(p) - sum_j count_j x_j(p)."""
        return self._evaluate(p, value=False, grad=True)[1]

    def _evaluate(self, p, value: bool, grad: bool):
        p = check_array(p, self.n, "prices")
        if p.ndim == 1:
            ter, z = self._flat.kernel(p, value, grad)
            return (float(ter) if value else None), z
        rows = p.reshape(-1, self.n)
        ter = np.empty(len(rows)) if value else None
        z = np.empty(rows.shape) if grad else None
        for r0 in range(0, len(rows), _CHUNK_ROWS):
            r1 = r0 + _CHUNK_ROWS
            # a contiguous copy: broadcasting over a transposed view is slower
            t, g = self._flat.kernel(np.ascontiguousarray(rows[r0:r1].T), value, grad)
            if value:
                ter[r0:r1] = t
            if grad:
                z[r0:r1] = g.T
        return (ter.reshape(p.shape[:-1]) if value else None,
                z.reshape(p.shape) if grad else None)

    def smoothness_constant(self) -> float:
        """Gradient Lipschitz bound sum_j count_j / min_l mu_jl + sum_k 1 / gamma_k."""
        lip = sum(ct.count / ct.nests.min_mu for ct in self.consumers)
        lip += sum(1.0 / s.gamma for s in self.suppliers)
        return lip

    def productivity_check(self) -> ProductivityCheck:
        """Can feasible supply strictly exceed total expected demand?

        With box capacities the best feasible supply is the upper corner
        H = sum_k hi_k, and total expected demand ranges over N * simplex
        with N the total population. Writing u = H / N, strict dominance
        in every good is achievable iff u > 0 everywhere and either
        sum_i min(u_i, 1) > 1, or n = 1 and u_1 > 1 (a single good takes
        the whole simplex, so the capped sum test degenerates there).
        """
        cap = np.sum([s.hi for s in self.suppliers], axis=0)
        pop = self.total_population
        u = cap / pop
        if np.any(u <= 0):
            return ProductivityCheck(False)
        capped = np.minimum(u, 1.0)
        if self.n == 1:
            if u[0] <= 1.0:
                return ProductivityCheck(False)
            shares = np.ones(1)
        elif capped.sum() > 1.0:
            shares = capped / capped.sum()
        else:
            return ProductivityCheck(False)
        return ProductivityCheck(True, tuple(s.hi.copy() for s in self.suppliers), shares)

    def equilibrium_residual(self, p) -> EquilibriumResidual:
        """Clearing residuals of Definition-style equilibrium conditions at p."""
        p = check_array(p, self.n, "prices", nonnegative=True)
        require(p.ndim == 1, CODE_MALFORMED, "prices", f"shape {p.shape}, expected ({self.n},)")
        z = self._flat.kernel(p, False, True)[1]
        grad_norm, min_excess, complementarity = clearing_residuals(p, z)
        return EquilibriumResidual(min_excess=min_excess, complementarity=complementarity,
                                   grad_norm=grad_norm)


class _FlatMarket:
    """The market laid out for the fused oracle (see the module docstring).

    Element arrays have one entry per (type, good) element, segment
    arrays one per (type, nest) segment, supplier arrays shape (K, n).
    `col` holds the float arrays again as column views of the same
    data, with a trailing axis that broadcasts over evaluation points.
    """

    def __init__(self, market: Market):
        n = self.n = market.n
        goods, seg_len, seg_mu = [], [], []
        type_start, type_of = [], []
        for j, ct in enumerate(market.consumers):
            type_start.append(len(seg_len))
            for nest, mu in zip(ct.nests.nests, ct.nests.mu):
                goods.extend(nest)
                seg_len.append(len(nest))
                seg_mu.append(mu)
                type_of.append(j)
        self.goods = np.array(goods, dtype=np.intp)
        seg_len = np.array(seg_len, dtype=np.intp)
        self.n_types = len(market.consumers)
        self.seg_start = np.concatenate(([0], np.cumsum(seg_len)[:-1]))
        self.seg_of = np.repeat(np.arange(len(seg_len)), seg_len)
        self.type_start = np.array(type_start, dtype=np.intp)
        self.type_of = np.array(type_of, dtype=np.intp)
        self.count = np.array([ct.count for ct in market.consumers])
        # element of (type j, good i) at position j * n + i
        owner = np.repeat(np.arange(self.n_types), n)  # type of each element
        self.inverse = np.argsort(owner * n + self.goods, kind="stable")

        seg_mu = np.array(seg_mu)
        sup = market.suppliers
        floats = {
            "seg_mu": seg_mu,
            "inv_mu": (1.0 / seg_mu)[self.seg_of],
            "a": np.array([market.consumers[j].a[i] for j, i in zip(owner, self.goods)]),
            "seg_count": self.count[self.type_of],
            "offset": np.array([2.0 * s.gamma * s.y_nat - s.c for s in sup]),
            "inv_slope": np.array([1.0 / (s.d + 2.0 * s.gamma) for s in sup]),
            "lo": np.array([s.lo for s in sup]),
            "hi": np.array([s.hi for s in sup]),
            "c": np.array([s.c for s in sup]),
            "half_d": np.array([0.5 * s.d for s in sup]),
            "y_nat": np.array([s.y_nat for s in sup]),
            "gamma": np.array([s.gamma for s in sup])[:, None],
        }
        self.__dict__.update(floats)
        self.col = SimpleNamespace(**{k: v[..., None] for k, v in floats.items()})

    def kernel(self, x: np.ndarray, value: bool, grad: bool):
        """TER and z at prices x, each computed only if asked for.

        x is one price vector of shape (n,), giving a scalar TER and z of
        shape (n,), or a block of shape (n, R) with one evaluation point
        per column, giving TER of shape (R,) and z of shape (n, R).
        """
        c = self if x.ndim == 1 else self.col
        y = (x + c.offset) * c.inv_slope  # supplier stationary points
        np.maximum(y, c.lo, out=y)
        np.minimum(y, c.hi, out=y)

        w = x[self.goods]
        np.subtract(c.a, w, out=w)
        w *= c.inv_mu  # v / mu, element by element
        top = np.maximum.reduceat(w, self.seg_start)
        w -= top[self.seg_of]
        np.exp(w, out=w)
        within = np.add.reduceat(w, self.seg_start)
        iv = c.seg_mu * (top + np.log(within))  # inclusive values
        top_iv = np.maximum.reduceat(iv, self.type_start)
        nest = np.exp(iv - top_iv[self.type_of])
        total = np.add.reduceat(nest, self.type_start)

        ter = z = None
        if value:
            profit = y * ((x - c.c) - c.half_d * y) - c.gamma * np.square(y - c.y_nat)
            ter = profit.sum(axis=(0, 1)) + self.count @ (top_iv + np.log(total))
        if grad:
            # count_j * P(nest) / (within-nest sum) turns w = exp(v/mu - top)
            # into the demand of each element
            w *= (nest * (c.seg_count / (total[self.type_of] * within)))[self.seg_of]
            if x.ndim == 1:
                demand = np.bincount(self.goods, w, self.n)
            else:
                demand = w.take(self.inverse, axis=0).reshape(
                    self.n_types, -1, x.shape[1]).sum(axis=0)
            z = y.sum(axis=0) - demand
        return ter, z
