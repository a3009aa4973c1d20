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
  price vector), its utility and the 1/mu of its nest (both negated, see
  below), the segment starts (and the same runs as slices) and each
  segment's mu. A maximum and a sum over each segment give every nest's
  log-sum-exp, hence its inclusive value; a second pair over the
  segments of each type gives the surplus per type. The choice
  probabilities reuse the same exponentials.
- Suppliers. Their data are stacked into (K, n) arrays, so the best
  responses of all suppliers are one clip and their profits one sum.

One body, the closure that `_bind` returns, evaluates the layout. The
layout binds it once per rank, when it is built, as `_FlatMarket.point`
and `_FlatMarket.block`: `_bind` reads every constant, index array,
slice list and numpy function of that rank once, and a call looks none
of them up again. `_FlatMarket.kernel` stays the one entry point: it
dispatches by the rank of the prices, and `evaluate`,
`Market.equilibrium_residual` and the solvers all call it. Its first stage
is one gather and one affine pass for both sides: `e = x[idx]` takes the
good of every consumer element and then, supplier by supplier, each
supplier's n goods, and `e += off; e *= slope` turns the head into the
elements' v / mu and the tail into the suppliers' stationary points,
which are clipped in place onto their boxes. The consumer constants are
stored negated, off = -a and slope = -1/mu, and (x + (-a)) * (-1/mu) has
the bits of the textbook (a - x) * (1/mu): x + (-a) = -(a - x) under
round-to-nearest, and (-r)(-s) = rs. Only the sign of a zero element,
where a_i = x_i, can differ, and no output sees it: subtracting the
segment maximum, exp and the log of the sum erase it.

The rank of the prices picks the only things that differ: which
constants `_bind` reads and how the kernel reduces. One price vector of
shape (n,) reads the constants as they are, takes the maxima with
`np.maximum.reduceat` and sums each nest and each type with
`np.bincount`. Demand and supply per good are one `np.bincount` of e
into 2n bins (`bins`: each element's good, then n plus each supplier's
good), and z is the supply half less the demand half. This keeps the
per-call numpy overhead of the solver loop low. A block with the goods
on the first axis and evaluation points on the second reads column views
of the same constants (`_FlatMarket.col`), reduces each segment, a
contiguous run of rows, with one numpy call vectorised over all points
(`_block_reduce`), sums demand per good through a precomputed inverse
gather and supply with `np.add.reduce` over the supplier axis, row by
row. A one-column block is priced by the point body on its column, as
numpy would sum each reduction over one column pairwise, not in element
order, so the block body never meets that case.
`_FlatMarket.evaluate` takes a block of prices in chunks of `_CHUNK_ROWS`
rows, copied transposed into one price buffer per call, which bounds the
flat and stacked temporaries alive at once. Per chunk the kernel
allocates e, (J * n + K * n, rows), with the exponentials in its head
and the supplier responses y in its tail; for TER, the profit and one
scratch array, each (K, n, rows); the nest maxima per element; and for
z, the demand factor per element and the demand gather. Every other
temporary has one row per nest, type or good. e and the profit are
updated in place, and a block's z is written into its demand, each
operation with the operands and in the order of the textbook formula
(swapping the operands of a + or a * keeps its bits), so no bit depends
on which arrays are reused. Both ranks sum every nest, every type, each
good's demand and each good's supplies in element order, and a maximum
is exact in any order, so every row of a block gets the z of the point
call bit for bit, and one price vector gives bit-identical TER and z at
both ranks.
`Market.ter` and `Market.ter_gradient` call the same kernel and compute
only their own half.

The public methods check their prices (`check_array`) and call
`_FlatMarket.evaluate`; the solvers check their start prices once and
then call the kernel and the evaluator directly, without that check.
The layout is built from a list of markets; `Market` builds its own
from `[self]`, and the lockstep solver (`solvers.solve_many`) one from
the markets of all its runs, which binds its own kernels. Such a
stacked layout concatenates the consumer segments and types, each
market's goods offset by the goods before it, and pads the supplier
arrays to (K_max, sum n): after each market's own suppliers come rows
with lo = hi = 0, whose clipped response is an exact zero at any price
but NaN. One price vector of the stacked markets then gives each
market's z with the bits of its own point call: every nest, type and
per-good sum runs over the same elements in the same order, a maximum
is exact, and a padded row adds zero at the end of a good's supply sum.
A stacked layout serves single price vectors only: the block branch's
demand gather needs every consumer type to hold every good.

`clearing_residuals` computes the natural-map residual, min z and
<p, z> of one price vector or of each row of a block, for
`Market.equilibrium_residual` and the solver records alike. The public
per-type functions of `nested_logit` keep their own per-nest code and
serve as the independent oracle this layout is tested against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .nested_logit import NestStructure
from .rules import CODE_MALFORMED, check_array, integer, real, require, require_finite
from .supply import Supplier

# Rows of a price block evaluated per kernel pass. The pass allocates
# one (J*n + K*n, rows) array, up to two (K, n, rows) and three (J*n,
# rows) arrays (see the module docstring), which favours few rows, and
# reduces each nest and each consumer type with one numpy call per
# chunk, which favours many. Larger chunks cost memory for no clear
# gain in time; README's library section gives the measurements.
_CHUNK_ROWS = 1024


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
        object.__setattr__(self, "count", float(real(self.count, "count", ())))
        object.__setattr__(self, "a", real(self.a, "a", (self.nests.n,)))
        require_finite(count=self.count, a=self.a)
        require(self.count > 0, CODE_MALFORMED, "count",
                f"population count must be positive, got {self.count}")


@dataclass(frozen=True)
class EquilibriumResidual:
    """How far a price vector is from clearing the market.

    min_excess: most negative component of excess supply.
    complementarity: <p, z(p)>, zero at an equilibrium.
    grad_norm: natural-map residual ||p - [p - z(p)]_+||_2, computed as
        its closed form ||min(p, z(p))||_2.
    """

    min_excess: float
    complementarity: float
    grad_norm: float


def clearing_residuals(p: np.ndarray, z: np.ndarray):
    """Natural-map residual ||p - [p - z]_+||_2, min_i z_i and <p, z> of a
    price vector p with excess supply z, or of each row of an (R, n) block
    of them, as arrays of shape (R,). A row gives the same bits alone as
    in any block.

    The residual is computed as ||min(p, z)||_2: min(p, z) equals
    p - [p - z]_+ in exact arithmetic and on NaN and +-inf, and where
    |p| >> |z|, p - z rounds to p and that form reads 0."""
    natural = np.minimum(p, z)
    residual = np.sqrt(np.einsum("...i,...i->...", natural, natural))
    return residual, z.min(axis=-1), np.einsum("...i,...i->...", p, z)


@dataclass(frozen=True)
class ProductivityCheck:
    """Outcome of the strict supply-dominance test, with a witness.

    Truthy iff feasible supply can strictly exceed total expected demand
    in every good; then `supply` (one vector per supplier, the box upper
    corners) and `shares` (one simplex point used by every consumer
    type, H / sum(H) with H the summed upper corners) witness the strict
    inequality.
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
        object.__setattr__(self, "n", integer(self.n, "n", 1))
        object.__setattr__(self, "consumers", tuple(self.consumers))
        object.__setattr__(self, "suppliers", tuple(self.suppliers))
        for name in ("consumers", "suppliers"):
            require(len(getattr(self, name)) > 0, CODE_MALFORMED, name,
                    "market needs at least one consumer type and one supplier")
        require([ct.nests.n == self.n for ct in self.consumers], CODE_MALFORMED, "consumers",
                f"consumer type dimension differs from the market's {self.n}")
        require([s.n == self.n for s in self.suppliers], CODE_MALFORMED, "suppliers",
                f"supplier dimension differs from the market's {self.n}")
        object.__setattr__(self, "_flat", _FlatMarket([self]))

    @property
    def total_population(self) -> float:
        return sum(ct.count for ct in self.consumers)

    def value_and_grad(self, p) -> tuple[float | np.ndarray, np.ndarray]:
        """TER(p) and the excess supply z(p) from one kernel pass.

        Batched over leading axes like `ter` and `ter_gradient`, and
        equal to the pair of them.
        """
        return self._flat.evaluate(check_array(p, self.n, "prices"), True, True)

    def ter(self, p) -> float | np.ndarray:
        """Total expected revenue at prices p (batched over leading axes).

        Defined for all finite p: the potential extends smoothly off the
        nonnegative orthant, which the accelerated scheme relies on.
        """
        return self._flat.evaluate(check_array(p, self.n, "prices"), True, False)[0]

    def ter_gradient(self, p) -> np.ndarray:
        """Excess supply z(p) = sum_k y_k(p) - sum_j count_j x_j(p)."""
        return self._flat.evaluate(check_array(p, self.n, "prices"), False, True)[1]

    def smoothness_constant(self) -> float:
        """Gradient Lipschitz bound sum_j count_j / min_l mu_jl + sum_k 1 / gamma_k."""
        lip = sum(ct.count / ct.nests.min_mu for ct in self.consumers)
        lip += sum(1.0 / s.gamma for s in self.suppliers)
        return lip

    def productivity_check(self) -> ProductivityCheck:
        """Can feasible supply strictly exceed total expected demand?

        With box capacities the best feasible supply is the upper corner
        H = sum_k hi_k, and total expected demand ranges over N * simplex
        with N the total population. Strict dominance in every good is
        achievable iff H > 0 everywhere and sum(H) > N: then the shares
        H / sum(H) give demand N * H_i / sum(H) < H_i, and a simplex point
        q with H_i > N * q_i in every good gives sum(H) > N.
        """
        cap = np.sum([s.hi for s in self.suppliers], axis=0)
        total = cap.sum()
        if np.any(cap <= 0) or not total > self.total_population:
            return ProductivityCheck(False)
        return ProductivityCheck(True, tuple(s.hi.copy() for s in self.suppliers), cap / total)

    def equilibrium_residual(self, p) -> EquilibriumResidual:
        """Clearing residuals of Definition-style equilibrium conditions at p."""
        p = check_array(p, self.n, "prices", nonnegative=True)
        require(p.ndim == 1, CODE_MALFORMED, "prices", f"shape {p.shape}, expected ({self.n},)")
        z = self._flat.kernel(p, False, True)[1]
        grad_norm, min_excess, complementarity = map(float, clearing_residuals(p, z))
        return EquilibriumResidual(min_excess=min_excess, complementarity=complementarity,
                                   grad_norm=grad_norm)


class _FlatMarket:
    """The market laid out for the fused oracle (see the module docstring).

    Element arrays have one entry per (type, good) element, segment
    arrays one per (type, nest) segment, supplier arrays shape (K, n).
    `col` holds the float arrays again as column views of the same
    data, with a trailing axis that broadcasts over evaluation points.
    """

    def __init__(self, markets: Sequence[Market]):
        sizes = [m.n for m in markets]
        g0s = np.cumsum([0, *sizes[:-1]]).tolist()  # first good of each market
        n = self.n = sum(sizes)
        goods, a, count, seg_len, seg_mu, type_len = [], [], [], [], [], []
        for m, g0 in zip(markets, g0s):
            for ct in m.consumers:
                order = np.concatenate(ct.nests._idx)  # the type's goods, nest by nest
                goods.append(order + g0)
                a.append(ct.a[order])
                count.append(ct.count)
                seg_len.extend(map(len, ct.nests.nests))
                seg_mu.extend(ct.nests.mu)
                type_len.append(ct.nests.n_nests)
        self.goods = np.concatenate(goods)
        seg_len = np.array(seg_len, dtype=np.intp)
        self.n_types = len(count)
        self.seg_start = np.concatenate(([0], np.cumsum(seg_len)[:-1]))
        self.seg_of = np.repeat(np.arange(len(seg_len)), seg_len)
        self.type_start = np.concatenate(([0], np.cumsum(type_len)[:-1])).astype(np.intp)
        self.type_of = np.repeat(np.arange(self.n_types), type_len)
        self.seg_slices = _slices(self.seg_start, len(self.goods))
        self.type_slices = _slices(self.type_start, len(seg_len))
        self.count = np.array(count)
        # a block sums demand per good through this gather of the elements
        # in (type, good) order, so one market's types each hold every good
        self.inverse = None
        if len(markets) == 1:
            owner = np.repeat(np.arange(self.n_types), n)  # type of each element
            self.inverse = np.argsort(owner * n + self.goods, kind="stable")

        k_max = self.k_max = max(len(m.suppliers) for m in markets)
        # the fused first stage gathers each consumer element's good, then
        # each supplier's n goods; the point path sums demand into bins
        # 0..n-1 and supply into n..2n-1
        own = np.tile(np.arange(n), k_max)
        self.idx = np.concatenate((self.goods, own))
        self.bins = np.concatenate((self.goods, n + own))

        def supply(f, pad: float = 0.0) -> np.ndarray:
            """f of each supplier, (k_max, n): a market's rows, then padding."""
            out = np.full((k_max, n), pad)
            for m, g0 in zip(markets, g0s):
                out[:len(m.suppliers), g0:g0 + m.n] = [f(s) for s in m.suppliers]
            return out

        seg_mu = np.array(seg_mu)
        # a gamma constant along each row, as in one market's layout, is
        # kept as one column: block TER broadcasts it faster
        gamma = supply(lambda s: np.full(s.n, s.gamma))
        # a padded row clips y = x onto [0, 0]: y = 0 at any price but NaN,
        # and zero profit at any finite price
        offset = supply(lambda s: 2.0 * s.gamma * s.y_nat - s.c)
        inv_slope = supply(lambda s: 1.0 / (s.d + 2.0 * s.gamma), 1.0)
        lo, hi = supply(lambda s: s.lo), supply(lambda s: s.hi)
        floats = {
            "seg_mu": seg_mu,
            "seg_count": self.count[self.type_of],
            # (x + off) * slope: (x - a) * (-1/mu) = v / mu per element,
            # then (x + offset) * inv_slope per supplier and good
            "off": np.concatenate((-np.concatenate(a), offset.ravel())),
            "slope": np.concatenate((-(1.0 / seg_mu)[self.seg_of], inv_slope.ravel())),
            "offset": offset,
            "inv_slope": inv_slope,
            "lo": lo,
            "hi": hi,
            # the boxes again, laid out as the tail of the fused stage
            "y_lo": lo.ravel(),
            "y_hi": hi.ravel(),
            "c": supply(lambda s: s.c),
            "half_d": supply(lambda s: 0.5 * s.d),
            "y_nat": supply(lambda s: s.y_nat),
            "gamma": gamma[:, :1] if (gamma == gamma[:, :1]).all() else gamma,
        }
        self.__dict__.update(floats)
        self.col = SimpleNamespace(**{k: v[..., None] for k, v in floats.items()})
        self.point = _bind(self, True)  # the block kernel calls it
        self.block = _bind(self, False)

    def evaluate(self, p: np.ndarray, value: bool, grad: bool):
        """TER and z at prices p of shape (..., n), each computed only if
        asked for, without input checks: one price vector takes one kernel
        pass, a batch is evaluated in chunks of `_CHUNK_ROWS` rows."""
        if p.ndim == 1:
            ter, z = self.kernel(p, value, grad)
            return (float(ter) if value else None), z
        rows = p.reshape(-1, self.n)
        ter = np.empty(len(rows)) if value else None
        z = np.empty(rows.shape) if grad else None
        # every chunk's prices are copied, transposed, into one contiguous
        # buffer: broadcasting over a transposed view is slower
        buf = np.empty(min(len(rows), _CHUNK_ROWS) * self.n)
        for r0 in range(0, len(rows), _CHUNK_ROWS):
            r1 = r0 + _CHUNK_ROWS
            chunk = rows[r0:r1].T
            x = buf[:chunk.size].reshape(chunk.shape)
            np.copyto(x, chunk)
            t, g = self.kernel(x, value, grad)
            if value:
                ter[r0:r1] = t
            if grad:
                z[r0:r1] = g.T
        return (ter.reshape(p.shape[:-1]) if value else None,
                z.reshape(p.shape) if grad else None)

    def kernel(self, x: np.ndarray, value: bool, grad: bool):
        """TER and z at prices x, each computed only if asked for.

        x is one price vector of shape (n,), giving a scalar TER and z of
        shape (n,), or a block of shape (n, R) with one evaluation point
        per column, giving TER of shape (R,) and z of shape (n, R). Each
        rank has its own bound kernel (`_bind`), and a one-column block
        is priced by the point kernel.
        """
        return (self.point if x.ndim == 1 else self.block)(x, value, grad)


def _bind(f: _FlatMarket, point: bool):
    """The kernel of layout f for one price vector (point) or for a block
    of them, with every constant, index array, slice list and numpy
    function read once, here, and bound to the returned closure."""
    c = f if point else f.col
    idx, seg_start, seg_of, seg_slices = f.idx, f.seg_start, f.seg_of, f.seg_slices
    type_start, type_of, type_slices = f.type_start, f.type_of, f.type_slices
    count, bins, inverse, n_types = f.count, f.bins, f.inverse, f.n_types
    n, ne = f.n, len(f.goods)
    off, slope, y_lo, y_hi, seg_mu = c.off, c.slope, c.y_lo, c.y_hi, c.seg_mu
    seg_count, cost, half_d, y_nat, gamma = c.seg_count, c.c, c.half_d, c.y_nat, c.gamma
    y_shape = (f.k_max, n) if point else (f.k_max, n, -1)
    maximum, minimum, exp, log, bincount = np.maximum, np.minimum, np.exp, np.log, np.bincount
    subtract, multiply, square = np.subtract, np.multiply, np.square
    add, max_at, add_reduce = np.add, np.maximum.reduceat, np.add.reduce

    def kernel(x, value, grad):
        e = x[idx]  # consumer elements, then (K, n) supplier goods
        e += off
        e *= slope
        w = e[:ne]  # v / mu, element by element
        y = e[ne:]  # supplier stationary points, flat
        maximum(y, y_lo, out=y)
        minimum(y, y_hi, out=y)

        top = max_at(w, seg_start) if point else _block_reduce(maximum, w, seg_slices)
        w -= top[seg_of]
        exp(w, out=w)
        within = bincount(seg_of, w) if point else _block_reduce(add, w, seg_slices)
        iv = seg_mu * (top + log(within))  # inclusive values
        top_iv = max_at(iv, type_start) if point else _block_reduce(maximum, iv, type_slices)
        nest = exp(iv - top_iv[type_of])
        total = bincount(type_of, nest) if point else _block_reduce(add, nest, type_slices)

        ter = z = None
        if value or not point:
            y = y.reshape(y_shape)
        if value:
            # y * ((x - c) - half_d * y) - gamma * (y - y_nat)^2 in two
            # temporaries, each operation as in that expression
            profit = subtract(x, cost)
            u = multiply(half_d, y)
            profit -= u
            profit *= y
            subtract(y, y_nat, out=u)
            square(u, out=u)
            u *= gamma
            profit -= u
            ter = profit.sum(axis=(0, 1)) + count @ (top_iv + log(total))
        if grad:
            # count_j * P(nest) / (within-nest sum) turns w = exp(v/mu - top)
            # into the demand of each element
            w *= (nest * (seg_count / (total[type_of] * within)))[seg_of]
            if point:  # demand into bins 0..n-1, supply into n..2n-1
                sums = bincount(bins, e, 2 * n)
                z = sums[n:] - sums[:n]
            else:
                demand = w.take(inverse, axis=0).reshape(n_types, -1, x.shape[1]).sum(axis=0)
                z = subtract(add_reduce(y, 0), demand, out=demand)
        return ter, z

    if point:
        return kernel
    at_point = f.point

    def block(x, value, grad):
        if x.shape[1] == 1:  # numpy would sum its reductions pairwise
            ter, z = at_point(x[:, 0], value, grad)
            return (ter[None] if value else None), (z[:, None] if grad else None)
        return kernel(x, value, grad)

    return block


def _slices(starts: np.ndarray, end: int) -> list[slice]:
    """The runs [starts[k], starts[k + 1]) of an axis of length end."""
    bounds = [*starts.tolist(), end]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _block_reduce(ufunc: np.ufunc, a: np.ndarray, slices: list[slice]) -> np.ndarray:
    """ufunc's reduction of each run of rows of a, column by column."""
    out = np.empty((len(slices), a.shape[1]))
    for s, o in zip(slices, out):
        ufunc.reduce(a[s], 0, out=o)
    return out
