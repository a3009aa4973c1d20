"""Nested logit core: surplus, choice probabilities, and conjugate entropy.

The surplus of a utility vector v under a nest partition with scale
parameters mu is

    E(v) = ln sum_l ( sum_{i in N_l} exp(v_i / mu_l) )^{mu_l},

its gradient is the vector of choice probabilities, and its convex
conjugate is the generalized entropy

    E*(q) = sum_l mu_l sum_{i in N_l} q_i ln q_i
          + sum_l (1 - mu_l) Q_l ln Q_l,       Q_l = sum_{i in N_l} q_i.

Everything is evaluated through per-nest log-sum-exp (the raw formula
overflows for moderate v / mu), so values are finite for any v whose
v / mu is finite: `surplus` of (1e300, 0, 0) with nests ((0, 1), (2,))
and mu = (0.5, 1) is 1e300.
All functions accept batched utilities of shape (..., n) and return
shapes (...) or (..., n). `surplus` and `choice_probabilities` work
goods-major: on the transposed view v.T, each nest is one row gather of
shape (L, ...), reduced along axis 0 at once for every evaluation point.
Each gather is a fresh array, scaled by 1/mu in place and, in
`choice_probabilities`, turned into the nest's probabilities in place;
`_logsumexp` allocates one array for x - m and its exponential. Each
operation keeps the operands and order of the formulas, so no bit
depends on which arrays are reused.
Arguments are checked by the package's input rules (`rules`); this
module keeps only the consumer's own bounds, MU_MIN and SIMPLEX_ATOL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rules import (CODE_MALFORMED, CODE_MU_RANGE, CODE_PARTITION, DomainError,
                    StructureError, check_array, integer, real, require, require_finite)

# Smallest admissible scale parameter: below this, exp(v/mu) is
# numerically meaningless even in log space.
MU_MIN = 1e-6

# Tolerance for the simplex membership test in `conjugate`.
SIMPLEX_ATOL = 1e-8


@dataclass(frozen=True)
class NestStructure:
    """Partition of alternatives {0, ..., n-1} into nests with scales.

    Attributes:
        n: number of alternatives.
        nests: disjoint, nonempty index tuples covering range(n).
        mu: one scale parameter per nest, each in (MU_MIN, 1].
    """

    n: int
    nests: tuple[tuple[int, ...], ...]
    mu: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", integer(self.n, "n", 1))
        try:
            nests = tuple(tuple(sorted(integer(i, f"nests[{l}]") for i in nest))
                          for l, nest in enumerate(self.nests))
        except TypeError:  # nests, or one of them, is not a sequence
            raise StructureError("expected sequences of indices", CODE_MALFORMED, "nests") from None
        object.__setattr__(self, "nests", nests)
        object.__setattr__(self, "mu", tuple(real(self.mu, "mu", (len(nests),)).tolist()))
        require(len(self.nests) > 0, CODE_MALFORMED, "nests", "empty nest list")
        require_finite(mu=self.mu)
        seen: dict[int, int] = {}  # alternative -> its nest
        for l, nest in enumerate(self.nests):
            require(len(nest) > 0, CODE_MALFORMED, f"nests[{l}]", "empty nest")
            for i in nest:
                if not 0 <= i < self.n:
                    raise StructureError(f"index {i + 1} outside 1..{self.n}",
                                         CODE_PARTITION, f"nests[{l}]")
                if i in seen:
                    raise StructureError(f"nests not disjoint: index {i + 1} already in "
                                         f"nest {seen[i] + 1}", CODE_PARTITION, f"nests[{l}]")
                seen[i] = l
        missing = [i + 1 for i in range(self.n) if i not in seen]
        require(not missing, CODE_PARTITION, "nests",
                f"nests do not cover all alternatives; missing {missing}")
        for l, m in enumerate(self.mu):
            require(MU_MIN < m <= 1.0, CODE_MU_RANGE, f"mu[{l}]",
                    f"mu out of range ({MU_MIN:g}, 1]: {m}")

        # index arrays cached for the hot evaluation paths
        object.__setattr__(
            self, "_idx", tuple(np.array(nest, dtype=np.intp) for nest in self.nests)
        )

    @classmethod
    def single(cls, n: int, mu: float = 1.0) -> "NestStructure":
        """One nest holding every alternative (multinomial logit for mu=1)."""
        return cls(n, (tuple(range(integer(n, "n", 1))),), (mu,))

    @property
    def n_nests(self) -> int:
        return len(self.nests)

    @property
    def min_mu(self) -> float:
        return min(self.mu)


@dataclass(frozen=True)
class SmoothnessModuli:
    """Analytic moduli of the surplus / conjugate pair.

    smoothness: Lipschitz bound on the surplus gradient,
        ||grad E(v) - grad E(v')||_1 <= smoothness * ||v - v'||_inf.
    strong_convexity: modulus of the conjugate entropy w.r.t. ||.||_1.
    gnl_bound: the looser generalized-nested-logit comparison constant
        2 / min mu - 1.
    """

    smoothness: float
    strong_convexity: float
    gnl_bound: float


def _logsumexp(x: np.ndarray) -> np.ndarray:
    # stable log-sum-exp along axis 0, the goods axis of a goods-major
    # block; inputs are always finite here, so the max subtraction never
    # produces nan
    m = np.maximum.reduce(x, 0)
    e = x - m
    np.exp(e, out=e)
    return m + np.log(np.add.reduce(e, 0))


def _nests(ns: NestStructure, v: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Goods-major per-nest scaled utilities w_l = v_{N_l} / mu_l, each of
    shape (L, ...), and the inclusive values mu_l * ln sum exp(w_l), stacked
    as (n_nests, ...)."""
    vt = v.T
    w = [vt[idx] for idx in ns._idx]  # each gather is a fresh array
    iv = np.empty((ns.n_nests,) + vt.shape[1:])
    for l, (wl, mu) in enumerate(zip(w, ns.mu)):
        wl /= mu
        iv[l] = mu * _logsumexp(wl)
    return w, iv


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise for x >= 0, with the limit 0 ln 0 = 0."""
    pos = x > 0
    return np.where(pos, x * np.log(np.where(pos, x, 1.0)), 0.0)


def surplus(ns: NestStructure, v) -> float | np.ndarray:
    """Expected maximum utility E(v); shape (...,) for v of shape (..., n).

    A row of a batched call can differ from a single-point call in the
    last bits when a nest holds 8 or more goods: numpy sums a 1-D array
    pairwise, and the columns of a block sequentially.
    """
    v = check_array(v, ns.n, "utilities")
    out = _logsumexp(_nests(ns, v)[1]).T
    return float(out) if out.ndim == 0 else out


def choice_probabilities(ns: NestStructure, v) -> np.ndarray:
    """Probability that each alternative attains the maximum utility.

    Equals the gradient of `surplus` at v. Computed in log space as the
    product of the nest probability (softmax of inclusive values) and
    the within-nest probability (softmax of v / mu inside the nest).
    Batched rows can differ from single-point calls in the last bits,
    as in `surplus`. The result is the transposed view of a goods-major
    array, not C-ordered for ndim >= 2.
    """
    v = check_array(v, ns.n, "utilities")
    w, iv = _nests(ns, v)
    log_denom = _logsumexp(iv)
    q = np.empty((ns.n,) + iv.shape[1:])
    for l, (idx, mu, wl) in enumerate(zip(ns._idx, ns.mu, w)):
        wl -= iv[l] / mu  # log within-nest probability
        wl += iv[l] - log_denom  # plus log nest probability
        q[idx] = np.exp(wl, out=wl)
    return q.T


def conjugate(ns: NestStructure, q) -> float | np.ndarray:
    """Generalized entropy E*(q) on the simplex; always <= 0.

    Entries with q_i = 0 contribute zero through the limit x ln x -> 0;
    no clamping is applied.
    """
    q = check_array(q, ns.n, "probabilities")
    if np.any(q < -1e-12):
        raise DomainError("must be nonnegative", field="probabilities")
    q = np.maximum(q, 0.0)
    total = q.sum(axis=-1)
    if np.any(np.abs(total - 1.0) > SIMPLEX_ATOL):
        raise DomainError(f"must sum to 1 within {SIMPLEX_ATOL}; got sum {total}",
                          field="probabilities")
    out = np.zeros(q.shape[:-1])
    for idx, mu in zip(ns._idx, ns.mu):
        qn = q[..., idx]
        out += mu * _xlogx(qn).sum(axis=-1)
        if mu < 1.0:
            qtot = qn.sum(axis=-1)
            out += (1.0 - mu) * _xlogx(qtot)
    return float(out) if out.ndim == 0 else out


def fenchel_gap(ns: NestStructure, v) -> float | np.ndarray:
    """|E(v) + E*(grad E(v)) - <grad E(v), v>|; zero in exact arithmetic."""
    v = check_array(v, ns.n, "utilities")
    q = choice_probabilities(ns, v)
    gap = surplus(ns, v) + conjugate(ns, q) - (q * v).sum(axis=-1)
    return abs(float(gap)) if np.ndim(gap) == 0 else np.abs(gap)


def smoothness_moduli(ns: NestStructure) -> SmoothnessModuli:
    """Smoothness of the surplus and strong convexity of its conjugate."""
    beta = ns.min_mu
    return SmoothnessModuli(
        smoothness=1.0 / beta,
        strong_convexity=beta,
        gnl_bound=2.0 / beta - 1.0,
    )
