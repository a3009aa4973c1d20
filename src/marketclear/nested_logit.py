"""Nested logit core: surplus, choice probabilities, and conjugate entropy.

The surplus of a utility vector v under a nest partition with scale
parameters mu is

    E(v) = ln sum_l ( sum_{i in N_l} exp(v_i / mu_l) )^{mu_l},

its gradient is the vector of choice probabilities, and its convex
conjugate is the generalized entropy

    E*(q) = sum_l mu_l sum_{i in N_l} q_i ln q_i
          + sum_l (1 - mu_l) Q_l ln Q_l,       Q_l = sum_{i in N_l} q_i.

Everything is evaluated through per-nest log-sum-exp (the raw formula
overflows for moderate v / mu), so values are safe for |v_i| <= 700.
All functions accept batched utilities of shape (..., n) and operate on
the last axis.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

# Smallest admissible scale parameter: below this, exp(v/mu) is
# numerically meaningless even in log space.
MU_MIN = 1e-6

# Largest admissible magnitude of a market datum (`require_finite`). The
# kernel's largest products are gamma * (y - y_nat)^2 and y * p, with
# |y| <= B and prices of order c + 2 gamma (count - y_nat), that is B^2,
# and count * (a - p) / mu with mu > MU_MIN: at most a few B^3 / MU_MIN,
# 1e156 for B = 1e50. TER and z therefore stay finite, far below the
# float maximum 1.8e308, even summed over any market that fits in memory.
MAX_MAGNITUDE = 1e50

# Tolerance for the simplex membership test in `conjugate`.
SIMPLEX_ATOL = 1e-8


# Codes of the market-data rules, shared by StructureError and spec files.
CODE_MALFORMED = "malformed"
CODE_PARTITION = "partition"
CODE_MU_RANGE = "mu-range"
CODE_GAMMA = "gamma"
CODE_BOUNDS = "bounds"
CODE_NON_FINITE = "non-finite"


class MarketclearError(Exception):
    """Base of every error the package raises on bad input or an unsolvable market."""


class StructureError(MarketclearError, ValueError):
    """Market data, nest structure or dimension invariants violated.

    `code` names the rule and `field` the offending attribute, indexed
    from 0 where it is an array (`y_nat[3]`, `mu[1]`, `nests[0]`).
    Messages count alternatives and nests from 1, as spec files do.
    """

    def __init__(self, message: str, code: str = CODE_MALFORMED, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.message = message
        self.code = code
        self.field = field


class DomainError(MarketclearError, ValueError):
    """Input outside the mathematical domain of an operation."""


def require(ok, code: str, field: str, message: str) -> None:
    """Raise StructureError(message, code, field) unless `ok` holds.

    For an array `ok` the field is indexed at its first False entry.
    """
    ok = np.asarray(ok)
    if not ok.all():
        raise StructureError(
            message, code, f"{field}[{np.flatnonzero(~ok)[0]}]" if ok.ndim else field
        )


def require_finite(**fields) -> None:
    """Raise a non-finite StructureError at the first NaN or infinite
    entry, or at the first entry of magnitude above MAX_MAGNITUDE."""
    for name, value in fields.items():
        require(np.isfinite(value), CODE_NON_FINITE, name, "must be finite")
        require(np.abs(value) <= MAX_MAGNITUDE, CODE_NON_FINITE, name,
                f"magnitude exceeds {MAX_MAGNITUDE:g}")


def check_array(x, n: int, what: str, nonnegative: bool = False) -> np.ndarray:
    """x as floats with last dimension n, all finite, and >= 0 if asked."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != n:
        raise StructureError(f"{what} must have last dimension {n}")
    if not np.isfinite(x).all():
        raise DomainError(f"{what} must be finite")
    if nonnegative and np.any(x < 0):
        raise DomainError(f"{what} must be nonnegative")
    return x


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
        nests = []
        for l, nest in enumerate(self.nests):
            try:
                nests.append(tuple(sorted(operator.index(i) for i in nest)))
            except TypeError:
                raise StructureError(f"members must be integer indices, got {nest!r}",
                                     CODE_MALFORMED, f"nests[{l}]") from None
        object.__setattr__(self, "nests", tuple(nests))
        object.__setattr__(self, "mu", tuple(float(m) for m in self.mu))
        require(self.n >= 1, CODE_MALFORMED, "n", f"need at least one alternative, got {self.n}")
        require(len(self.nests) == len(self.mu), CODE_MALFORMED, "mu",
                f"{len(self.nests)} nests but {len(self.mu)} scale parameters")
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
        return cls(n, (tuple(range(n)),), (mu,))

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
    # stable log-sum-exp along the last axis; inputs are always finite
    # here, so the max subtraction never produces nan
    m = x.max(axis=-1)
    return m + np.log(np.exp(x - m[..., None]).sum(axis=-1))


def _inclusive_values(ns: NestStructure, v: np.ndarray) -> np.ndarray:
    """Per-nest log-attractiveness mu_l * ln sum_{i in N_l} exp(v_i / mu_l)."""
    iv = np.empty(v.shape[:-1] + (ns.n_nests,))
    for l, (idx, mu) in enumerate(zip(ns._idx, ns.mu)):
        iv[..., l] = mu * _logsumexp(v[..., idx] / mu)
    return iv


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x elementwise for x >= 0, with the limit 0 ln 0 = 0."""
    pos = x > 0
    return np.where(pos, x * np.log(np.where(pos, x, 1.0)), 0.0)


def surplus(ns: NestStructure, v) -> float | np.ndarray:
    """Expected maximum utility E(v); shape (...,) for v of shape (..., n)."""
    v = check_array(v, ns.n, "utilities")
    out = _logsumexp(_inclusive_values(ns, v))
    return float(out) if out.ndim == 0 else out


def choice_probabilities(ns: NestStructure, v) -> np.ndarray:
    """Probability that each alternative attains the maximum utility.

    Equals the gradient of `surplus` at v. Computed in log space as the
    product of the nest probability (softmax of inclusive values) and
    the within-nest probability (softmax of v / mu inside the nest).
    """
    v = check_array(v, ns.n, "utilities")
    iv = _inclusive_values(ns, v)
    log_denom = _logsumexp(iv)
    q = np.empty_like(v)
    for l, (idx, mu) in enumerate(zip(ns._idx, ns.mu)):
        w = v[..., idx] / mu
        log_nest = iv[..., l] - log_denom
        log_within = w - (iv[..., l] / mu)[..., None]
        q[..., idx] = np.exp(log_nest[..., None] + log_within)
    return q


def conjugate(ns: NestStructure, q) -> float | np.ndarray:
    """Generalized entropy E*(q) on the simplex; always <= 0.

    Entries with q_i = 0 contribute zero through the limit x ln x -> 0;
    no clamping is applied.
    """
    q = check_array(q, ns.n, "probabilities")
    if np.any(q < -1e-12):
        raise DomainError("probabilities must be nonnegative")
    q = np.maximum(q, 0.0)
    total = q.sum(axis=-1)
    if np.any(np.abs(total - 1.0) > SIMPLEX_ATOL):
        raise DomainError(
            f"probabilities must sum to 1 within {SIMPLEX_ATOL}; got sum {total}"
        )
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
