"""Exact Monte Carlo sampler for nested logit error vectors.

A joint draw uses the positive-stable mixture: inside a nest with scale
mu < 1, draw one S with Laplace transform E[exp(-t S)] = exp(-t^mu) and
set

    eps_i = mu * (G_i + ln S),    G_i iid standard Gumbel.

Conditional on S the coordinates are independent Gumbels, and
integrating the product of their CDFs over S reproduces the nest block
exp(-(sum_i exp(-z_i / mu))^mu) of the joint CDF. Nests with mu = 1 are
plain iid Gumbel. Marginals are standard Gumbel either way.

Determinism contract: the base generator is numpy's PCG64
(``np.random.default_rng(seed)``); uniform variates are k * 2^-53 with
k drawn from [1, 2^53), so both endpoints of (0, 1) are excluded; draws
are consumed nest by nest (the nest's Gumbels first, then the uniforms
of its stable variate, phi's before W's) in fixed-size batches.
Identical (instance, seed, samples) therefore yield bit-identical
outputs. ln S is computed in logs (``_log_stable``), not as the log of
S, which keeps it finite for small mu, where S itself under- or
overflows; on the same uniforms it is within a few ulps of the log of S
(under 1e-14 on market_n6.json). Exact floating-point
argmax ties (a measure-zero event) resolve to the lowest index, as
np.argmax resolves them: ``_argmax_counts`` counts a batch by row passes
and falls back to np.argmax on any batch with a tie or a NaN.

Workspace contract: ``_draws`` is the one draw loop. For a list of block
sizes it allocates, once, the goods-major (n, max size) error block, the
stable-uniform buffer and the scratch of ``_log_stable``, and writes
every block into them, so the next block overwrites each view it
yielded. A block of m draws reads each nest's (m, size) sample-major
array of Gumbel uniforms, writes its column j, scaled and turned into
Gumbels, into the row of the nest's j-th good, and adds ln S and scales
by mu there: the element operations of a sample-major draw, so the
errors keep every bit. ``_batches`` runs it over the BATCH_SIZE blocks
of a seeded stream and yields each as its (m, n) transpose; every
consumer must reduce a batch before it draws the next, as
``monte_carlo_choice_frequencies`` and ``empirical_error_covariance``
do, both with contiguous passes over the goods-major rows; the first
moments are numpy's pairwise sum of each good's row, not the
element-order column sums of a sample-major block. Public
``sample_nested_errors`` draws one block and returns a fresh (size, n)
copy of it.
"""

from __future__ import annotations

import numpy as np

from .nested_logit import NestStructure, choice_probabilities
from .rules import DomainError, check_array, integer, real

# Batch size for streaming sample generation. Pinned: changing it
# changes the deterministic sample streams.
BATCH_SIZE = 1 << 16

_TWO_53 = 1 << 53


def _size(size):
    """A numpy size argument, None or a count or a tuple of counts, by the
    package's rule of what an integer is."""
    if size is None:
        return None
    if isinstance(size, tuple):
        return tuple(integer(k, f"size[{i}]", 0, DomainError) for i, k in enumerate(size))
    return integer(size, "size", 0, DomainError)


def _open_uniform(rng: np.random.Generator, size=None, out=None) -> np.ndarray:
    """Uniform on the open interval (0, 1): k / 2^53, k in [1, 2^53),
    written into ``out`` when given."""
    return np.multiply(rng.integers(1, _TWO_53, size=size), 2.0**-53, out=out)


def _gumbel_inplace(u: np.ndarray) -> np.ndarray:
    """Turn open uniforms into standard Gumbels in place: -ln(-ln u)."""
    np.log(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    return np.negative(u, out=u)


def standard_gumbel(rng: np.random.Generator, size=None):
    """Standard Gumbel(0, 1) via the inverse CDF -ln(-ln U)."""
    size = _size(size)
    g = _gumbel_inplace(_open_uniform(rng, 1 if size is None else size))
    return g[0] if size is None else g


def _log_sin(x: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """ln sin x for x in (0, pi), in place, from t = tan(x / 2); ``t2``,
    shaped like x, is overwritten with 1 + t^2.

    sin x = 2t / (1 + t^2). numpy evaluates float64 ``tan`` with a SIMD
    kernel and ``sin`` with a scalar one, so the tangent route is the
    cheaper way to the same number (README's library section gives the
    timing). On the 2.8e6 arguments alpha * pi * u, with u = k * 2^-53
    and (2^53 - k) * 2^-53 for k = 1 .. 200,000 and seven alpha in
    [0.05, 1], the quotient stays within 2 ulp of ``np.sin``. t never
    overflows: x / 2 < pi / 2 in floats, so t stays below about 6e15 and
    t^2 below 4e31.
    """
    x *= 0.5
    np.tan(x, out=x)
    t2 = np.square(x, out=t2)
    t2 += 1.0
    x /= t2
    x *= 2.0
    return np.log(x, out=x)


def _log_stable(alpha: float, u_phi: np.ndarray, u_w: np.ndarray,
                scratch=None) -> np.ndarray:
    """ln S of the Kanter formula (see ``positive_stable``), in logs.

    With phi = pi * u_phi and W = -ln u_w,

        ln S = ln sin(alpha phi) - ln sin(phi) / alpha
               + ((1 - alpha) / alpha) (ln sin((1 - alpha) phi) - ln W).

    No power is taken, so ln S stays finite where S itself under- or
    overflows (alpha near 0). Both uniform arrays are overwritten, and so
    are the three arrays of ``scratch`` (fresh ones when None), each
    shaped like u_phi; ln S is returned in the first of them.
    """
    a_phi, b_phi, t2 = (np.empty_like(u_phi) for _ in range(3)) if scratch is None else scratch
    phi = u_phi
    phi *= np.pi
    ln_s = _log_sin(np.multiply(alpha, phi, out=a_phi), t2)
    tail = _log_sin(np.multiply(1.0 - alpha, phi, out=b_phi), t2)
    tail += _gumbel_inplace(u_w)  # the Gumbel -ln(-ln u_w) is -ln W
    tail *= (1.0 - alpha) / alpha
    ln_s += tail
    ln_sin_phi = _log_sin(phi, t2)
    ln_sin_phi /= alpha
    ln_s -= ln_sin_phi
    return ln_s


def positive_stable(alpha: float, rng: np.random.Generator, size=None):
    """Positive stable variate with Laplace transform exp(-t^alpha).

    Kanter / Chambers-Mallows-Stuck construction: with phi ~ U(0, pi)
    and W ~ Exp(1),

        S = sin(alpha phi) / sin(phi)^(1/alpha)
            * (sin((1-alpha) phi) / W)^((1-alpha)/alpha),

    evaluated as exp of ``_log_stable``. The distribution has no closed
    density; it is validated through its Laplace transform.
    """
    alpha = float(real(alpha, "alpha", (), DomainError))
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"stable exponent must lie in (0, 1), got {alpha}")
    size = _size(size)
    shape = 1 if size is None else size
    s = np.exp(_log_stable(alpha, _open_uniform(rng, shape), _open_uniform(rng, shape)))
    return s[0] if size is None else s


def _draws(ns: NestStructure, rng: np.random.Generator, sizes: list[int]):
    """m exact joint draws for each m in sizes, each an (n, m) view of one
    goods-major workspace that the next block overwrites (see the
    workspace contract above)."""
    rows = max(sizes)
    eps = np.empty((ns.n, rows))  # good i's errors in row i
    uniform = np.empty(2 * rows)  # phi's uniforms, then W's
    scratch = np.empty((3, rows))  # for _log_stable
    for m in sizes:
        block = eps[:, :m]
        for nest, mu in zip(ns.nests, ns.mu):
            # the stream's order: the nest's Gumbel uniforms as an (m, size)
            # sample-major block, then its stable variate's
            k = rng.integers(1, _TWO_53, size=(m, len(nest)))
            if mu != 1.0:
                u = _open_uniform(rng, 2 * m, out=uniform[:2 * m])
                ln_s = _log_stable(mu, u[:m], u[m:], scratch[:, :m])
            for j, i in enumerate(nest):
                row = _gumbel_inplace(np.multiply(k[:, j], 2.0**-53, out=block[i]))
                if mu != 1.0:
                    row += ln_s
                    row *= mu
        del k  # not held while the caller reduces the block
        yield block


def sample_nested_errors(ns: NestStructure, rng: np.random.Generator, size: int | None = None):
    """Exact draws from the nested logit joint; shape (size, n) or (n,)."""
    m = 1 if size is None else integer(size, "size", 0, DomainError)
    eps = np.ascontiguousarray(next(_draws(ns, rng, [m])).T)
    return eps[0] if size is None else eps


def _batches(ns: NestStructure, samples: int, seed: int):
    """Exact joint draws from one seeded stream, in blocks of BATCH_SIZE rows,
    each an (m, n) view written over the last."""
    sizes = [min(BATCH_SIZE, samples - done) for done in range(0, samples, BATCH_SIZE)]
    for block in _draws(ns, np.random.default_rng(seed), sizes):
        yield block.T


def _argmax_counts(e: np.ndarray) -> np.ndarray:
    """How often each good wins argmax over the columns of the goods-major
    block e, shape (n, m): np.bincount(np.argmax(e, axis=0), minlength=n).

    Each good's count is one pass over its row. Without ties and NaNs
    exactly one good attains each column's maximum, so the counts sum to
    m; otherwise (a tie counts twice, a NaN column never, and the two can
    cancel in the sum) the block is counted by argmax, which takes the
    first maximum and the first NaN.
    """
    top = np.maximum.reduce(e, axis=0)
    counts = np.array([np.count_nonzero(row == top) for row in e])
    if counts.sum() != e.shape[1] or np.isnan(top).any():
        return np.bincount(np.argmax(e, axis=0), minlength=len(e))
    return counts


def monte_carlo_choice_frequencies(ns: NestStructure, v, samples: int, seed: int) -> np.ndarray:
    """Empirical frequency of argmax_i (v_i + eps_i) over exact joint draws."""
    samples = integer(samples, "samples", 1, DomainError)
    seed = integer(seed, "seed", 0, DomainError)
    v = check_array(v, ns.n, "utilities")
    if v.ndim != 1:
        raise DomainError(f"must have shape ({ns.n},)", field="utilities")
    counts = np.zeros(ns.n, dtype=np.int64)
    for eps in _batches(ns, samples, seed):
        e = eps.T
        e += v[:, None]
        counts += _argmax_counts(e)
    return counts / samples


def empirical_error_covariance(ns: NestStructure, samples: int, seed: int) -> np.ndarray:
    """Sample covariance matrix of the error vector over exact draws."""
    samples = integer(samples, "samples", 2, DomainError)
    seed = integer(seed, "seed", 0, DomainError)
    s1 = np.zeros(ns.n)
    s2 = np.zeros((ns.n, ns.n))
    for eps in _batches(ns, samples, seed):
        e = eps.T
        # each good's row is contiguous, so numpy sums it pairwise: the
        # error of a batch's sum grows with log m, not m (Higham 2002, §4.2)
        s1 += e.sum(axis=1)
        s2 += e @ e.T
    mean = s1 / samples
    return s2 / samples - np.outer(mean, mean)


def correlation_from_covariance(cov: np.ndarray) -> np.ndarray:
    """Pearson correlation matrix of a covariance matrix, unit diagonal."""
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    return corr


def empirical_error_correlation(ns: NestStructure, samples: int, seed: int) -> np.ndarray:
    """Sample Pearson correlation matrix of the error vector."""
    return correlation_from_covariance(empirical_error_covariance(ns, samples, seed))


def monte_carlo_max_error(ns: NestStructure, v, samples: int, seed: int) -> float:
    """Sup-norm gap between empirical frequencies and the closed form."""
    freq = monte_carlo_choice_frequencies(ns, v, samples, seed)
    return float(np.max(np.abs(freq - choice_probabilities(ns, v))))
