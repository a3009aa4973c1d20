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
are consumed nest by nest (Gumbels first, then the nest's stable
variate) in fixed-size batches. Identical (instance, seed, samples)
therefore yield bit-identical outputs. Exact floating-point argmax ties
(a measure-zero event) resolve to the lowest index via np.argmax.
"""

from __future__ import annotations

import numpy as np

from .nested_logit import DomainError, NestStructure, check_array, choice_probabilities

# Batch size for streaming sample generation. Pinned: changing it
# changes the deterministic sample streams.
BATCH_SIZE = 1 << 16

_TWO_53 = 1 << 53


def _open_uniform(rng: np.random.Generator, size=None) -> np.ndarray:
    """Uniform on the open interval (0, 1): k / 2^53, k in [1, 2^53)."""
    return rng.integers(1, _TWO_53, size=size) * 2.0**-53


def standard_gumbel(rng: np.random.Generator, size=None):
    """Standard Gumbel(0, 1) via the inverse CDF -ln(-ln U)."""
    return -np.log(-np.log(_open_uniform(rng, size)))


def positive_stable(alpha: float, rng: np.random.Generator, size=None):
    """Positive stable variate with Laplace transform exp(-t^alpha).

    Kanter / Chambers-Mallows-Stuck construction: with phi ~ U(0, pi)
    and W ~ Exp(1),

        S = sin(alpha phi) / sin(phi)^(1/alpha)
            * (sin((1-alpha) phi) / W)^((1-alpha)/alpha).

    The distribution has no closed density; it is validated through its
    Laplace transform.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"stable exponent must lie in (0, 1), got {alpha}")
    phi = np.pi * _open_uniform(rng, size)
    w = -np.log(_open_uniform(rng, size))
    return (
        np.sin(alpha * phi)
        / np.sin(phi) ** (1.0 / alpha)
        * (np.sin((1.0 - alpha) * phi) / w) ** ((1.0 - alpha) / alpha)
    )


def sample_nested_errors(ns: NestStructure, rng: np.random.Generator, size: int | None = None):
    """Exact draws from the nested logit joint; shape (size, n) or (n,)."""
    m = 1 if size is None else int(size)
    eps = np.empty((m, ns.n))
    for nest, mu in zip(ns.nests, ns.mu):
        idx = list(nest)
        g = standard_gumbel(rng, (m, len(idx)))
        if mu == 1.0:
            eps[:, idx] = g
        else:
            s = positive_stable(mu, rng, m)
            eps[:, idx] = mu * (g + np.log(s)[:, None])
    return eps[0] if size is None else eps


def _batches(ns: NestStructure, samples: int, seed: int):
    """Exact joint draws from one seeded stream, in blocks of BATCH_SIZE rows."""
    rng = np.random.default_rng(seed)
    for done in range(0, samples, BATCH_SIZE):
        yield sample_nested_errors(ns, rng, size=min(BATCH_SIZE, samples - done))


def monte_carlo_choice_frequencies(ns: NestStructure, v, samples: int, seed: int) -> np.ndarray:
    """Empirical frequency of argmax_i (v_i + eps_i) over exact joint draws."""
    if samples < 1:
        raise DomainError(f"need at least one sample, got {samples}")
    v = check_array(v, ns.n, "utilities")
    if v.ndim != 1:
        raise DomainError(f"utilities must have shape ({ns.n},)")
    counts = sum(np.bincount(np.argmax(v + eps, axis=1), minlength=ns.n)
                 for eps in _batches(ns, samples, seed))
    return counts / samples


def empirical_error_covariance(ns: NestStructure, samples: int, seed: int) -> np.ndarray:
    """Sample covariance matrix of the error vector over exact draws."""
    if samples < 2:
        raise DomainError(f"need at least two samples, got {samples}")
    s1 = np.zeros(ns.n)
    s2 = np.zeros((ns.n, ns.n))
    for eps in _batches(ns, samples, seed):
        s1 += eps.sum(axis=0)
        s2 += eps.T @ eps
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
