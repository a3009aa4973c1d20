"""Input rules and input errors: what the package accepts as a number and
as an integer, and how it reports what it refuses.

Every public entry point checks its arguments here once, with the rule
that fits: `real` for real-valued data, `integer` for counts, sizes,
seeds and indices, `require_finite` for the magnitude bound of market
data, and `check_array` for the price and utility arrays of the
evaluation functions. A refused input raises a MarketclearError
subclass whose message reads `<field>: <message>`; `real`, `integer`
and `require_finite` raise the class their caller names, so that a
solver option is a ConfigError and a sampler argument a DomainError
with the same wording. This module imports no other module of the
package.
"""

from __future__ import annotations

import numpy as np

# Largest admissible magnitude of a market datum (`require_finite`). The
# kernel's largest products are gamma * (y - y_nat)^2 and y * p, with
# |y| <= B and prices of order c + 2 gamma (count - y_nat), that is B^2,
# and count * (a - p) / mu with mu > MU_MIN: at most a few B^3 / MU_MIN,
# 1e156 for B = 1e50. TER and z therefore stay finite, far below the
# float maximum 1.8e308, even summed over any market that fits in memory.
MAX_MAGNITUDE = 1e50

# Smallest admissible adjustment weight gamma: 1 / gamma enters the
# smoothness constant, which a subnormal gamma makes infinite.
GAMMA_MIN = 1.0 / MAX_MAGNITUDE

# Codes of the input rules, shared by the errors below and spec files.
CODE_MALFORMED = "malformed"
CODE_PARTITION = "partition"
CODE_MU_RANGE = "mu-range"
CODE_GAMMA = "gamma"
CODE_BOUNDS = "bounds"
CODE_NON_FINITE = "non-finite"


class MarketclearError(Exception):
    """Base of every error the package raises on bad input or an unsolvable market.

    `code` names the rule and `field` the offending attribute, indexed
    from 0 where it is an array (`y_nat[3]`, `mu[1]`, `nests[0]`).
    Messages count alternatives and nests from 1, as spec files do.
    """

    def __init__(self, message: str, code: str = CODE_MALFORMED, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.message = message
        self.code = code
        self.field = field


class StructureError(MarketclearError, ValueError):
    """Market data, nest structure or dimension invariants violated."""


class DomainError(MarketclearError, ValueError):
    """Input outside the mathematical domain of an operation."""


class ConfigError(MarketclearError, ValueError):
    """Invalid solver configuration."""


def require(ok, code: str, field: str, message: str, error=StructureError) -> None:
    """Raise error(message, code, field) unless `ok` holds.

    For an array `ok` the field is indexed at its first False entry.
    """
    if ok is True:  # a passed scalar check skips the array conversion
        return
    ok = np.asarray(ok)
    if not ok.all():
        raise error(
            message, code, f"{field}[{np.flatnonzero(~ok)[0]}]" if ok.ndim else field
        )


def real(value, field: str, shape: tuple | None = None, error=StructureError) -> np.ndarray:
    """value as a float array, of the given shape if asked. The one rule for
    real-valued data: each entry is a Python or numpy int or float, not a bool;
    text, None, a dict or a nested list is malformed, an `error` named as in
    `require`."""
    if not (isinstance(value, np.ndarray) and value.dtype.kind in "iuf"):  # those skip the scan
        try:
            value = np.array(value, dtype=object)
        except ValueError:  # arrays whose shapes differ past the first axis
            raise error("expected a number, got a ragged array", CODE_MALFORMED, field) from None
        for i, e in enumerate(value.flat):
            if isinstance(e, bool) or not isinstance(e, (int, float, np.integer, np.floating)):
                raise error(f"expected a number, got {type(e).__name__}",
                            CODE_MALFORMED, f"{field}[{i}]" if value.ndim else field)
    try:
        x = np.asarray(value, dtype=float)
    except OverflowError:  # a Python int beyond the float range
        raise error(f"magnitude exceeds {MAX_MAGNITUDE:g}", CODE_NON_FINITE, field) from None
    if shape is not None and x.shape != shape:
        raise error(f"expected {'a number' if shape == () else f'shape {shape}'}, "
                    f"got shape {x.shape}", CODE_MALFORMED, field)
    return x


def integer(value, field: str, least: int = 0, error=StructureError) -> int:
    """value as an int. The one rule for counts, sizes, seeds and indices: a Python
    or numpy integer, not a bool, and >= least; anything else is a malformed
    `error` at field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"must be an integer >= {least}, got {value!r}", CODE_MALFORMED, field)
    return int(value)


def require_finite(error=StructureError, /, **fields) -> None:
    """Raise a non-finite `error`, named as in `require`, at the first NaN
    or infinite entry, or at the first entry of magnitude above
    MAX_MAGNITUDE."""
    for name, value in fields.items():
        require(np.isfinite(value), CODE_NON_FINITE, name, "must be finite", error)
        require(np.abs(value) <= MAX_MAGNITUDE, CODE_NON_FINITE, name,
                f"magnitude exceeds {MAX_MAGNITUDE:g}", error)


def check_array(x, n: int, field: str, nonnegative: bool = False) -> np.ndarray:
    """x as floats with last dimension n, all finite, and >= 0 if asked."""
    x = real(x, field)
    if x.ndim == 0 or x.shape[-1] != n:
        raise StructureError(f"must have last dimension {n}", CODE_MALFORMED, field)
    if not np.isfinite(x).all():
        raise DomainError("must be finite", CODE_NON_FINITE, field)
    if nonnegative and np.any(x < 0):
        raise DomainError("must be nonnegative", field=field)
    return x
