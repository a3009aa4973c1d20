"""Market clearing for differentiated goods under nested logit demand.

Equilibrium prices are the minimizers of the market's convex total
expected revenue over nonnegative prices; the solvers are plain and
accelerated projected gradient schemes with per-iteration traces.
"""

from .market import (
    ConsumerType,
    EquilibriumResidual,
    Market,
    ProductivityCheck,
)
from .nested_logit import (
    DomainError,
    MarketclearError,
    NestStructure,
    SmoothnessModuli,
    StructureError,
    choice_probabilities,
    conjugate,
    fenchel_gap,
    smoothness_moduli,
    surplus,
)
from .sampling import (
    empirical_error_correlation,
    empirical_error_covariance,
    monte_carlo_choice_frequencies,
    positive_stable,
    sample_nested_errors,
    standard_gumbel,
)
from .solvers import (
    ConfigError,
    DivergedError,
    RateFitError,
    SolverConfig,
    Trace,
    UnproductiveMarketError,
    fit_rate,
    gamma_next,
    reference_solve,
    solve,
)
from .supply import Supplier, best_response, profit, total_cost

__all__ = [
    "ConsumerType",
    "EquilibriumResidual",
    "Market",
    "ProductivityCheck",
    "DomainError",
    "MarketclearError",
    "NestStructure",
    "SmoothnessModuli",
    "StructureError",
    "choice_probabilities",
    "conjugate",
    "fenchel_gap",
    "smoothness_moduli",
    "surplus",
    "empirical_error_correlation",
    "empirical_error_covariance",
    "monte_carlo_choice_frequencies",
    "positive_stable",
    "sample_nested_errors",
    "standard_gumbel",
    "ConfigError",
    "DivergedError",
    "RateFitError",
    "SolverConfig",
    "Trace",
    "UnproductiveMarketError",
    "fit_rate",
    "gamma_next",
    "reference_solve",
    "solve",
    "Supplier",
    "best_response",
    "profit",
    "total_cost",
]

__version__ = "0.1.0"
