"""Every public entry point turns junk input into a MarketclearError.

The README promises that every error the package raises on bad input
subclasses MarketclearError. Each entry point below takes one junk
value in place of one argument, either whole or as one entry of an
otherwise valid vector; any other exception fails the test. Every count,
size, seed and index argument is also held to the one integer rule
with its field named.
"""

import copy
import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import marketclear as mc
from marketclear import specio, verify
from marketclear.rules import real

from conftest import SPEC_DIR

MARKET = specio.load_market(str(SPEC_DIR / "market_n6.json"))
CONSUMER = MARKET.consumers[0]
NESTS = CONSUMER.nests
SUPPLIER = MARKET.suppliers[0]
N = MARKET.n
TRACE = mc.solve(MARKET, mc.SolverConfig(max_iters=60))

# text, bools, None, dicts, NaN, infinities, finite floats and ragged lists; no
# integers, which generate_market would take as (possibly huge) counts
ENTRIES = st.one_of(
    st.text(max_size=4), st.binary(max_size=2), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, np.bool_(True), 2.5, 3.0]),
    st.dictionaries(st.text(max_size=2), st.floats(), max_size=2),
    st.lists(st.floats(-2.0, 2.0), max_size=3),
)
RAGGED = st.lists(st.one_of(st.floats(-2.0, 2.0), st.lists(st.floats(-2.0, 2.0), max_size=2)),
                  min_size=1, max_size=4)


@st.composite
def junk(draw, n=None):
    """A junk value, or a vector of n numbers with one junk entry."""
    if n is None or draw(st.booleans()):
        return draw(st.one_of(ENTRIES, RAGGED))
    vector = [0.5] * n
    vector[draw(st.integers(0, n - 1))] = draw(ENTRIES)
    return vector


def _supplier(field):
    return lambda x: dataclasses.replace(SUPPLIER, **{field: x})


# name -> (call with the junk value, length of a vector argument or None)
ENTRY_POINTS = {
    "Market.ter": (MARKET.ter, N),
    "Market.ter_gradient": (MARKET.ter_gradient, N),
    "Market.value_and_grad": (MARKET.value_and_grad, N),
    "Market.equilibrium_residual": (MARKET.equilibrium_residual, N),
    "surplus": (lambda x: mc.surplus(NESTS, x), N),
    "choice_probabilities": (lambda x: mc.choice_probabilities(NESTS, x), N),
    "conjugate": (lambda x: mc.conjugate(NESTS, x), N),
    "fenchel_gap": (lambda x: mc.fenchel_gap(NESTS, x), N),
    "best_response": (lambda x: mc.best_response(SUPPLIER, x), N),
    "profit": (lambda x: mc.profit(SUPPLIER, x), N),
    "ConsumerType.count": (lambda x: mc.ConsumerType(count=x, a=CONSUMER.a, nests=NESTS), None),
    "ConsumerType.a": (lambda x: mc.ConsumerType(count=CONSUMER.count, a=x, nests=NESTS), N),
    "NestStructure.mu": (lambda x: mc.NestStructure(N, NESTS.nests, x), NESTS.n_nests),
    "Supplier.gamma": (_supplier("gamma"), None),
    **{f"Supplier.{field}": (_supplier(field), N) for field in ("y_nat", "lo", "hi", "c", "d")},
    "run_suites.names": (lambda x: verify.run_suites([x], MARKET, 10, 0), None),
    "run_suites.samples": (lambda x: verify.run_suites(("duality",), MARKET, x, 0), None),
    "run_suites.seed": (lambda x: verify.run_suites(("duality",), MARKET, 10, x), None),
    **{f"generate_market.{i}": (lambda x, i=i: specio.generate_market(
        *(x if j == i else 2 for j in range(3)), seed=0), None) for i in range(3)},
    "generate_market.seed": (lambda x: specio.generate_market(2, 1, 1, seed=x), None),
    "batch_market.slot": (specio.batch_market, None),
    "NestStructure.n": (lambda x: mc.NestStructure(x, NESTS.nests, NESTS.mu), None),
    "NestStructure.nests": (lambda x: mc.NestStructure(N, x, NESTS.mu), NESTS.n_nests),
    "Market.n": (lambda x: mc.Market(x, MARKET.consumers, MARKET.suppliers), None),
    "SolverConfig.max_iters": (lambda x: mc.SolverConfig(max_iters=x), None),
    **{f"SolverConfig.{field}": (lambda x, field=field: mc.solve(
        MARKET, mc.SolverConfig(max_iters=1, **{field: x})), None) for field in ("step", "tol")},
    "monte_carlo_choice_frequencies.samples": (
        lambda x: mc.monte_carlo_choice_frequencies(NESTS, CONSUMER.a, x, 0), None),
    "monte_carlo_choice_frequencies.seed": (
        lambda x: mc.monte_carlo_choice_frequencies(NESTS, CONSUMER.a, 10, x), None),
    "empirical_error_covariance.samples": (
        lambda x: mc.empirical_error_covariance(NESTS, x, 0), None),
    "sample_nested_errors.size": (
        lambda x: mc.sample_nested_errors(NESTS, np.random.default_rng(0), x), None),
    "fit_rate.ter_star": (lambda x: mc.fit_rate(TRACE, x), None),
    "standard_gumbel.size": (lambda x: mc.standard_gumbel(np.random.default_rng(0), x), None),
    "positive_stable.alpha": (lambda x: mc.positive_stable(x, np.random.default_rng(0)), None),
    "positive_stable.size": (
        lambda x: mc.positive_stable(0.5, np.random.default_rng(0), x), None),
}


@given(st.sampled_from(sorted(ENTRY_POINTS)), st.data())
@settings(max_examples=900, deadline=None)
def test_junk_raises_only_marketclear_errors(name, data):
    call, n = ENTRY_POINTS[name]
    try:
        call(data.draw(junk(n)))
    except mc.MarketclearError:
        pass


@pytest.mark.parametrize("call, field", [(lambda x: real(x, "a"), "a"), (MARKET.ter, "prices")])
def test_ragged_numpy_arrays_are_malformed(call, field):
    # numpy cannot build an object array of arrays whose shapes differ
    # past the first axis; that is malformed input like any ragged list
    with pytest.raises(mc.StructureError) as err:
        call([np.zeros(N), np.zeros((N, 3))])
    assert err.value.code == "malformed" and err.value.field == field


SPEC3 = specio.generate_market(3, 1, 1, seed=0)
MARKET3 = specio.market_from_document(SPEC3)


def _spec(n=3, members=3):
    """market_from_document on a three-good spec with the given $.n and
    last nest member (1-based)."""
    doc = copy.deepcopy(SPEC3)
    doc["n"] = n
    doc["consumers"][0]["nests"] = [{"members": [1, 2], "mu": 0.5},
                                    {"members": [members], "mu": 1.0}]
    return specio.market_from_document(doc)

# field -> (call with one integer argument, the error class, the message prefix
# that names the field); every call accepts np.int64(3)
INTEGER_FIELDS = {
    "NestStructure.n": (lambda x: mc.NestStructure(x, ((0, 1), (2,)), (0.5, 1.0)),
                        mc.StructureError, "n: "),
    "NestStructure.nests": (lambda x: mc.NestStructure(4, ((0, 1, 2), (x,)), (0.5, 1.0)),
                            mc.StructureError, "nests[1]: "),
    "Market.n": (lambda x: mc.Market(x, MARKET3.consumers, MARKET3.suppliers),
                 mc.StructureError, "n: "),
    "SolverConfig.max_iters": (lambda x: mc.SolverConfig(max_iters=x), mc.ConfigError,
                               "max_iters: "),
    "run_suites.samples": (lambda x: verify.run_suites("duality", MARKET3, x, 0),
                           mc.ConfigError, "samples: "),
    "run_suites.seed": (lambda x: verify.run_suites("duality", MARKET3, 10, x),
                        mc.ConfigError, "seed: "),
    "monte_carlo_choice_frequencies.samples": (
        lambda x: mc.monte_carlo_choice_frequencies(NESTS, CONSUMER.a, x, 0),
        mc.DomainError, "samples: "),
    "monte_carlo_choice_frequencies.seed": (
        lambda x: mc.monte_carlo_choice_frequencies(NESTS, CONSUMER.a, 10, x),
        mc.DomainError, "seed: "),
    "empirical_error_covariance.samples": (
        lambda x: mc.empirical_error_covariance(NESTS, x, 0), mc.DomainError, "samples: "),
    "empirical_error_covariance.seed": (
        lambda x: mc.empirical_error_covariance(NESTS, 10, x), mc.DomainError, "seed: "),
    "sample_nested_errors.size": (
        lambda x: mc.sample_nested_errors(NESTS, np.random.default_rng(0), x),
        mc.DomainError, "size: "),
    "standard_gumbel.size": (lambda x: mc.standard_gumbel(np.random.default_rng(0), x),
                             mc.DomainError, "size: "),
    "positive_stable.size": (lambda x: mc.positive_stable(0.5, np.random.default_rng(0), x),
                             mc.DomainError, "size: "),
    **{f"generate_market.{field}": (
        lambda x, i=i: specio.generate_market(*(x if j == i else 2 for j in range(4))),
        mc.StructureError, f"{field}: ") for i, field in enumerate(
            ("n", "n_consumers", "n_suppliers", "seed"))},
    "batch_market.slot": (specio.batch_market, mc.StructureError, "slot: "),
    "spec.n": (lambda x: _spec(n=x), specio.SpecError, "$.n: "),
    "spec.members": (lambda x: _spec(members=x), specio.SpecError,
                     "$.consumers[0].nests[1].members[0]: "),
}


@pytest.mark.parametrize("name", sorted(INTEGER_FIELDS))
def test_integer_fields_follow_one_rule(name):
    call, error, prefix = INTEGER_FIELDS[name]
    # size=None is sample_nested_errors' single draw
    for value in (2.5, 3.0, True, np.True_, "3") + (() if name.endswith("size") else (None,)):
        with pytest.raises(error) as err:
            call(value)
        message = str(err.value)
        assert message.startswith(prefix + "must be an integer >= "), message
        assert f", got {value!r}" in message, message
        assert err.value.code == "malformed"
        if error is not specio.SpecError:  # a SpecError names its field by its path
            assert err.value.field == prefix[:-2]
    call(np.int64(3))
