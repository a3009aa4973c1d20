"""Every public entry point turns junk input into a MarketclearError.

The README promises that every error the package raises on bad input
subclasses MarketclearError. Each entry point below takes one junk
value in place of one argument, either whole or as one entry of an
otherwise valid vector; any other exception fails the test.
"""

import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import marketclear as mc
from marketclear import specio, verify
from marketclear.nested_logit import real

from conftest import SPEC_DIR

MARKET = specio.load_market(str(SPEC_DIR / "market_n6.json"))
CONSUMER = MARKET.consumers[0]
NESTS = CONSUMER.nests
SUPPLIER = MARKET.suppliers[0]
N = MARKET.n

# text, bools, None, dicts, NaN and infinities, and ragged lists; no integers,
# which generate_market would take as (possibly huge) counts
ENTRIES = st.one_of(
    st.text(max_size=4), st.binary(max_size=2), st.booleans(), st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, np.bool_(True)]),
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
}


@given(st.sampled_from(sorted(ENTRY_POINTS)), st.data())
@settings(max_examples=600, deadline=None)
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
