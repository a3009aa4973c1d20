import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from marketclear import (
    DomainError,
    NestStructure,
    StructureError,
    choice_probabilities,
    conjugate,
    fenchel_gap,
    smoothness_moduli,
    surplus,
)
from marketclear import specio
from marketclear.verify import fd_gradient

from conftest import assert_input_kept, random_instance

# 50-digit direct evaluations of the defining formulas, frozen.
SURPLUS_TWO_NEST = 1.5918821974050197946903764  # nests {1,2},{3,4}, mu=(.5,1), v=(1,0,.5,-1)
CONJUGATE_TWO_NEST = -0.8809558211772400288218886  # nests {1,2},{3}, mu=(.5,1), q=(.3,.3,.4)


@st.composite
def nest_structures(draw, max_n=12, max_nests=4, mu_min=0.2, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    n_nests = draw(st.integers(min_value=1, max_value=min(max_nests, n)))
    if n_nests > 1:
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=n_nests - 1,
                                   max_size=n_nests - 1)))
    else:
        cuts = []
    perm = draw(st.permutations(range(n)))
    bounds = [0, *cuts, n]
    nests = tuple(tuple(perm[a:b]) for a, b in zip(bounds, bounds[1:]))
    mu = tuple(
        draw(st.floats(min_value=mu_min, max_value=1.0, allow_nan=False))
        for _ in range(n_nests)
    )
    return NestStructure(n, nests, mu)


def utilities(n, bound=5.0):
    return st.lists(
        st.floats(min_value=-bound, max_value=bound, allow_nan=False),
        min_size=n, max_size=n,
    ).map(np.array)


class TestNestStructure:
    def test_partition_required(self):
        with pytest.raises(StructureError, match="not disjoint"):
            NestStructure(3, ((0, 1), (1, 2)), (0.5, 0.5))
        with pytest.raises(StructureError, match="missing"):
            NestStructure(3, ((0, 1),), (0.5,))
        with pytest.raises(StructureError):
            NestStructure(3, ((0, 1), ()), (0.5, 0.5))

    def test_mu_range(self):
        with pytest.raises(StructureError, match="mu out of range"):
            NestStructure(2, ((0, 1),), (1.5,))
        with pytest.raises(StructureError, match="mu out of range"):
            NestStructure(2, ((0, 1),), (0.0,))
        with pytest.raises(StructureError, match=r"mu out of range \(1e-06, 1\]: 1e-07"):
            NestStructure(2, ((0, 1),), (1e-7,))
        NestStructure(2, ((0, 1),), (1.0,))  # mu = 1 exactly is allowed

    @pytest.mark.parametrize("mu, where", [
        ((0.5, "0.5"), "mu[1]"), ((True, 0.5), "mu[0]"), ((0.5, None), "mu[1]"),
        ((0.5, [0.5, 1.0]), "mu[1]"), (0.5, "mu"), ((0.5,), "mu"),
    ])
    def test_mu_must_be_numbers(self, mu, where):
        with pytest.raises(StructureError) as err:
            NestStructure(3, ((0, 1), (2,)), mu)
        assert (err.value.code, err.value.field) == ("malformed", where)

    def test_index_bounds(self):
        with pytest.raises(StructureError):
            NestStructure(2, ((0, 2),), (0.5,))
        for nests in (((0, 1.7), (2,)), (("0", "1"), (2,))):  # int() would take both
            with pytest.raises(StructureError, match="must be an integer >= 0") as err:
                NestStructure(3, nests, (1.0, 1.0))
            assert (err.value.code, err.value.field) == ("malformed", "nests[0]")


class TestSurplus:
    def test_multinomial_log_sum(self):
        assert surplus(NestStructure.single(2), [0.0, 0.0]) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_translation_by_constant(self):
        ns = NestStructure(4, ((0, 1), (2, 3)), (0.5, 1.0))
        v = np.array([1.0, 0.0, 0.5, -1.0])
        assert surplus(ns, v + 5.0) - surplus(ns, v) == pytest.approx(5.0, abs=1e-10)

    def test_two_nest_value(self):
        ns = NestStructure(4, ((0, 1), (2, 3)), (0.5, 1.0))
        assert surplus(ns, [1.0, 0.0, 0.5, -1.0]) == pytest.approx(
            SURPLUS_TWO_NEST, abs=1e-12
        )

    def test_no_overflow_for_large_utilities(self):
        ns = NestStructure(3, ((0, 1), (2,)), (0.25, 1.0))
        v = np.array([700.0, 690.0, -700.0])
        value = surplus(ns, v)
        assert np.isfinite(value)
        assert value == pytest.approx(700.0, rel=1e-6)

    def test_rejects_nonfinite(self):
        ns = NestStructure.single(2)
        with pytest.raises(DomainError):
            surplus(ns, [np.inf, 0.0])

    @given(nest_structures(), st.floats(-10.0, 10.0, allow_nan=False), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_translation_identity(self, ns, c, seed):
        v = np.random.default_rng(seed).uniform(-5, 5, ns.n)
        assert surplus(ns, v + c) - surplus(ns, v) - c == pytest.approx(0.0, abs=1e-10)


class TestChoiceProbabilities:
    def test_uniform_under_symmetry(self):
        q = choice_probabilities(NestStructure.single(3), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(q, 1.0 / 3.0, atol=1e-14)

    def test_singleton_nests_are_binary_logit(self):
        for mu in (0.3, 0.8):
            ns = NestStructure(2, ((0,), (1,)), (mu, mu))
            np.testing.assert_allclose(
                choice_probabilities(ns, [0.0, 0.0]), 0.5, atol=1e-14
            )

    def test_matches_finite_differences(self):
        ns = NestStructure(3, ((0, 1), (2,)), (0.5, 1.0))
        v = np.array([1.0, 0.0, 0.5])
        q = choice_probabilities(ns, v)
        fd = fd_gradient(lambda x: surplus(ns, x), v)
        assert np.max(np.abs(q - fd)) / np.max(q) < 1e-8

    @given(nest_structures(), st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_gradient_identity_and_simplex(self, ns, seed):
        v = np.random.default_rng(seed).uniform(-5, 5, ns.n)
        q = choice_probabilities(ns, v)
        assert np.all(q >= 0)
        assert abs(q.sum() - 1.0) <= 1e-12
        fd = fd_gradient(lambda x: surplus(ns, x), v)
        assert np.max(np.abs(q - fd)) / np.max(q) < 1e-6

    @given(nest_structures(max_n=8, mu_min=0.5, min_n=2), st.integers(0, 2**31),
           st.floats(0.1, 2.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_own_utility(self, ns, seed, delta):
        # strictness of the probability needs a competing alternative;
        # with n = 1 the probability is identically one
        rng = np.random.default_rng(seed)
        v = rng.uniform(-3, 3, ns.n)
        i = int(rng.integers(0, ns.n))
        bumped = v.copy()
        bumped[i] += delta
        assert surplus(ns, bumped) > surplus(ns, v)
        assert choice_probabilities(ns, bumped)[i] > choice_probabilities(ns, v)[i]


def _last_axis_logsumexp(x):
    m = x.max(axis=-1)
    return m + np.log(np.exp(x - m[..., None]).sum(axis=-1))


def _last_axis_inclusive_values(ns, v):
    iv = np.empty(v.shape[:-1] + (ns.n_nests,))
    for l, (nest, mu) in enumerate(zip(ns.nests, ns.mu)):
        iv[..., l] = mu * _last_axis_logsumexp(v[..., list(nest)] / mu)
    return iv


def _last_axis_surplus(ns, v):
    return _last_axis_logsumexp(_last_axis_inclusive_values(ns, v))


def _last_axis_choice_probabilities(ns, v):
    # the same arithmetic in the same order as the goods-major code, with
    # each nest gathered as columns and reduced along the last axis
    iv = _last_axis_inclusive_values(ns, v)
    log_denom = _last_axis_logsumexp(iv)
    q = np.empty_like(v)
    for l, (nest, mu) in enumerate(zip(ns.nests, ns.mu)):
        idx = list(nest)
        w = v[..., idx] / mu
        log_nest = iv[..., l] - log_denom
        log_within = w - (iv[..., l] / mu)[..., None]
        q[..., idx] = np.exp(log_nest[..., None] + log_within)
    return q


def assert_same_bits_as_last_axis(ns, v):
    e, q = surplus(ns, v), choice_probabilities(ns, v)
    e_ref, q_ref = _last_axis_surplus(ns, v), _last_axis_choice_probabilities(ns, v)
    assert np.shape(e) == np.shape(e_ref) and np.array_equal(e, e_ref)
    assert q.shape == q_ref.shape and np.array_equal(q, q_ref)


LAYOUT_STRUCTURES = [
    NestStructure.single(1),
    NestStructure(4, ((0, 1), (2, 3)), (0.5, 1.0)),
    NestStructure.single(19, 0.3),  # one nest of 19 goods
    NestStructure(12, ((0, 2, 4, 6, 8, 10, 11, 1), (3, 5, 7, 9)), (0.05, 1.0)),  # 8 + 4
    NestStructure(20, (tuple(range(0, 18, 2)), tuple(range(1, 18, 2)), (18,), (19,)),
                  (1e-3, 0.7, 0.2, 1.0)),  # 9 + 9 + 1 + 1, scattered columns
]


class TestGoodsMajorLayout:
    """surplus and choice_probabilities reduce each nest along the goods
    axis of v.T; they must give the bits of the last-axis formulas."""

    @pytest.mark.parametrize("ns", LAYOUT_STRUCTURES, ids=lambda ns: f"n{ns.n}")
    @pytest.mark.parametrize("shape", [(), (1,), (3,), (4096,), (2, 3), (7, 3), (0,)])
    def test_same_bits_as_last_axis_reference(self, ns, shape):
        v = np.random.default_rng(ns.n).uniform(-5, 5, shape + (ns.n,))
        assert_same_bits_as_last_axis(ns, v)

    def test_same_bits_on_non_contiguous_input(self):
        ns = LAYOUT_STRUCTURES[-1]
        v = np.random.default_rng(3).uniform(-5, 5, (ns.n, 40)).T  # Fortran order
        assert_same_bits_as_last_axis(ns, v)
        assert_same_bits_as_last_axis(ns, v[::3])

    # at most 4 nests, so n >= 32 always gives a nest of 8 or more goods
    @given(st.integers(8, 48), st.integers(0, 2**31),
           st.lists(st.floats(-3.0, 0.0), min_size=4, max_size=4),
           st.sampled_from([(), (1,), (5,), (64,), (2, 3)]))
    @settings(max_examples=80, deadline=None)
    def test_same_bits_on_random_structures(self, n, seed, log_mu, shape):
        rng = np.random.default_rng(seed)
        nests = specio.random_nest_structure(n, rng).nests
        ns = NestStructure(n, nests, tuple(10.0 ** e for e in log_mu[:len(nests)]))
        assert_same_bits_as_last_axis(ns, rng.uniform(-5, 5, shape + (n,)))


@pytest.mark.parametrize("fn", [surplus, choice_probabilities, fenchel_gap],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("ns", LAYOUT_STRUCTURES[1:], ids=lambda ns: f"n{ns.n}")
def test_never_writes_its_input(fn, ns):
    rng = np.random.default_rng(ns.n)
    for shape in [(ns.n,), (37, ns.n), (2, 3, ns.n)]:
        assert_input_kept(lambda v: fn(ns, v), rng.uniform(-5.0, 5.0, shape))


class TestShapeAndRowContract:
    ns = LAYOUT_STRUCTURES[-1]

    def test_output_shapes(self):
        rng = np.random.default_rng(11)
        e, q = surplus(self.ns, rng.uniform(-5, 5, 20)), choice_probabilities(
            self.ns, rng.uniform(-5, 5, 20))
        assert isinstance(e, float) and q.shape == (20,)
        for lead in ((5,), (0,), (4, 3)):
            v = rng.uniform(-5, 5, lead + (20,))
            assert surplus(self.ns, v).shape == lead
            assert choice_probabilities(self.ns, v).shape == lead + (20,)

    # A batched row sums a nest sequentially, a single point pairwise
    # (8 or more goods), so rows may differ from single calls in the last
    # bits; over the acceptance-batch markets they stay below 1e-14.
    @pytest.mark.parametrize("lead", [(8,), (2, 4)])
    def test_batched_rows_match_single_points(self, lead):
        for slot in range(20):
            m = specio.market_from_document(specio.batch_market(slot))
            p = np.random.default_rng(slot).uniform(0, 5, lead + (m.n,))
            for ct in m.consumers:
                v = ct.a - p
                e, q = surplus(ct.nests, v), choice_probabilities(ct.nests, v)
                for r in np.ndindex(lead):
                    np.testing.assert_allclose(e[r], surplus(ct.nests, v[r]), rtol=1e-13, atol=0)
                    np.testing.assert_allclose(q[r], choice_probabilities(ct.nests, v[r]),
                                               rtol=1e-13, atol=0)


class TestConjugate:
    def test_uniform_is_negative_log_n(self):
        ns = NestStructure.single(4)
        assert conjugate(ns, np.full(4, 0.25)) == pytest.approx(-math.log(4), abs=1e-12)

    def test_point_mass_is_zero(self):
        ns = NestStructure(3, ((0, 1), (2,)), (0.5, 1.0))
        for i in range(3):
            q = np.zeros(3)
            q[i] = 1.0
            assert conjugate(ns, q) == 0.0

    def test_two_nest_value(self):
        ns = NestStructure(3, ((0, 1), (2,)), (0.5, 1.0))
        assert conjugate(ns, [0.3, 0.3, 0.4]) == pytest.approx(
            CONJUGATE_TWO_NEST, abs=1e-12
        )

    def test_rejects_off_simplex(self):
        ns = NestStructure.single(3)
        with pytest.raises(DomainError) as err:
            conjugate(ns, [0.5, 0.5, 0.5])
        assert err.value.field == "probabilities"
        assert str(err.value) == "probabilities: must sum to 1 within 1e-08; got sum 1.5"
        with pytest.raises(DomainError) as err:
            conjugate(ns, [1.2, -0.2, 0.0])
        assert err.value.field == "probabilities"
        assert str(err.value) == "probabilities: must be nonnegative"
        with pytest.raises(DomainError, match="finite"):
            conjugate(NestStructure.single(2), [np.nan, 1.0])

    @given(nest_structures(), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_nonpositive(self, ns, seed):
        q = np.random.default_rng(seed).dirichlet(np.ones(ns.n))
        assert conjugate(ns, q) <= 0.0


class TestFenchelGap:
    def test_symmetric_binary(self):
        assert fenchel_gap(NestStructure.single(2), [0.0, 0.0]) <= 1e-10

    def test_random_two_nest(self):
        rng = np.random.default_rng(5)
        ns = NestStructure(6, ((0, 1, 2), (3, 4, 5)), (0.3, 0.8))
        for _ in range(20):
            assert fenchel_gap(ns, rng.uniform(-5, 5, 6)) <= 1e-9

    def test_dominant_entry_stress(self):
        ns = NestStructure(4, ((0, 1), (2, 3)), (0.3, 0.8))
        assert fenchel_gap(ns, [30.0, 0.0, 0.0, 0.0]) <= 1e-8

    @given(nest_structures(), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_vanishes_everywhere(self, ns, seed):
        v = np.random.default_rng(seed).uniform(-20, 20, ns.n)
        assert fenchel_gap(ns, v) <= 1e-9


class TestSmoothnessModuli:
    @pytest.mark.parametrize(
        "mu,expected",
        [
            ((0.5, 0.25), (4.0, 0.25, 7.0)),
            ((1.0,), (1.0, 1.0, 1.0)),
            ((0.2, 0.9, 0.5), (5.0, 0.2, 9.0)),
        ],
    )
    def test_min_rule(self, mu, expected):
        n = 2 * len(mu)
        nests = tuple((2 * l, 2 * l + 1) for l in range(len(mu)))
        m = smoothness_moduli(NestStructure(n, nests, mu))
        assert (m.smoothness, m.strong_convexity, m.gnl_bound) == pytest.approx(expected)

    def test_gradient_lipschitz_audit(self):
        # 10^4 random pairs against the claimed l1/linf modulus
        rng = np.random.default_rng(99)
        for seed in range(5):
            ns, _ = random_instance(seed * 17 + 3)
            b = smoothness_moduli(ns).smoothness
            v = rng.uniform(-5, 5, (10_000, ns.n))
            vbar = rng.uniform(-5, 5, (10_000, ns.n))
            dq = np.abs(
                choice_probabilities(ns, v) - choice_probabilities(ns, vbar)
            ).sum(axis=-1)
            dv = np.abs(v - vbar).max(axis=-1)
            assert np.max(dq - b * dv) <= 0.0

    def test_conjugate_strong_convexity_audit(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            ns, _ = random_instance(seed * 13 + 1)
            beta = smoothness_moduli(ns).strong_convexity
            q = rng.dirichlet(np.ones(ns.n), size=10_000)
            qbar = rng.dirichlet(np.ones(ns.n), size=10_000)
            lam = rng.uniform(0, 1, 10_000)
            mix = lam[:, None] * q + (1 - lam[:, None]) * qbar
            lhs = conjugate(ns, mix)
            rhs = (
                lam * conjugate(ns, q)
                + (1 - lam) * conjugate(ns, qbar)
                - 0.5 * beta * lam * (1 - lam) * np.abs(q - qbar).sum(axis=-1) ** 2
            )
            assert np.max(lhs - rhs) <= 1e-12  # exact in real arithmetic
