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
from marketclear.verify import fd_gradient

from conftest import random_instance

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

    def test_index_bounds(self):
        with pytest.raises(StructureError):
            NestStructure(2, ((0, 2),), (0.5,))
        for nests in (((0, 1.7), (2,)), (("0", "1"), (2,))):  # int() would take both
            with pytest.raises(StructureError, match="integer indices") as err:
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
        with pytest.raises(DomainError):
            conjugate(ns, [0.5, 0.5, 0.5])
        with pytest.raises(DomainError):
            conjugate(ns, [1.2, -0.2, 0.0])
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
