import math

import numpy as np
import pytest

from marketclear import (
    DomainError,
    NestStructure,
    choice_probabilities,
    empirical_error_correlation,
    empirical_error_covariance,
    monte_carlo_choice_frequencies,
    positive_stable,
    sample_nested_errors,
    standard_gumbel,
)
from marketclear.sampling import BATCH_SIZE

EULER_GAMMA = 0.5772156649015329
GUMBEL_VAR = math.pi**2 / 6.0

# First draw for seed 42; pins the generator (PCG64) and the
# inverse-CDF -ln(-ln(k/2^53)) draw path against silent changes.
GUMBEL_SEED42_FIRST = 1.3616400251014915


class TestStandardGumbel:
    def test_moments(self):
        g = standard_gumbel(np.random.default_rng(123), 10**6)
        assert g.mean() == pytest.approx(EULER_GAMMA, abs=0.005)
        assert g.var() == pytest.approx(GUMBEL_VAR, abs=0.01)

    def test_seed_regression(self):
        assert standard_gumbel(np.random.default_rng(42)) == GUMBEL_SEED42_FIRST

    def test_all_finite(self):
        g = standard_gumbel(np.random.default_rng(0), 10**5)
        assert np.all(np.isfinite(g))


class TestPositiveStable:
    def test_laplace_transform_half(self):
        s = positive_stable(0.5, np.random.default_rng(1), 10**6)
        assert np.exp(-s).mean() == pytest.approx(math.exp(-1.0), abs=0.002)

    def test_laplace_transform_testpoint_four(self):
        s = positive_stable(0.9, np.random.default_rng(2), 10**6)
        assert np.exp(-4.0 * s).mean() == pytest.approx(math.exp(-(4.0**0.9)), abs=0.002)

    def test_degenerates_to_one(self):
        s = positive_stable(0.999, np.random.default_rng(3), 10**5)
        assert np.median(s) == pytest.approx(1.0, abs=0.05)

    def test_strictly_positive(self):
        s = positive_stable(0.3, np.random.default_rng(4), 10**5)
        assert np.all(s > 0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_exponent(self, alpha):
        with pytest.raises(DomainError):
            positive_stable(alpha, np.random.default_rng(0))


class TestNestedErrors:
    def test_symmetric_multinomial_argmax(self):
        ns = NestStructure.single(3)
        freq = monte_carlo_choice_frequencies(ns, np.zeros(3), 10**6, seed=5)
        np.testing.assert_allclose(freq, 1.0 / 3.0, atol=0.005)

    def test_two_nest_argmax_matches_closed_form(self):
        ns = NestStructure(3, ((0, 1), (2,)), (0.5, 1.0))
        v = np.array([1.0, 0.0, 0.5])
        freq = monte_carlo_choice_frequencies(ns, v, 10**6, seed=7)
        np.testing.assert_allclose(freq, choice_probabilities(ns, v), atol=0.005)

    def test_marginal_variance(self):
        ns = NestStructure(5, ((0, 1, 2), (3, 4)), (0.4, 1.0))
        cov = empirical_error_covariance(ns, 10**6, seed=9)
        np.testing.assert_allclose(np.diag(cov), GUMBEL_VAR, atol=0.02)

    def test_single_draw_shape(self):
        ns = NestStructure(4, ((0, 1), (2, 3)), (0.5, 0.9))
        eps = sample_nested_errors(ns, np.random.default_rng(0))
        assert eps.shape == (4,)
        assert np.all(np.isfinite(eps))


class TestChoiceFrequencies:
    def test_dominant_alternative(self):
        ns = NestStructure.single(3)
        freq = monte_carlo_choice_frequencies(ns, [40.0, 0.0, 0.0], 10**4, seed=1)
        assert freq[0] >= 0.999

    def test_symmetric_two_nests(self):
        ns = NestStructure(4, ((0, 1), (2, 3)), (0.5, 0.5))
        samples = 10**5
        freq = monte_carlo_choice_frequencies(ns, np.zeros(4), samples, seed=2)
        band = 3.0 * math.sqrt(0.25 / samples)
        np.testing.assert_allclose(freq, 0.25, atol=band)

    def test_binomial_consistency_bound(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 8))
            from marketclear.specio import random_nest_structure

            ns = random_nest_structure(n, rng)
            v = rng.uniform(-2, 2, n)
            samples = 200_000
            freq = monte_carlo_choice_frequencies(ns, v, samples, seed=seed + 100)
            gap = np.abs(freq - choice_probabilities(ns, v)).max()
            assert gap <= 4.0 * math.sqrt(0.25 / samples)

    def test_deterministic_per_seed(self):
        ns = NestStructure(3, ((0, 1), (2,)), (0.5, 1.0))
        v = np.array([1.0, 0.0, 0.5])
        a = monte_carlo_choice_frequencies(ns, v, 50_000, seed=11)
        b = monte_carlo_choice_frequencies(ns, v, 50_000, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_samples(self):
        with pytest.raises(DomainError):
            monte_carlo_choice_frequencies(NestStructure.single(2), [0.0, 0.0], 0, 0)
        with pytest.raises(DomainError, match="finite"):
            monte_carlo_choice_frequencies(NestStructure.single(2), [np.nan, 0.0], 10, 0)


class TestGoldenStreams:
    """Outputs over more than one batch, pinned to recorded values: a change
    to the generator, the batching or the draw order fails here."""

    NS = NestStructure(3, ((0, 1), (2,)), (0.5, 1.0))
    SAMPLES = 3 * BATCH_SIZE + 17

    def test_choice_frequencies(self):
        freq = monte_carlo_choice_frequencies(self.NS, [1.0, 0.0, 0.5], self.SAMPLES, seed=11)
        np.testing.assert_array_equal(freq, np.array([110673, 14785, 71167]) / self.SAMPLES)

    def test_error_covariance(self):
        cov = empirical_error_covariance(self.NS, self.SAMPLES, seed=11)
        # exact on the recording machine; the tolerance only absorbs
        # last-bit differences between libm builds of log and sin
        np.testing.assert_allclose(cov, [
            [1.6449016459192274, 1.2314291711918965, 0.003986758189632678],
            [1.2314291711918965, 1.6437784074797752, 0.004942221011899839],
            [0.003986758189632678, 0.004942221011899839, 1.6496295806825467],
        ], rtol=1e-13, atol=0)


class TestErrorCorrelation:
    def test_single_nest_unit_mu_uncorrelated(self):
        corr = empirical_error_correlation(NestStructure.single(4), 10**6, seed=3)
        off = corr[~np.eye(4, dtype=bool)]
        assert np.max(np.abs(off)) <= 0.01

    def test_within_nest_matches_one_minus_mu_squared(self):
        ns = NestStructure(4, ((0, 1), (2, 3)), (0.5, 0.8))
        corr = empirical_error_correlation(ns, 10**6, seed=4)
        assert corr[0, 1] == pytest.approx(1.0 - 0.5**2, abs=0.02)
        assert corr[2, 3] == pytest.approx(1.0 - 0.8**2, abs=0.02)

    def test_cross_nest_uncorrelated(self):
        ns = NestStructure(4, ((0, 1), (2, 3)), (0.5, 0.8))
        corr = empirical_error_correlation(ns, 10**6, seed=4)
        for a in (0, 1):
            for b in (2, 3):
                assert abs(corr[a, b]) <= 0.01

    def test_deterministic_per_seed(self):
        ns = NestStructure(3, ((0, 1), (2,)), (0.6, 1.0))
        a = empirical_error_correlation(ns, 40_000, seed=8)
        b = empirical_error_correlation(ns, 40_000, seed=8)
        np.testing.assert_array_equal(a, b)
