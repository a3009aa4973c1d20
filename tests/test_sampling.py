import math
import re

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
from marketclear.sampling import BATCH_SIZE, _argmax_counts, _batches, _log_stable
from marketclear.specio import load_market
from marketclear.verify import VARIANCE_TOL, suite_correlation, suite_montecarlo

from conftest import SPEC_DIR

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


    @pytest.mark.parametrize("size, message", [
        (2.5, "size: must be an integer >= 0, got 2.5"),
        (-1, "size: must be an integer >= 0, got -1"),
        ((2, 2.5), "size[1]: must be an integer >= 0, got 2.5"),
        ([2, 2], "size: must be an integer >= 0, got [2, 2]"),
    ])
    def test_rejects_bad_size(self, size, message):
        for draw in (lambda: standard_gumbel(np.random.default_rng(0), size),
                     lambda: positive_stable(0.5, np.random.default_rng(0), size)):
            with pytest.raises(DomainError, match=re.escape(message)):
                draw()

    def test_numpy_integer_sizes(self):
        g = standard_gumbel(np.random.default_rng(0), (np.int64(2), 3))
        assert g.shape == (2, 3)
        np.testing.assert_array_equal(
            g.ravel(), standard_gumbel(np.random.default_rng(0), np.int64(6)))


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

    @pytest.mark.parametrize("alpha", ["x", None, True, [0.5]])
    def test_exponent_must_be_a_number(self, alpha):
        with pytest.raises(DomainError, match="alpha: expected a number"):
            positive_stable(alpha, np.random.default_rng(0))

    def test_seed_regression(self):
        # recorded with the direct (non-logarithmic) Kanter formula
        s = positive_stable(0.5, np.random.default_rng(42))
        assert s == pytest.approx(2.51166647712993, rel=1e-14)

    def test_tuple_size_draws_the_flat_stream(self):
        s = positive_stable(0.7, np.random.default_rng(5), (3, 4))
        assert s.shape == (3, 4)
        np.testing.assert_array_equal(
            s.ravel(), positive_stable(0.7, np.random.default_rng(5), 12))


def _direct_stable(alpha, u_phi, u_w):
    """S of the Kanter formula evaluated as written, with sines and powers."""
    phi = np.pi * u_phi
    w = -np.log(u_w)
    return (
        np.sin(alpha * phi)
        / np.sin(phi) ** (1.0 / alpha)
        * (np.sin((1.0 - alpha) * phi) / w) ** ((1.0 - alpha) / alpha)
    )


class TestLogStable:
    """The log-domain draw against the log of the direct formula, on
    uniforms at both ends of (0, 1) and in between."""

    K = np.concatenate([
        np.arange(1, 2001),
        (1 << 53) - np.arange(1, 2001),
        np.random.default_rng(0).integers(1, 1 << 53, 4000),
    ])

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.6036386071663626, 0.9,
                                       0.9964002267475143, 0.999])
    def test_matches_log_of_direct_formula(self, alpha):
        u = self.K * 2.0**-53
        u_phi = np.concatenate([u, u, np.random.default_rng(1).permutation(u)])
        u_w = np.concatenate([u, np.random.default_rng(2).permutation(u), u[::-1]])
        with np.errstate(all="ignore"):
            direct = np.log(_direct_stable(alpha, u_phi, u_w))
        ln_s = _log_stable(alpha, u_phi.copy(), u_w.copy())
        ok = np.isfinite(direct)
        assert ok.sum() > 0.9 * ok.size
        assert np.all(np.isfinite(ln_s))
        err = np.abs(ln_s[ok] - direct[ok])
        assert np.all(err <= 1e-13 * (1.0 + np.abs(direct[ok])))

    @pytest.mark.parametrize("alpha", [0.3, 0.6036386071663626, 0.9964002267475143])
    def test_scratch_arrays_change_no_bit(self, alpha):
        u = self.K * 2.0**-53
        u_w = np.random.default_rng(2).permutation(u)
        scratch = np.full((3, u.size), np.nan)
        ln_s = _log_stable(alpha, u.copy(), u_w.copy(), scratch)
        assert np.shares_memory(ln_s, scratch[0])
        np.testing.assert_array_equal(ln_s, _log_stable(alpha, u.copy(), u_w.copy()))


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

    @pytest.mark.parametrize("mu", [1e-2, 1e-3, 1e-5])
    def test_small_mu_stays_finite(self, mu):
        # ln S is computed in logs, so S under- or overflowing does not
        # reach the errors
        ns = NestStructure(3, ((0, 1), (2,)), (mu, 1.0))
        eps = sample_nested_errors(ns, np.random.default_rng(0), BATCH_SIZE)
        assert np.all(np.isfinite(eps))
        cov = empirical_error_covariance(ns, 200_000, seed=0)
        np.testing.assert_allclose(np.diag(cov), GUMBEL_VAR, atol=VARIANCE_TOL)

    def test_single_draw_shape(self):
        ns = NestStructure(4, ((0, 1), (2, 3)), (0.5, 0.9))
        eps = sample_nested_errors(ns, np.random.default_rng(0))
        assert eps.shape == (4,)
        assert np.all(np.isfinite(eps))
        assert sample_nested_errors(ns, np.random.default_rng(0), size=0).shape == (0, 4)


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
        with pytest.raises(DomainError) as err:
            monte_carlo_choice_frequencies(NestStructure.single(2), np.zeros((2, 2)), 10, 0)
        assert err.value.field == "utilities"
        assert str(err.value) == "utilities: must have shape (2,)"


class TestGoldenStreams:
    """Outputs over more than one batch, pinned to recorded values: a change
    to the generator, the batching or the draw order fails here. The
    covariance was recorded again when its first moments became pairwise
    row sums."""

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
            [1.6449016459192296, 1.2314291711918972, 0.003986758189631345],
            [1.2314291711918972, 1.6437784074797746, 0.004942221011897008],
            [0.003986758189631345, 0.004942221011897008, 1.6496295806825418],
        ], rtol=1e-13, atol=0)


class TestGoldenStreamsSeveralNests:
    """Golden values for non-contiguous nests, two of them with mu < 1
    (consumer type 0 of market_n6.json), recorded with the direct Kanter
    formula before the log-domain draw replaced it."""

    SAMPLES = 3 * BATCH_SIZE + 17

    @pytest.fixture(scope="class")
    def consumer(self):
        ct = load_market(str(SPEC_DIR / "market_n6.json")).consumers[0]
        assert ct.nests.nests == ((2, 3), (0, 1, 4), (5,))
        return ct

    def test_choice_frequencies(self, consumer):
        freq = monte_carlo_choice_frequencies(consumer.nests, consumer.a, self.SAMPLES, seed=11)
        np.testing.assert_array_equal(
            freq, np.array([73474, 45475, 3421, 5647, 66556, 2052]) / self.SAMPLES)

    def test_error_covariance(self, consumer):
        cov = empirical_error_covariance(consumer.nests, self.SAMPLES, seed=11)
        # the log-domain draw moves each error by a few ulps; cross-nest
        # entries near 6e-4 then differ by about 4e-16, hence the atol
        np.testing.assert_allclose(cov, [
            [1.640490572329595, 0.006632038872527557, 0.003186944496197497,
             0.004874754025575689, 0.01833845905544984, 0.0006591139135039281],
            [0.006632038872527557, 1.6547208388360903, -0.006129320078973488,
             -0.004892938997523022, 0.008797329807918919, -0.002998498710391151],
            [0.003186944496197497, -0.006129320078973488, 1.6460350727937363,
             1.0467037428412298, 0.0025014940284264764, -0.0014835750390121971],
            [0.004874754025575689, -0.004892938997523022, 1.0467037428412298,
             1.6465590610412, -0.0005656676564189667, -0.0006621472164581865],
            [0.01833845905544984, 0.008797329807918919, 0.0025014940284264764,
             -0.0005656676564189667, 1.6344668140086307, 0.003110964475103284],
            [0.0006591139135039281, -0.002998498710391151, -0.0014835750390121971,
             -0.0006621472164581865, 0.003110964475103284, 1.6269450460852841],
        ], rtol=1e-13, atol=1e-14)


def _market_n6():
    return load_market(str(SPEC_DIR / "market_n6.json"))


class TestWorkspaceStream:
    """`_batches` draws every batch of a stream into one workspace; the
    batches equal successive `sample_nested_errors` calls on one generator,
    including the short last batch."""

    SAMPLES = 3 * BATCH_SIZE + 17

    @pytest.fixture(scope="class", params=[0, 1, "unit mu"])
    def ns(self, request):
        """The two consumer types of market_n6.json (type 0 has a
        non-adjacent nest with mu near 0.996 and a single-good nest) and a
        structure with a mu = 1 nest."""
        if request.param == "unit mu":
            return NestStructure(5, ((0, 2, 3), (1, 4)), (1.0, 0.8))
        return _market_n6().consumers[request.param].nests

    def test_batches_equal_successive_draws(self, ns):
        rng = np.random.default_rng(3)
        sizes = []
        for eps in _batches(ns, self.SAMPLES, 3):
            np.testing.assert_array_equal(eps, sample_nested_errors(ns, rng, len(eps)))
            sizes.append(len(eps))
        assert sizes == [BATCH_SIZE] * 3 + [17]

    def test_batches_share_one_buffer(self, ns):
        first, *rest = _batches(ns, self.SAMPLES, 3)
        assert all(np.shares_memory(first, eps) for eps in rest)
        rng = np.random.default_rng(3)
        assert not np.shares_memory(sample_nested_errors(ns, rng, 4),
                                    sample_nested_errors(ns, rng, 4))


class TestArgmaxCounts:
    """`_argmax_counts` on goods-major blocks against np.argmax over the
    sample-major rows, which gives a tie to the lowest index."""

    @staticmethod
    def _block(columns):
        return np.array(columns, dtype=float).T  # (n, m): column c is sample c

    @pytest.mark.parametrize("columns", [
        [[0.5, 1.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 3.0]],  # no tie
        [[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [3.0, 0.0, 3.0], [1.0, 1.0, 1.0]],  # ties
        [[0.5, np.nan, 0.0], [np.nan, np.nan, 1.0], [2.0, 0.0, np.nan]],  # NaNs
        [[np.inf, 1.0, 0.0], [-np.inf, -np.inf, -np.inf], [0.0, np.inf, np.inf],
         [-np.inf, 0.0, -np.inf]],  # infinities, tied and not
        # a tie and a NaN in one batch: the counts still sum to m
        [[1.0, 0.0, 1.0], [0.0, np.nan, 0.5], [2.0, 0.0, 1.0]],
    ])
    def test_matches_argmax(self, columns):
        block = self._block(columns)
        expected = np.bincount(np.argmax(block.T, axis=1), minlength=len(block))
        np.testing.assert_array_equal(_argmax_counts(block), expected)

    def test_tie_goes_to_the_lowest_index(self):
        block = self._block([[1.0, 3.0, 3.0, 3.0], [0.0, 2.0, 0.0, 2.0]])
        np.testing.assert_array_equal(_argmax_counts(block), [0, 2, 0, 0])

    def test_one_good(self):
        np.testing.assert_array_equal(_argmax_counts(np.zeros((1, 5))), [5])


class TestReferenceFormulas:
    """Batch by batch, the goods-major reductions against the sample-major
    formulas on successive `sample_nested_errors` calls of one generator:
    argmax(v + eps), each good's pairwise sum and eps.T @ eps, every bit."""

    SAMPLES = 3 * BATCH_SIZE + 17

    @pytest.fixture(scope="class", params=[0, 1, "unit mu", "one good"])
    def ns(self, request):
        if request.param == "unit mu":
            return NestStructure(5, ((0, 2, 3), (1, 4)), (1.0, 0.8))
        if request.param == "one good":
            return NestStructure.single(1)
        return _market_n6().consumers[request.param].nests

    def _draws(self, ns, seed):
        rng = np.random.default_rng(seed)
        for done in range(0, self.SAMPLES, BATCH_SIZE):
            eps = sample_nested_errors(ns, rng, min(BATCH_SIZE, self.SAMPLES - done))
            assert eps.flags.c_contiguous
            yield eps

    def test_choice_frequencies(self, ns):
        v = np.random.default_rng(1).uniform(-2.0, 2.0, ns.n)
        counts = np.zeros(ns.n, dtype=np.int64)
        for eps in self._draws(ns, 5):
            counts += np.bincount(np.argmax(v + eps, axis=1), minlength=ns.n)
        np.testing.assert_array_equal(
            monte_carlo_choice_frequencies(ns, v, self.SAMPLES, 5), counts / self.SAMPLES)

    def test_error_covariance(self, ns):
        s1, s2 = np.zeros(ns.n), np.zeros((ns.n, ns.n))
        for eps in self._draws(ns, 6):
            s1 += np.ascontiguousarray(eps.T).sum(axis=1)
            s2 += eps.T @ eps
        mean = s1 / self.SAMPLES
        np.testing.assert_array_equal(empirical_error_covariance(ns, self.SAMPLES, 6),
                                      s2 / self.SAMPLES - np.outer(mean, mean))


def _pairwise_depth(m):
    """The most rounded additions an element of a row of m passes through
    in numpy's pairwise sum (see TestFirstMomentAccuracy)."""
    if m < 8:
        return max(m - 1, 0)
    if m <= 128:
        return m // 8 - 1 + 3 + m % 8
    half = m // 2 - m // 2 % 8
    return 1 + max(_pairwise_depth(half), _pairwise_depth(m - half))


class TestFirstMomentAccuracy:
    """Each good's first-moment sum over one full batch lies within numpy's
    pairwise-summation error bound of `math.fsum` of its row.

    numpy sums a contiguous float64 row of m elements, starting from 0,
    pairwise: a row of fewer than 8 in order; a row of at most 128 in 8
    accumulators, lane j adding elements j, j + 8, ..., which are then
    added as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the
    m mod 8 left over are added in order; a longer row is split at half
    its length rounded down to a multiple of 8, and the two halves' sums
    are added. An element that passes through d rounded additions enters
    the computed sum as x (1 + theta) with |theta| <= gamma_d =
    d u / (1 - d u), u = 2^-53 (Higham 2002, Lemma 3.1 and section 4.2),
    so with D the largest d over the row, |s - sum x| <= gamma_D sum |x|.
    A batch of 2^16 splits nine times down to blocks of 128, whose first
    elements pass through 15 lane additions and 3 tree additions: D = 27
    (`_pairwise_depth`). `math.fsum` is correctly rounded, within
    u |sum x| <= u sum |x| of the exact sum, so |s - fsum| <=
    (gamma_D + u) sum |x|. The element-order sum's bound is
    gamma_(m-1) sum |x|, about 2,400 times wider at m = 2^16.

    The sums are read from the covariance's mean: over one batch of 2^16
    draws, mean = s1 / 2^16 exactly, so s1 is mean * 2^16 bit for bit.
    """

    @pytest.fixture(params=["golden", "market_n6"])
    def ns(self, request):
        if request.param == "golden":
            return TestGoldenStreams.NS
        return _market_n6().consumers[0].nests

    def test_row_sums_within_the_pairwise_bound(self, ns, monkeypatch):
        means = []
        outer = np.outer

        def spy(a, b):
            means.append(a.copy())
            return outer(a, b)

        monkeypatch.setattr(np, "outer", spy)
        empirical_error_covariance(ns, BATCH_SIZE, seed=11)
        (mean,) = means
        s1 = mean * BATCH_SIZE
        (eps,) = _batches(ns, BATCH_SIZE, 11)
        u = 2.0**-53
        depth = _pairwise_depth(BATCH_SIZE)
        assert depth == 27
        gamma = depth * u / (1.0 - depth * u)
        for i, row in enumerate(eps.T):
            bound = (gamma + u) * math.fsum(np.abs(row))
            assert abs(s1[i] - math.fsum(row)) <= bound, i


class TestGoldenSuiteValues:
    """The `montecarlo` and `correlation` checks on market_n6.json over more
    than one batch, recorded before the sampler drew into a reused
    workspace; the draw must not move a bit. The correlation rows were
    recorded again when the first moments became pairwise row sums."""

    SAMPLES = 3 * BATCH_SIZE + 17

    def test_frequency_gaps(self):
        rows = suite_montecarlo(_market_n6(), self.SAMPLES, 0)
        assert [(r.name, r.value) for r in rows] == [
            ("consumer[0] frequency gap", 0.0011216903769755149),
            ("consumer[1] frequency gap", 0.0005632104265945737),
        ]

    def test_correlation_rows(self):
        rows = suite_correlation(_market_n6(), self.SAMPLES, 0)
        assert [r.name for r in rows] == [
            "consumer[0] marginal variance dev", "consumer[0] within-nest corr dev",
            "consumer[0] cross-nest corr", "consumer[1] marginal variance dev",
            "consumer[1] within-nest corr dev",
        ]
        # exact on the recording machine; the tolerance only absorbs
        # last-bit differences between libm builds of log and tan
        np.testing.assert_allclose([r.value for r in rows], [
            0.01099525238128507, 0.002164602526085215, 0.0038091255459340935,
            0.00909253465351445, 0.0028545863163534912,
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
