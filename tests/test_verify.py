import json
import logging
import re

import numpy as np
import pytest

from marketclear import Market, sampling, solvers, specio, verify

from conftest import SPEC_DIR


@pytest.fixture(scope="module")
def market_n6():
    return specio.load_market(str(SPEC_DIR / "market_n6.json"))


def _target_covariance(ns):
    """Covariance with exactly the claimed structure: Gumbel variance on the
    diagonal, correlation 1 - mu^2 inside a nest and 0 across nests."""
    corr = np.eye(ns.n)
    for nest, mu in zip(ns.nests, ns.mu):
        for a in nest:
            for b in nest:
                if a != b:
                    corr[a, b] = 1.0 - mu**2
    return verify.GUMBEL_VARIANCE * corr


def _by_name(results):
    return {r.name: r for r in results}


class TestFiniteDifferences:
    def test_one_routine(self):
        assert verify.fd_gradient is solvers.fd_gradient
        assert verify.FD_STEP == solvers.FD_STEP == 1e-5

    def test_one_call_on_interleaved_rows(self):
        calls = []

        def f(rows):
            calls.append(rows.copy())
            return rows @ np.array([1.0, 2.0, -3.0])

        x = np.array([1.0, -2.0, 0.5])
        fd = verify.fd_gradient(f, x)
        expected = np.repeat(x[None, :], 6, axis=0)
        for i in range(3):
            expected[2 * i, i] += verify.FD_STEP
            expected[2 * i + 1, i] -= verify.FD_STEP
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], expected)
        np.testing.assert_allclose(fd, [1.0, 2.0, -3.0], rtol=1e-9)


class TestCorrelationSuite:
    """Consumer type 0 of market_n6.json has nests (2, 3), (0, 1, 4), (5,)."""

    def _run(self, market, monkeypatch, pair=None):
        def covariance(ns, samples, seed):
            cov = _target_covariance(ns)
            if pair is not None and ns is market.consumers[0].nests:
                cov[pair] = cov[pair[::-1]] = np.nan
            return cov

        monkeypatch.setattr(sampling, "empirical_error_covariance", covariance)
        return _by_name(verify.suite_correlation(market, 10, 0))

    def test_exact_structure_passes(self, market_n6, monkeypatch):
        results = self._run(market_n6, monkeypatch)
        assert all(r.ok for r in results.values())

    def test_deviations_match_pairwise_loop(self, market_n6, monkeypatch):
        rng = np.random.default_rng(3)
        covs = {}

        def covariance(ns, samples, seed):
            x = rng.standard_normal((50, ns.n))
            covs[ns] = x.T @ x / 50
            return covs[ns]

        monkeypatch.setattr(sampling, "empirical_error_covariance", covariance)
        results = _by_name(verify.suite_correlation(market_n6, 10, 0))
        for j, ct in enumerate(market_n6.consumers):
            ns = ct.nests
            corr = sampling.correlation_from_covariance(covs[ns])
            nest_of = {i: l for l, nest in enumerate(ns.nests) for i in nest}
            within, cross = [], []
            for a in range(ns.n):
                for b in range(a + 1, ns.n):
                    if nest_of[a] == nest_of[b]:
                        within.append(abs(corr[a, b] - (1.0 - ns.mu[nest_of[a]] ** 2)))
                    else:
                        cross.append(abs(corr[a, b]))
            assert results[f"consumer[{j}] within-nest corr dev"].value == max(within)
            if cross:
                assert results[f"consumer[{j}] cross-nest corr"].value == max(cross)

    def test_nan_within_nest_fails(self, market_n6, monkeypatch):
        results = self._run(market_n6, monkeypatch, pair=(0, 4))
        assert np.isnan(results["consumer[0] within-nest corr dev"].value)
        assert not results["consumer[0] within-nest corr dev"].ok
        assert results["consumer[0] cross-nest corr"].ok

    def test_nan_cross_nest_fails(self, market_n6, monkeypatch):
        results = self._run(market_n6, monkeypatch, pair=(1, 5))
        assert np.isnan(results["consumer[0] cross-nest corr"].value)
        assert not results["consumer[0] cross-nest corr"].ok
        assert results["consumer[0] within-nest corr dev"].ok

    def test_small_mu_market_passes(self):
        # mu = 0.01 used to overflow the stable draw into non-finite errors
        doc = json.loads((SPEC_DIR / "market_n6.json").read_text())
        doc["consumers"][0]["nests"][0]["mu"] = 0.01
        market = specio.market_from_document(doc)
        results = verify.run_suites(("correlation",), market, 10**6, 0)
        assert len(results) == 5
        assert all(r.ok for r in results), [(r.name, r.value) for r in results if not r.ok]


class TestGradientSuite:
    def test_nan_excess_supply_fails(self, market_n6, monkeypatch):
        original = Market.ter_gradient
        calls = []

        def ter_gradient(self, p):
            calls.append(1)
            z = original(self, p)
            return np.full_like(z, np.nan) if len(calls) == 7 else z

        monkeypatch.setattr(Market, "ter_gradient", ter_gradient)
        results = _by_name(verify.suite_gradient(market_n6, 0, 0))
        assert len(calls) == 20
        assert np.isnan(results["market excess supply"].value)
        assert not results["market excess supply"].ok
        assert results["consumer[0] surplus gradient"].ok

    def test_nan_surplus_gradient_fails(self, market_n6, monkeypatch):
        original = verify.gradient_error
        calls = []

        def gradient_error(ns, v):
            calls.append(1)
            return np.nan if len(calls) == 3 else original(ns, v)

        monkeypatch.setattr(verify, "gradient_error", gradient_error)
        results = _by_name(verify.suite_gradient(market_n6, 0, 0))
        assert not results["consumer[0] surplus gradient"].ok
        assert results["consumer[1] surplus gradient"].ok
        assert results["market excess supply"].ok


class TestKernelAudit:
    NAMES = ("market potential vs per-agent sum", "market excess supply vs per-agent sum")

    @pytest.mark.parametrize("market", ["market_n6.json", "single_good.json"]
                             + [f"batch{slot}" for slot in range(20)])
    def test_passes(self, market):
        m = (specio.load_market(str(SPEC_DIR / market)) if market.endswith(".json") else
             specio.market_from_document(specio.batch_market(int(market[5:]))))
        results = _by_name(verify.suite_gradient(m, 0, 0))
        for name in self.NAMES:
            assert results[name].ok and results[name].bound == verify.FD_RTOL, results[name]

    @pytest.mark.parametrize("half, name", [(0, NAMES[0]), (1, NAMES[1])])
    def test_a_wrong_kernel_fails(self, market_n6, monkeypatch, half, name):
        # one half of the kernel off by 1e-5 relative; the per-agent sums are not
        from marketclear.market import _FlatMarket

        kernel = _FlatMarket.kernel

        def skewed(self, x, value, grad):
            out = list(kernel(self, x, value, grad))
            if out[half] is not None:
                out[half] = out[half] * (1.0 + 1e-5)
            return tuple(out)

        monkeypatch.setattr(_FlatMarket, "kernel", skewed)
        results = _by_name(verify.suite_gradient(market_n6, 0, 0))
        assert not results[name].ok
        assert results[self.NAMES[1 - half]].ok


def test_run_suites_logs_one_line_per_suite(market_n6, caplog):
    with caplog.at_level(logging.INFO, logger="marketclear.verify"):
        results = verify.run_suites(("duality", "gradient"), market_n6, 1000, 0)
    lines = [r.getMessage() for r in caplog.records if r.name == "marketclear.verify"]
    assert len(lines) == 2
    assert lines[0].startswith("suite gradient: checks=5 failed=0 wall_s=")
    assert lines[1].startswith("suite duality: checks=2 failed=0 wall_s=")
    assert len(results) == 7


@pytest.mark.parametrize("names, samples, seed, message", [
    (["nope"], 10, 0, "unknown suite 'nope'"), ([None], 10, 0, "unknown suite None"),
    (["duality"], 0, 0, "samples: must be an integer >= 2, got 0"),
    (["duality"], 10.0, 0, "samples: must be an integer >= 2, got 10.0"),
    (["duality"], True, 0, "samples: must be an integer >= 2, got True"),
    (["duality"], 10, -1, "seed: must be an integer >= 0, got -1"),
    (["duality"], 10, "0", "seed: must be an integer >= 0, got '0'"),
    (["correlation"], 1, 0, "samples: must be an integer >= 2, got 1"),  # correlation needs 2
])
def test_run_suites_rejects_bad_parameters(market_n6, names, samples, seed, message):
    with pytest.raises(solvers.ConfigError, match=re.escape(message)):
        verify.run_suites(names, market_n6, samples, seed)


def test_one_suite_name_is_not_iterated(market_n6):
    results = verify.run_suites("duality", market_n6, 10, 0)
    assert [r.suite for r in results] == ["duality", "duality"]
    assert [r for r in results if not r.ok] == []


def test_sampling_and_bound_suites_in_process(market_n6):
    results = verify.run_suites(("smoothness", "montecarlo", "bounds"), market_n6, 10**5, 0)
    expected = (
        [f"smoothness: consumer[{j}] {check}" for j in range(2)
         for check in ("gradient lipschitz ratio", "conjugate convexity violation")]
        + ["smoothness: market gradient lipschitz ratio"]
        + [f"montecarlo: consumer[{j}] frequency gap" for j in range(2)]
        + ["bounds: reference residual"]
        + [f"bounds: {scheme} {check}" for scheme in ("basic", "accelerated")
           for check in ("potential-gap bound slack", "final residual", "min excess supply",
                         "complementarity")])
    assert [f"{r.suite}: {r.name}" for r in results] == expected
    assert [r for r in results if not r.ok] == []


def test_reference_that_stopped_short_fails_bounds(market_n6, monkeypatch):
    monkeypatch.setattr(verify, "reference_solve",
                        lambda m: solvers.solve(m, solvers.SolverConfig(max_iters=10)))
    results = _by_name(verify.run_suites(("bounds",), market_n6, 10, 0))
    assert not results["reference residual"].ok
    assert results["reference residual"].value > solvers.REFERENCE_TOL
