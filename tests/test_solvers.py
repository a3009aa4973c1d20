import dataclasses
import json
import logging

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import marketclear as mc
from marketclear import solvers, specio
from marketclear.solvers import (
    REFERENCE_MAX_ITERS,
    REFERENCE_TOL,
    ConfigError,
    RateFitError,
    SolverConfig,
    Trace,
    UnproductiveMarketError,
    fit_rate,
    gamma_next,
    reference_solve,
    solve,
)

from conftest import SPEC_DIR

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def small_market(seed, n=5):
    return specio.market_from_document(specio.generate_market(n, 2, 2, seed=seed))


def one_basic_step(market, p, h):
    """p after one iteration of the basic scheme at step h: [p - h z(p)]_+."""
    return solve(market, SolverConfig(scheme="basic", step=h, p0=p, max_iters=1)).price


class TestStepBasic:
    def test_fixed_point_at_equilibrium(self, single_good_market):
        p = np.array([3.0])
        np.testing.assert_allclose(one_basic_step(single_good_market, p, 0.2), p, atol=1e-12)

    def test_projection_absorbs_excess_supply(self, single_good_market):
        # at p = 0 supply still undercuts demand here, so build a flooded market
        ns = mc.NestStructure.single(1)
        ct = mc.ConsumerType(count=1.0, a=[0.0], nests=ns)
        s = mc.Supplier(y_nat=[5.0], gamma=1.0, lo=[0.0], hi=[10.0], c=[0.0])
        m = mc.Market(n=1, consumers=(ct,), suppliers=(s,))
        z0 = m.ter_gradient([0.0])
        assert np.all(z0 >= 0)
        np.testing.assert_array_equal(one_basic_step(m, np.zeros(1), 0.1), np.zeros(1))

    def test_monotone_approach_from_below(self, single_good_market):
        # scalar fixed-point iteration: p <- p - h (y(p) - 2) climbs to 3;
        # strict growth is asserted away from the floating-point fixed
        # point, where the update underflows to a no-op
        p = np.zeros(1)
        values = [p[0]]
        for _ in range(200):
            p = one_basic_step(single_good_market, p, 1.0 / 6.0)
            values.append(p[0])
        diffs = np.diff(values)
        assert np.all(diffs >= 0)
        assert np.all(diffs[:100] > 0)
        assert p[0] == pytest.approx(3.0, abs=1e-6)


class TestGammaSequence:
    def test_first_values(self):
        g1 = gamma_next(1.0)
        assert g1 == pytest.approx(GOLDEN, abs=1e-12)
        assert gamma_next(g1) == pytest.approx(2.193527085331054, abs=1e-12)

    def test_growth_law(self):
        g = 1.0
        for t in range(101):
            assert g >= (t + 2.0) / 2.0 - 1e-12
            g = gamma_next(g)


class TestSolve:
    def test_single_good_basic(self, single_good_market):
        trace = solve(single_good_market,
                      SolverConfig(scheme="basic", step=1.0 / 6.0, tol=1e-10))
        assert trace.converged
        assert trace.price[0] == pytest.approx(3.0, abs=1e-8)

    def test_single_good_accelerated(self, single_good_market):
        # momentum beats the h = 1/6 basic run above; on this perfectly
        # conditioned scalar market the full-step basic contraction is
        # faster than momentum, so the decisive iteration-count
        # comparison lives in the random-market batch tests
        basic = solve(single_good_market,
                      SolverConfig(scheme="basic", step=1.0 / 6.0, tol=1e-10))
        accel = solve(single_good_market, SolverConfig(scheme="accelerated", tol=1e-10))
        assert accel.price[0] == pytest.approx(3.0, abs=1e-8)
        assert accel.iterations < basic.iterations

    def test_refuses_unproductive_market(self):
        ns = mc.NestStructure.single(2)
        ct = mc.ConsumerType(count=5.0, a=[0.0, 0.0], nests=ns)
        s = mc.Supplier(y_nat=[0, 0], gamma=1.0, lo=[0, 0], hi=[1.0, 1.0], c=[0, 0])
        m = mc.Market(n=2, consumers=(ct,), suppliers=(s,))
        with pytest.raises(UnproductiveMarketError):
            solve(m)

    def test_rejects_oversized_step(self, single_good_market):
        lip = single_good_market.smoothness_constant()
        with pytest.raises(ConfigError, match="smoothness"):
            solve(single_good_market, SolverConfig(step=1.5 / lip))
        solve(single_good_market, SolverConfig(step=1.0 / lip))  # cap itself is fine

    @pytest.mark.parametrize("field, value", [
        ("tol", float("nan")), ("tol", float("inf")), ("tol", -1e-8),
        ("step", float("nan")), ("step", 0.0), ("step", -0.1),
        ("max_iters", 2.5), ("max_iters", float("nan")),
    ])
    def test_config_rejects_bad_tol_and_step(self, field, value):
        message = {"tol": "tolerance", "step": "step size", "max_iters": "max_iters"}[field]
        with pytest.raises(ConfigError, match=message):
            SolverConfig(**{field: value})

    @pytest.mark.parametrize("p0", [["a"], [[1.0, 2.0], [3.0]], {"a": 1},
                                    ["2.9"], [True], [2.9, True]])
    def test_non_numeric_p0_is_a_config_error(self, single_good_market, p0):
        for run in (lambda: solve(single_good_market, SolverConfig(p0=p0)),
                    lambda: reference_solve(single_good_market, p0=p0)):
            with pytest.raises(ConfigError, match="initial prices must be a numeric array"):
                run()

    def test_max_iters_cap(self, single_good_market):
        trace = solve(single_good_market, SolverConfig(max_iters=3))
        assert not trace.converged
        assert trace.iterations == 3

    def test_trace_feasible_iterates(self, six_good_market):
        trace = solve(six_good_market, SolverConfig(scheme="basic"))
        assert np.all(trace.price >= 0)
        assert trace.grad_norm[-1] <= SolverConfig().tol

    def test_monotone_descent_basic(self, six_good_market):
        trace = solve(six_good_market, SolverConfig(scheme="basic"))
        assert np.max(np.diff(trace.ter)) <= 1e-12

    def test_fixed_point_once_converged(self, six_good_market):
        trace = solve(six_good_market, SolverConfig(scheme="basic", tol=1e-9))
        h = trace.step
        moved = one_basic_step(six_good_market, trace.price, h) - trace.price
        assert np.linalg.norm(moved) <= h * 1e-9 + 1e-12

    def test_schemes_agree(self):
        for seed in (1, 2, 3):
            m = small_market(seed)
            basic = solve(m, SolverConfig(scheme="basic"))
            accel = solve(m, SolverConfig(scheme="accelerated"))
            assert np.max(np.abs(basic.price - accel.price)) <= 1e-6

    def test_deterministic(self, six_good_market):
        a = solve(six_good_market, SolverConfig(scheme="accelerated"))
        b = solve(six_good_market, SolverConfig(scheme="accelerated"))
        np.testing.assert_array_equal(a.price, b.price)
        np.testing.assert_array_equal(a.ter, b.ter)

    def test_divergence_guard_names_iteration(self, single_good_market):
        from marketclear.solvers import DivergedError, _Recorder

        # z_i = +inf leaves the natural-map residual finite; <p, z> catches it
        for bad_p, bad_z in [(np.inf, 0.0), (np.nan, 0.0), (1.0, np.inf), (0.0, np.inf),
                             (1.0, -np.inf), (1.0, np.nan)]:
            rec = _Recorder(0.1)
            p = np.array([1.0])
            rec.record(p, np.array([0.5]), single_good_market.ter(p))
            with (pytest.raises(DivergedError, match="non-finite iterate at iteration 2") as err,
                  np.errstate(invalid="ignore")):
                rec.record(np.array([bad_p, 1.0]), np.array([bad_z, 0.5]), 0.0)
            assert err.value.iteration == 2

    def test_divergence_guard_rejects_non_finite_ter(self, monkeypatch):
        # a kernel whose TER overflows to -inf while prices and excess
        # supply stay finite
        from marketclear.market import _FlatMarket
        from marketclear.solvers import DivergedError

        kernel = _FlatMarket.kernel

        def overflowing(self, x, value, grad):
            return (-np.inf if value else None), kernel(self, x, value, grad)[1]

        monkeypatch.setattr(_FlatMarket, "kernel", overflowing)
        doc = json.loads((SPEC_DIR / "market_n6.json").read_text(encoding="utf-8"))
        m = specio.market_from_document(doc)
        assert np.all(np.isfinite(m.ter_gradient(np.zeros(m.n))))
        for scheme in ("basic", "accelerated"):
            with pytest.raises(DivergedError, match="TER.*iteration 1") as err:
                solve(m, SolverConfig(scheme=scheme))
            assert err.value.iteration == 1

    @pytest.mark.parametrize("scheme", ["basic", "accelerated"])
    def test_done_line_reports_evaluations_and_wall_time(self, six_good_market, scheme,
                                                         caplog, monkeypatch):
        from marketclear.market import _FlatMarket

        kernel = _FlatMarket.kernel
        calls = []

        def counting(self, *args):
            calls.append(1)
            return kernel(self, *args)

        monkeypatch.setattr(_FlatMarket, "kernel", counting)
        with caplog.at_level(logging.INFO, logger="marketclear.solvers"):
            trace = solve(six_good_market, SolverConfig(scheme=scheme))
        done = [r.getMessage() for r in caplog.records if "solve done" in r.getMessage()]
        assert len(done) == 1
        t = trace.iterations
        assert trace.converged and t >= 2
        # basic reuses z(p_t) at every step; accelerated at its first two,
        # where the momentum is zero
        assert len(calls) == (t + 1 if scheme == "basic" else 2 * t - 1)
        assert f"iters={t} " in done[0]
        assert f" oracle_evals={len(calls)} " in done[0]
        wall = float(done[0].split("wall_s=")[1])
        assert 0.0 < wall < 60.0

    def test_single_point_oracle_matches_block_kernel(self, monkeypatch):
        # the solvers call the kernel on one price vector; a run that sends
        # each vector through the block branch as one column must give the
        # same trace bit for bit
        from marketclear.market import _FlatMarket

        kernel = _FlatMarket.kernel

        def via_block(self, p, value, grad):
            ter, z = kernel(self, p[:, None], value, grad)
            return (ter[0] if value else None), (z[:, 0] if grad else None)

        m = specio.market_from_document(
            json.loads((SPEC_DIR / "market_n6.json").read_text(encoding="utf-8")))
        schemes = ("basic", "accelerated")
        fast = [solve(m, SolverConfig(scheme=s)) for s in schemes]
        monkeypatch.setattr(_FlatMarket, "kernel", via_block)
        for a in fast:
            b = solve(m, SolverConfig(scheme=a.scheme))
            for field in ("ter", "grad_norm", "min_excess", "complementarity", "steps", "price"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field), err_msg=field)
            assert a.converged == b.converged


class TestConvergenceBounds:
    @pytest.mark.parametrize("seed", [4, 5])
    def test_gap_bounds_both_schemes(self, seed):
        m = small_market(seed)
        ref = reference_solve(m)
        ter_star = m.ter(ref.price)
        p0 = np.zeros(m.n)
        dist2 = float(np.dot(p0 - ref.price, p0 - ref.price))
        basic = solve(m, SolverConfig(scheme="basic"))
        t = basic.iters
        assert np.max((basic.ter - ter_star) - dist2 / (2.0 * t * basic.step)) <= 0.0
        accel = solve(m, SolverConfig(scheme="accelerated"))
        t = accel.iters
        assert np.max(
            (accel.ter - ter_star) - 2.0 * dist2 / (accel.step * (t + 1.0) ** 2)
        ) <= 0.0


class TestRateFit:
    def _synthetic(self, gaps):
        n = len(gaps)
        return Trace(
            scheme="basic", step=0.1, ter=np.asarray(gaps, dtype=float),
            grad_norm=np.zeros(n), min_excess=np.zeros(n),
            complementarity=np.zeros(n), steps=np.full(n, 0.1),
            price=np.zeros(1), converged=True,
        )

    def test_exact_power_law(self):
        t = np.arange(1, 301)
        trace = self._synthetic(5.0 / t)  # gap C/t around ter_star = 0
        assert fit_rate(trace, 0.0) == pytest.approx(-1.0, abs=0.01)

    def test_quadratic_power_law(self):
        t = np.arange(1, 301)
        trace = self._synthetic(5.0 / t**2)
        assert fit_rate(trace, 0.0) == pytest.approx(-2.0, abs=0.01)

    def test_too_few_points(self):
        trace = self._synthetic(1.0 / np.arange(1, 31))
        with pytest.raises(RateFitError):
            fit_rate(trace, 0.0)

    def test_scheme_rates_on_a_market(self):
        m = small_market(6, n=8)
        ref = reference_solve(m)
        ter_star = m.ter(ref.price)
        basic = solve(m, SolverConfig(scheme="basic"))
        accel = solve(m, SolverConfig(scheme="accelerated"))
        assert fit_rate(basic, ter_star) <= -0.85
        assert fit_rate(accel, ter_star) <= -1.75


def _raise(*args, **kwargs):
    raise AssertionError("reference_solve must not run a pricing scheme")


class TestReferenceSolve:
    def test_independent_of_pricing_schemes(self, monkeypatch, six_good_market):
        monkeypatch.setattr(solvers, "solve", _raise)
        monkeypatch.setattr(solvers, "gamma_next", _raise)
        ref = reference_solve(six_good_market)
        assert ref.converged
        assert ref.grad_norm[-1] <= REFERENCE_TOL

    def test_trace_rows_are_newton_iterations(self, six_good_market, caplog):
        with caplog.at_level(logging.INFO, logger="marketclear.solvers"):
            ref = reference_solve(six_good_market)
        assert ref.scheme == "reference"
        assert 1 <= ref.iterations <= REFERENCE_MAX_ITERS
        assert np.all((ref.steps > 0) & (ref.steps <= 1))
        np.testing.assert_array_equal(ref.price, np.maximum(ref.price, 0))
        assert ref.grad_norm[-1] == pytest.approx(
            six_good_market.equilibrium_residual(ref.price).grad_norm, abs=1e-15)
        done = [r.getMessage() for r in caplog.records if "reference done" in r.getMessage()]
        assert len(done) == 1
        assert f"newton_iters={ref.iterations} " in done[0]
        assert "oracle_evals=" in done[0] and "residual=" in done[0]

    def test_start_at_the_optimum_records_one_row(self, six_good_market):
        ref = reference_solve(six_good_market)
        again = reference_solve(six_good_market, p0=ref.price)
        assert again.converged
        assert again.iterations == 1
        assert again.steps[0] == 0.0
        np.testing.assert_array_equal(again.price, ref.price)

    def test_rejects_bad_start(self, six_good_market):
        for run in (lambda p0: reference_solve(six_good_market, p0=p0),
                    lambda p0: solve(six_good_market, SolverConfig(p0=p0))):
            with pytest.raises(ConfigError, match="shape"):
                run(np.zeros(3))
            with pytest.raises(ConfigError, match="nonnegative"):
                run(-np.ones(6))

    def test_singular_hessian_at_start(self):
        # one consumer type, and at p = 0 every supplier is clipped at its
        # lower bound: the potential's Hessian there is singular
        m = specio.market_from_document(specio.batch_market(9))
        assert len(m.consumers) == 1
        assert np.linalg.eigvalsh(solvers._fd_hessian(m, np.zeros(m.n)))[0] < 1e-8
        ref = reference_solve(m)
        assert ref.converged

    def test_good_priced_at_zero(self):
        # a supplier obliged to produce more of good 0 than the whole
        # population could buy leaves excess supply there at every price,
        # so the optimum sits on the boundary p_0 = 0
        m = small_market(11, n=4)
        s = m.suppliers[0]
        lo = s.lo.copy()
        lo[0] = 1.5 * m.total_population
        hi = np.maximum(s.hi, lo)
        m = mc.Market(n=m.n, consumers=m.consumers,
                      suppliers=(dataclasses.replace(s, lo=lo, hi=hi),) + m.suppliers[1:])
        ref = reference_solve(m)
        assert ref.converged
        assert ref.price[0] == 0.0
        assert m.ter_gradient(ref.price)[0] > 0
        assert np.all(ref.price[1:] > 0)

    def test_single_good_closed_form(self):
        m = specio.load_market(SPEC_DIR / "single_good.json")
        ref = reference_solve(m)
        assert ref.converged
        assert abs(ref.price[0] - 3.0) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 10), j=st.integers(1, 3), k=st.integers(1, 3),
           seed=st.integers(0, 10_000))
    def test_no_worse_than_the_accelerated_scheme(self, n, j, k, seed):
        m = specio.market_from_document(specio.generate_market(n, j, k, seed=seed))
        ref = reference_solve(m)
        assert ref.converged
        assert ref.min_excess[-1] >= -1e-9
        ter_ref = m.ter(ref.price)
        ter_accel = m.ter(solve(m, SolverConfig(scheme="accelerated")).price)
        assert ter_ref <= ter_accel + 1e-12 * max(1.0, abs(ter_accel))
