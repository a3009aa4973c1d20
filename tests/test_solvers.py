import dataclasses
import itertools
import json
import logging
import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import marketclear as mc
from marketclear import solvers, specio
from marketclear.market import clearing_residuals
from marketclear.solvers import (
    REFERENCE_MAX_ITERS,
    REFERENCE_TOL,
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

    BAD_CONFIG = [
        ("tol", float("nan"), "tolerance must be finite and >= 0, got nan"),
        ("tol", float("inf"), "tolerance must be finite and >= 0, got inf"),
        ("tol", -1e-8, "tolerance must be finite and >= 0, got -1e-08"),
        ("step", float("nan"), "step size must be positive, got nan"),
        ("step", 0.0, "step size must be positive, got 0.0"),
        ("step", -0.1, "step size must be positive, got -0.1"),
        ("max_iters", 2.5, "max_iters: must be an integer >= 1, got 2.5"),
        ("max_iters", float("nan"), "max_iters: must be an integer >= 1, got nan"),
        ("step", "0.1", "step: expected a number, got str"),
        ("tol", "1e-8", "tol: expected a number, got str"),
        ("tol", True, "tol: expected a number, got bool"),
        ("step", True, "step: expected a number, got bool"),
        ("max_iters", True, "max_iters: must be an integer >= 1, got True"),
    ]

    @pytest.mark.parametrize("field, value, message", BAD_CONFIG,
                             ids=[f"{field}-{value}" for field, value, _ in BAD_CONFIG])
    def test_config_rejects_bad_tol_and_step(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SolverConfig(**{field: value})

    NON_NUMERIC_P0 = [
        (["a"], "p0[0]: expected a number, got str"),
        ([[1.0, 2.0], [3.0]], "p0[0]: expected a number, got list"),
        ({"a": 1}, "p0: expected a number, got dict"),
        (["2.9"], "p0[0]: expected a number, got str"),
        ([True], "p0[0]: expected a number, got bool"),
        ([2.9, True], "p0[1]: expected a number, got bool"),
    ]

    @pytest.mark.parametrize("p0, message", NON_NUMERIC_P0,  # ids as for p0 alone
                             ids=[f"p0{i}" for i in range(len(NON_NUMERIC_P0))])
    def test_non_numeric_p0_is_a_config_error(self, single_good_market, p0, message):
        for run in (lambda: solve(single_good_market, SolverConfig(p0=p0)),
                    lambda: reference_solve(single_good_market, p0=p0)):
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                run()

    def test_max_iters_cap(self, single_good_market, six_good_market):
        trace = solve(single_good_market, SolverConfig(max_iters=3))
        assert not trace.converged
        assert trace.iterations == 3
        assert trace.stop == "max_iters"
        # prices so far above z that p - z rounds to p: no false convergence,
        # and the first block's equal iterates end the run
        for scheme in solvers.SCHEMES:
            far = solve(six_good_market,
                        SolverConfig(scheme=scheme, p0=np.full(6, 1e18), max_iters=200))
            assert (far.iterations, far.stop, far.converged) == (64, "stalled", False)
            assert far.oracle_evals == 64
            assert far.grad_norm[-1] > 1.0

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

    def test_zero_momentum_turns_accelerated_into_basic(self, monkeypatch):
        # the scheme chooses the momentum sequence and nothing else
        m = specio.load_market(SPEC_DIR / "market_n6.json")
        basic = solve(m, SolverConfig(scheme="basic"))
        monkeypatch.setattr(solvers, "_nesterov_momentum", lambda: itertools.repeat(0.0))
        accel = solve(m, SolverConfig(scheme="accelerated"))
        for field in ("ter", "grad_norm", "min_excess", "complementarity", "steps", "price"):
            np.testing.assert_array_equal(getattr(accel, field), getattr(basic, field),
                                          err_msg=field)
        assert ((accel.iterations, accel.converged, accel.oracle_evals, accel.blocks)
                == (basic.iterations, basic.converged, basic.oracle_evals, basic.blocks))

    def test_divergence_guard_names_iteration(self):
        # z = -inf or NaN in one step makes that iterate +inf or NaN; the bad
        # row opens the first block, sits second in it, or inside a later one
        m = specio.load_market(SPEC_DIR / "market_n6.json")
        for bad, scheme, iterate in itertools.product(
                (-np.inf, np.nan), ("basic", "accelerated"), (1, 2, 100)):
            out, priced = _solve_failing(m, SolverConfig(scheme=scheme, tol=0.0),
                                         iterate=iterate, bad=bad)
            assert isinstance(out, DivergedError)
            assert (str(out), out.iteration) == (
                f"non-finite iterate at iteration {iterate}", iterate)
            # the rows from the non-finite iterate on are never priced
            assert sum(priced) == iterate - 1

    def test_non_finite_z_names_its_row(self):
        # z_i = +inf leaves the natural-map residual finite; <p, z> catches it
        # the bad row closes a one-row block, or sits second in a two-row one
        for p_i, z_i in [(1.0, np.inf), (0.0, np.inf), (1.0, -np.inf), (1.0, np.nan)]:
            rec = solvers._Recorder(0.1)
            assert not rec.record(np.ones((1, 2)), np.zeros(1), np.full((1, 2), 0.5))
            with (pytest.raises(DivergedError, match="non-finite iterate at iteration 2$") as err,
                  np.errstate(invalid="ignore")):
                rec.record(np.array([[p_i, 1.0]]), np.zeros(1), np.array([[z_i, 0.5]]))
            assert err.value.iteration == 2
            rec = solvers._Recorder(0.1)
            with (pytest.raises(DivergedError, match="non-finite iterate at iteration 2$") as err,
                  np.errstate(invalid="ignore")):
                rec.record(np.array([[1.0, 1.0], [p_i, 1.0]]), np.zeros(2),
                           np.array([[0.5, 0.5], [z_i, 0.5]]))
            assert err.value.iteration == 2
            assert rec.iterations == 0

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
        calls, blocks = [], []

        def counting(self, x, *args):
            (calls if x.ndim == 1 else blocks).append(1)
            return kernel(self, x, *args)

        monkeypatch.setattr(_FlatMarket, "kernel", counting)
        with caplog.at_level(logging.INFO, logger="marketclear.solvers"):
            trace = solve(six_good_market, SolverConfig(scheme=scheme))
        done = [r.getMessage() for r in caplog.records if "solve done" in r.getMessage()]
        assert len(done) == 1
        t = trace.iterations
        assert trace.converged and t >= 2
        # the loop runs whole blocks of 64 iterations and computes z(q_t)
        # once per step under either scheme, q_t = p_t where the momentum
        # is zero
        run = min(-(-t // 64) * 64, SolverConfig().max_iters)
        assert len(calls) == run
        # each block's iterates are priced by one batched call
        assert len(blocks) == -(-t // 64)
        assert (trace.oracle_evals, trace.blocks, trace.stop) == (len(calls), len(blocks), "tol")
        assert f"iters={t} " in done[0]
        assert " stop=tol " in done[0]
        assert f" oracle_evals={len(calls)} " in done[0]
        assert f" ter_blocks={len(blocks)} " in done[0]
        wall = float(done[0].split("wall_s=")[1])
        assert 0.0 < wall < 60.0
        assert f"wall_s={trace.wall_s:.3f}" in done[0]

    def test_single_point_oracle_matches_block_kernel(self, monkeypatch):
        # the solvers call the kernel on one price vector; a run that sends
        # each vector through the block branch as column 0 of a two-column
        # block (a one-column block goes to the point kernel) must give the
        # same trace bit for bit (blocks of TER rows pass through as they are)
        from marketclear.market import _FlatMarket

        kernel = _FlatMarket.kernel

        def via_block(self, p, value, grad):
            if p.ndim == 2:
                return kernel(self, p, value, grad)
            ter, z = kernel(self, np.column_stack([p, p]), value, grad)
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

    @pytest.mark.parametrize("scheme", ["basic", "accelerated"])
    @pytest.mark.parametrize("options", [{"max_iters": 7}, {"tol": 0.0, "max_iters": 128}, {}])
    def test_deferred_ter_matches_each_iterate(self, monkeypatch, scheme, options):
        # fewer rows than one block, exactly two blocks, and a converged
        # run that ends inside a block; every row's TER is that of its iterate
        record = solvers._Recorder.record
        iterates = []

        def keeping(self, p, *args, **kwargs):
            iterates.extend(p.copy())  # one block of iterates
            return record(self, p, *args, **kwargs)

        monkeypatch.setattr(solvers._Recorder, "record", keeping)
        m = specio.load_market(SPEC_DIR / "market_n6.json")
        trace = solve(m, SolverConfig(scheme=scheme, **options))
        t = trace.iterations
        # the loop runs whole blocks; the rows after the stop are dropped
        assert len(iterates) == min(-(-t // 64) * 64, SolverConfig(**options).max_iters)
        if options:
            assert t == options["max_iters"]
        else:
            assert trace.converged and t % 64 != 0
        np.testing.assert_array_equal(trace.price, iterates[t - 1])
        single = np.array([m.ter(p) for p in iterates[:t]])
        assert np.all(np.abs(trace.ter - single) <= 1e-12 * np.maximum(1.0, np.abs(single)))

    def test_non_finite_ter_in_a_later_block_names_its_iteration(self, monkeypatch):
        from marketclear.market import _FlatMarket
        from marketclear.solvers import DivergedError

        kernel = _FlatMarket.kernel
        priced = []  # rows of TER priced so far

        def overflowing_at_100(self, x, value, grad):
            ter, z = kernel(self, x, value, grad)
            if value and x.ndim == 2:
                rows = len(priced) + np.arange(1, x.shape[1] + 1)
                priced.extend(rows)
                ter = np.where(rows == 100, -np.inf, ter)
            return ter, z

        monkeypatch.setattr(_FlatMarket, "kernel", overflowing_at_100)
        m = specio.load_market(SPEC_DIR / "market_n6.json")
        for scheme in ("basic", "accelerated"):
            priced.clear()
            with pytest.raises(DivergedError, match="TER.*iteration 100") as err:
                solve(m, SolverConfig(scheme=scheme, tol=0.0, max_iters=300))
            assert err.value.iteration == 100

    def test_earlier_ter_failure_wins_over_a_later_iterate(self):
        # the TER fails in an earlier block, on its last row or inside it
        m = specio.load_market(SPEC_DIR / "market_n6.json")
        for scheme, (ter, iterate) in itertools.product(
                ("basic", "accelerated"), ((64, 65), (70, 100))):
            out, _ = _solve_failing(m, SolverConfig(scheme=scheme, tol=0.0),
                                    iterate=iterate, ter=ter)
            assert isinstance(out, DivergedError)
            assert str(out) == f"non-finite potential value (TER) at iteration {ter}"
            assert out.iteration == ter

    @pytest.mark.parametrize("ter_row, iterate_row, stop_row, expected", [
        (3, 5, None, (3, "TER")), (5, 3, None, (3, "iterate")), (3, 3, None, (3, "iterate")),
        (3, 5, 2, None), (None, 5, 5, (5, "iterate")), (None, None, 2, None),
    ])
    def test_first_failure_among_kept_rows_is_reported(self, ter_row, iterate_row, stop_row,
                                                        expected):
        # rows 1..6 of one block: a TER that overflows, a non-finite iterate
        # and a row that meets the tolerance, each at a given row or nowhere
        m = specio.load_market(SPEC_DIR / "market_n6.json")
        tol = 0.0
        if stop_row:
            free = solve(m, SolverConfig(tol=0.0, max_iters=stop_row))
            tol = free.grad_norm[-1]
            assert free.grad_norm[:-1].min() > tol  # stop_row is the first to meet tol
        out, priced = _solve_failing(m, SolverConfig(tol=tol, max_iters=6),
                                     iterate=iterate_row, ter=ter_row)
        if expected is None:
            assert out.converged and out.iterations == stop_row
            assert out.grad_norm[-1] == tol
        else:
            assert isinstance(out, DivergedError)
            assert re.search(f"{expected[1]}.* at iteration {expected[0]}$", str(out))
            assert out.iteration == expected[0]
        # the rows from a non-finite iterate on are never priced
        assert priced == [iterate_row - 1 if iterate_row else 6]

    @pytest.mark.parametrize("ter_row, z_row, stop_row, expected", [
        (3, 5, None, (3, "TER")), (5, 3, None, (3, "iterate")), (3, 3, None, (3, "iterate")),
        (3, 5, 2, None), (None, 5, 5, (5, "iterate")), (None, None, 2, None),
    ])
    def test_first_z_or_ter_failure_among_kept_rows_is_reported(self, ter_row, z_row,
                                                                 stop_row, expected):
        # the recorder's checks of six priced rows: a TER that overflows, a
        # non-finite z (reported as its iterate) and a row that meets the
        # tolerance, each at a given row or nowhere
        p, z, value = np.ones((6, 1)), np.full((6, 1), 0.5), np.zeros(6)  # residual 0.5
        if stop_row:
            z[stop_row - 1] = 0.0
        if z_row:
            z[z_row - 1] = np.nan
        if ter_row:
            value[ter_row - 1] = -np.inf
        rec = solvers._Recorder(0.1)
        if expected is None:
            assert rec.record(p, value, z, tol=0.1)
            trace = rec.finish("basic", stop="tol")
            assert trace.iterations == stop_row
            np.testing.assert_array_equal(trace.grad_norm, [0.5] * (stop_row - 1) + [0.0])
        else:
            with pytest.raises(DivergedError, match=f"{expected[1]}.* at iteration "
                               f"{expected[0]}$") as err:
                rec.record(p, value, z, tol=0.1)
            assert err.value.iteration == expected[0]

    def test_a_diverged_row_never_stops(self):
        # z_i = +inf at p_i = 0 leaves the natural map at 0, so the residual
        # meets any tol; <p, z> = 0 * inf marks the row as diverged
        p, z = np.ones((3, 1)), np.full((3, 1), 0.5)
        p[1], z[1] = 0.0, np.inf
        rec = solvers._Recorder(0.1)
        with (pytest.raises(DivergedError, match="non-finite iterate at iteration 2$"),
              np.errstate(invalid="ignore")):
            rec.record(p, np.zeros(3), z, tol=0.1)

    def test_non_finite_iterate_opening_a_block_prices_no_empty_block(self):
        m = specio.load_market(SPEC_DIR / "market_n6.json")
        for scheme in ("basic", "accelerated"):
            out, priced = _solve_failing(m, SolverConfig(scheme=scheme, tol=0.0), iterate=65)
            assert isinstance(out, DivergedError)
            assert (str(out), out.iteration) == ("non-finite iterate at iteration 65", 65)
            assert priced == [64]

    def test_non_finite_iterate_after_the_stop_row_is_not_reported(self):
        m = specio.load_market(SPEC_DIR / "market_n6.json")
        for scheme, row in (("basic", 66), ("accelerated", 3)):
            free = solve(m, SolverConfig(scheme=scheme, tol=0.0, max_iters=row))
            tol = free.grad_norm[-1]
            assert free.grad_norm[:-1].min() > tol  # row is the first to meet tol
            clean = solve(m, SolverConfig(scheme=scheme, tol=tol))
            out, priced = _solve_failing(m, SolverConfig(scheme=scheme, tol=tol),
                                         iterate=row + 2)
            assert out.converged and out.iterations == row and out.stop == "tol"
            for field in ("ter", "grad_norm", "min_excess", "complementarity", "steps", "price"):
                np.testing.assert_array_equal(getattr(out, field), getattr(clean, field),
                                              err_msg=field)
            # the run ends at the non-finite iterate, and prices the rows before it
            assert (out.oracle_evals, out.blocks) == (row + 2, len(priced))
            assert sum(priced) == row + 1

    def test_no_checked_call_inside_the_solvers(self, monkeypatch):
        # the solvers check their start prices once and then price through
        # the market's unchecked kernel and evaluator
        from marketclear.rules import check_array

        m = specio.load_market(SPEC_DIR / "market_n6.json")
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return check_array(*args, **kwargs)

        monkeypatch.setattr("marketclear.market.check_array", counting)
        for scheme in ("basic", "accelerated"):
            assert solve(m, SolverConfig(scheme=scheme)).converged
        assert reference_solve(m).converged
        assert calls == []
        m.value_and_grad(np.zeros(m.n))  # the public methods do check
        assert calls == [1]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), j=st.integers(1, 3), k=st.integers(1, 3),
           seed=st.integers(0, 10_000), scheme=st.sampled_from(["basic", "accelerated"]),
           max_iters=st.sampled_from([1, 2, 63, 64, 65, 128]),
           tol=st.sampled_from([0.0, 1e-3, 1e-1]))
    def test_blocked_loop_matches_a_plain_loop(self, n, j, k, seed, scheme, max_iters, tol):
        m = specio.market_from_document(specio.generate_market(n, j, k, seed=seed))
        _assert_matches_plain_loop(m, SolverConfig(scheme=scheme, max_iters=max_iters, tol=tol))

    @pytest.mark.parametrize("scheme, market, row", [
        ("basic", "market_n6", 64), ("basic", "market_n6", 128), ("accelerated", "n4", 64)])
    def test_stop_on_the_last_row_of_a_block(self, scheme, market, row):
        m = (specio.load_market(SPEC_DIR / "market_n6.json") if market == "market_n6" else
             specio.market_from_document(specio.generate_market(4, 2, 2, seed=0)))
        free = solve(m, SolverConfig(scheme=scheme, tol=0.0, max_iters=row))
        tol = free.grad_norm[-1]
        assert free.grad_norm[:-1].min() > tol  # row is the first to meet tol
        trace = _assert_matches_plain_loop(m, SolverConfig(scheme=scheme, tol=tol))
        assert trace.converged and trace.iterations == row and trace.stop == "tol"
        # no speculative iterate was run past the block
        assert (trace.oracle_evals, trace.blocks) == (row, row // 64)


def _solve_failing(market: mc.Market, config: SolverConfig, iterate=None, ter=None,
                   bad=-np.inf):
    """solve(market, config) under a kernel whose single-point call of
    iteration `iterate` returns z = bad, which makes that iterate
    non-finite, and an evaluator that gives the block row `ter` (counted
    over all blocks) TER -inf. Returns the trace, or the DivergedError
    raised, and the rows of each block priced."""
    from marketclear.market import _FlatMarket

    kernel, evaluate, calls, priced = _FlatMarket.kernel, _FlatMarket.evaluate, [], []

    def point(self, x, value, grad):
        t, z = kernel(self, x, value, grad)
        if x.ndim == 1:
            calls.append(1)
            if len(calls) == iterate:
                z = np.full_like(z, bad)
        return t, z

    def block(self, p, value, grad):
        t, z = evaluate(self, p, value, grad)
        rows = sum(priced) + np.arange(1, len(p) + 1)
        priced.append(len(p))
        return np.where(rows == ter, -np.inf, t), z

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_FlatMarket, "kernel", point)
        mp.setattr(_FlatMarket, "evaluate", block)
        try:
            return solve(market, config), priced
        except DivergedError as exc:
            return exc, priced


def _plain_loop(market: mc.Market, config: SolverConfig):
    """The pricing loop without blocks: one single-point z per step, and
    the residual, stop test and TER of each iterate taken as it comes."""
    h = 1.0 / market.smoothness_constant()
    p = p_prev = np.zeros(market.n)
    z = market.ter_gradient(p)
    gamma, rows, converged = 1.0, [], False
    for t in range(config.max_iters):
        beta = 0.0
        if config.scheme == "accelerated" and t >= 1:
            g, gamma = gamma, gamma_next(gamma)
            beta = (g - 1.0) / gamma
        if beta == 0.0:
            q, zq = p, z
        else:
            q = p + beta * (p - p_prev)
            zq = market.ter_gradient(q)
        p_prev, p = p, np.maximum(q - h * zq, 0.0)
        z = market.ter_gradient(p)
        residual, min_excess, complementarity = clearing_residuals(p, z)
        rows.append((market.ter(p), residual, min_excess, complementarity))
        if residual <= config.tol:
            converged = True
            break
    return np.array(rows).T, p, converged, h


def _assert_matches_plain_loop(market: mc.Market, config: SolverConfig) -> Trace:
    """solve's trace against _plain_loop: the same rows, price and step bit
    for bit, and TER, residual and <p, z> to 1e-12 * max(1, |x|); and one
    single-point call per iteration run and one batched call per block."""
    trace = solve(market, config)
    cols, price, converged, h = _plain_loop(market, config)
    ter, residual, min_excess, complementarity = cols
    assert trace.iterations == len(ter)
    assert trace.converged == converged
    blocks = -(-len(ter) // 64)
    assert trace.blocks == blocks
    assert trace.oracle_evals == min(blocks * 64, config.max_iters)
    np.testing.assert_array_equal(trace.price, price)
    np.testing.assert_array_equal(trace.min_excess, min_excess)
    np.testing.assert_array_equal(trace.steps, np.full(len(ter), h))
    for got, want in ((trace.ter, ter), (trace.grad_norm, residual),
                      (trace.complementarity, complementarity)):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    return trace


RUN_FIELDS = ("ter", "grad_norm", "min_excess", "complementarity", "steps", "price")


def _assert_same_run(got, want):
    """A lockstep run's outcome against its single run: the same trace
    columns, price and counts, or a DivergedError of the same iteration."""
    if isinstance(want, DivergedError):
        assert isinstance(got, DivergedError)
        assert (str(got), got.iteration) == (str(want), want.iteration)
        return
    for field in RUN_FIELDS:
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)
    assert ((got.iterations, got.oracle_evals, got.blocks, got.stop, got.step)
            == (want.iterations, want.oracle_evals, want.blocks, want.stop, want.step))


def _single(market, config):
    try:
        return solve(market, config)
    except DivergedError as exc:
        return exc


def _ter_overflow_market():
    """market_n6 with one supplier's y_nat[0] = 1e200, past the magnitude
    rule of market data: z stays finite, and TER is -inf at every price."""
    m = specio.load_market(SPEC_DIR / "market_n6.json")
    s = dataclasses.replace(m.suppliers[0])
    y_nat = s.y_nat.copy()
    y_nat[0] = 1e200
    object.__setattr__(s, "y_nat", y_nat)
    return mc.Market(m.n, m.consumers, (s, *m.suppliers[1:]))


def _priced_rows(runs, fail):
    """The rows that `solve_many(runs)` prices for each run, concatenated,
    under a kernel whose c-th point call on the stack of all runs gives
    z = -inf on the goods fail[c]. Each run needs its own market object."""
    from marketclear.market import _FlatMarket

    kernel, evaluate = _FlatMarket.kernel, _FlatMarket.evaluate
    n = sum(m.n for m, _ in runs)
    calls, priced = [], {id(m._flat): [] for m, _ in runs}

    def failing(self, x, value, grad):
        t, z = kernel(self, x, value, grad)
        if x.ndim == 1 and self.n == n:
            calls.append(1)
            if len(calls) in fail:
                z[fail[len(calls)]] = -np.inf
        return t, z

    def pricing(self, p, value, grad):
        priced[id(self)].append(p.copy())
        return evaluate(self, p, value, grad)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_FlatMarket, "kernel", failing)
        mp.setattr(_FlatMarket, "evaluate", pricing)
        try:
            solvers.solve_many(runs)
        except DivergedError:
            assert fail
    return [np.concatenate(priced[id(m._flat)]) for m, _ in runs]


class TestSolveMany:
    def test_lockstep_runs_equal_single_runs(self, lockstep_batch):
        # the 20 batch markets under both schemes, and both shipped specs,
        # in one call
        runs, traces, _ = lockstep_batch
        for (m, config), got in zip(runs, traces, strict=True):
            _assert_same_run(got, solve(m, config))

    def test_no_runs(self):
        assert solvers.solve_many([]) == []

    def test_mixed_runs(self):
        # markets of different n, J and K (one good with nine suppliers
        # among them, whose column numpy would sum pairwise), different tol, max_iters and step, a start that
        # stalls and a TER that overflows at iteration 1
        n6 = specio.load_market(SPEC_DIR / "market_n6.json")
        lone = specio.market_from_document(specio.generate_market(1, 2, 9, seed=3))
        wide = specio.market_from_document(specio.generate_market(9, 3, 1, seed=5))
        small = specio.market_from_document(specio.generate_market(4, 1, 3, seed=8))
        runs = [
            (n6, SolverConfig(scheme="basic")),
            (lone, SolverConfig(scheme="accelerated")),
            (wide, SolverConfig(scheme="basic", tol=1e-4, max_iters=100)),
            (small, SolverConfig(scheme="accelerated", tol=1e-3,
                                 step=0.5 / small.smoothness_constant(), max_iters=1000)),
            (n6, SolverConfig(scheme="accelerated", p0=np.full(6, 1e18))),
            (_ter_overflow_market(), SolverConfig(scheme="accelerated")),
            (n6, SolverConfig(scheme="accelerated", max_iters=3)),
        ]
        with np.errstate(over="ignore"):
            with pytest.raises(DivergedError) as err:
                solvers.solve_many(runs)
            singles = [_single(m, config) for m, config in runs]
        assert err.value is err.value.results[5]
        for got, want in zip(err.value.results, singles, strict=True):
            _assert_same_run(got, want)
        stops = [getattr(r, "stop", None) for r in singles]
        assert stops == ["tol", "tol", "max_iters", "tol", "stalled", None, "max_iters"]
        assert (singles[5].iteration, str(singles[5])) == (
            1, "non-finite potential value (TER) at iteration 1")

    def test_non_finite_iterates_stop_only_their_runs(self, monkeypatch):
        # the stacked kernel's z is -inf on run 0's goods at iteration 100
        # and on run 2's at iteration 70: each of them ends there, the
        # others run to their own ends, and run 0's error is raised
        from marketclear.market import _FlatMarket

        n6 = specio.load_market(SPEC_DIR / "market_n6.json")
        other = small_market(2)
        runs = [(n6, SolverConfig(scheme="basic", tol=0.0, max_iters=300)),
                (other, SolverConfig(scheme="accelerated", tol=0.0, max_iters=300)),
                (n6, SolverConfig(scheme="accelerated", tol=0.0, max_iters=300)),
                (other, SolverConfig(scheme="basic"))]
        singles = [solve(m, config) for m, config in runs]
        kernel, calls = _FlatMarket.kernel, []
        fail = {100: slice(0, 6), 70: slice(6 + other.n, 12 + other.n)}

        def failing(self, x, value, grad):
            t, z = kernel(self, x, value, grad)
            if x.ndim == 1 and self.n == 12 + 2 * other.n:  # the stack of all four
                calls.append(1)
                if len(calls) in fail:
                    z[fail[len(calls)]] = -np.inf
            return t, z

        monkeypatch.setattr(_FlatMarket, "kernel", failing)
        with pytest.raises(DivergedError) as err:
            solvers.solve_many(runs)
        results = err.value.results
        assert err.value is results[0]
        assert [(str(results[i]), results[i].iteration) for i in (0, 2)] == [
            ("non-finite iterate at iteration 100", 100), ("non-finite iterate at iteration 70", 70)]
        for i in (1, 3):
            _assert_same_run(results[i], singles[i])

    def test_a_divergence_leaves_priced_rows_alone(self):
        # the loop's p and p_prev are rows of its block of iterates; when
        # an iterate turns non-finite, the rows priced before it are those
        # of a clean run, alone and in the stack of four runs above
        def n6():
            return specio.load_market(SPEC_DIR / "market_n6.json")

        for scheme in solvers.SCHEMES:
            runs = [(n6(), SolverConfig(scheme=scheme, tol=0.0, max_iters=300))]
            (got,), (want,) = _priced_rows(runs, {100: slice(0, 6)}), _priced_rows(runs, {})
            assert len(got) == 99
            np.testing.assert_array_equal(got, want[:99])
        k = small_market(2).n
        runs = [(n6(), SolverConfig(scheme="basic", tol=0.0, max_iters=300)),
                (small_market(2), SolverConfig(scheme="accelerated", tol=0.0, max_iters=300)),
                (n6(), SolverConfig(scheme="accelerated", tol=0.0, max_iters=300)),
                (small_market(2), SolverConfig(scheme="basic"))]
        got = _priced_rows(runs, {100: slice(0, 6), 70: slice(6 + k, 12 + k)})
        want = _priced_rows(runs, {})
        assert [len(rows) for rows in got] == [99, len(want[1]), 69, len(want[3])]
        for rows, clean in zip(got, want, strict=True):
            np.testing.assert_array_equal(rows, clean[:len(rows)])

    def test_no_false_divergence_at_the_largest_start(self):
        # every price at the magnitude rule's maximum: the loop tests an
        # iterate's finiteness by its sum, which must not overflow
        from marketclear.rules import MAX_MAGNITUDE

        markets = [specio.load_market(SPEC_DIR / name)
                   for name in ("market_n6.json", "single_good.json")]
        runs = [(m, SolverConfig(scheme=scheme, p0=np.full(m.n, MAX_MAGNITUDE)))
                for m in markets for scheme in solvers.SCHEMES]
        singles = [solve(m, config) for m, config in runs]
        assert {t.stop for t in singles} <= {"stalled", "max_iters", "tol"}
        for got, want in zip(solvers.solve_many(runs), singles, strict=True):
            _assert_same_run(got, want)

    def test_debug_lines_report_every_block(self, caplog):
        n6 = specio.load_market(SPEC_DIR / "market_n6.json")
        runs = [(n6, SolverConfig(scheme=scheme)) for scheme in solvers.SCHEMES]
        with caplog.at_level(logging.INFO, logger="marketclear.solvers"):
            solvers.solve_many(runs)
        assert not [r for r in caplog.records if r.levelno == logging.DEBUG]
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="marketclear.solvers"):
            traces = solvers.solve_many(runs)
        lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert len(lines) == sum(t.blocks for t in traces)
        for t in traces:
            mine = [line for line in lines if f" scheme={t.scheme} " in line]
            assert len(mine) == t.blocks
            assert mine[-1] == (f"solve block: scheme={t.scheme} iter={t.iterations} "
                                f"residual={t.grad_norm[-1]:.3e} ter={t.ter[-1]:.17g} "
                                f"step={t.step:g}")
            assert mine[0].split(" iter=")[1].startswith("64 ")


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
            price=np.zeros(1), stop="tol",
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

    @pytest.mark.parametrize("ter_star, error, message", [
        ("x", mc.DomainError, "ter_star: expected a number, got str"),
        (None, mc.DomainError, "ter_star: expected a number, got NoneType"),
        (True, mc.DomainError, "ter_star: expected a number, got bool"),
        (math.nan, mc.DomainError, "ter_star must be finite, got nan"),
        (-math.inf, mc.DomainError, "ter_star must be finite, got -inf"),
    ])
    def test_ter_star_is_a_finite_number(self, ter_star, error, message):
        trace = self._synthetic(3.0 / np.arange(1, 101))
        with pytest.raises(error, match=re.escape(message)):
            fit_rate(trace, ter_star)
        assert fit_rate(trace, np.int64(0)) == pytest.approx(-1.0, abs=0.01)

    def test_scheme_rates_on_a_market(self):
        m = small_market(6, n=8)
        ref = reference_solve(m)
        ter_star = m.ter(ref.price)
        basic = solve(m, SolverConfig(scheme="basic"))
        accel = solve(m, SolverConfig(scheme="accelerated"))
        assert fit_rate(basic, ter_star) <= -0.85
        assert fit_rate(accel, ter_star) <= -1.75


@pytest.mark.parametrize("spec", ["market_n6.json", "single_good.json"])
@pytest.mark.parametrize("scheme", [*solvers.SCHEMES, "reference"])
def test_last_row_holds_the_residuals_of_the_price(spec, scheme):
    # the CLI summary prints the last trace row as the residuals of the price
    m = specio.load_market(SPEC_DIR / spec)
    trace = reference_solve(m) if scheme == "reference" else solve(m, SolverConfig(scheme))
    r = m.equilibrium_residual(trace.price)
    last = (trace.grad_norm[-1], trace.min_excess[-1], trace.complementarity[-1])
    assert (r.grad_norm, r.min_excess, r.complementarity) == last
    if scheme == "reference":
        assert m.ter(trace.price) == trace.ter[-1]


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
        done = [r.getMessage() for r in caplog.records if "reference done" in r.getMessage()]
        assert len(done) == 1
        assert f"newton_iters={ref.iterations} " in done[0]
        assert "oracle_evals=" in done[0] and "residual=" in done[0]

    def test_trace_counts_the_run(self, six_good_market, caplog, monkeypatch):
        # the market's evaluator prices each line-search point as one price
        # vector and each Hessian as one block of 2n rows
        from marketclear.market import _FlatMarket

        points, hessians = [], []
        evaluate = _FlatMarket.evaluate

        def counting(self, p, value, grad):
            (points if p.ndim == 1 else hessians).append(len(p))
            return evaluate(self, p, value, grad)

        monkeypatch.setattr(_FlatMarket, "evaluate", counting)
        with caplog.at_level(logging.INFO, logger="marketclear.solvers"):
            ref = reference_solve(six_good_market)
        assert (ref.oracle_evals, ref.blocks, ref.stop) == (len(points), len(hessians), "tol")
        assert set(hessians) == {2 * six_good_market.n}
        assert 0.0 < ref.wall_s < 60.0
        done = [r.getMessage() for r in caplog.records if "reference done" in r.getMessage()]
        assert f" oracle_evals={len(points)} " in done[0]
        assert f" hessian_rows={2 * six_good_market.n * len(hessians)} " in done[0]
        assert f" residual={ref.grad_norm[-1]:.3e} " in done[0]
        # a search that finds no acceptable step stops the solve at the start
        monkeypatch.setattr(solvers, "_MAX_HALVINGS", 0)
        stuck = reference_solve(six_good_market)
        assert (stuck.iterations, stuck.converged, stuck.stop) == (1, False, "no_step")

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
            # the rule of market data: finite, and at most 1e50, where the
            # potential and <p, z> stay finite
            for p0, message in (([1.0, np.nan, 1.0, 1.0, 1.0, 1.0], "must be finite"),
                                ([1e50, 1e308, 1e308, 0.0, 0.0, 0.0], "magnitude exceeds 1e+50")):
                with pytest.raises(ConfigError, match=f"^{re.escape(f'p0[1]: {message}')}$") as exc:
                    run(np.array(p0))
                assert (exc.value.code, exc.value.field) == ("non-finite", "p0[1]")

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

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), j=st.integers(1, 3), k=st.integers(1, 3),
           seed=st.integers(0, 10_000), flat_cost=st.booleans())
    @example(n=6, j=2, k=2, seed=9, flat_cost=False)
    @example(n=6, j=2, k=2, seed=2, flat_cost=True)
    @example(n=5, j=1, k=2, seed=7177, flat_cost=True)
    @example(n=5, j=1, k=1, seed=7207, flat_cost=False)
    def test_no_worse_than_the_accelerated_scheme_on_steep_supply(self, n, j, k, seed,
                                                                  flat_cost):
        # each supplier's gamma times 10^U(-3, 0), and with flat_cost no
        # quadratic base cost (d = 0): a residual-halving step that raised
        # TER let the reference alternate between two points (seeds 9 and
        # 2), and an optimum where a steep supply meets its box left the
        # differenced Newton step crawling (seeds 7177 and 7207)
        m = specio.market_from_document(specio.generate_market(n, j, k, seed=seed))
        rng = np.random.default_rng(seed)
        m = mc.Market(n, m.consumers, tuple(
            dataclasses.replace(s, gamma=s.gamma * 10 ** rng.uniform(-3, 0),
                                d=np.zeros(n) if flat_cost else s.d)
            for s in m.suppliers))
        ref = reference_solve(m)
        assert ref.converged
        ter_ref = m.ter(ref.price)
        ter_accel = m.ter(solve(m, SolverConfig(scheme="accelerated")).price)
        assert ter_ref <= ter_accel + 1e-12 * max(1.0, abs(ter_accel))

    def test_steep_spec_takes_few_newton_steps(self):
        # market_n6 with suppliers[1].gamma times 1e-4 (d = 0 there): the
        # differenced Newton step crawled along the kinks of its supply
        doc = json.loads((SPEC_DIR / "market_n6.json").read_text())
        doc["suppliers"][1]["gamma"] *= 1e-4
        ref = reference_solve(specio.market_from_document(doc))
        assert ref.converged
        assert ref.iterations <= 10

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), j=st.integers(1, 3), k=st.integers(1, 3),
           seed=st.integers(0, 10_000))
    @example(n=6, j=1, k=2, seed=4020)
    @example(n=6, j=2, k=3, seed=9740)
    @example(n=8, j=1, k=2, seed=8606)
    @example(n=6, j=3, k=3, seed=6162)
    @example(n=7, j=2, k=3, seed=7534)
    def test_very_steep_supply_stops_at_the_rounding_floor(self, n, j, k, seed):
        """Each supplier's gamma times 10^U(-8, -3), and d = 0: the run
        converges, or finds no acceptable step at a residual of at most
        100 B, B = u max(1, ||p||_inf) sum_k max_i 1 / (d_ki + 2 gamma_k).

        B is the floor that the grid of prices sets on the residual. A
        price is a double, so a good's price can move by no less than
        an ulp, 2 u |p_i| with u = 2^-53, and on its linear piece
        supplier k's response moves with it by 1 / (d_ki + 2 gamma_k)
        per unit of price. So z_i can miss zero by half a jump of about
        2 u max(1, |p_i|) sum_k 1 / (d_ki + 2 gamma_k) at every
        representable price, up to B per good, where the consumers'
        shallow demand adds no steeper term. The l2 residual over n <= 8
        goods is then up to sqrt(8) B, and the line search's trial
        points lie on the projection arc, a few ulps from the best
        price; 100 B covers both. The examples ended at max_iters, at
        residuals from 4.7e-4 to 7.5, while the search compared values
        of the piecewise-linear model and fell back on the differenced
        Newton step.
        """
        m = specio.market_from_document(specio.generate_market(n, j, k, seed=seed))
        rng = np.random.default_rng(seed)
        m = mc.Market(n, m.consumers, tuple(
            dataclasses.replace(s, gamma=s.gamma * 10 ** rng.uniform(-8, -3), d=np.zeros(n))
            for s in m.suppliers))
        ref = reference_solve(m)
        u = 2.0 ** -53
        floor = u * max(1.0, np.max(ref.price)) * sum(
            np.max(1.0 / (s.d + 2.0 * s.gamma)) for s in m.suppliers)
        assert ref.stop == "tol" or (ref.stop == "no_step" and ref.grad_norm[-1] <= 100 * floor)
