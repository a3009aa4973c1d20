import re

import hypothesis.strategies as st
import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings

import marketclear as mc
from marketclear import specio
from marketclear.market import _CHUNK_ROWS
from marketclear.solvers import SolverConfig, reference_solve, solve
from marketclear.verify import fd_gradient

from conftest import SPEC_DIR


def mp_market_value(market, p, dps=50):
    """Independent extended-precision evaluation of the market potential."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for s in market.suppliers:
            for i in range(market.n):
                stat = (mp.mpf(p[i]) - mp.mpf(s.c[i])
                        + 2 * mp.mpf(s.gamma) * mp.mpf(s.y_nat[i]))
                stat /= mp.mpf(s.d[i]) + 2 * mp.mpf(s.gamma)
                y = min(max(stat, mp.mpf(s.lo[i])), mp.mpf(s.hi[i]))
                total += mp.mpf(p[i]) * y - mp.mpf(s.c[i]) * y
                total -= mp.mpf(s.d[i]) * y * y / 2
                total -= mp.mpf(s.gamma) * (y - mp.mpf(s.y_nat[i])) ** 2
        for ct in market.consumers:
            acc = mp.mpf(0)
            for nest, mu in zip(ct.nests.nests, ct.nests.mu):
                inner = mp.mpf(0)
                for i in nest:
                    inner += mp.e ** ((mp.mpf(ct.a[i]) - mp.mpf(p[i])) / mp.mpf(mu))
                acc += inner ** mp.mpf(mu)
            total += mp.mpf(ct.count) * mp.log(acc)
        return float(total)


class TestPotentialValue:
    def test_single_good_hand_value(self, single_good_market):
        # pi(3) = 3*2 - (2 + 0.5*4) = 2 and E(-3) = -3, so 2 + 2*(-3) = -4
        assert single_good_market.ter([3.0]) == pytest.approx(-4.0, abs=1e-12)

    def test_convex_midpoint(self, six_good_market):
        rng = np.random.default_rng(0)
        p1 = rng.uniform(0, 5, (1000, 6))
        p2 = rng.uniform(0, 5, (1000, 6))
        mid = six_good_market.ter(0.5 * (p1 + p2))
        avg = 0.5 * (six_good_market.ter(p1) + six_good_market.ter(p2))
        assert np.max(mid - avg) <= 1e-10

    def test_extended_precision_oracle(self, six_good_market):
        rng = np.random.default_rng(42)
        for _ in range(5):
            p = rng.uniform(0, 4, 6)
            ours = six_good_market.ter(p)
            exact = mp_market_value(six_good_market, p)
            assert ours == pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_dimension_mismatch(self, six_good_market):
        with pytest.raises(mc.StructureError):
            six_good_market.ter(np.zeros(5))


class TestExcessSupply:
    def test_finite_difference_match(self):
        for seed in range(10):
            doc = specio.generate_market(int(3 + seed % 5), 1 + seed % 3, 1 + seed % 2,
                                         seed=seed)
            m = specio.market_from_document(doc)
            rng = np.random.default_rng(seed + 77)
            p = rng.uniform(0.5, 4, m.n)
            z = m.ter_gradient(p)
            fd = fd_gradient(m.ter, p)
            assert np.max(np.abs(z - fd)) / max(1.0, np.max(np.abs(z))) < 1e-6

    def test_demand_only_market(self):
        ns = mc.NestStructure(3, ((0, 1), (2,)), (0.5, 1.0))
        ct = mc.ConsumerType(count=4.0, a=[1.0, 0.0, -1.0], nests=ns)
        s = mc.Supplier(y_nat=[0.0] * 3, gamma=1.0, lo=[0.0] * 3, hi=[0.0] * 3,
                        c=[0.0] * 3)
        m = mc.Market(n=3, consumers=(ct,), suppliers=(s,))
        z = m.ter_gradient([1.0, 1.0, 1.0])
        assert np.all(z < 0)
        assert z.sum() == pytest.approx(-4.0, abs=1e-12)

    def test_zero_at_analytic_equilibrium(self, single_good_market):
        assert abs(single_good_market.ter_gradient([3.0])[0]) <= 1e-9


class TestSmoothnessConstant:
    def test_formula_small(self):
        ns = mc.NestStructure(2, ((0,), (1,)), (0.5, 1.0))
        ct = mc.ConsumerType(count=2.0, a=[0.0, 0.0], nests=ns)
        s = mc.Supplier(y_nat=[0.0, 0.0], gamma=0.5, lo=[0, 0], hi=[5, 5], c=[0, 0])
        m = mc.Market(n=2, consumers=(ct,), suppliers=(s,))
        assert m.smoothness_constant() == pytest.approx(6.0)

    def test_formula_two_types_two_suppliers(self):
        nsa = mc.NestStructure.single(2, mu=1.0)
        nsb = mc.NestStructure(2, ((0,), (1,)), (0.25, 0.5))
        cts = (
            mc.ConsumerType(count=1.0, a=[0.0, 0.0], nests=nsa),
            mc.ConsumerType(count=3.0, a=[0.0, 0.0], nests=nsb),
        )
        sups = (
            mc.Supplier(y_nat=[0, 0], gamma=1.0, lo=[0, 0], hi=[9, 9], c=[0, 0]),
            mc.Supplier(y_nat=[0, 0], gamma=2.0, lo=[0, 0], hi=[9, 9], c=[0, 0]),
        )
        m = mc.Market(n=2, consumers=cts, suppliers=sups)
        assert m.smoothness_constant() == pytest.approx(1 + 12 + 1 + 0.5)

    def test_lipschitz_audit(self, six_good_market):
        lip = six_good_market.smoothness_constant()
        rng = np.random.default_rng(11)
        p1 = rng.uniform(0, 5, (10_000, 6))
        p2 = rng.uniform(0, 5, (10_000, 6))
        dz = np.linalg.norm(
            six_good_market.ter_gradient(p1) - six_good_market.ter_gradient(p2), axis=-1
        )
        dp = np.linalg.norm(p1 - p2, axis=-1)
        assert np.max(dz - lip * dp) <= 0.0


class TestProductivity:
    def _market(self, hi_total, pop, n=2):
        ns = mc.NestStructure.single(n)
        ct = mc.ConsumerType(count=pop, a=np.zeros(n), nests=ns)
        s = mc.Supplier(y_nat=np.zeros(n), gamma=1.0, lo=np.zeros(n),
                        hi=np.asarray(hi_total, dtype=float), c=np.zeros(n))
        return mc.Market(n=n, consumers=(ct,), suppliers=(s,))

    def test_ample_capacity(self):
        check = self._market([10.0, 10.0], pop=2).productivity_check()
        assert check
        np.testing.assert_allclose(check.supply[0], [10.0, 10.0])
        np.testing.assert_allclose(check.shares, [0.5, 0.5])

    def test_insufficient_capacity(self):
        assert not self._market([1.0, 1.0], pop=3).productivity_check()

    def test_boundary_is_infeasible(self):
        # strictness: total capacity equal to the population fails
        assert not self._market([1.5, 1.5], pop=3).productivity_check()

    def test_zero_capacity_good_is_infeasible(self):
        assert not self._market([0.0, 50.0], pop=1).productivity_check()

    def test_single_good(self, single_good_market):
        assert single_good_market.productivity_check()
        assert not self._market([2.0], pop=2, n=1).productivity_check()

    def test_witness_strictly_dominates(self):
        for seed in range(10):
            m = specio.market_from_document(specio.generate_market(4, 2, 2, seed=seed))
            check = m.productivity_check()
            assert check
            total_supply = np.sum(check.supply, axis=0)
            demand = m.total_population * check.shares
            assert np.all(total_supply > demand)
            assert check.shares.sum() == pytest.approx(1.0, abs=1e-12)


class TestEquilibriumResidual:
    def test_zero_at_equilibrium(self, single_good_market):
        r = single_good_market.equilibrium_residual([3.0])
        assert abs(r.min_excess) <= 1e-9
        assert abs(r.complementarity) <= 1e-9
        assert r.grad_norm <= 1e-9

    def test_overpriced_market(self, single_good_market):
        r = single_good_market.equilibrium_residual([10.0])
        assert r.min_excess > 0
        assert r.complementarity > 0

    @pytest.mark.parametrize("spec, shape", [
        ("market_n6.json", (6, 6)), ("market_n6.json", (8, 6)), ("single_good.json", (2, 1)),
    ])
    def test_rejects_a_batch(self, spec, shape):
        m = specio.load_market(str(SPEC_DIR / spec))
        with pytest.raises(mc.StructureError, match=re.escape(f"prices: shape {shape}")):
            m.equilibrium_residual(np.ones(shape))

    def test_converged_run_has_small_residuals(self, six_good_market):
        trace = solve(six_good_market, SolverConfig(scheme="accelerated"))
        r = six_good_market.equilibrium_residual(trace.price)
        assert r.grad_norm <= 1e-6
        assert r.min_excess >= -1e-6
        assert abs(r.complementarity) <= 1e-6

    def test_optimality_equivalence(self, six_good_market):
        # residuals below tol at the reference minimizer, and any point
        # with residuals below tol is near-optimal in potential value
        ref = reference_solve(six_good_market)
        r = six_good_market.equilibrium_residual(ref.price)
        assert r.grad_norm <= 1e-10
        ter_star = six_good_market.ter(ref.price)
        trace = solve(six_good_market, SolverConfig(scheme="basic", tol=1e-9))
        assert six_good_market.ter(trace.price) - ter_star <= 1e-10


class TestSublevelBoundedness:
    def test_potential_grows_along_rays(self, six_good_market):
        rng = np.random.default_rng(21)
        ts = np.logspace(-2, 3, 40)
        for _ in range(20):
            d = rng.uniform(0, 1, 6)
            if d.max() == 0:
                continue
            d = d / np.linalg.norm(d)
            vals = six_good_market.ter(ts[:, None] * d[None, :])
            assert vals[-1] > vals.min()
            assert np.argmin(vals) < len(ts) - 1
            assert vals[-1] > six_good_market.ter(np.zeros(6))


ORACLE_RTOL = 1e-12


def public_formula(market, p):
    """TER and z summed from the per-supplier and per-type public functions.

    `profit` and `best_response` take only p >= 0, and both depend on p
    only through p - c, so they are evaluated on a copy of each supplier
    with costs c + t at prices p + t, where t >= 0 lifts every price to
    nonnegative. The consumer side takes any finite p.
    """
    p = np.asarray(p, dtype=float)
    t = max(0.0, -float(p.min()))
    ter, z = 0.0, 0.0
    for s in market.suppliers:
        lifted = mc.Supplier(y_nat=s.y_nat, gamma=s.gamma, lo=s.lo, hi=s.hi, c=s.c + t, d=s.d)
        ter = ter + mc.profit(lifted, p + t)
        z = z + mc.best_response(lifted, p + t)
    for ct in market.consumers:
        ter = ter + ct.count * mc.surplus(ct.nests, ct.a - p)
        z = z - ct.count * mc.choice_probabilities(ct.nests, ct.a - p)
    return ter, z


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(actual - expected)) <= ORACLE_RTOL * scale


def _oracle_markets():
    ns_singletons = mc.NestStructure(4, ((0,), (1,), (2,), (3,)), (0.3, 0.6, 1.0, 0.05))
    ns_mixed = mc.NestStructure(4, ((0, 2), (1,), (3,)), (0.4, 0.7, 1.0))
    one_one = mc.Market(
        n=4,
        consumers=(mc.ConsumerType(count=6.0, a=[1.0, -0.5, 0.2, 2.0], nests=ns_mixed),),
        suppliers=(mc.Supplier(y_nat=[0.5, 0.0, 1.0, 0.2], gamma=1.5, lo=[0.0, 0.1, 0.0, 0.0],
                               hi=[4.0, 3.0, 5.0, 2.0], c=[0.5, 1.0, 0.2, 0.8],
                               d=[0.0, 0.3, 0.0, 1.0]),),
    )
    singletons = mc.Market(
        n=4,
        consumers=(
            mc.ConsumerType(count=3.0, a=[0.5, 0.0, -1.0, 1.5], nests=ns_singletons),
            mc.ConsumerType(count=2.0, a=[0.0, 1.0, 0.5, -0.5], nests=ns_mixed),
        ),
        suppliers=one_one.suppliers * 2,
    )
    return {
        "batch-like": specio.market_from_document(specio.generate_market(9, 3, 4, seed=17)),
        "J=1,K=1": one_one,
        "singleton-nests": singletons,
    }


ORACLE_MARKETS = _oracle_markets()


def _oracle_points(n):
    rng = np.random.default_rng(n)
    block = rng.uniform(0.0, 5.0, (2 * _CHUNK_ROWS + 37, n))  # not a multiple of the chunk
    negative = rng.uniform(-3.0, 4.0, (40, n))
    negative[::2, 0] = -2.5
    return {
        "point": rng.uniform(0.0, 5.0, n),
        "negative point": rng.uniform(-2.0, 1.0, n),
        "block": block,
        "batch": rng.uniform(0.0, 5.0, (2, 3, n)),
        "negative rows": negative,
    }


@pytest.mark.parametrize("name", sorted(ORACLE_MARKETS))
class TestFusedOracle:
    def test_value_and_grad_equals_views(self, name):
        m = ORACLE_MARKETS[name]
        for p in _oracle_points(m.n).values():
            ter, z = m.value_and_grad(p)
            assert_close(ter, m.ter(p))
            assert_close(z, m.ter_gradient(p))
            assert np.ndim(ter) == np.ndim(p) - 1 and z.shape == np.shape(p)

    def test_matches_public_formula(self, name):
        m = ORACLE_MARKETS[name]
        for p in _oracle_points(m.n).values():
            ter_ref, z_ref = public_formula(m, p)
            ter, z = m.value_and_grad(p)
            assert_close(ter, ter_ref)
            assert_close(z, z_ref)
            assert_close(m.ter(p), ter_ref)
            assert_close(m.ter_gradient(p), z_ref)

    def test_point_path_equals_one_row_block(self, name):
        m = ORACLE_MARKETS[name]
        flat = m._flat
        for key, column in vars(flat.col).items():  # one data set for both paths
            assert np.shares_memory(column, getattr(flat, key))
        for p in _oracle_points(m.n).values():
            if p.ndim != 1:
                continue
            ter, z = m.value_and_grad(p)
            ter_b, z_b = m.value_and_grad(p[None])
            assert ter == ter_b[0]
            np.testing.assert_array_equal(z, z_b[0])

    def test_block_rows_match_single_points(self, name):
        m = ORACLE_MARKETS[name]
        block = _oracle_points(m.n)["block"]
        ter, z = m.value_and_grad(block)
        for r in (0, _CHUNK_ROWS - 1, _CHUNK_ROWS, len(block) - 1):
            ter_r, z_r = m.value_and_grad(block[r])
            assert isinstance(ter_r, float)
            assert_close(ter[r], ter_r)
            assert_close(z[r], z_r)


@given(st.integers(1, 20), st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**31), st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_vector_equals_one_column_block(n, n_types, n_suppliers, seed, data):
    # a vector and a one-column block take different constants and
    # demand reductions in the kernel; the results must agree exactly
    flat = specio.market_from_document(
        specio.generate_market(n, n_types, n_suppliers, seed))._flat
    p = np.array(data.draw(st.lists(st.floats(-5.0, 10.0), min_size=n, max_size=n)))
    for value in (True, False):
        for grad in (True, False):
            ter, z = flat.kernel(p, value, grad)
            ter_b, z_b = flat.kernel(p[:, None], value, grad)
            assert (ter is None) == (not value) and (z is None) == (not grad)
            if value:
                assert np.ndim(ter) == 0 and ter == ter_b[0]
            if grad:
                np.testing.assert_array_equal(z, z_b[:, 0])


@pytest.mark.parametrize("scheme", ["basic", "accelerated"])
def test_trace_ter_is_the_potential_at_the_price(six_good_market, scheme):
    trace = solve(six_good_market, SolverConfig(scheme=scheme))
    assert_close(trace.ter[-1], six_good_market.ter(trace.price))
