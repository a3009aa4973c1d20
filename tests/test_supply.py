import re

import numpy as np
import pytest

from marketclear import DomainError, StructureError, Supplier, best_response, profit
from marketclear.specio import load_market
from marketclear.supply import total_cost
from marketclear.verify import fd_gradient

from conftest import SPEC_DIR


def golden_section_max(f, lo, hi, tol=1e-12):
    """Independent per-coordinate maximizer for the best-response oracle."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    while b - a > tol:
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        if f(c) >= f(d):
            b = d
        else:
            a = c
    return 0.5 * (a + b)


def random_supplier(seed, n=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 7))
    hi = rng.uniform(1.0, 5.0, n)
    return Supplier(
        y_nat=rng.uniform(0.0, hi),
        gamma=float(rng.uniform(0.3, 3.0)),
        lo=np.zeros(n),
        hi=hi,
        c=rng.uniform(0.0, 2.0, n),
        d=rng.uniform(0.0, 1.0, n) if rng.random() < 0.5 else None,
    )


class TestValidation:
    def test_requires_positive_gamma(self):
        with pytest.raises(StructureError):
            Supplier(y_nat=[0.0], gamma=0.0, lo=[0.0], hi=[1.0], c=[0.0])
        # a subnormal gamma made the smoothness constant infinite and the step 0
        with pytest.raises(StructureError, match="at least 1e-50") as err:
            Supplier(y_nat=[0.0], gamma=1e-320, lo=[0.0], hi=[1.0], c=[0.0])
        assert (err.value.code, err.value.field) == ("gamma", "gamma")

    @pytest.mark.parametrize("field, value, where", [
        ("gamma", "0.5", "gamma"), ("gamma", True, "gamma"), ("gamma", [1.0], "gamma"),
        ("y_nat", [[0], 0], "y_nat[0]"), ("y_nat", 0.0, "y_nat"), ("lo", ["0", "0"], "lo[0]"),
        ("hi", [1.0, None], "hi[1]"), ("c", [0.0, {}], "c[1]"), ("d", [0.0, 0.0, 0.0], "d"),
    ])
    def test_rejects_non_numbers(self, field, value, where):
        data = dict(y_nat=[0.0, 0.0], gamma=1.0, lo=[0.0, 0.0], hi=[1.0, 1.0], c=[0.0, 0.0])
        with pytest.raises(StructureError) as err:
            Supplier(**{**data, field: value})
        assert (err.value.code, err.value.field) == ("malformed", where)

    def test_requires_ordered_box(self):
        with pytest.raises(StructureError):
            Supplier(y_nat=[0.0], gamma=1.0, lo=[2.0], hi=[1.0], c=[0.0])
        with pytest.raises(StructureError):
            Supplier(y_nat=[0.0], gamma=1.0, lo=[-1.0], hi=[1.0], c=[0.0])

    def test_requires_convex_base_cost(self):
        with pytest.raises(StructureError):
            Supplier(y_nat=[0.0], gamma=1.0, lo=[0.0], hi=[1.0], c=[0.0], d=[-0.5])

    def test_rejects_negative_prices(self):
        s = random_supplier(0)
        with pytest.raises(DomainError):
            best_response(s, -np.ones(s.n))
        with pytest.raises(DomainError):
            profit(s, -np.ones(s.n))

    @pytest.mark.parametrize("y, error, message", [
        ([1.0], StructureError, "supply: must have last dimension 6"),
        ([float("nan")] * 6, DomainError, "supply: must be finite"),
        ("x", StructureError, "supply: expected a number, got str"),
    ])
    def test_total_cost_checks_its_supply(self, y, error, message):
        s = load_market(str(SPEC_DIR / "market_n6.json")).suppliers[0]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            total_cost(s, y)


class TestBestResponse:
    def test_linear_closed_form(self):
        s = Supplier(y_nat=[0.0, 0.0], gamma=0.5, lo=[0, 0], hi=[10, 10], c=[1.0, 1.0])
        np.testing.assert_allclose(best_response(s, [3.0, 1.0]), [2.0, 0.0])

    def test_no_deviation_at_marginal_cost(self):
        s = Supplier(y_nat=[2.0, 3.0], gamma=1.5, lo=[0, 0], hi=[10, 10], c=[1.0, 0.5])
        np.testing.assert_allclose(best_response(s, [1.0, 0.5]), [2.0, 3.0])

    def test_quadratic_clipped_stationary_point(self):
        s = Supplier(y_nat=[1.0, 1.0], gamma=1.0, lo=[0, 0], hi=[1.2, 1.2],
                     c=[0.0, 0.0], d=[1.0, 1.0])
        # (d + 2 gamma) y = p + 2 gamma y_nat, clipped to [0, 1.2]
        np.testing.assert_allclose(
            best_response(s, [10.0, 0.0]), [1.2, 2.0 / 3.0], atol=1e-12
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_golden_section_oracle(self, seed):
        s = random_supplier(seed)
        p = np.random.default_rng(seed + 500).uniform(0, 5, s.n)
        y = best_response(s, p)
        for i in range(s.n):
            def coord_obj(t, i=i):
                yy = y.copy()
                yy[i] = t
                return np.dot(p, yy) - total_cost(s, yy)

            t_star = golden_section_max(coord_obj, s.lo[i], s.hi[i])
            assert y[i] == pytest.approx(t_star, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_feasible_and_lipschitz(self, seed):
        s = random_supplier(seed)
        rng = np.random.default_rng(seed + 900)
        lip = 1.0 / (np.min(s.d) + 2.0 * s.gamma)
        for _ in range(50):
            p1 = rng.uniform(0, 6, s.n)
            p2 = rng.uniform(0, 6, s.n)
            y1, y2 = best_response(s, p1), best_response(s, p2)
            assert np.all(y1 >= s.lo) and np.all(y1 <= s.hi)
            assert np.linalg.norm(y1 - y2) <= lip * np.linalg.norm(p1 - p2) + 1e-12


class TestProfit:
    def test_zero_prices_zero_natural_level(self):
        s = Supplier(y_nat=[0.0, 0.0], gamma=1.0, lo=[0, 0], hi=[5, 5], c=[0.0, 0.0])
        assert profit(s, [0.0, 0.0]) == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_is_best_response(self, seed):
        s = random_supplier(seed)
        rng = np.random.default_rng(seed + 200)
        for _ in range(10):
            p = rng.uniform(0.5, 5, s.n)
            fd = fd_gradient(lambda x: profit(s, x), p)
            y = best_response(s, p)
            assert np.max(np.abs(fd - y)) / max(1.0, np.max(np.abs(y))) < 1e-6

    def test_monotone_in_prices(self):
        rng = np.random.default_rng(77)
        for seed in range(10):
            s = random_supplier(seed)
            p = rng.uniform(0, 4, s.n)
            bump = rng.uniform(0, 1, s.n)
            assert profit(s, p + bump) >= profit(s, p) - 1e-12

    def test_convex_midpoint(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            s = random_supplier(seed)
            p1 = rng.uniform(0, 6, (200, s.n))
            p2 = rng.uniform(0, 6, (200, s.n))
            mid = profit(s, 0.5 * (p1 + p2))
            assert np.max(mid - 0.5 * (profit(s, p1) + profit(s, p2))) <= 1e-10
