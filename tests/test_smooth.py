import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothed_pnt.errors import CapacityError, RangeError
from smoothed_pnt.sieve import build_lambda
from smoothed_pnt.smooth import (
    _distinct,
    DELTA_LIMIT,
    avg_metric,
    delta,
    delta_many,
    hybrid_grid,
    smooth_baseline,
    sup_metric,
    trapezoid_mean,
    truncation_cutoff,
    weighted_exp_sum,
)


class TestBaseline:
    def test_closed_form_at_one(self):
        assert smooth_baseline(1.0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)

    def test_direct_summation_oracle(self):
        x = 100.0
        direct = float(np.sum(np.exp(-np.arange(1, 5001) / x)))
        assert smooth_baseline(x) == pytest.approx(direct, rel=1e-12)

    def test_laurent_expansion_large_x(self):
        x = 1e6
        assert abs(smooth_baseline(x) - (x - 0.5)) <= 1e-4

    def test_zero_where_the_exponential_overflows(self, table_small):
        # e^{1/x} overflows below x ~ 1/709.78, where I(x) is 0 in binary64,
        # as in delta_many's baseline
        assert smooth_baseline(1e-3) == delta_many(table_small, [1e-3]).baseline[0] == 0.0
        assert smooth_baseline(1.0 / 709.0) > 0.0

    def test_domain(self):
        with pytest.raises(RangeError):
            smooth_baseline(0.0)
        with pytest.raises(RangeError):
            smooth_baseline(-2.0)


class TestWeightedExpSum:
    def test_factored_path_matches_plain(self, table_mid, rng):
        # the blocked e^{-qB/x} e^{-m/x} factorization vs one plain exp sweep
        for x in (37.0, 1000.0, 12345.6):
            M = truncation_cutoff(x, 1e-9)
            coeffs = table_mid.values[1 : M + 1]
            n = np.arange(1, M + 1, dtype=float)
            plain = float(np.dot(coeffs, np.exp(-n / x)))
            fast = weighted_exp_sum(coeffs, x)
            assert fast == pytest.approx(plain, rel=1e-13, abs=1e-300)


class TestSmoothPsi:
    def test_small_x_direct_sum(self, table_small):
        # at x = 1 the sum is dominated by log2 * e^{-2}
        oracle = float(
            np.dot(table_small.values[1:51], np.exp(-np.arange(1, 51, dtype=float)))
        )
        pt = delta(table_small, 1.0, tol=1e-13)
        assert pt.psi == pytest.approx(oracle, abs=1e-12)
        # the n = 2 term carries half the total
        assert math.log(2) * math.exp(-2.0) / pt.psi > 0.5

    def test_monotone_in_x(self, table_small):
        assert delta(table_small, 20.0).psi > delta(table_small, 10.0).psi

    def test_pnt_trend(self, table_mid):
        pt = delta(table_mid, 1e4, tol=1e-6)
        assert 0.99 <= pt.psi / 1e4 <= 1.01

    def test_tail_bound_recorded(self, table_mid):
        pt = delta(table_mid, 100.0, tol=1e-9)
        assert 0.0 < pt.tail_bound <= 1e-9
        assert pt.cutoff >= 1000

    def test_capacity_error(self, table_small):
        with pytest.raises(CapacityError):
            delta(table_small, 1e4, tol=1e-9)


class TestDelta:
    def test_identity_psi_minus_baseline(self, table_mid):
        pt = delta(table_mid, 500.0)
        assert pt.delta + pt.baseline == pytest.approx(pt.psi, rel=1e-12)
        assert pt.delta == pt.psi - pt.baseline  # same rounding order

    def test_limit_constant(self, table_mid):
        pt = delta(table_mid, 1e4, tol=1e-6)
        assert abs(pt.delta - DELTA_LIMIT) <= 1e-3

    def test_tiny_x_vanishes(self, table_small):
        assert abs(delta(table_small, 0.01).delta) <= 1e-40
        assert abs(delta(table_small, 0.1).delta) <= math.exp(-9.0)


class TestGrids:
    def test_nested_under_doubling(self):
        g1 = hybrid_grid(1e3, points=64)
        g2 = hybrid_grid(1e3, points=128)
        assert set(np.round(g1, 12)).issubset(set(np.round(g2, 12)))

    def test_sup_monotone_under_refinement(self, table_mid):
        s1 = sup_metric(table_mid, 1e3, grid=64, tol=1e-6)
        s2 = sup_metric(table_mid, 1e3, grid=128, tol=1e-6)
        assert s1 <= s2 + 1e-12

    def test_sup_grid_convergence(self, table_mid):
        s_lo = sup_metric(table_mid, 1e3, grid=2048, tol=1e-6)
        s_hi = sup_metric(table_mid, 1e3, grid=8192, tol=1e-6)
        assert abs(s_lo - s_hi) <= 1e-3

    def test_sup_dominates_endpoint(self, table_mid):
        x = 777.0
        assert sup_metric(table_mid, x, grid=64) >= abs(delta(table_mid, x).delta)

    def test_avg_stable_under_refinement(self, table_mid):
        d_lo = avg_metric(table_mid, 1e3, panels=1024, tol=1e-6)
        d_hi = avg_metric(table_mid, 1e3, panels=4096, tol=1e-6)
        assert abs(d_lo.value - d_hi.value) <= 1e-3

    def test_trapezoid_mean_of_constant(self):
        us = hybrid_grid(250.0, points=64, include_zero=True)
        assert us[0] == 0.0
        res = trapezoid_mean(us, np.ones(len(us)), 250.0)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.quad_error <= 1e-12

    def test_sup_nondecreasing_in_x(self, table_mid):
        xs = np.geomspace(10.0, 1e4, 13)
        vals = [sup_metric(table_mid, x, grid=64, tol=1e-6) for x in xs]
        assert np.all(np.diff(vals) >= -1e-9)

    def test_avg_below_sup(self, table_mid):
        for x in (50.0, 1e3):
            s = sup_metric(table_mid, x, grid=64, tol=1e-6)
            d = avg_metric(table_mid, x, panels=64, tol=1e-6)
            assert d.value <= s + d.quad_error + 1e-12

    def test_grid_parameter_floor(self):
        with pytest.raises(RangeError):
            hybrid_grid(100.0, points=8)


GRID_X = st.floats(min_value=0.05, max_value=50.0)
GRID_PROPERTY = settings(max_examples=200, deadline=None)


@pytest.fixture(scope="module")
def table_5000():
    return build_lambda(5000)


class TestGridProperties:
    @GRID_PROPERTY
    @given(x=GRID_X, m=st.integers(16, 256), include_zero=st.booleans())
    @example(x=0.4, m=64, include_zero=False)  # the last geometric point misses x
    def test_ends_exactly_at_x(self, x, m, include_zero):
        g = hybrid_grid(x, points=m, include_zero=include_zero)
        assert g[-1] == x and g.max() == x
        assert np.all(np.diff(g) > 0.0)

    @GRID_PROPERTY
    @given(x=GRID_X, m=st.integers(16, 256))
    def test_nests_exactly_under_doubling(self, x, m):
        assert set(hybrid_grid(x, points=m)) <= set(hybrid_grid(x, points=2 * m))

    @GRID_PROPERTY
    @given(
        values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=60),
        repeat=st.integers(1, 3),
    )
    @example(values=[0.0, -0.0, 1.0, -0.0], repeat=2)
    @example(values=[], repeat=1)
    def test_distinct_is_np_unique(self, values, repeat):
        # the sort and neighbour mask give np.unique's array, bit for bit
        # (-0.0 and 0.0 included), without importing numpy.ma
        a = np.array(values * repeat, dtype=float)
        assert _distinct(a).tobytes() == np.unique(a).tobytes()

    @GRID_PROPERTY
    @given(x=st.floats(min_value=0.05, max_value=1.0))
    @example(x=0.3380350878270627)
    def test_sup_dominates_delta_at_x(self, table_5000, x):
        assert sup_metric(table_5000, x, grid=64) >= abs(delta(table_5000, x).delta)
