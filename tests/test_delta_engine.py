"""Properties of the batched Delta engine, smooth.delta_many."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothed_pnt.errors import CapacityError
from smoothed_pnt.metrics import metrics_row
from smoothed_pnt.sieve import build_lambda
from smoothed_pnt.smooth import (
    _BLOCK,
    _TILE_ROWS,
    avg_metric,
    delta,
    delta_many,
    hybrid_grid,
    sup_metric,
    truncation_cutoff,
    weighted_exp_sum,
)

TOL = 1e-9
# table_mid (limit 600,000) reaches u = 1.3e4 at tol 1e-9; cutoffs past
# 2 * _BLOCK (u above ~300) take the tiled GEMM path, and those past
# 524,288 (u above ~1.15e4) need a zero-padded last tile.
points = st.one_of(
    st.floats(min_value=0.01, max_value=300.0),
    st.floats(min_value=300.0, max_value=1.3e4),
)
batches = st.lists(points, min_size=1, max_size=40)
PROPERTY = settings(max_examples=50, deadline=None)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


@PROPERTY
@given(us=batches, others=batches, seed=st.integers(0, 2**32 - 1))
def test_batch_invariance(table_mid, us, others, seed):
    us = np.array(us)
    base = delta_many(table_mid, us, tol=TOL).delta
    perm = np.random.default_rng(seed).permutation(len(us))
    shuffled = delta_many(table_mid, us[perm], tol=TOL).delta
    assert bits(shuffled) == bits(base[perm])
    merged = delta_many(table_mid, np.concatenate([others, us, others]), tol=TOL).delta
    assert bits(merged[len(others) : len(others) + len(us)]) == bits(base)
    for u, d in zip(us[:5], base[:5]):
        assert bits(delta(table_mid, u, tol=TOL).delta) == bits(d)


@PROPERTY
@given(us=batches)
def test_matches_per_point_reference(table_mid, us):
    b = delta_many(table_mid, us, tol=TOL)
    for i, u in enumerate(us):
        M = truncation_cutoff(u, TOL)
        ref = weighted_exp_sum(table_mid.values[1 : M + 1], u)
        assert b.cutoff[i] == M
        assert abs(b.psi[i] - ref) <= 1e-13 * ref
        assert b.delta[i] == b.psi[i] - b.baseline[i]
        assert 0.0 <= b.tail_bound[i] <= TOL  # underflows to 0 for tiny u


def test_table_end_padding():
    # the table ends inside the first and only tile, which holds every
    # term that matters
    u = 1.0e3
    M = truncation_cutoff(u, TOL)
    last_tile = (M // _BLOCK - 1) // _TILE_ROWS * _TILE_ROWS
    assert (last_tile + _TILE_ROWS) * _BLOCK > M
    table = build_lambda(M)
    us = np.array([u, 0.6 * u, 0.9 * u, 15.0])
    b = delta_many(table, us, tol=TOL)
    for i, v in enumerate(us):
        ref = weighted_exp_sum(table.values[1 : truncation_cutoff(v, TOL) + 1], v)
        assert abs(b.psi[i] - ref) <= 1e-13 * ref


def test_zero_gives_zero(table_small):
    b = delta_many(table_small, [0.0, 50.0, 0.0], tol=TOL)
    for field in (b.psi, b.baseline, b.delta, b.tail_bound):
        assert field[0] == 0.0 and field[2] == 0.0
    assert b.cutoff[0] == 0 and b.cutoff[2] == 0
    assert b.delta[1] == delta(table_small, 50.0, tol=TOL).delta


def test_empty_batch(table_small):
    assert len(delta_many(table_small, [], tol=TOL).delta) == 0


def test_grid_past_table_limit(table_small):
    us = hybrid_grid(1e4, points=64, include_zero=True)
    assert truncation_cutoff(us[-1], TOL) > table_small.limit
    with pytest.raises(CapacityError, match="exceeds table limit 10000"):
        delta_many(table_small, us, tol=TOL)
    with pytest.raises(CapacityError):
        delta_many(table_small, us[::-1], tol=TOL)


@pytest.mark.parametrize("x", [0.17889447236180905, 1.0, 37.0, 777.0, 1e4])
def test_metrics_row_shares_one_evaluation(table_mid, zeros_rh, x):
    row = metrics_row(table_mid, zeros_rh, x, grid=64, tol=1e-6)
    assert bits(row.S) == bits(sup_metric(table_mid, x, grid=64, tol=1e-6))
    assert bits(row.D) == bits(avg_metric(table_mid, x, panels=64, tol=1e-6).value)
    pt = delta(table_mid, x, tol=1e-6)
    assert bits([row.psi, row.baseline, row.delta]) == bits([pt.psi, pt.baseline, pt.delta])
    assert row.S >= abs(row.delta)
