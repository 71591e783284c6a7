"""Properties of the batched Delta engine, smooth.delta_many."""

import dataclasses
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothed_pnt import metrics
from smoothed_pnt.errors import CapacityError, RangeError
from smoothed_pnt.metrics import metrics_row, metrics_rows
from smoothed_pnt.sieve import _TILE, LambdaStream, build_lambda, chebyshev_psi, flat_tile
from smoothed_pnt.smooth import (
    _BLOCK,
    _truncation_cutoffs,
    avg_metric,
    delta,
    delta_many,
    hybrid_grid,
    smooth_baseline,
    sup_metric,
    truncation_cutoff,
    weighted_exp_sum,
)

TOL = 1e-9
# table_mid (limit 600,000) reaches u = 1.770e4 at tol 1e-9, whose
# whole-block cutoff is 598,016.  The kernel sums points with u < 64
# directly, takes blocks of 64 for u < _BLOCK and blocks of _BLOCK past
# it, so two strategies straddle those two edges and one takes the edges
# themselves; cutoffs past 524,288 (u above ~1.558e4) end in the
# zero-padded third tile.
points = st.one_of(
    st.floats(min_value=0.01, max_value=300.0),
    st.floats(min_value=300.0, max_value=1.770e4),
    st.floats(min_value=60.0, max_value=68.0),
    st.floats(min_value=4000.0, max_value=4200.0),
    st.sampled_from([np.nextafter(64.0, 0.0), 64.0, np.nextafter(4096.0, 0.0), 4096.0]),
)
batches = st.lists(points, min_size=1, max_size=40)
PROPERTY = settings(max_examples=50, deadline=None)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_batch_invariance(table, us, others, seed):
    us = np.array(us)
    base = delta_many(table, us, tol=TOL).delta
    perm = np.random.default_rng(seed).permutation(len(us))
    shuffled = delta_many(table, us[perm], tol=TOL).delta
    assert bits(shuffled) == bits(base[perm])
    merged = delta_many(table, np.concatenate([others, us, others]), tol=TOL).delta
    assert bits(merged[len(others) : len(others) + len(us)]) == bits(base)
    for u, d in zip(us[:5], base[:5]):
        assert bits(delta(table, u, tol=TOL).delta) == bits(d)


@PROPERTY
@given(us=batches, others=batches, seed=st.integers(0, 2**32 - 1))
def test_batch_invariance(table_mid, us, others, seed):
    assert_batch_invariance(table_mid, us, others, seed)


@PROPERTY
@given(us=batches, others=batches, seed=st.integers(0, 2**32 - 1))
def test_batch_invariance_streamed(table_mid, us, others, seed):
    # past tile 0 a LambdaStream's tiles are OddTiles, whose moments come
    # from the half-width product
    assert_batch_invariance(LambdaStream(table_mid.limit), us, others, seed)


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


def _log_tail(m, x):
    """log of the tail bound (log m) e^{-m/x} / (1 - e^{-1/(2x)}), in scalar math."""
    return math.log(math.log(m)) - m / x - math.log(-math.expm1(-0.5 / x))


def _is_smallest_whole_block(x, tol, M):
    """M is whole blocks of x that certify tol, and a block less does not.

    The rounding slack 1e-12 in log is far above the ~1e-14 of either
    log form and far below a block's step.
    """
    B = _BLOCK if x >= _BLOCK else 64 if x >= 64 else 1
    return (
        M % B == 0
        and _log_tail(M, x) <= math.log(tol) + 1e-12
        and (M - B < max(20.0, 10.0 * x) or _log_tail(M - B, x) > math.log(tol) - 1e-12)
    )


def test_batched_cutoffs_are_the_scalar_search():
    # 20,000 seeded (x, tol) draws: 200 tolerances of 100 points each.
    # Each batch gives what the same points give shuffled and cut into
    # sub-batches, the first of one point (truncation_cutoff's case), and
    # each cutoff is the smallest whole-block one, checked in scalar math
    rng = np.random.default_rng(20_000)
    for tol in 10.0 ** rng.uniform(-15.0, -0.5, 200):
        xs = 10.0 ** rng.uniform(-3.0, 7.0, 100)
        cutoffs = _truncation_cutoffs(xs, tol)
        order = rng.permutation(len(xs))
        cuts = np.sort(rng.choice(np.arange(2, len(xs)), 2, replace=False))
        again = np.empty_like(cutoffs)
        for part in np.split(order, [1, *cuts]):
            again[part] = _truncation_cutoffs(xs[part], tol)
        assert again.tolist() == cutoffs.tolist()
        for x, M in zip(xs.tolist(), cutoffs.tolist()):
            assert _is_smallest_whole_block(x, tol, M), (x, tol, M)


@PROPERTY
@given(
    xs=st.lists(st.floats(min_value=0.01, max_value=1e10), min_size=1, max_size=20),
    tol=st.floats(min_value=1e-15, max_value=0.5),
)
def test_cutoffs_are_the_smallest_whole_blocks(xs, tol):
    for x, M in zip(xs, _truncation_cutoffs(xs, tol).tolist()):
        assert _is_smallest_whole_block(x, tol, M)
        assert truncation_cutoff(x, tol) == M


def test_refused_batches():
    # points and tolerances truncation_cutoff refuses are refused alike
    xs = np.geomspace(0.5, 1e6, 50)
    with pytest.raises(RangeError, match="x must be positive"):
        _truncation_cutoffs(np.array([5.0, -1.0]), TOL)
    with pytest.raises(RangeError, match="tol must be positive"):
        _truncation_cutoffs(xs, 0.0)
    assert _truncation_cutoffs(np.array([1e13]), TOL)[0] == truncation_cutoff(1e13, TOL)


@pytest.mark.parametrize(
    "x, tol", [(10.0, math.nan), (math.nan, TOL), (math.inf, TOL), (-math.inf, TOL)]
)
def test_nan_and_infinite_inputs_are_range_errors(table_small, x, tol):
    with pytest.raises(RangeError):
        truncation_cutoff(x, tol)
    with pytest.raises(RangeError):
        delta_many(table_small, [10.0, x], tol=tol)
    if not math.isfinite(x):
        for check in (smooth_baseline, hybrid_grid, lambda t: chebyshev_psi(table_small, t)):
            with pytest.raises(RangeError):
                check(x)


@pytest.mark.parametrize("x", [2e307, sys.float_info.max])
def test_huge_x_is_a_range_error(table_small, x):
    # 10x, or M / x in the cutoff search, leaves the binary64 range
    with pytest.raises(RangeError, match="too large"):
        truncation_cutoff(x, TOL)
    with pytest.raises(RangeError, match="too large"):
        delta_many(table_small, [10.0, x], tol=TOL)


def test_cutoff_past_int64_is_a_range_error(table_small):
    # the cutoff at 2e17 would be 1.3e19, past what an int64 holds; at
    # 1e17 it is 6.43e18, inside
    with pytest.raises(RangeError, match="int64"):
        truncation_cutoff(2e17, TOL)
    with pytest.raises(RangeError, match="int64"):
        delta_many(table_small, [2e17], tol=TOL)
    assert truncation_cutoff(1e17, TOL) == 6_432_869_587_460_333_568
    with pytest.raises(CapacityError):
        delta_many(table_small, [1e17], tol=TOL)


def test_tail_bound_dominates_the_true_tail():
    # sum_{n>M} Lambda(n) e^{-n/u} at the cutoff M, summed as far as
    # n = 746 u, past which every term underflows, is at most tail_bound
    rng = np.random.default_rng(1905)
    us = 10.0 ** rng.uniform(0.0, 5.0, 12)
    tols = 10.0 ** rng.uniform(-12.0, -3.0, 12)
    table = LambdaStream(int(746 * us.max()))
    batches = [delta_many(table, [u], tol=tol) for u, tol in zip(us, tols)]
    cutoffs = np.array([b.cutoff[0] for b in batches])
    tails = np.zeros(len(us))
    for t, tile in enumerate(map(flat_tile, table.tiles())):
        at = np.flatnonzero(tile)
        n = at + 1.0 + t * _TILE
        for i, (u, M) in enumerate(zip(us, cutoffs)):
            keep = slice(*np.searchsorted(n, [M, 746 * u], side="right"))
            tails[i] += np.dot(tile[at[keep]], np.exp(-n[keep] / u))
    bounds = np.array([b.tail_bound[0] for b in batches])
    assert np.all(tails > 0.0) and np.all(tails <= bounds), tails / bounds


def test_table_end_padding():
    # the table ends inside the first and only tile, which holds every
    # term that matters
    u = 1.0e3
    M = truncation_cutoff(u, TOL)
    last_tile = (M // _BLOCK * _BLOCK - 1) // _TILE * _TILE
    assert last_tile + _TILE > M
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


def test_tiny_u_underflows_to_zero(table_small):
    # e^{1/u} overflows below u ~ 1/710: I(u) and Psi(u) are 0 there,
    # with no overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = delta_many(table_small, [1e-3, 1.0 / 700.0], tol=TOL)
    assert b.baseline[0] == b.psi[0] == b.delta[0] == 0.0
    assert 0.0 < b.baseline[1] < 1e-300


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
    row = metrics_row(table_mid, zeros_rh, x, tol=1e-6)
    assert bits(row.S) == bits(sup_metric(table_mid, x, grid=64, tol=1e-6))
    assert bits(row.D) == bits(avg_metric(table_mid, x, panels=64, tol=1e-6).value)
    pt = delta(table_mid, x, tol=1e-6)
    assert bits([row.psi, row.baseline, row.delta]) == bits([pt.psi, pt.baseline, pt.delta])
    assert row.S >= abs(row.delta)


def assert_stream_near_held(us, streamed, held):
    """A LambdaStream's batch against a held table's, to what the engine promises.

    The stream's moments past tile 0 come from OddTiles, a held table's
    from flat tiles: the same sums in another order.  Cutoffs, baselines
    and tail bounds keep every bit.  So do Psi and Delta at points whose
    cutoff stays in tile 0, which read only its moments (or a direct
    sum); the rest are within 2 eps u, and 1-2 ulps apart at some.
    """
    for field in ("cutoff", "baseline", "tail_bound"):
        assert bits(getattr(streamed, field)) == bits(getattr(held, field))
    tile_0 = streamed.cutoff <= _TILE
    assert bits(streamed.psi[tile_0]) == bits(held.psi[tile_0])
    assert bits(streamed.delta[tile_0]) == bits(held.delta[tile_0])
    err = np.abs(streamed.psi - held.psi)
    eps = np.finfo(float).eps
    us = np.asarray(us)
    assert np.all(err <= 2.0 * eps * us), err / (eps * us)


@PROPERTY
@given(us=batches)
def test_streamed_table_same_bits(table_mid, us):
    streamed = delta_many(LambdaStream(table_mid.limit), us, tol=TOL)
    assert_stream_near_held(us, streamed, delta_many(table_mid, us, tol=TOL))


def test_odd_tiles_within_two_eps_u_of_flat_tiles():
    # seeded u straddle 64 and _BLOCK, with cutoffs at and one block past
    # tile edges (test_whole_blocks_at_a_tile_end's among them), on a
    # 14-tile table, and the points test_streamed_table_same_bits draws
    rng = np.random.default_rng(262_144)
    straddle = [e * (1.0 + rng.uniform(-0.05, 0.05, 6)) for e in (64.0, _BLOCK)]
    edges = [_u_with_cutoff(M) for t in (1, 2, 7) for M in (t * _TILE, t * _TILE + _BLOCK)]
    ladder = np.geomspace(10.0, 1e5, 400) * rng.uniform(0.99, 1.0, 400)
    ranges = ((0.01, 300.0), (300.0, 1.770e4), (60.0, 68.0), (4000.0, 4200.0))
    drawn = [rng.uniform(lo, hi, 20) for lo, hi in ranges]
    special = [np.nextafter(64.0, 0.0), 64.0, np.nextafter(4096.0, 0.0), 4096.0, 50.0]
    us = np.concatenate(straddle + drawn + [edges, ladder, special, [1e5]])
    N = truncation_cutoff(1e5, TOL)
    streamed = delta_many(LambdaStream(N), us, tol=TOL)
    tile_0 = streamed.cutoff <= _TILE
    assert tile_0.sum() > 10 and (~tile_0).sum() > 10
    assert_stream_near_held(us, streamed, delta_many(build_lambda(N), us, tol=TOL))


def test_no_full_width_product_past_tile_0(monkeypatch):
    # every tile past tile 0 of a LambdaStream takes its moments from a
    # half-width product, for both block sizes; tile 0 from a full one
    shapes = []
    matmul = np.matmul

    def recording(a, b, *args, **kwargs):
        shapes.append(a.shape)
        return matmul(a, b, *args, **kwargs)

    N = truncation_cutoff(1e5, TOL)
    tiles = -(-N // _TILE)
    us = np.array([100.0, 1e5])  # blocks of 64 in tile 0, of _BLOCK in every tile
    with monkeypatch.context() as m:
        m.setattr(np, "matmul", recording)
        delta_many(LambdaStream(N), us, tol=TOL)
    T = _TILE
    assert sorted(shapes) == sorted(
        [(T // 64, 64), (T // _BLOCK, _BLOCK)] + [(T // _BLOCK, _BLOCK // 2)] * (tiles - 1)
    )


def _u_with_cutoff(M):
    """The largest u whose cutoff at TOL is at most M, to bisection's last bit."""
    lo, hi = 1.0, 1e5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if truncation_cutoff(mid, TOL) <= M else (lo, mid)
    return lo


def test_whole_blocks_at_a_tile_end(table_mid):
    # cutoffs that end exactly with a tile, and one block past one, whose
    # last block is the first of the next tile
    ends = [_TILE, 2 * _TILE, _TILE + _BLOCK, 2 * _TILE + _BLOCK]
    us = np.array([_u_with_cutoff(M) for M in ends] + [50.0])
    streamed = delta_many(LambdaStream(table_mid.limit), us, tol=TOL)
    assert streamed.cutoff[:4].tolist() == ends
    assert_stream_near_held(us, streamed, delta_many(table_mid, us, tol=TOL))
    for u, M, psi in zip(us, streamed.cutoff, streamed.psi):
        ref = weighted_exp_sum(table_mid.values[1 : M + 1], u)
        assert abs(psi - ref) <= 1e-13 * ref


def test_metrics_rows_match_one_row_at_a_time(table_mid, zeros_rh):
    xs = [0.17889447236180905, 1.0, 37.0, 777.0, 1e4]
    rows = metrics_rows(table_mid, zeros_rh, xs, tol=1e-6)
    assert len(rows) == len(xs)
    for x, row in zip(xs, rows):
        one = metrics_row(table_mid, zeros_rh, x, tol=1e-6)
        assert bits(dataclasses.astuple(row)) == bits(dataclasses.astuple(one))


def test_metrics_rows_evaluate_each_distinct_point_once(table_mid, zeros_rh, monkeypatch):
    # the grids share their [0.02, 1] head and u = 0; the engine sees each
    # distinct point once
    xs = np.geomspace(10.0, 1e3, 25)
    grids = [hybrid_grid(x, points=64, include_zero=True) for x in xs]
    sizes = []

    def counting(table, us, tol):
        sizes.append(len(us))
        return delta_many(table, us, tol=tol)

    monkeypatch.setattr(metrics, "delta_many", counting)
    metrics_rows(table_mid, zeros_rh, xs, tol=1e-6)
    assert sizes == [len(np.unique(np.concatenate(grids)))]
    assert sizes[0] < sum(map(len, grids))


def test_streamed_memory_is_one_tile_and_the_moments():
    # A metrics batch whose grids mostly need tile 0 alone, plus the grid
    # of x = 1e5, which reads all 14 tiles.  Streamed, the engine holds
    # one tile, the sieve's working arrays for the next, and the moment
    # arrays, 16 doubles per block: under the bytes of three tiles, 6.3 MB
    # (3.7-4.2 MB measured), where the whole table takes 8 N = 29 MB.
    # Holding the tiles, or weights a block long for each point, goes
    # over.
    xs = np.append(np.geomspace(10.0, 3e3, 24), 1e5)
    us = np.concatenate([hybrid_grid(x, points=64, include_zero=True) for x in xs])
    table = LambdaStream(truncation_cutoff(1e5, TOL))
    tracemalloc.start()
    try:
        delta_many(table, us, tol=TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * _TILE


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than binary64 here",
)
def test_within_four_eps_u_of_long_double_sums():
    # seeded u on both sides of the kernel's edges u = 64 and u = _BLOCK,
    # one within 1e-6 relative of the edge and one up to half the edge
    # away, and a jittered geometric ladder out to 2e5; the oracle sums
    # the same truncated series in long double, over the nonzero entries
    # of each tile
    rng = np.random.default_rng(64)
    near = [
        e * (1.0 + s * rng.uniform([1e-9, 1e-3], [1e-6, 0.5]))
        for e in (64.0, _BLOCK)
        for s in (-1.0, 1.0)
    ]
    ladder = np.geomspace(10.0, 2e5, 12) * rng.uniform(0.9, 1.0, 12)
    us = np.concatenate(near + [ladder, [2e5]])
    table = LambdaStream(truncation_cutoff(2e5, TOL))
    b = delta_many(table, us, tol=TOL)
    ref = np.zeros(len(us), dtype=np.longdouble)
    for t, tile in enumerate(map(flat_tile, table.tiles())):
        at = np.flatnonzero(tile)
        n = (at + 1 + t * _TILE).astype(np.longdouble)
        c = tile[at].astype(np.longdouble)
        for i, (u, M) in enumerate(zip(us, b.cutoff)):
            keep = n <= M
            ref[i] += np.sum(c[keep] * np.exp(-n[keep] / np.longdouble(u)))
    err = np.abs(b.psi.astype(np.longdouble) - ref).astype(float)
    assert np.all(err <= 4.0 * np.finfo(float).eps * us), err / (np.finfo(float).eps * us)
