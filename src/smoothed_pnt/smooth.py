"""Exponentially smoothed prime sums and the sup/average deviation metrics.

The central objects: Psi(x) = sum Lambda(n) e^{-n/x}, the geometric
baseline I(x) = sum e^{-n/x} = 1/(e^{1/x} - 1), and their difference
Delta(x).  As x grows, Delta(x) converges to the constant 1/2 - log 2pi.
A widely quoted form of the explicit-formula display gives this constant
as -log 2pi; direct summation pins it at 1/2 - log 2pi (the extra 1/2 is
the second term of the baseline's Laurent expansion 1/(e^y - 1) =
1/y - 1/2 + y/12 - ...), and that is the value this package certifies.

Every "max/average over a continuum" here is a grid approximation that
certifies a one-sided bound: sup_metric never exceeds the true sup, and
avg_metric reports its own trapezoid error estimate.

One engine, delta_many, evaluates Delta at any set of points, each at
its own certified cutoff truncation_cutoff(u, tol).  It uses the split
e^{-(qB+m)/u} = e^{-qB/u} e^{-m/u} (B = _BLOCK) for many points at once:
a GEMM multiplies a tile of block rows of the Lambda table by a matrix
whose columns are the inner weights e^{-m/u} of up to _TILE_COLS points,
and each point then takes one dot of its outer weights e^{-qB/u} with
exactly its own block rows.  Points are sorted by cutoff (largest first)
and grouped, and each table tile is read once for every group that
reaches it, so a grid of P points costs about one pass over the table
instead of P.  delta, smooth_psi, the S/D grids and the CLI all go
through it.

The GEMM shape is fixed: every product is (_TILE_ROWS x B) @ (B x
_TILE_COLS), the last tile and the spare columns are zero-padded, and a
tile always starts at a multiple of _TILE_ROWS block rows.  With one
shape, BLAS sums every output element in the same order, so a point's
Delta is bitwise the same whatever other points share its batch, and
alone.  Variable shapes break this in the last bits (BLAS sends one
column to GEMV and small products to other kernels), and then even
S(x) >= |Delta(x)|, a max over a grid that contains x, can fail by an
ulp.

weighted_exp_sum, the one-point GEMV form of the same split, stays for
callers that sum other coefficients (goldbach's F_k) or other cutoffs
(pintz's loose tail).  Pintz's U integral cancels ~8 digits, so moving
its Delta onto the GEMM kernel shifts U by ~5e-7 relative; keeping it on
weighted_exp_sum keeps its output bit for bit.
"""

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import CapacityError, RangeError
from .sieve import LambdaTable

__all__ = [
    "DELTA_LIMIT",
    "SmoothedPoint",
    "DeltaBatch",
    "smooth_baseline",
    "truncation_cutoff",
    "weighted_exp_sum",
    "delta_many",
    "smooth_psi",
    "delta",
    "hybrid_grid",
    "sup_metric",
    "avg_metric",
    "trapezoid_mean",
    "AvgMetric",
]

#: lim_{x->inf} Delta(x), certified by the direct-summation oracle.
DELTA_LIMIT = 0.5 - math.log(2.0 * math.pi)


@dataclass(frozen=True)
class SmoothedPoint:
    """One evaluation of the smoothed sums at scale x."""

    x: float
    psi: float
    baseline: float
    delta: float
    cutoff: int
    tail_bound: float


class DeltaBatch(NamedTuple):
    """delta_many's result: one entry per input point, in input order."""

    psi: np.ndarray
    baseline: np.ndarray
    delta: np.ndarray
    cutoff: np.ndarray
    tail_bound: np.ndarray


def smooth_baseline(x):
    """I(x) = 1/(e^{1/x} - 1), cancellation-safe for large x via expm1."""
    if x <= 0.0:
        raise RangeError("x must be positive")
    return 1.0 / math.expm1(1.0 / x)


def _log_tail(m, x):
    """log of (m log m) e^{-m/x} x, the tail bound for a cutoff m."""
    return math.log(m) + math.log(math.log(m)) - m / x + math.log(x)


def truncation_cutoff(x, tol):
    """Smallest M >= 10x with (M log M) e^{-M/x} x <= tol.

    The left side dominates the omitted tail sum_{n>M} (log n) e^{-n/x}
    by an integral comparison, so stopping at M certifies the tail.
    """
    if x <= 0.0:
        raise RangeError("x must be positive")
    if tol <= 0.0:
        raise RangeError("tol must be positive")
    lo = max(20, int(math.ceil(10.0 * x)))
    log_tol = math.log(tol)
    return _smallest_cutoff(lambda m: _log_tail(m, x) <= log_tol, lo)


def _smallest_cutoff(fits, lo):
    """Smallest M >= lo with fits(M), by doubling then bisection; fits fails, then holds."""
    if fits(lo):
        return lo
    hi = lo
    while not fits(hi):
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid
    return hi


_BLOCK = 4096
_TILE_ROWS = 64  # block rows of the table per GEMM
_TILE_COLS = 16  # points per GEMM


def _direct_sum(coeffs, first, x):
    """sum_i coeffs[i] e^{-(first+i)/x}, one exp per term."""
    n = np.arange(first, first + len(coeffs), dtype=float)
    return float(np.dot(coeffs, np.exp(-n / x)))


def _inner_weights(x):
    return np.exp(-np.arange(1, _BLOCK + 1, dtype=float) / x)


def _outer_weights(x, blocks):
    return np.exp(-(_BLOCK / x) * np.arange(blocks, dtype=float))


def weighted_exp_sum(coeffs, x):
    """sum_{n=1}^{M} coeffs[n-1] * e^{-n/x} for a contiguous coefficient array.

    For long arrays the factorization e^{-(qB+m)/x} = e^{-qB/x} e^{-m/x}
    replaces M exp() calls with ~2 sqrt(M) of them plus two BLAS dots;
    each weight is then a product of two correctly rounded factors (a
    couple of ulp), far below every tolerance used in this package.
    """
    M = len(coeffs)
    if M == 0:
        return 0.0
    if M < 2 * _BLOCK:
        return _direct_sum(coeffs, 1, x)
    Q = M // _BLOCK
    blocked = coeffs[: Q * _BLOCK].reshape(Q, _BLOCK) @ _inner_weights(x)
    total = float(_outer_weights(x, Q) @ blocked)
    if M > Q * _BLOCK:
        total += _direct_sum(coeffs[Q * _BLOCK :], Q * _BLOCK + 1, x)
    return total


def _row_tile(values, q0):
    """Block rows q0 .. q0 + _TILE_ROWS - 1 of values[1:], zero past the end."""
    lo = 1 + q0 * _BLOCK
    hi = lo + _TILE_ROWS * _BLOCK
    if hi <= len(values):
        return values[lo:hi].reshape(_TILE_ROWS, _BLOCK)
    tile = np.zeros((_TILE_ROWS, _BLOCK))
    tile.flat[: len(values) - lo] = values[lo:]
    return tile


def _psi_many(values, us, cutoffs):
    """sum_{n <= cutoffs[i]} values[n] e^{-n/us[i]} for every i, all us > 0."""
    B, R, P = _BLOCK, _TILE_ROWS, _TILE_COLS
    out = np.empty(len(us))
    order = np.argsort(-cutoffs, kind="stable")
    short = cutoffs[order] < 2 * B
    for i in order[short]:
        out[i] = _direct_sum(values[1 : cutoffs[i] + 1], 1, us[i])
    tiled = order[~short]
    if not len(tiled):
        return out
    blocks = cutoffs // B
    groups = [tiled[s : s + P] for s in range(0, len(tiled), P)]
    depth = [int(blocks[g[0]]) for g in groups]  # non-increasing
    inner = np.zeros((len(groups), B, P))
    for k, g in enumerate(groups):
        for c, i in enumerate(g):
            inner[k, :, c] = _inner_weights(us[i])
    # block_sums[k, q, c] = sum_m values[qB + m] e^{-m/u} for point c of
    # group k.  Each tile is read once, by every group deep enough to
    # need it; every product has the one fixed shape (module docstring).
    block_sums = np.empty((len(groups), -(-depth[0] // R) * R, P))
    for q0 in range(0, depth[0], R):
        tile = _row_tile(values, q0)
        for k in range(len(groups)):
            if depth[k] <= q0:
                break
            np.matmul(tile, inner[k], out=block_sums[k, q0 : q0 + R])
    for k, g in enumerate(groups):
        per_point = np.ascontiguousarray(block_sums[k].T)
        for c, i in enumerate(g):
            Q, M = int(blocks[i]), int(cutoffs[i])
            total = float(_outer_weights(us[i], Q) @ per_point[c, :Q])
            if M > Q * B:
                total += _direct_sum(values[Q * B + 1 : M + 1], Q * B + 1, us[i])
            out[i] = total
    return out


def delta_many(table: LambdaTable, us, tol=1e-9):
    """Psi, I and Delta at every point of us, each truncated at its certified cutoff.

    u = 0 gives 0 in every field (the limit from the right).  Raises
    CapacityError, for the first such point in input order, when the
    table cannot reach the cutoff the tolerance demands.
    """
    us = np.asarray(us, dtype=float)
    live = np.flatnonzero(us != 0.0)
    cutoff = np.zeros(len(us), dtype=np.int64)
    for i in live:
        cutoff[i] = truncation_cutoff(us[i], tol)
    over = live[cutoff[live] > table.limit]
    if len(over):
        i = over[0]
        raise CapacityError(
            f"cutoff {cutoff[i]} exceeds table limit {table.limit} (x={us[i]:g}, tol={tol:g})"
        )
    psi = np.zeros(len(us))
    baseline = np.zeros(len(us))
    tail = np.zeros(len(us))
    psi[live] = _psi_many(table.values, us[live], cutoff[live])
    for i in live:
        baseline[i] = smooth_baseline(us[i])
        tail[i] = math.exp(_log_tail(int(cutoff[i]), us[i]))
    return DeltaBatch(psi, baseline, psi - baseline, cutoff, tail)


def smooth_psi(table: LambdaTable, x, tol=1e-9):
    """Psi(x) truncated with a certified tail bound: delta_many at one point.

    CapacityError when the table cannot reach the cutoff the tolerance
    demands.  The returned point also carries baseline and delta (they
    cost nothing extra, and delta = psi - baseline in one rounding).
    """
    if x <= 0.0:
        raise RangeError("x must be positive")
    b = delta_many(table, [x], tol=tol)
    return SmoothedPoint(
        x=float(x),
        psi=float(b.psi[0]),
        baseline=float(b.baseline[0]),
        delta=float(b.delta[0]),
        cutoff=int(b.cutoff[0]),
        tail_bound=float(b.tail_bound[0]),
    )


def delta(table: LambdaTable, x, tol=1e-9):
    """Delta(x) = Psi(x) - I(x) with both sums at the matched cutoff."""
    return smooth_psi(table, x, tol=tol)


def hybrid_grid(x, points=2048, include_zero=False):
    """Sampling grid for the sup/average metrics on (0, x].

    Geometric points on [1, x] catch the slow global drift, a linear
    block on [max(1, x/10), x] resolves the fine structure near x, and a
    short geometric run on [0.02, 1] covers the essentially-zero head.
    Doubling `points` refines every block in place, so grids nest and
    grid maxima are monotone under refinement.  A block's last point can
    round an ulp off x, so every point >= x is dropped and x itself
    appended: the grid ends exactly at x, and still nests.
    """
    if x <= 0.0:
        raise RangeError("x must be positive")
    if points < 16:
        raise RangeError("points must be at least 16")
    m = int(points)
    if x <= 1.0:
        lo = min(0.02, x / 8.0)
        parts = [lo * (x / lo) ** (np.arange(m + 1) / m)]
    else:
        j = np.arange(m + 1) / m
        head = 0.02 * (1.0 / 0.02) ** j
        geo = x**j
        lin_lo = max(1.0, x / 10.0)
        lin = lin_lo + (x - lin_lo) * j
        parts = [head, geo, lin]
    grid = np.unique(np.concatenate(parts))
    grid = np.append(grid[grid < x], float(x))
    if include_zero:
        grid = np.concatenate([[0.0], grid])
    return grid


def delta_on_grid(table, us, tol=1e-9, delta_fn: Optional[Callable] = None):
    """Delta at every grid point; the hook replaces the integrand in tests."""
    if delta_fn is not None:
        return np.array([delta_fn(u) for u in us], dtype=float)
    return delta_many(table, us, tol=tol).delta


def sup_metric(table, x, grid=2048, tol=1e-9, delta_fn=None):
    """max |Delta(u)| over the hybrid grid: a lower bound on the true sup."""
    us = hybrid_grid(x, points=grid)
    return float(np.max(np.abs(delta_on_grid(table, us, tol=tol, delta_fn=delta_fn))))


class AvgMetric(NamedTuple):
    value: float
    quad_error: float


def avg_metric(table, x, panels=2048, tol=1e-9, delta_fn=None):
    """(1/x) integral of |Delta| over [0, x] by composite trapezoid.

    Uses the same hybrid grid (plus u = 0, where the integrand vanishes)
    and reports a Richardson error estimate from comparing against the
    every-other-point trapezoid.
    """
    us = hybrid_grid(x, points=panels, include_zero=True)
    vals = np.abs(delta_on_grid(table, us, tol=tol, delta_fn=delta_fn))
    return trapezoid_mean(us, vals, x)


def trapezoid_mean(us, vals, x):
    """avg_metric's value and error estimate from |Delta| on its grid us."""
    full = float(np.trapezoid(vals, us) / x)
    keep = np.zeros(len(us), dtype=bool)
    keep[::2] = True
    keep[-1] = True  # the coarse grid must still end at x
    half = float(np.trapezoid(vals[keep], us[keep]) / x)
    return AvgMetric(value=full, quad_error=abs(full - half) / 3.0)
