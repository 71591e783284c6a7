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

The engine reads a table through two attributes only, `limit` and
`tiles()`: the tiles come in order (sieve module docstring), and it
stops after the tile that holds the largest cutoff.  A LambdaTable
slices its array; a LambdaStream, which metrics, delta and pintz use,
sieves each tile as it is read, so the whole table is never held.  Each
point takes what it needs from a tile while that tile passes: its direct
sum when its cutoff is short, its block sums, and its partial last block.
A pass holds one tile, the inner weights of the groups still reading
(built at a group's first tile, dropped after its last), and each
group's block sums, sized to that group's own depth.

The GEMM shape is fixed: every product is (_TILE_ROWS x B) @ (B x
_TILE_COLS), the last tile and the spare columns are zero-padded, and a
tile always starts at a multiple of _TILE_ROWS block rows.  With one
shape, BLAS sums every output element in the same order, so a point's
Delta is bitwise the same whatever other points share its batch, and
alone.  Variable shapes break this in the last bits (BLAS sends one
column to GEMV and small products to other kernels), and then even
S(x) >= |Delta(x)|, a max over a grid that contains x, can fail by an
ulp.

weighted_exp_sum, the one-point GEMV form of the same split, has one
caller left: pintz._delta_point, which U_integral's march and the tail
envelope probes inside the march's reach use under their loose tail
rule.  It reads a held prefix of the table, sieved tile by tile only as
far as the march's largest cutoff; the farther probes take one _psi_many
pass over a fresh tiles() stream.  U cancels ~8 digits, so moving the
march's nodes onto the GEMM kernel shifts U by ~5e-7 relative, past the
1e-9 at which the benchmark's reference outputs pin it; they stay on
weighted_exp_sum until those references are re-recorded.  Goldbach's
F_k and pintz's Mellin quadrature go through the engine.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, RangeError
from .sieve import _BLOCK, _TILE_ROWS

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


def _psi_many(tiles, us, cutoffs):
    """sum_{n <= cutoffs[i]} c_n e^{-n/us[i]} for every i, all us > 0.

    tiles yields the coefficients c_1, c_2, ... in sieve.lambda_tiles'
    order; it is read in order and only up to the tile holding the
    largest cutoff.  What a point needs from a tile (its short direct
    sum, its block sums, its partial last block) is taken while that
    tile passes.
    """
    B, R, P = _BLOCK, _TILE_ROWS, _TILE_COLS
    out = np.empty(len(us))
    if not len(us):
        return out
    order = np.argsort(-cutoffs, kind="stable")
    is_short = cutoffs[order] < 2 * B
    short, tiled = order[is_short], order[~is_short]
    blocks = cutoffs // B
    groups = [tiled[s : s + P] for s in range(0, len(tiled), P)]
    depth = [int(blocks[g[0]]) for g in groups]  # non-increasing
    # block_sums[k][q, c] = sum_m c_{qB + m} e^{-m/u} for point c of
    # group k, sized to the group's own depth.  Every product has the
    # one fixed shape (module docstring).
    block_sums = [np.empty((-(-d // R) * R, P)) for d in depth]
    inner = [None] * len(groups)
    # points with a partial last block, by the tile that holds it
    partial = {}
    for i in tiled:
        if cutoffs[i] > blocks[i] * B:
            partial.setdefault(int(blocks[i]) // R, []).append(i)
    remainder = {}
    tiles = iter(tiles)
    for t in range((int(cutoffs[order[0]]) - 1) // (R * B) + 1):  # to the largest cutoff's tile
        tile = next(tiles)
        q0 = t * R
        if t == 0:
            for i in short:
                out[i] = _direct_sum(tile.reshape(-1)[: cutoffs[i]], 1, us[i])
        for k, g in enumerate(groups):
            if depth[k] <= q0:
                break
            if inner[k] is None:
                inner[k] = np.zeros((B, P))
                for c, i in enumerate(g):
                    inner[k][:, c] = _inner_weights(us[i])
            np.matmul(tile, inner[k], out=block_sums[k][q0 : q0 + R])
            if depth[k] <= q0 + R:
                inner[k] = None  # the group's last tile
        for i in partial.get(t, ()):
            Q = int(blocks[i])
            remainder[i] = _direct_sum(tile[Q - q0, : cutoffs[i] - Q * B], Q * B + 1, us[i])
        del tile  # so the next tile can be sieved in its place
    for k, g in enumerate(groups):
        per_point = np.ascontiguousarray(block_sums[k].T)
        for c, i in enumerate(g):
            total = float(_outer_weights(us[i], int(blocks[i])) @ per_point[c, : blocks[i]])
            if i in remainder:
                total += remainder[i]
            out[i] = total
    return out


def delta_many(table, us, tol=1e-9):
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
    psi[live] = _psi_many(table.tiles(), us[live], cutoff[live])
    for i in live:
        baseline[i] = smooth_baseline(us[i])
        tail[i] = math.exp(_log_tail(int(cutoff[i]), us[i]))
    return DeltaBatch(psi, baseline, psi - baseline, cutoff, tail)


def smooth_psi(table, x, tol=1e-9):
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


def delta(table, x, tol=1e-9):
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


def sup_metric(table, x, grid=2048, tol=1e-9):
    """max |Delta(u)| over the hybrid grid: a lower bound on the true sup."""
    us = hybrid_grid(x, points=grid)
    return float(np.max(np.abs(delta_many(table, us, tol=tol).delta)))


class AvgMetric(NamedTuple):
    value: float
    quad_error: float


def avg_metric(table, x, panels=2048, tol=1e-9):
    """(1/x) integral of |Delta| over [0, x] by composite trapezoid.

    Uses the same hybrid grid (plus u = 0, where the integrand vanishes)
    and reports a Richardson error estimate from comparing against the
    every-other-point trapezoid.
    """
    us = hybrid_grid(x, points=panels, include_zero=True)
    vals = np.abs(delta_many(table, us, tol=tol).delta)
    return trapezoid_mean(us, vals, x)


def trapezoid_mean(us, vals, x):
    """avg_metric's value and error estimate from |Delta| on its grid us."""
    full = float(np.trapezoid(vals, us) / x)
    keep = np.zeros(len(us), dtype=bool)
    keep[::2] = True
    keep[-1] = True  # the coarse grid must still end at x
    half = float(np.trapezoid(vals[keep], us[keep]) / x)
    return AvgMetric(value=full, quad_error=abs(full - half) / 3.0)
