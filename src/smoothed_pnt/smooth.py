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
its own certified cutoff truncation_cutoff(u, tol).  Its kernel,
_psi_many, splits this discrete Laplace transform into block moments
(Rokhlin 1988; Strain 1992).  Block q of size B holds n = qB + m,
m = 1..B.  With x_m = (2m - B - 1)/(B - 1) in [-1, 1], r = (B - 1)/(2u),
a_0 = I_0(r) and a_j = 2 (-1)^j I_j(r) (the modified Bessel generating
function), e^{-m/u} = e^{-(B+1)/(2u)} sum_j a_j(r) T_j(x_m).  So
Psi(u) = sum_q e^{-(qB + (B+1)/2)/u} (M[q] . a(r)), and the moments
M[q, j] = sum_m c_{qB+m} T_j(x_m) do not depend on u: one pass over the
table computes them, and a point costs _J multiply-adds per block, not
B.  Points with u >= _BLOCK take B = _BLOCK, those with 64 <= u < _BLOCK
take B = 64 (r <= 1/2 either way), and those with u < 64 a direct sum;
a partial last block is summed directly.

Each moment comes from one fixed-shape product per tile, and a point
reads only the moments and its own partial block, in shapes set by its
own cutoff.  So a point's Delta is bitwise the same whatever else is in
its batch, by construction, and S(x) >= |Delta(x)|, a max over a grid
that contains x, holds exactly.  delta, the S/D grids and the CLI all
go through the engine.

The engine reads a table through two attributes only, `limit` and
`tiles()`: flat tiles of sieve._TILE entries, in order, and it stops
after the tile that holds the largest cutoff.  A LambdaTable
slices its array; a LambdaStream, which metrics, delta and pintz use,
sieves each tile as it is read, so the whole table is never held.  A
pass holds one tile and the moment arrays, _J doubles per block (1.5 MB
for a table of 4.8e7 entries).

weighted_exp_sum, a one-point GEMV of the plain split e^{-qB/u} e^{-m/u},
serves only pintz._delta_point: U_integral's march and the envelope
probes inside its reach.  U cancels ~8 digits, so moving the march onto
the engine shifts U by ~5e-7 relative, past the 1e-9 at which the
benchmark's reference outputs pin it.  Goldbach's F_k, pintz's Mellin
quadrature and its farther probes go through the engine.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, RangeError
from .sieve import _TILE

__all__ = [
    "DELTA_LIMIT",
    "SmoothedPoint",
    "DeltaBatch",
    "smooth_baseline",
    "truncation_cutoff",
    "weighted_exp_sum",
    "delta_many",
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


def _direct_sum(coeffs, first, x):
    """sum_i coeffs[i] e^{-(first+i)/x}, one exp per term."""
    n = np.arange(first, first + len(coeffs), dtype=float)
    return float(np.dot(coeffs, np.exp(-n / x)))


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
    blocked = coeffs[: Q * _BLOCK].reshape(Q, _BLOCK) @ np.exp(-np.arange(1, _BLOCK + 1) / x)
    total = float(np.exp(-(_BLOCK / x) * np.arange(Q, dtype=float)) @ blocked)
    if M > Q * _BLOCK:
        total += _direct_sum(coeffs[Q * _BLOCK :], Q * _BLOCK + 1, x)
    return total


# Chebyshev terms per block.  With r <= 1/2, the first term omitted from
# the series of e^{-r x} is at most 2 I_J(1/2) ~ 2 (1/4)^J / J!: 4.8e-18
# <= eps at J = 13, while J = 12 leaves 2.5e-16 > eps.  J = 16 is kept,
# as OpenBLAS multiplies a tile, as 64 blocks of 4096, by 16 columns
# faster than by 13 (0.30 against 0.46 ms on one Haswell-class Xeon core).
_J = 16
# Block sizes.  Both must divide _TILE, as moments are taken over whole tiles.
_BLOCK = 4096  # weighted_exp_sum's, and the engine's for u >= _BLOCK
_SMALL_BLOCK = 64  # the engine's for 64 <= u < _BLOCK; direct sums below it
# row k, column j: 1/(k! (k+j)!) times a_j's factor 1 or 2 (-1)^j, so that
# a_j(r) = (r/2)^j sum_k (r^2/4)^k _BESSEL_SERIES[k, j] (_chebyshev_coeffs)
_BESSEL_SERIES = np.array(
    [[(2.0 * (-1) ** j if j else 1.0) / (math.factorial(k) * math.factorial(k + j))
      for j in range(_J)] for k in range(_J)]
)


@functools.cache
def _chebyshev_basis(B):
    """T_j(x_m) for block offsets m = 1..B (rows) and j < _J (columns), built once."""
    x = (2.0 * np.arange(1, B + 1) - B - 1) / (B - 1)
    T = [np.ones(B), x]
    while len(T) < _J:
        T.append(2.0 * x * T[-1] - T[-2])
    return np.stack(T, axis=1)


def _chebyshev_coeffs(r):
    """a_j(r), j < _J, of e^{-r x} = sum_j a_j(r) T_j(x): one row per r <= 1/2.

    Elementwise only, so each row is the same whatever else is in r.
    """
    y = (0.25 * r * r)[:, None]
    series = np.zeros((len(r), _J))
    for row in _BESSEL_SERIES[::-1]:
        series = series * y + row
    powers = np.empty((len(r), _J))
    powers[:, 0], powers[:, 1:] = 1.0, 0.5 * r[:, None]
    return series * np.cumprod(powers, axis=1)


def _psi_many(tiles, us, cutoffs):
    """sum_{n <= cutoffs[i]} c_n e^{-n/us[i]} for every i, all us > 0.

    tiles yields the coefficients c_1, c_2, ... as flat tiles of _TILE
    entries; it is read in order and only as far as some point needs.
    While a tile passes, the moments of each block size still needed are
    taken from it, and the partial last blocks it holds are summed
    directly.  A point with u < 64 has no full blocks: its direct sum is
    its partial block, cut at the end of tile 0, past which every
    e^{-n/u} underflows to 0.  Each point then sums its own full blocks
    from the moments (module docstring).
    """
    T = _TILE
    out = np.zeros(len(us))
    size = np.select([us >= _BLOCK, us >= _SMALL_BLOCK], [_BLOCK, _SMALL_BLOCK], 0)
    full = cutoffs // np.maximum(size, 1) * size  # terms in a point's full blocks
    # moments[B] = M for blocks of size B, in whole tiles, as far as the
    # deepest point of that size reaches
    moments = {
        B: np.empty((-(-int(full[size == B].max()) // T) * (T // B), _J))
        for B in set(size.tolist()) - {0}
    }
    partial = {}  # the points whose partial block lies in tile t
    for i in np.flatnonzero(cutoffs > full):
        partial.setdefault(int(full[i]) // T, []).append(i)
    # tiles to read: to each point's partial block, else to its last full one
    reach = int(np.where(cutoffs > full, full // T + 1, -(-full // T)).max(initial=0))
    tiles = iter(tiles)
    for t in range(reach):
        tile = next(tiles)
        for B, M in moments.items():
            rows = slice(t * (T // B), (t + 1) * (T // B))
            if rows.start < len(M):
                np.matmul(tile.reshape(-1, B), _chebyshev_basis(B), out=M[rows])
        for i in partial.get(t, ()):
            out[i] = _direct_sum(tile[full[i] - t * T : cutoffs[i] - t * T], full[i] + 1, us[i])
        del tile  # so the next tile can be sieved in its place
    for B, M in moments.items():
        at = np.flatnonzero(size == B)
        for i, a in zip(at, _chebyshev_coeffs((B - 1) / (2.0 * us[at]))):
            q = np.arange(full[i] // B)
            out[i] += np.exp(-(B * q + (B + 1) / 2) / us[i]) @ (M[: len(q)] @ a)
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


def delta(table, x, tol=1e-9):
    """Delta(x) = Psi(x) - I(x) with both sums at the matched cutoff: delta_many at one point.

    The returned point carries psi, the baseline I(x), delta, the cutoff
    and the certified tail bound of the truncated Psi.  CapacityError
    when the table cannot reach the cutoff the tolerance demands.
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
