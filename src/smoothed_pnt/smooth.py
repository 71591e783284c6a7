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
its own certified cutoff.  _log_tail is the package's one tail bound and
_cutoffs its one cutoff search, for Psi here and F_k in goldbach.  The
engine's kernel, _psi_many, splits this discrete Laplace transform into block moments
(Rokhlin 1988; Strain 1992).  Block q of size B holds n = qB + m,
m = 1..B.  With x_m = (2m - B - 1)/(B - 1) in [-1, 1], r = (B - 1)/(2u),
a_0 = I_0(r) and a_j = 2 (-1)^j I_j(r) (the modified Bessel generating
function), e^{-m/u} = e^{-(B+1)/(2u)} sum_j a_j(r) T_j(x_m).  So
Psi(u) = sum_q e^{-(qB + (B+1)/2)/u} (M[q] . a(r)), and the moments
M[q, j] = sum_m c_{qB+m} T_j(x_m) do not depend on u: one pass over the
table computes them, and a point costs _J multiply-adds per block, not
B.  Points with u >= _BLOCK take B = _BLOCK, those with 64 <= u < _BLOCK
take B = 64 (r <= 1/2 either way), and those with u < 64 a direct sum
(_block_size), and each cutoff is a whole number of the point's blocks
(_truncation_cutoffs).  The zero side uses the same
expansion at an imaginary r: specfun's head moments give the zero
finder's Euler-Maclaurin heads, in its sign scan below t = 200 and at
every bracket end and secant point of its refinement, so
_chebyshev_coeffs takes a complex r.

Each moment comes from one fixed-shape product per tile, half as wide
for a sieve.OddTile (_tile_moments), and a point reads only the
moments (tile 0's values for a direct sum), in shapes set by its own
cutoff.  So a point's Delta is bitwise the same whatever else is in its
batch, by construction, and S(x) >= |Delta(x)|, a max over a grid that
contains x, holds exactly.  A streamed table and a held one sum in
another order past tile 0, and agree there within 2 eps u.  delta, the
S/D grids and the CLI all go through the engine.

The engine reads a table through two attributes only, `limit` and
`tiles()`: tiles of sieve._TILE entries, in order, and it stops after
the tile that holds the largest cutoff.  A LambdaTable slices its
array; a LambdaStream, which metrics, delta and pintz use, sieves each
tile as it is read, so the whole table is never held.  A pass holds one
tile (a 1 MB half tile past tile 0) and the moment arrays, _J doubles
per block (1 MB for a table of 3.2e7 entries).

weighted_exp_sum is the plain split e^{-qB/u} e^{-m/u} at one point, a
GEMV of block row sums.  It has no caller in the package: tests take it
as a reference, and perfbench's tracer counts it.  U_integral's march,
and the envelope probes inside its reach, take its bits from held tiles
a panel of nodes at a time (pintz._panel_sums), with _block_weights and
_block_total.  U cancels ~8 digits, so moving the march onto the engine
shifts U by ~5e-7 relative, past the 1e-9 at which the benchmark's
reference outputs pin it.  Goldbach's F_k, pintz's Mellin quadrature
and its farther probes go through the engine.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, RangeError
from .sieve import _TILE, OddTile

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
    """I(x) = 1/(e^{1/x} - 1), cancellation-safe for large x via expm1.

    0.0 below x ~ 1/709.78, where e^{1/x} overflows and I(x) is 0 in
    binary64, as delta_many's baseline.
    """
    if not (0.0 < x < math.inf):
        raise RangeError("x must be positive and finite")
    try:
        return 1.0 / math.expm1(1.0 / x)
    except OverflowError:
        return 0.0


def _log_tail(m, x, k=1):
    """log of a bound on sum_{n>m} n^{k-1} (log n)^k e^{-n/x}, elementwise.

    +inf for m <= max(8, 4kx); past that each term shrinks by at least
    e^{-1/(2x)}, so the tail is at most the term at m over 1 - e^{-1/(2x)}.
    k = 1 bounds Psi's tail (Lambda(n) <= log n), k > 1 goldbach's F_k.
    """
    m = np.maximum(m, 8.0)  # the bound is inf up to 8 anyway
    log = (k - 1) * np.log(m) + k * np.log(np.log(m)) - m / x - np.log(-np.expm1(-0.5 / x))
    return np.where(m > np.maximum(8.0, 4.0 * k * x), log, np.inf)


def truncation_cutoff(x, tol):
    """The Delta engine's certified cutoff at x: _truncation_cutoffs at a batch of one.

    RangeError past int64, which x reaches at about 1.43e17 at tol 1e-9.
    """
    return int(_truncation_cutoffs([x], tol)[0])


_INT64_MAX = int(np.iinfo(np.int64).max)


def _block_size(u):
    """The engine's block at each u: _BLOCK from u = _BLOCK, 64 from 64, else 1 (direct)."""
    return np.select([u >= _BLOCK, u >= _SMALL_BLOCK], [_BLOCK, _SMALL_BLOCK], 1)


def _truncation_cutoffs(xs, tol):
    """_cutoffs at k = 1: each x's smallest M >= max(20, 10x) in whole blocks of _block_size(x).

    RangeError unless tol is positive, and as _cutoffs raises it.
    """
    if not (tol > 0.0):
        raise RangeError("tol must be positive")
    xs = np.asarray(xs, dtype=float)
    return _cutoffs(xs, math.log(tol), lambda x: np.maximum(20.0, 10.0 * x), _block_size(xs))


def _positive_finite(xs):
    """xs as a float array; RangeError unless every x is positive and finite."""
    xs = np.asarray(xs, dtype=float)
    if not np.all((xs > 0.0) & (xs < math.inf)):
        raise RangeError("x must be positive and finite")
    return xs


def _cutoffs(xs, log_tol, floor, step=1, k=1):
    """Each x's smallest multiple M of step with M >= floor(x) and _log_tail(M, x, k) <= log_tol.

    Past its floor the bound decreases, so one doubling, then bisection,
    over counts of step serves all of xs at once.  RangeError unless
    every x is positive and finite, and for an x whose M would pass int64.
    """
    xs = _positive_finite(xs)

    def too_large(x):
        return RangeError(f"x = {x:g} is too large: its cutoff exceeds int64")

    with np.errstate(over="ignore"):
        low = np.ceil(floor(xs) / step)
    if np.any(huge := low >= 2.0**63 / step):  # step is a power of two
        raise too_large(xs[huge][0])
    most = _INT64_MAX // step  # the most steps an int64 cutoff holds

    def fits(n):
        return _log_tail(n * step, xs, k) <= log_tol

    low = hi = low.astype(np.int64)
    while not (held := fits(hi)).all():
        if np.any(stuck := ~held & (hi == most)):
            raise too_large(xs[stuck][0])
        hi = np.where(held, hi, hi + np.minimum(hi, most - hi))
    # fits(hi) holds, and fits(low) fails unless low == hi
    while (live := low + 1 < hi).any():
        mid = np.where(live, low + (hi - low) // 2, hi)
        mid_fits = fits(mid)
        hi = np.where(mid_fits, mid, hi)
        low = np.where(mid_fits, low, mid)
    return hi * step


def _direct_sum(coeffs, first, x):
    """sum_i coeffs[i] e^{-(first+i)/x}, one exp per term."""
    n = np.arange(first, first + len(coeffs), dtype=float)
    return float(np.dot(coeffs, np.exp(-n / x)))


def weighted_exp_sum(coeffs, x):
    """sum_{n=1}^{M} coeffs[n-1] * e^{-n/x} for a contiguous coefficient array.

    With Q = M // _BLOCK whole blocks (none for M < 2 _BLOCK, a direct
    sum), e^{-(qB+m)/x} = e^{-qB/x} e^{-m/x}: the block row sums
    rows[q] = sum_m coeffs[q _BLOCK + m - 1] e^{-m/x}, m = 1.._BLOCK,
    are one GEMV, and the sum is _block_total(rows, x) plus a direct sum
    over the last partial block.  B + M/B exp() calls, each weight a
    product of two correctly rounded factors (a couple of ulp).
    """
    M = len(coeffs)
    if M < 2 * _BLOCK:
        return _direct_sum(coeffs, 1, x)
    Q = M // _BLOCK
    total = _block_total(coeffs[: Q * _BLOCK].reshape(Q, _BLOCK) @ _block_weights(x), x)
    if M > Q * _BLOCK:
        total += _direct_sum(coeffs[Q * _BLOCK :], Q * _BLOCK + 1, x)
    return total


def _block_weights(x):
    """e^{-m/x} for the in-block offsets m = 1.._BLOCK."""
    return np.exp(-np.arange(1, _BLOCK + 1) / x)


def _block_total(rows, x):
    """sum_q e^{-q _BLOCK/x} rows[q]: weighted_exp_sum's whole blocks from their row sums."""
    return float(np.exp(-(_BLOCK / x) * np.arange(len(rows), dtype=float)) @ rows)


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


def _chebyshev_table(x):
    """T_j(x) for every x of a 1-D array in [-1, 1] (rows) and j < _J (columns)."""
    T = [np.ones(len(x)), x]
    while len(T) < _J:
        T.append(2.0 * x * T[-1] - T[-2])
    return np.stack(T, axis=1)


@functools.cache
def _chebyshev_basis(B):
    """T_j(x_m) for block offsets m = 1..B (rows) and j < _J (columns), built once."""
    return _chebyshev_table((2.0 * np.arange(1, B + 1) - B - 1) / (B - 1))


def _chebyshev_coeffs(r):
    """a_j(r), j < _J, of e^{-r x} = sum_j a_j(r) T_j(x): one row per r, |r| <= 1/2.

    r is real on the Lambda side and imaginary, r = iz, on the zero side
    (specfun._moment_heads), where a_j(iz) = 2 (-i)^j J_j(z); a complex
    r gives complex rows, a real r the real ones.  Elementwise only, so
    each row is the same whatever else is in r.
    """
    dtype = np.result_type(r, float)
    y = (0.25 * r * r)[:, None]
    series = np.zeros((len(r), _J), dtype=dtype)
    for row in _BESSEL_SERIES[::-1]:
        series = series * y + row
    powers = np.empty((len(r), _J), dtype=dtype)
    powers[:, 0], powers[:, 1:] = 1.0, 0.5 * r[:, None]
    return series * np.cumprod(powers, axis=1)


def _tile_moments(tile, B, out):
    """out[q, j] = sum_m c_{qB+m} T_j(x_m) over one tile's blocks of size B.

    An OddTile's half tile holds the odd m, so it multiplies the basis's
    odd-m rows (a strided view BLAS reads in place), and its power of
    two adds its one row.
    """
    basis = _chebyshev_basis(B)
    if isinstance(tile, OddTile):
        np.matmul(tile.odd.reshape(-1, B // 2), basis[0::2], out=out)
        for at, value in tile.evens:
            out[at // B] += value * basis[at % B]
    else:
        np.matmul(tile.reshape(-1, B), basis, out=out)


def _psi_many(tiles, us, cutoffs):
    """sum_{n <= N_i} c_n e^{-n/us[i]} for every i, all us > 0: N_i is cutoffs[i] in whole blocks.

    tiles yields the coefficients c_1, c_2, ... in tiles of _TILE
    entries, tile 0 flat, zero past the table's end; it is read in order
    and only as far as some point needs.  Each cutoff is rounded up to a
    whole block of _block_size(u): _truncation_cutoffs' already are, and
    a table's end (goldbach's conv.limit, pintz's clamped probes) is rounded into
    the zeros past it, inside its last tile, as _TILE is a multiple of
    every block.  While a tile passes, the moments of each block size
    still needed are taken from it; each point then sums its blocks from
    the moments (module docstring).  A point with u < 64 is a direct sum
    over tile 0 at most, past which every e^{-n/u} underflows to 0.
    """
    T = _TILE
    out = np.empty(len(us))
    size = _block_size(us)
    ends = np.where(size == 1, np.minimum(cutoffs, T), -(-cutoffs // size) * size)
    reach = -(-ends // T)  # the tiles each point reads
    # moments[B] = M for blocks of size B, as far as the deepest point of
    # that size reaches
    moments = {
        B: np.empty((int(reach[size == B].max()) * (T // B), _J))
        for B in set(size.tolist()) - {1}
    }
    tiles = iter(tiles)
    for t in range(int(reach.max(initial=0))):
        tile = next(tiles)
        if t == 0:
            for i in np.flatnonzero(size == 1):
                out[i] = _direct_sum(tile[: ends[i]], 1, us[i])
        for B, M in moments.items():
            rows = slice(t * (T // B), (t + 1) * (T // B))
            if rows.start < len(M):
                _tile_moments(tile, B, M[rows])
        del tile  # so the next tile can be sieved in its place
    for B, M in moments.items():
        at = np.flatnonzero(size == B)
        for i, a in zip(at, _chebyshev_coeffs((B - 1) / (2.0 * us[at]))):
            q = np.arange(ends[i] // B)
            out[i] = np.exp(-(B * q + (B + 1) / 2) / us[i]) @ (M[: len(q)] @ a)
    return out


def delta_many(table, us, tol=1e-9):
    """Psi, I and Delta at every point of us, each truncated at its certified cutoff.

    The cutoffs are _truncation_cutoffs', whole blocks, and tail_bound
    is _log_tail's certificate at each.  u = 0 gives 0 in every field (the limit
    from the right).  Raises CapacityError, for the first such point in
    input order, when the table cannot reach the cutoff the tolerance
    demands.
    """
    us = np.asarray(us, dtype=float)
    live = us != 0.0
    cutoff = np.zeros(len(us), dtype=np.int64)
    cutoff[live] = _truncation_cutoffs(us[live], tol)
    over = np.flatnonzero(cutoff > table.limit)
    if len(over):
        i = over[0]
        raise CapacityError(
            f"cutoff {cutoff[i]} exceeds table limit {table.limit} (x={us[i]:g}, tol={tol:g})"
        )
    psi, baseline, tail = np.zeros((3, len(us)))
    psi[live] = _psi_many(table.tiles(), us[live], cutoff[live])
    with np.errstate(over="ignore"):  # e^{1/u} overflows below u ~ 1/710, where I(u) is 0
        baseline[live] = 1.0 / np.expm1(1.0 / us[live])
    tail[live] = np.exp(_log_tail(cutoff[live], us[live]))
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


def _distinct(values):
    """The sorted distinct values of a 1-D float array without NaN: np.unique's array.

    A sort and a neighbour mask, as np.unique does it; np.unique itself
    imports numpy.ma on numpy 2.4, ~20 ms of a CLI run that needs nothing else of it.
    """
    out = np.sort(values)
    keep = np.ones(len(out), dtype=bool)
    keep[1:] = out[1:] != out[:-1]
    return out[keep]


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
    if not (0.0 < x < math.inf):
        raise RangeError("x must be positive and finite")
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
    grid = _distinct(np.concatenate(parts))
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
    quad_error: float  # an estimate, not a bound (see avg_metric)


def avg_metric(table, x, panels=2048, tol=1e-9):
    """(1/x) integral of |Delta| over [0, x] by composite trapezoid.

    Uses the same hybrid grid (plus u = 0, where the integrand vanishes)
    and reports a Richardson error estimate from comparing against the
    every-other-point trapezoid.  It is not a bound: the true error
    exceeded it at every seeded x tested, by up to 1.7 times at 64 panels.
    """
    us = hybrid_grid(x, points=panels, include_zero=True)
    vals = np.abs(delta_many(table, us, tol=tol).delta)
    return trapezoid_mean(us, vals, x)


def trapezoid_mean(us, vals, x):
    """avg_metric's value and error estimate (not a bound) from |Delta| on its grid us."""
    full = float(np.trapezoid(vals, us) / x)
    keep = np.zeros(len(us), dtype=bool)
    keep[::2] = True
    keep[-1] = True  # the coarse grid must still end at x
    half = float(np.trapezoid(vals[keep], us[keep]) / x)
    return AvgMetric(value=full, quad_error=abs(full - half) / 3.0)
