"""Analytic lower-bound machinery: the Mellin transform H(s), the Gaussian
line-integral identity, the smoothing integral U(mu) in both of its
representations, and a numerical verifier for the Turan power-sum bound.

The two U representations form the main cross-check.  U_integral works
purely from the sieved table (the u-side), U_residue purely from a zero
set (the s-side: ZeroSet.gamma_terms over the zeros and their conjugates,
and no term at s = 1, where H is regular); neither sees the other's data.
U_residue omits the shifted-contour remainder and attaches the crude
envelope e^{-mu + 9k/4} as reported uncertainty; at the parameter scales
used here the actual remainder is orders of magnitude smaller (the Gamma
factor on the shifted line decays like e^{-pi Im /2}): honest but loose.

H(s) and the Gaussian line take the trapezoid rule on a uniform lattice
(geometric convergence: Trefethen and Weideman, SIAM Review 56 (2014));
U_integral keeps its 12-point Gauss-Legendre march: U's bits are pinned.

The Turan bound verified here is  max_{a<=t<=a+b} |sum_j e^{alpha_j t}|
>= (b / (8e(a+b)))^n.  The denominator of this bound is frequently
misprinted as 8e(a + b/b), which is dimensionally incoherent; the form
used here is the standard one, and the verifier makes it falsifiable.
turan_bounds verifies a batch of instances: a grid scan per instance,
then one vectorized golden-section search (metrics._golden_section, the
package's one 1-D minimizer) for all instances with the same number of
exponents.  Each row is bitwise what its instance gives alone, and
turan_bound is the batch of one.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    DomainError,
    NormalizationError,
    RangeError,
    ToleranceError,
)
from .metrics import _golden_section
from .sieve import _TILE, LambdaTable, OddTile, flat_tile
from .smooth import (
    _BLOCK,
    _INT64_MAX,
    DELTA_LIMIT,
    _block_total,
    _block_weights,
    _direct_sum,
    _log_tail,
    _psi_many,
    delta_many,
    smooth_baseline,
)
from .specfun import gamma_complex, zeta_em, zeta_logderiv
from .zeros import ZeroSet

__all__ = [
    "PintzParams",
    "mellin_H_closed",
    "mellin_H_quadrature",
    "gaussian_line_check",
    "U_window",
    "U_integral",
    "U_residue",
    "turan_bound",
    "turan_bounds",
    "QuadResult",
]


@dataclass(frozen=True)
class PintzParams:
    """Free parameters of the smoothing integral: center, width, reference zero."""

    mu: float
    k: float
    rho0: complex

    def __post_init__(self):
        if not (0.0 < self.k < math.inf):
            raise DomainError("k must be positive and finite")
        if not math.isfinite(self.mu):
            raise DomainError("mu must be finite")
        r = complex(self.rho0)
        if not (0.0 < r.real < 1.0) or r.imag <= 0.0:
            raise DomainError("rho0 must satisfy 0 < Re < 1 and Im > 0")
        object.__setattr__(self, "rho0", r)


# The 12-point Gauss-Legendre rule on [-1, 1], U_integral's panel rule,
# as literals.  The last bit of each weight matters: U_integral's
# cancellation turns a 1e-15 change in the weights into ~5e-8 relative
# in U, so the rule is pinned rather than recomputed (numpy's leggauss
# differs by up to 1.8e-15).
_GAUSS_LEGENDRE_12 = (
    np.array([
        -0.9815606342467192, -0.9041172563704749, -0.7699026741943047,
        -0.5873179542866175, -0.36783149899818013, -0.12523340851146897,
        0.12523340851146897, 0.36783149899818013, 0.5873179542866175,
        0.7699026741943047, 0.9041172563704749, 0.9815606342467192,
    ]),
    np.array([
        0.04717533638651319, 0.10693932599531782, 0.16007832854334608,
        0.20316742672306573, 0.2334925365383547, 0.2491470458134026,
        0.2491470458134026, 0.2334925365383547, 0.20316742672306573,
        0.16007832854334608, 0.10693932599531782, 0.04717533638651319,
    ]),
)


class QuadResult(NamedTuple):
    value: complex
    error: float


def mellin_H_closed(s):
    """H(s) = s Gamma(s) (zeta'/zeta(s) + zeta(s)), the closed form (Re s > 1)."""
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("closed form requires Re s > 1")
    return s * gamma_complex(s) * (zeta_logderiv(s) + zeta_em(s))


def _loose_cutoff(u, eps):
    """Direct tail bound for sum_{n>M} log(n) e^{-n/u}: first-term/(1-ratio) style."""
    u = max(u, 1.0)
    m = u * max(5.0, math.log(2.4 * u * 20.0 / eps))
    for _ in range(40):
        m_new = u * math.log(2.4 * u * (math.log(m) + 1.0) / eps)
        if abs(m_new - m) < 1.0:
            break
        m = m_new
    return int(m) + 1


# block rows per chunk, in which the march reads its table: 1 MB, and a
# divisor of a tile's 64 blocks
_CHUNK = 32
# OpenBLAS's GEMV kernels take the rows of a product in groups of this
# many from its first row, and the last one to three rows by narrower
# kernels (a one-row product takes numpy's dot path instead).  At one
# BLAS thread a row's bits depend only on the kernel that takes it.
_ROW_GROUP = 4
_NO_ROWS = np.empty(0)


class _HeldTiles:
    """The tiles of one table.tiles() pass, kept as it yields them, only as far as asked.

    Every tile, tile 0 and the flat tiles of an array-backed table as
    well as the sieved OddTiles, is held as (at, kept_at, kept): at, the
    int32 offsets of its nonzero entries, ascending, at 4 bytes each
    (71-82 KB a tile up to n = 2.6e6 and 93 KB for tile 0, where a flat
    tile takes 2 MB); kept_at and kept, the offsets and Lambda of the few
    entries where Lambda is not np.log(n) bitwise (the prime powers p^k,
    k >= 2), at 12 bytes each.  Every other entry is rebuilt by _logs,
    the expression that found it equal, so the bits are kept by
    construction.  head is Lambda(1 .. 2 _BLOCK - 1) flat, from tile 0,
    for the direct sums.  chunk() writes a chunk's into one reused zeroed
    buffer, flat bits, and leaves the buffer as it is when it already
    holds that chunk.
    """

    def __init__(self, table):
        self.limit = table.limit
        self.tiles = []
        self.head = None
        self.reach = 0  # Lambda(1 .. reach) is held
        self.last = -1  # the chunk the buffer holds, -1 for none
        self._pass = iter(table.tiles())
        self._flat = np.zeros(_CHUNK * _BLOCK)
        self._set = []  # where the buffer is nonzero

    def upto(self, n):
        while self.reach < n:
            tile = next(self._pass)
            if not self.tiles:
                self.head = flat_tile(tile)[: 2 * _BLOCK - 1].copy()
            self.tiles.append(_hold(tile, 1 + len(self.tiles) * _TILE))
            del tile  # so it is not held while the next is sieved
            self.reach = min(len(self.tiles) * _TILE, self.limit)

    def chunk(self, c):
        """Block rows c _CHUNK .. (c + 1) _CHUNK - 1, flat, in the one reused buffer."""
        if c != self.last:
            t, lo = divmod(c * _CHUNK * _BLOCK, _TILE)
            (at, kept_at, kept), hi = self.tiles[t], lo + _CHUNK * _BLOCK
            self._flat[self._set] = 0.0
            a, b = np.searchsorted(at, [lo, hi])
            self._set = np.subtract(at[a:b], lo, dtype=np.intp)  # intp indexes twice as fast
            self._flat[self._set] = _logs(self._set, 1 + t * _TILE + lo)
            a, b = np.searchsorted(kept_at, [lo, hi])
            self._flat[kept_at[a:b] - lo] = kept[a:b]
            self.last = c
        return self._flat.reshape(_CHUNK, _BLOCK)

    def pass_tiles(self):
        """The pass's tiles: the held ones flat, each dropped once read, then the rest as sieved."""
        self._flat = self.head = None
        for t in range(len(self.tiles)):
            yield _flat_tile(self.tiles.pop(0), 1 + t * _TILE)
        yield from self._pass


def _logs(at, lo):
    """np.log(n) at n = lo + at, in float64: Lambda(n) where n is prime."""
    n = np.add(at, lo, dtype=float)  # exact: n < 2^53
    return np.log(n, out=n)


def _hold(tile, lo):
    """A tile from tiles(), whose first n is lo, as _HeldTiles holds it."""
    if isinstance(tile, OddTile):
        at = np.flatnonzero(tile.odd).astype(np.int32)
        values = tile.odd[at]
        at *= 2
        if tile.two:
            at, values = np.append(at, np.int32(_TILE - 1)), np.append(values, tile.two)
    else:
        at = np.flatnonzero(tile).astype(np.int32)
        values = tile[at]
    kept = np.flatnonzero(_logs(at, lo) != values)
    return at, at[kept], values[kept]


def _flat_tile(tile, lo):
    """A held tile whose first n is lo, flat, bitwise sieve.flat_tile."""
    at, kept_at, kept = tile
    flat = np.zeros(_TILE)
    flat[at] = _logs(at, lo)
    flat[kept_at] = kept
    return flat


def _panel_sums(held, us, cutoffs, priors):
    """(psi, rows) at each node: weighted_exp_sum of Lambda(1 .. cutoff) at u, and its block rows.

    rows are the sum's Q = cutoff // _BLOCK block row sums (_NO_ROWS for a
    direct sum, cutoff < 2 _BLOCK).  A node's prior is the rows of an
    earlier sum at the same u (_NO_ROWS for none); its whole groups of
    _ROW_GROUP rows, up to Q, are taken as they are.  The rows past them
    are read from held a chunk at a time, each chunk once for all the
    nodes, by one GEMV per node that starts at a multiple of _ROW_GROUP
    rows and so has the row kernels of weighted_exp_sum's one GEMV; a
    single row is the last of _ROW_GROUP + 1.  So at one BLAS thread
    each psi, and each row, is weighted_exp_sum's, bit for bit.  A direct
    sum reads held.head.  The chunks are visited from the end nearer the
    one the buffer holds, so a march's panels alternate ascending and
    descending and each starts on the chunk the last ended on, unbuilt.
    Their order moves no bits: each GEMV piece and each partial block is
    its own, and _block_total runs after them.
    """
    held.upto(max(cutoffs, default=0))
    sums, all_rows, blocked, chunks = [], [], [], set()
    for i, (u, M, prior) in enumerate(zip(us, cutoffs, priors)):
        Q = M // _BLOCK if M >= 2 * _BLOCK else 0
        k = _ROW_GROUP * (min(len(prior), Q) // _ROW_GROUP)
        all_rows.append(np.empty(Q) if Q else _NO_ROWS)  # one shared empty row set
        all_rows[i][:k] = prior[:k]
        sums.append(0.0 if Q else _direct_sum(held.head[:M], 1, u))
        if Q:
            blocked.append((i, k, Q, M, _block_weights(u)))
            # block rows k .. Q - 1, and block Q where it holds the last, partial block
            chunks.update(range(k // _CHUNK, (M - 1) // (_CHUNK * _BLOCK) + 1))
    chunks = sorted(chunks)
    if chunks and abs(held.last - chunks[-1]) < abs(held.last - chunks[0]):
        chunks.reverse()  # start from the chunk the buffer holds, or nearer it
    for c in chunks:
        chunk, at = held.chunk(c), c * _CHUNK
        for i, k, Q, M, w in blocked:
            lo, hi = max(k, at), min(Q, at + _CHUNK)
            if hi - lo == 1:  # numpy takes a one-row product by its dot path
                pad = np.zeros((_ROW_GROUP + 1, _BLOCK))
                pad[-1] = chunk[lo - at]
                all_rows[i][lo] = (pad @ w)[-1]
            elif lo < hi:
                all_rows[i][lo:hi] = chunk[lo - at : hi - at] @ w
            if Q // _CHUNK == c and M > Q * _BLOCK:  # the last, partial block
                sums[i] = _direct_sum(chunk[Q - at, : M - Q * _BLOCK], Q * _BLOCK + 1, us[i])
    for i, k, Q, M, w in blocked:
        sums[i] += _block_total(all_rows[i], us[i])  # onto the partial block, or 0.0
    return sums, all_rows


def _march_deltas(held, us, eps, priors):
    """(Delta, rows, missing) at each u of us, to ~eps by the cheap tail rule (not the certified one).

    Each sum runs to min(_loose_cutoff(u, eps), held.limit), by
    _panel_sums: rows are its block row sums, and priors, one per u, those
    of an earlier call at the same u (_NO_ROWS for none).  Where the table is
    shorter, Delta is read as far as it reaches, and missing is the
    certified bound on the sum past its end (_log_tail); else 0.0.
    U_integral counts it in its error at the march nodes.  Below
    u = 0.004, Delta is 0.0.
    """
    live = [i for i, u in enumerate(us) if u >= 0.004]
    deltas, rows, missing = [0.0] * len(us), [_NO_ROWS] * len(us), [0.0] * len(us)
    cutoffs = []
    for i in live:
        cutoff = _loose_cutoff(us[i], eps)
        if cutoff > held.limit:
            cutoff = held.limit
            missing[i] = float(np.exp(_log_tail(cutoff, us[i])))
        cutoffs.append(cutoff)
    psis, live_rows = _panel_sums(held, [us[i] for i in live], cutoffs, [priors[i] for i in live])
    for i, psi, r in zip(live, psis, live_rows):
        deltas[i], rows[i] = psi - smooth_baseline(us[i]), r
    return deltas, rows, missing


def mellin_H_quadrature(table: LambdaTable, s):
    """H(s) from its integral form: -s * integral of Delta(u) u^{-s-1} du.

    In v = log u, H(s) = -s (int (Delta - c e^{-1/u}) u^{-s} dv + c Gamma(s)),
    c = DELTA_LIMIT: c e^{-1/u} has Mellin transform c Gamma(s), and the
    integrand left vanishes at both ends.  It is analytic for |Im v| < pi/2,
    where u^{-s} grows like e^{|Im s Im v|}, so the lattice v_j = jh over
    [0.02, 2000] takes h = 0.5/max(|Im s|, 5).  The error estimate sums
    |T_h - T_2h| (T_2h on every other node), the nodes' certified tails, a
    closed-form bound below the first node, and past the last one an
    empirical envelope of |Delta - c| from Delta at the top plus |c|/top
    for c (1 - e^{-1/u}).  Delta at the nodes and at the top comes from one
    delta_many call at tol 1e-10 (CapacityError for a table too short for
    the lattice's top).  Requires a finite s with Re s >= 2; raises
    ToleranceError when the estimate exceeds 1e-4.
    """
    s = complex(s)
    if not (2.0 <= s.real < math.inf):
        raise DomainError("quadrature form requires a finite Re s >= 2")
    if not math.isfinite(s.imag):
        raise DomainError("quadrature form requires a finite Im s")
    upper, u_min = 2000.0, 0.02
    h = 0.5 / max(abs(s.imag), 5.0)
    j = np.arange(math.floor(math.log(u_min) / h), math.ceil(math.log(upper) / h) + 1)
    v = j * h
    u = np.exp(v)
    batch = delta_many(table, np.append(u, upper), tol=1e-10)
    terms = (batch.delta[:-1] - DELTA_LIMIT * np.exp(-1.0 / u)) * np.exp(-s * v)
    fine = h * np.sum(terms)
    coarse = 2.0 * h * np.sum(terms[j % 2 == 0])
    sigma, size = s.real, abs(s)
    nodes = size * h * float(np.dot(batch.tail_bound[:-1], u**-sigma))
    # covers 2.34 |s| Gamma(sigma, 1/u_min) for sigma <= 50, and raises past it
    head = 3.0 * math.exp(-1.0 / u_min) * size * u_min ** (-sigma)
    env = max(2.0, 1.5 * abs(batch.delta[-1] - DELTA_LIMIT))  # empirical
    tail = (env + abs(DELTA_LIMIT) / upper) * size * upper ** (-sigma) / sigma
    est = size * abs(fine - coarse) + nodes + head + tail
    if est > 1e-4:
        raise ToleranceError(f"H quadrature error estimate {est:.2e} > 1e-4")
    value = -s * (fine + DELTA_LIMIT * gamma_complex(s))
    return QuadResult(value=complex(value), error=float(est))


def gaussian_line_check(kk, w):
    """Quadrature vs closed form for (1/2pi i) int exp(kk s^2 + w s) ds.

    The closed form is exp(-w^2/(4 kk)) / (2 sqrt(pi kk)).  The vertical
    line defaults to Re s = 2; when evaluating there would demand more
    cancellation than binary64 carries (the integrand modulus exceeds
    the answer by e^{kk(2 + w/2kk)^2}), the line is shifted toward the
    saddle at -w/(2 kk), offset by 2/sqrt(kk) so the quadrature still
    exercises genuine oscillation.  Any vertical line gives the same
    integral; the shift is pure conditioning.
    """
    if not (0.0 < kk < math.inf and math.isfinite(w)):
        raise DomainError("kk must be positive, and kk and w finite")
    sigma = 2.0
    if kk * (sigma + w / (2.0 * kk)) ** 2 > 8.0:
        sigma = -w / (2.0 * kk) + 2.0 / math.sqrt(kk)
    omega = abs(2.0 * kk * sigma + w)
    height = 10.0 / math.sqrt(kk) + (abs(w) / kk if sigma == 2.0 else 0.0) + 2.0
    h = 0.5 / max(omega, math.sqrt(kk), 1.0)
    n = math.ceil(height / h)
    s = sigma + 1j * (h * np.arange(-n, n + 1))
    quad = complex(h * np.sum(np.exp(kk * s * s + w * s)) / (2.0 * math.pi))
    arg = -w * w / (4.0 * kk)
    closed = complex(math.exp(arg) / (2.0 * math.sqrt(math.pi * kk)) if arg > -745 else 0.0)
    scale = max(abs(closed), 1e-300)
    if abs(quad.real - closed.real) > 1e-10 * scale or abs(quad.imag) > 1e-12 * max(
        1.0, scale
    ):
        raise ToleranceError(
            f"gaussian line check failed: quad={quad!r} closed={closed!r}"
        )
    return quad, closed


def _g_weight(u, p: PintzParams):
    """g(u) = u^{-rho0} exp(-(mu - log u)^2 / 4k); accepts scalars or arrays."""
    lu = np.log(u)
    return np.exp(-p.rho0 * lu - (p.mu - lu) ** 2 / (4.0 * p.k))


def _g_prime_times_u(u, p: PintzParams):
    """u * g'(u) = u^{-rho0} e^{-(mu-log u)^2/4k} (-rho0 + (mu - log u)/2k)."""
    return _g_weight(u, p) * (-p.rho0 + (p.mu - np.log(u)) / (2.0 * p.k))


# the share of the envelope term's weight past U_integral's top probe
_PROBE_WEIGHT = 1e-3


def _weight_top(ys, wts):
    """The first ys[i] past which the trapezoid weight of wts is at most _PROBE_WEIGHT of it all."""
    panels = 0.5 * np.diff(ys) * (wts[1:] + wts[:-1])
    past = np.append(np.cumsum(panels[::-1])[::-1], 0.0)  # the weight past each ys[i]
    return float(ys[np.argmax(past <= _PROBE_WEIGHT * past[0])])


def U_window(p: PintzParams, tol):
    """U_integral's window half-width in log u, and the table limit its nodes reach.

    The window is [e^{mu-width}, e^{mu+width}] with width = 6 sqrt(k
    log(1/tol)); Delta at its top is read to 1e-5 under the loose tail.
    RangeError when the top or the limit leaves the binary64 or int64 range.
    """
    if not (0.0 < tol < 1.0):
        raise DomainError("tol must lie in (0, 1)")
    width = 6.0 * math.sqrt(p.k * math.log(1.0 / tol))
    try:
        limit = _loose_cutoff(math.exp(p.mu + width), 1e-5)
    except OverflowError:
        limit = math.inf
    if limit > _INT64_MAX:
        raise RangeError(f"mu + width = {p.mu + width:g}: the window's limit exceeds int64")
    return width, limit


def U_integral(table, p: PintzParams, tol=0.1):
    """The smoothing integral from the u-side:

        U = (1/(2 sqrt(pi k))) * int Delta(u) d/du[u^{-rho0} e^{-(mu-log u)^2/4k}] du

    over the window of U_window(p, tol).

    The smooth limit constant of Delta is split off and integrated in
    closed form (the integrand is an exact derivative, so this is an
    identity, not an approximation; it only reduces the cancellation the
    quadrature has to resolve).  The oscillatory remainder is integrated
    by adaptive Gauss-Legendre panels in log u, which stop once panel
    contributions fall below the running tolerance, or at the window's
    top; past the stop an empirical envelope bound from probe
    evaluations is reported inside `error` with head/tail bounds.
    A trapezoid rule on log u = j/20 lands within `error`/23 (tested).

    The envelope is the largest |Delta - c| (plus the tail past the
    table's end where a probe's cutoff is clamped) at six probes,
    geometric from the march's stop to the first point of the tail
    bound's grid past which |g'(u) u| carries at most _PROBE_WEIGHT of
    its weight, or to the window's top.  Past the top probe |Delta - c|
    is assumed not to exceed the envelope; that stretch carries at most
    0.1% of the term, so ten times the envelope there adds at most 1%.

    The march runs twice over the same nodes when the first (pilot) pass
    at node_eps 1e-8 shows that the tolerance needs a finer one.  Each
    pilot node keeps its block row sums, and the refined pass at that
    node computes only the rows past them; every other step of a node's
    Delta is as without them, so at one BLAS thread U has the same bits.
    The pilot's rows are dropped as the refined pass reads them, and the
    rest once it ends; its nodes without rows all hold the one _NO_ROWS.

    The table is read only through `limit` and `tiles()`, as the Delta
    engine reads it, so a sieve.LambdaStream serves.  The march holds one
    tiles() pass only as far as its largest cutoff (_HeldTiles), every
    tile, tile 0 too, as the offsets of its nonzero entries at 4 bytes
    each, whose Lambda is rebuilt as np.log(n) but at the few prime powers
    p^k (k >= 2), held with their values, and Lambda(1 .. 2 _BLOCK - 1)
    flat for the direct sums.  A panel's twelve
    nodes, and the probes inside the march's reach, are summed together
    (_panel_sums), a 1 MB chunk of block rows at a time, rebuilt flat
    once for all of them; a panel starts on the chunk the last one ended
    on, which is not rebuilt.  The other probes take one _psi_many pass at
    the same clamped cutoffs, rounded up to whole blocks: the held tiles
    flat, each dropped once read, then the rest of the march's pass, so
    no tile is sieved twice and the held tiles are freed before it sieves
    on.  CapacityError comes before any tile is sieved.
    """
    width, limit = U_window(p, tol)
    b = math.exp(p.mu + width)
    pref = 1.0 / (2.0 * math.sqrt(math.pi * p.k))
    if limit > table.limit:
        raise CapacityError(
            f"window reaches u = {b:.3g}, beyond table limit {table.limit}"
        )
    held = _HeldTiles(table)
    gamma0 = abs(p.rho0.imag)
    h = min(0.7 / max(gamma0, 1.0), 0.25 * math.sqrt(p.k))
    xg, wg = _GAUSS_LEGENDRE_12
    # march a little below the nominal window: the integrand there is
    # doubly-exponentially small and cheap, and it shrinks the head bound
    y_lo = max(math.log(0.004) - p.mu, -width - 8.0)

    def run(node_eps, prior, rows):
        # prior: an earlier pass's block row sums, one entry per node in
        # march order, each dropped once read; this pass's go to rows
        total = 0j
        weight_mass = 0.0
        clamped = 0.0  # the weighted tails the table's end cuts off
        y_stop = width
        small_run = 0
        y = y_lo
        while y < width - 1e-12:
            yb = min(y + h, width)
            mid, rad = 0.5 * (y + yb), 0.5 * (yb - y)
            us = [math.exp(p.mu + mid + rad * xx) for xx in xg]
            priors = [prior.popleft() if prior else _NO_ROWS for _ in us]
            ds, node_rows, node_missing = _march_deltas(held, us, node_eps, priors)
            rows.extend(node_rows)
            panel = 0j
            for u, d, missing, ww in zip(us, ds, node_missing, wg):
                d -= DELTA_LIMIT
                gw = _g_prime_times_u(u, p)
                panel += ww * rad * d * gw
                mass = ww * rad * abs(gw)
                weight_mass += mass
                if missing:
                    clamped += mass * missing
            total += panel
            y = yb
            if y > 0.0 and abs(panel) < tol * max(abs(total), 1e-300) / 50.0:
                small_run += 1
                if small_run >= 4:
                    y_stop = y
                    break
            else:
                small_run = 0
        return total, weight_mass, clamped, y_stop

    # the refined pass marches the pilot's nodes, so it computes only the
    # block rows past the pilot's; its own rows are not kept (maxlen 0)
    node_eps = 1e-8
    pilot_rows = deque()
    total, weight_mass, clamped, y_stop = run(node_eps, deque(), pilot_rows)
    refined = max(1e-13, tol * abs(total) / max(30.0 * weight_mass, 1.0))
    if refined < node_eps:
        node_eps = refined
        total, weight_mass, clamped, y_stop = run(node_eps, pilot_rows, deque(maxlen=0))
    del pilot_rows
    # the constant's share over the full half line is exactly zero
    # (int c g' du = c [g] with g vanishing at both ends), so splitting it
    # off leaves one exact boundary term at the start of the march; the
    # far end is inside the envelope bound below since Delta - c decays
    const_term = -DELTA_LIMIT * _g_weight(math.exp(p.mu + y_lo), p)
    # the tail envelope past wherever the march stops, from probes
    ys = np.linspace(y_stop, width + 6.0, 240)
    wts = np.abs(_g_prime_times_u(np.exp(p.mu + ys), p))
    y_top = _weight_top(ys, wts)
    probes = np.geomspace(math.exp(p.mu + y_stop), min(b, math.exp(p.mu + y_top)), 6)
    # probes in the held tiles read them as the march does; the rest share
    # one pass over those, then the stream, at the same clamped cutoffs
    loose = np.array([_loose_cutoff(u, 1e-7) for u in probes])
    cutoffs = np.minimum(loose, table.limit)
    far = cutoffs > held.reach
    d = np.empty(len(probes))
    near = probes[~far].tolist()
    d[~far] = _march_deltas(held, near, 1e-7, [_NO_ROWS] * len(near))[0]
    psi = _psi_many(held.pass_tiles(), probes[far], cutoffs[far])
    d[far] = psi - [smooth_baseline(u) for u in probes[far]]
    # a clamped probe misses the sum past the table's end: add its bound
    missing = np.where(loose > table.limit, np.exp(_log_tail(table.limit, probes)), 0.0)
    env = float(np.max(np.abs(d - DELTA_LIMIT) + missing))
    # past the top probe, |Delta - c| is taken to stay within env
    tail_bound = 3.0 * env * float(np.trapezoid(wts, ys))
    u_head = math.exp(p.mu + y_lo)
    head_bound = 3.0 * math.exp(-1.0 / u_head) * abs(_g_prime_times_u(u_head, p))
    err = pref * (node_eps * weight_mass + tail_bound + head_bound + clamped)
    err += tol * abs(pref * (total + const_term)) * 0.1  # quadrature share
    value = pref * (total + const_term)
    if err > tol * max(abs(value), 1e-300) + 1e-12:
        raise ToleranceError(
            f"U_integral error estimate {err:.2e} exceeds tol*|U| + 1e-12"
        )
    return QuadResult(value=complex(value), error=float(err))


def U_residue(zeros: ZeroSet, p: PintzParams):
    """The smoothing integral from the s-side: the sum over the zeros.

    Gamma(rho) rho exp(k(rho-rho0)^2 + mu(rho-rho0)) over every zero rho
    and its conjugate (entered explicitly: rho0 in the upper half plane
    breaks the symmetry).  H(s) has no pole at s = 1, where zeta'/zeta's
    residue -1 cancels zeta's +1 and H(1) = 2 gamma_E.  The shifted-contour
    remainder is not computed; the envelope e^{-mu + 9k/4} ships as `error`.
    """
    zeros.require_nonempty()
    k_term, mu_term = (lambda rho: p.k * (rho - p.rho0) ** 2), (lambda rho: p.mu * (rho - p.rho0))
    terms = zeros.gamma_terms(np.log, k_term, mu_term, conjugates=True)
    remainder = math.exp(min(709.0, -p.mu + 2.25 * p.k))
    return QuadResult(value=complex(np.sum(terms)), error=float(remainder))


def _turan_grid(alphas, a, b):
    """|sum_j e^{alpha_j t}| at the 10,000 points t_j = a + j*b/9999, j = 0..9999.

    With h = b/9999, B = 100 and j = qB + m, the exponential splits as
    e^{alpha (a + qBh)} * e^{alpha mh}: two n x B tables of exps and one
    complex GEMM give every sample, 2Bn exps instead of B^2 n.  Each
    point is a + qBh + mh in exact arithmetic, so it lands within a few
    ulp of a + jh; the last one stands in for a + b.
    """
    block = 100
    steps = np.arange(block)
    h = b / (block * block - 1)
    coarse = np.exp(np.outer(alphas, a + (block * h) * steps))
    fine = np.exp(np.outer(alphas, h * steps))
    return np.abs((coarse.T @ fine).reshape(-1))


def _turan_args(alphas, a, b):
    """turan_bound's argument checks; alphas as a complex array."""
    alphas = np.asarray(alphas, dtype=complex)
    if not (1 <= len(alphas) <= 32):
        raise DomainError("need 1 to 32 exponents")
    if not (0.0 < a <= 100.0 and 0.0 < b <= 100.0):
        raise DomainError("a, b must lie in (0, 100]")
    re = alphas.real
    if abs(re.max()) > 1e-12 or abs(re[0]) > 1e-12:
        raise NormalizationError(
            "max Re(alpha) must be 0 and attained by the first exponent"
        )
    return alphas, a, b


_TURAN_LAST = 9_999  # index of the scan's last point, t = a + b


def _turan_points(j, a, b):
    """t_j of np.linspace(a, a + b, 10_000), by its own arithmetic, per lane.

    linspace forms step = ((a + b) - a) / 9999 and t_j = j * step + a,
    and puts a + b itself last.  (Where the step underflows to 0 it
    forms (j / 9999) * ((a + b) - a) + a instead; that needs a + b below
    1e-303, where every sample of the scan is the same and none is
    refined.)
    """
    stop = a + b
    t = j * ((stop - a) / _TURAN_LAST) + a
    return np.where(j == _TURAN_LAST, stop, t)


def turan_bound(alphas, a, b):
    """Grid maximum of |sum_j e^{alpha_j t}| on [a, a+b] against the power-sum bound.

    Returns (grid_max, bound) with bound = (b/(8e(a+b)))^n.  The grid max
    is a lower bound on the true maximum, so the verified contract is
    grid_max >= 0.99 * bound.  Callers must normalize: max Re alpha_j = 0,
    attained by the first entry.  This is turan_bounds on one instance.
    """
    grid_max, bound = turan_bounds([(alphas, a, b)])
    return float(grid_max[0]), float(bound[0])


def turan_bounds(instances):
    """turan_bound for each (alphas, a, b) of instances: arrays (grid_max, bound).

    Every instance is checked, in order, before any is scanned, so the
    first bad one raises turan_bound's error.  Each row is bitwise the
    one a search of its instance alone gives, whatever the batch.

    Each instance's scan samples t_j = a + j*b/9999, each point within a
    few ulp, through _turan_grid's block split: 200n exps and one GEMM
    instead of 10,000n exps.  Each sample differs from the direct sum at
    np.linspace(a, a + b, 10_000) by at most
    8 * eps * n * (1 + max|alpha| (a+b)), the exponent's rounding carried
    through exp (tests/test_pintz.py checks it; 3.2 in place of 8 is the
    worst measured).  A grid stays per instance: stacking a group's exps
    into one batched matmul gave the same bits but ran about 25% slower.

    The linspace points around each argmax bracket it; unless that is an
    endpoint, a golden-section search on the direct sum refines it.  The
    instances of each n share one vectorized search (metrics.
    _golden_section) whose objective takes |sum| by np.hypot: np.abs's
    SIMD loop differs in the last bit from the scalar abs() for about a
    third of complex values, hypot matches it.  The bound is a Python
    float power per instance for the same reason: np.power's SIMD loop
    differs from the C pow in the last bit.
    """
    checked = [_turan_args(alphas, a, b) for alphas, a, b in instances]
    grid_max = np.empty(len(checked))
    peak = np.empty(len(checked), dtype=np.intp)
    for k, (alphas, a, b) in enumerate(checked):
        vals = _turan_grid(alphas, a, b)
        peak[k] = np.argmax(vals)
        grid_max[k] = vals[peak[k]]
    a = np.array([inst[1] for inst in checked], dtype=float)
    b = np.array([inst[2] for inst in checked], dtype=float)
    n = np.array([len(inst[0]) for inst in checked])
    lo = _turan_points(np.maximum(peak - 1, 0), a, b)
    mid = _turan_points(peak, a, b)
    hi = _turan_points(np.minimum(peak + 1, _TURAN_LAST), a, b)
    refine = (lo < mid) & (mid < hi)
    for size in sorted(set(n[refine].tolist())):
        rows = np.flatnonzero(refine & (n == size))
        exps = np.array([checked[k][0] for k in rows])

        def neg_abs(t):
            s = np.exp(exps * t[:, None]).sum(axis=1)
            return -np.hypot(s.real, s.imag)

        # xtol sqrt(machine epsilon), relative
        _, fx, dip = _golden_section(neg_abs, lo[rows], mid[rows], hi[rows], xtol=2.0**-26)
        best = -fx
        grid_max[rows] = np.where(dip & (best > grid_max[rows]), best, grid_max[rows])
    ratio = b / (8.0 * math.e * (a + b))
    bound = np.array([r**k for r, k in zip(ratio.tolist(), n.tolist())])
    return grid_max, bound
