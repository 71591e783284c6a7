"""Sieved von Mangoldt values Lambda(n) and the Chebyshev step function.

There is one sieve: a segmented sieve of Eratosthenes (Bays and
Hudson, 1977) that yields the table in tiles of _TILE = 262,144
entries.  Tile t holds Lambda(n) for 1 + t _TILE <= n <= (t+1) _TILE,
zero past N.  A segment starts at an odd n, so its sieve array holds
only the odd n, _TILE/2 entries; n = 2 is added to tile 0's primes.
The odd multiples of the wheel primes 3, 5, 7, 11 and 13 repeat with
period 15,015 in that odd-index space, so a segment starts as copies
of one pre-sieved period (tile 0 then restores the wheel primes and
clears n = 1).  The other base primes up to sqrt(N) strike their odd
multiples from p^2 on: those below _SCATTER_FROM by one strided write
each, the rest, which have few multiples in a segment, by one
fancy-index write per octave of primes.  The segment's primes get
np.log, and the prime powers p^k (k >= 2) come from one ascending list.

Tile 0 is a flat float64 array.  Every later tile is an OddTile: its
odd n as one dense half tile, and apart Lambda at its last n, the only
even n that can be a power of two, so the sieve writes, and the Delta
engine multiplies, only the half that can be nonzero; sieving one peaks
at 1.6 MB, a flat tile at 2.5 (tracemalloc, N = 3.2e7).  flat_tile
interleaves one: a flat tile, bit for bit.

Every table gives its readers its tiles through tiles(), with the same
Lambda bits: a LambdaStream as sieved, an array-backed table flat.  A
LambdaStream holds only the limit and sieves afresh on each tiles()
call, so a Delta grid (metrics, delta) never holds the whole table.
pintz's U_integral holds tiles of one pass, only as far as its march
reads, each as the 4-byte offsets of its nonzero entries (about 15% of
an OddTile's odd n, 9% of tile 0), from which it rebuilds Lambda(n) =
np.log(n), and apart the few prime powers p^k (k >= 2) with their
values.  build_lambda fills one array from
the sieved tiles, kept as a LambdaTable for the readers that index
Lambda directly (goldbach, chebyshev_psi).  MAX_LIMIT caps N, so a
table holds at most 1.6 GB of values and prefix sums.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, RangeError

__all__ = [
    "LambdaTable",
    "LambdaStream",
    "OddTile",
    "flat_tile",
    "build_lambda",
    "array_tiles",
    "check_limit",
    "chebyshev_psi",
]

MAX_LIMIT = 100_000_000
_TILE = 262_144  # entries per tile


@dataclass(frozen=True)
class LambdaTable:
    """Lambda(n) for 1 <= n <= limit plus prefix sums psi(n).

    values[n] = log p when n = p^k, else 0; values[0] is unused and 0.
    prefix[n] = sum_{m <= n} values[m], so prefix[floor(t)] is the
    Chebyshev function psi(t).  Only chebyshev_psi reads prefix, so it
    is computed on first access, not by build_lambda.  Instances are
    immutable; share freely.
    """

    limit: int
    values: np.ndarray

    @cached_property
    def prefix(self):
        return np.cumsum(self.values)

    def tiles(self):
        """The table's tiles, as views where a whole tile fits."""
        return array_tiles(self.values)


@dataclass(frozen=True)
class LambdaStream:
    """Lambda(n) for 1 <= n <= limit, sieved tile by tile on each tiles() call.

    For readers that take the table once, in order (the Delta engine):
    the whole table is never held.
    """

    limit: int

    def __post_init__(self):
        object.__setattr__(self, "limit", check_limit(self.limit))

    def tiles(self):
        return _segments(self.limit)


class OddTile(NamedTuple):
    """Tile t > 0, n = lo + i with lo = 1 + t _TILE: odd[i // 2] at even i, two at i = _TILE - 1.

    Past tile 0 the only even n with Lambda(n) != 0 are powers of two,
    multiples of _TILE, so only the tile's last n can be one: two is
    Lambda there (0.0 when it is not a power of two), and Lambda is 0
    at every other odd i.
    """

    odd: np.ndarray
    two: float


def flat_tile(tile):
    """A tile from any table's tiles() as a flat array: an OddTile interleaved."""
    if not isinstance(tile, OddTile):
        return tile
    flat = np.zeros(_TILE)
    flat[0::2] = tile.odd
    if tile.two:
        flat[-1] = tile.two
    return flat


def check_limit(N):
    """N as an int, or CapacityError when it lies outside [1, MAX_LIMIT] (nan included)."""
    if N != N or N in (math.inf, -math.inf):  # nan, or an infinity: int(N) would raise
        raise CapacityError(f"N = {N} outside supported range [1, {MAX_LIMIT}]")
    N = int(N)
    if N < 1 or N > MAX_LIMIT:
        raise CapacityError(f"N = {N} outside supported range [1, {MAX_LIMIT}]")
    return N


def array_tiles(values):
    """Tiles of values[1:] in the sieve's order, zero-padded past its end."""
    for lo in range(1, len(values), _TILE):
        tile = values[lo : lo + _TILE]
        yield tile if len(tile) == _TILE else np.pad(tile, (0, _TILE - len(tile)))


def _primes_upto(m):
    """Primes p <= m, by a plain Eratosthenes sieve (m <= sqrt(MAX_LIMIT))."""
    is_prime = np.ones(m + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


# The wheel: odd multiples of these primes repeat with period 15,015 in
# odd-index space (n = 2j + 1), so each segment starts as copies of one
# pre-sieved period instead of striking them.
_WHEEL = (3, 5, 7, 11, 13)
_WHEEL_PERIOD = 15_015
# Base primes below this strike a segment by one strided write each; the
# rest, each with few multiples in a segment, strike it by one
# fancy-index write per octave of primes.  Medians of 7 passes of the
# flat tiles of Lambda(1 .. 49,066,291) by split: 0.113 s at 128 and
# 256, 0.102 s at 512 and 1024, 0.097 s at 2048, 0.106 s at 4096 and
# 0.115 s with no scattered primes (2 vCPUs, Python 3.11, numpy 2.4).
_SCATTER_FROM = 2048


def _segments(N):
    base = _primes_upto(math.isqrt(N))
    powers, logs = [], []
    for p, log_p in zip(base.tolist(), np.log(base).tolist()):
        pk = p * p
        while pk <= N:
            powers.append(pk)
            logs.append(log_p)
            pk *= p
    order = np.argsort(powers, kind="stable")
    powers = np.array(powers, dtype=np.int64)[order]
    logs = np.array(logs)[order]
    odd = base[base > _WHEEL[-1]]
    strided, large = odd[odd < _SCATTER_FROM], odd[odd >= _SCATTER_FROM]
    scattered = large, _octaves(large, (min(_TILE, N) + 1) // 2)
    wheel = _wheel()
    for lo in range(1, N + 1, _TILE):
        # built in a helper, so this frame holds no tile while the next is sieved
        yield _segment(lo, min(lo + _TILE, N + 1), wheel, strided, scattered, powers, logs)


def _wheel():
    """Two periods of the wheel: False at index j when a wheel prime divides n = 2j + 1."""
    pattern = np.ones(2 * _WHEEL_PERIOD, dtype=bool)
    for p in _WHEEL:
        pattern[p // 2 :: p] = False
    return pattern


def _octaves(primes, m):
    """The ascending primes split into octaves [2^k, 2^(k+1)), as (rows, 0 .. c - 1).

    c = ceil(m / p) for the octave's smallest p bounds the odd multiples
    any prime of the octave has among m consecutive odd n.
    """
    if not len(primes):
        return []
    octave = np.log2(primes).astype(np.int64)
    edges = [0, *(np.flatnonzero(np.diff(octave)) + 1).tolist(), len(primes)]
    return [(slice(a, b), np.arange(-(-m // int(primes[a])))) for a, b in zip(edges, edges[1:])]


def _odd_starts(primes, lo):
    """Index j - (lo - 1)/2 of the first odd multiple of p at or past max(p^2, lo)."""
    first = np.maximum(primes * primes, -(-lo // primes) * primes)
    first += primes * (first % 2 == 0)
    return (first - lo) // 2


def _segment(lo, hi, wheel, strided, scattered, powers, logs):
    """The tile holding Lambda(lo .. hi - 1), zero past hi - 1: flat for tile 0, else an OddTile."""
    primes = _segment_primes(lo, hi, wheel, strided, scattered)
    a, b = np.searchsorted(powers, [lo, hi])
    at, log_pk = powers[a:b] - lo, logs[a:b]
    if lo == 1:
        tile = np.zeros(_TILE)
        tile[primes - lo] = np.log(primes)
        tile[at] = log_pk
        return tile
    odd = at % 2 == 0  # lo is odd
    half = np.zeros(_TILE // 2)
    half[(primes - lo) // 2] = np.log(primes)
    half[at[odd] // 2] = log_pk[odd]
    (two,) = log_pk[~odd].tolist() or [0.0]  # a power of two, at the tile's last n
    return OddTile(half, two)


def _segment_primes(lo, hi, wheel, strided, scattered):
    """The primes in lo .. hi - 1, ascending, by a sieve of the odd n = lo + 2i only.

    The sieve array ends in a sentinel at i = m, which takes an octave's
    writes past the segment.  n = 2 is added to tile 0.
    """
    m = (hi - lo + 1) // 2
    phase = (lo // 2) % _WHEEL_PERIOD
    periods = np.empty((-(-(m + 1) // _WHEEL_PERIOD), _WHEEL_PERIOD), dtype=bool)
    periods[:] = wheel[phase : phase + _WHEEL_PERIOD]
    is_prime = periods.reshape(-1)[: m + 1]
    if lo == 1:
        is_prime[0] = False
        is_prime[[p // 2 for p in _WHEEL if p < hi]] = True
    for p, s in zip(strided.tolist(), _odd_starts(strided, lo).tolist()):
        is_prime[s::p] = False
    large, octaves = scattered
    starts = _odd_starts(large, lo)[:, None]
    for rows, k in octaves:
        marks = large[rows, None] * k
        marks += starts[rows]
        is_prime[np.minimum(marks, m, out=marks)] = False
    primes = 2 * np.flatnonzero(is_prime[:m]) + lo
    if lo == 1 and hi > 2:
        primes = np.concatenate(([2], primes))
    return primes


def build_lambda(N):
    """Lambda up to N as one array, filled from the sieved tiles, flat."""
    N = check_limit(N)
    values = np.zeros(N + 1)
    for lo, tile in zip(range(1, N + 1, _TILE), _segments(N)):
        values[lo : lo + _TILE] = flat_tile(tile)[: N + 1 - lo]
    return LambdaTable(limit=N, values=values)


def chebyshev_psi(table, t):
    """psi(t) = sum of Lambda(n) over n <= t, exact with respect to the table."""
    if not t >= 0:
        raise RangeError(f"t = {t} must be a nonnegative number")
    if t > table.limit:
        raise RangeError(f"t = {t} beyond table limit {table.limit}")
    return float(table.prefix[int(math.floor(t))])
