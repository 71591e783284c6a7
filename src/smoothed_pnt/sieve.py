"""Sieved von Mangoldt values Lambda(n) and the Chebyshev step function.

There is one sieve, lambda_tiles: a segmented sieve of Eratosthenes
(Bays and Hudson, 1977) that yields the table as flat float64 tiles of
_TILE = 262,144 entries.  Tile t holds Lambda(n) for
1 + t _TILE <= n <= (t+1) _TILE, zero past N.  Each segment is marked by
strided writes of the base primes up to sqrt(N); its primes get np.log,
and the prime powers p^k (k >= 2) come from one ascending list.  A tile
costs about 2.3 MB whatever N is.

Every table gives its readers these tiles, bit for bit, through
tiles().  A LambdaStream holds only the limit and sieves afresh on each
tiles() call, so a Delta grid (metrics, delta) never holds the whole
table.  A LambdaBuffer copies the tiles of one tiles() pass into an
array, only as far as it is asked: pintz's U_integral holds just the
part its march reads.  build_lambda is a LambdaBuffer filled to N, kept
as a LambdaTable for the readers that index Lambda directly (goldbach,
chebyshev_psi).  MAX_LIMIT caps N, so a table holds at most 1.6 GB of
values and prefix sums.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, RangeError

__all__ = [
    "LambdaTable",
    "LambdaStream",
    "LambdaBuffer",
    "build_lambda",
    "lambda_tiles",
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
        return lambda_tiles(self.limit)


class LambdaBuffer:
    """Lambda(1..reach) of a table, copied from one tiles() pass only as far as asked.

    values has the table's full length, but np.zeros maps an array this
    large as untouched zero pages, which take memory only once a tile is
    written to them: memory follows reach, not limit.  U_integral's
    march reads a few percent of its table (10 of about 200 tiles at
    the benchmark's pintz config).
    """

    def __init__(self, table):
        self.limit = table.limit
        self.values = np.zeros(table.limit + 1)
        self.reach = 0
        self._tiles = iter(table.tiles())

    def upto(self, n):
        """values[1 : n + 1] for n <= limit, copying further tiles while reach < n."""
        while self.reach < n:
            tile = next(self._tiles)
            hi = min(self.reach + _TILE, self.limit)
            self.values[self.reach + 1 : hi + 1] = tile[: hi - self.reach]
            self.reach = hi
        return self.values[1 : n + 1]


def check_limit(N):
    """N as an int, or CapacityError when it lies outside [1, MAX_LIMIT]."""
    N = int(N)
    if N < 1 or N > MAX_LIMIT:
        raise CapacityError(f"N = {N} outside supported range [1, {MAX_LIMIT}]")
    return N


def array_tiles(values):
    """Tiles of values[1:] in lambda_tiles' order, zero-padded past its end."""
    for lo in range(1, len(values), _TILE):
        tile = values[lo : lo + _TILE]
        yield tile if len(tile) == _TILE else np.pad(tile, (0, _TILE - len(tile)))


def lambda_tiles(N):
    """Iterator over the tiles of Lambda(1..N), in order (module docstring).

    N is range-checked here, before the first tile is asked for.
    """
    return _segments(check_limit(N))


def _primes_upto(m):
    """Primes p <= m, by a plain Eratosthenes sieve (m <= sqrt(MAX_LIMIT))."""
    is_prime = np.ones(m + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


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
    for lo in range(1, N + 1, _TILE):
        # built in a helper, so this frame holds no tile while the next is sieved
        yield _segment(lo, min(lo + _TILE, N + 1), base, powers, logs)


def _segment(lo, hi, base, powers, logs):
    """The tile holding Lambda(lo .. hi - 1), zero past hi - 1."""
    is_prime = np.ones(hi - lo, dtype=bool)
    if lo == 1:
        is_prime[0] = False
    # first multiple of p at or past max(p^2, lo), as an offset into the segment
    starts = np.maximum(base * base, -(-lo // base) * base) - lo
    for p, s in zip(base.tolist(), starts.tolist()):
        is_prime[s::p] = False
    offsets = np.flatnonzero(is_prime)
    tile = np.zeros(_TILE)
    tile[offsets] = np.log(offsets + lo)
    a, b = np.searchsorted(powers, [lo, hi])
    tile[powers[a:b] - lo] = logs[a:b]
    return tile


def build_lambda(N):
    """Lambda up to N as one array: a LambdaBuffer of lambda_tiles(N), filled to N."""
    buffer = LambdaBuffer(LambdaStream(N))
    buffer.upto(buffer.limit)
    return LambdaTable(limit=buffer.limit, values=buffer.values)


def chebyshev_psi(table, t):
    """psi(t) = sum of Lambda(n) over n <= t, exact with respect to the table."""
    if t < 0:
        raise RangeError("t must be nonnegative")
    if t > table.limit:
        raise RangeError(f"t = {t} beyond table limit {table.limit}")
    return float(table.prefix[int(math.floor(t))])
