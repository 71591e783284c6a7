"""Sieved von Mangoldt values Lambda(n) and the Chebyshev step function.

There is one sieve, lambda_tiles: a segmented sieve of Eratosthenes
(Bays and Hudson, 1977) that yields the table in the Delta engine's
tile order.  Tile t holds Lambda(n) for 1 + t T <= n <= (t+1) T, where
T = _TILE_ROWS * _BLOCK = 262,144, as a (_TILE_ROWS, _BLOCK) float64
array, zero past N.  Each segment is marked by strided writes of the
base primes up to sqrt(N); its primes get np.log, and the prime powers
p^k (k >= 2) come from one ascending list.  A tile costs about 2.3 MB
whatever N is.

Two kinds of table carry these tiles.  build_lambda copies them into one
array, a LambdaTable, for the readers that index Lambda directly
(goldbach, chebyshev_psi).  LambdaStream holds only the limit and sieves
afresh on each tiles() call, so a Delta grid (metrics, delta) and
pintz's U_integral, which holds only the prefix its march reads, never
hold the whole table.  Both give their readers the same tiles, bit for
bit.

build_lambda's memory budget is 17 bytes per entry: 8 for values and 8
for prefix (computed on first use).  The spare byte paid for the bool
array of the whole-array sieve this one replaced; it is kept so that the
budget check still refuses the same N.  A LambdaStream needs no budget.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, RangeError

__all__ = [
    "LambdaTable",
    "LambdaStream",
    "build_lambda",
    "lambda_tiles",
    "array_tiles",
    "check_limit",
    "chebyshev_psi",
]

MAX_LIMIT = 100_000_000
# 17 bytes per entry (module docstring); the default allows the full MAX_LIMIT.
DEFAULT_BUDGET_BYTES = 4 * 1024**3

_BLOCK = 4096  # entries per block row
_TILE_ROWS = 64  # block rows per tile
_TILE = _TILE_ROWS * _BLOCK


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
        """The table in lambda_tiles' order, as views where a whole tile fits."""
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


def check_limit(N):
    """N as an int, or CapacityError when it lies outside [1, MAX_LIMIT]."""
    N = int(N)
    if N < 1 or N > MAX_LIMIT:
        raise CapacityError(f"N = {N} outside supported range [1, {MAX_LIMIT}]")
    return N


def array_tiles(values):
    """Tiles of values[1:] in lambda_tiles' order, zero-padded past its end."""
    for lo in range(1, len(values), _TILE):
        hi = lo + _TILE
        if hi <= len(values):
            yield values[lo:hi].reshape(_TILE_ROWS, _BLOCK)
        else:
            tile = np.zeros((_TILE_ROWS, _BLOCK))
            tile.flat[: len(values) - lo] = values[lo:]
            yield tile


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
    return tile.reshape(_TILE_ROWS, _BLOCK)


def build_lambda(N, budget_bytes=DEFAULT_BUDGET_BYTES):
    """Lambda up to N as one array: the tiles of lambda_tiles(N), copied in."""
    N = check_limit(N)
    if 17 * N > budget_bytes:
        raise CapacityError(f"N = {N} exceeds memory budget of {budget_bytes} bytes")
    values = np.zeros(N + 1)
    for t, tile in enumerate(lambda_tiles(N)):
        lo = 1 + t * _TILE
        hi = min(lo + _TILE, N + 1)
        values[lo:hi] = tile.reshape(-1)[: hi - lo]
    return LambdaTable(limit=N, values=values)


def chebyshev_psi(table, t):
    """psi(t) = sum of Lambda(n) over n <= t, exact with respect to the table."""
    if t < 0:
        raise RangeError("t must be nonnegative")
    if t > table.limit:
        raise RangeError(f"t = {t} beyond table limit {table.limit}")
    return float(table.prefix[int(math.floor(t))])
