"""Sieved von Mangoldt values Lambda(n) and the Chebyshev step function."""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityError, RangeError

__all__ = ["LambdaTable", "build_lambda", "chebyshev_psi"]

MAX_LIMIT = 100_000_000
# values and prefix are float64 each (prefix is allocated on first use);
# the default budget allows the full MAX_LIMIT.
DEFAULT_BUDGET_BYTES = 4 * 1024**3


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


def build_lambda(N, budget_bytes=DEFAULT_BUDGET_BYTES):
    """Sieve Lambda up to N.

    Boolean Eratosthenes for the primes, then one vectorized assignment
    per prime-power exponent k (there are at most log2 N of those), so
    the whole thing is O(N log log N) with numpy doing the heavy lifting.
    """
    N = int(N)
    if N < 1 or N > MAX_LIMIT:
        raise CapacityError(f"N = {N} outside supported range [1, {MAX_LIMIT}]")
    if 17 * N > budget_bytes:
        # values, prefix (allocated on first use) and the bool sieve
        raise CapacityError(f"N = {N} exceeds memory budget of {budget_bytes} bytes")
    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.nonzero(is_prime)[0]
    del is_prime
    values = np.zeros(N + 1)
    if len(primes):
        values[primes] = np.log(primes)
        k = 2
        while True:
            root = int(round(N ** (1.0 / k)))
            # guard against pow rounding on the boundary
            while root > 1 and root**k > N:
                root -= 1
            if root < 2:
                break
            base = primes[primes <= root]
            if len(base) == 0:
                break
            values[base**k] = np.log(base)
            k += 1
    return LambdaTable(limit=N, values=values)


def chebyshev_psi(table, t):
    """psi(t) = sum of Lambda(n) over n <= t, exact with respect to the table."""
    if t < 0:
        raise RangeError("t must be nonnegative")
    if t > table.limit:
        raise RangeError(f"t = {t} beyond table limit {table.limit}")
    return float(table.prefix[int(math.floor(t))])
