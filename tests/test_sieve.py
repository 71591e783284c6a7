import math

import numpy as np
import pytest

from smoothed_pnt.errors import CapacityError, RangeError
from smoothed_pnt.sieve import _TILE as TILE
from smoothed_pnt.sieve import MAX_LIMIT, LambdaStream, build_lambda, chebyshev_psi, lambda_tiles
from smoothed_pnt.smooth import _BLOCK, _SMALL_BLOCK


def lambda_trial_division(N):
    """Brute-force oracle: factor every n by trial division."""
    vals = np.zeros(N + 1)
    for n in range(2, N + 1):
        m = n
        p = None
        d = 2
        while d * d <= m:
            if m % d == 0:
                p = d
                while m % d == 0:
                    m //= d
                break
            d += 1
        if p is None:
            vals[n] = math.log(n)  # n prime
        elif m == 1:
            vals[n] = math.log(p)  # pure prime power
    return vals


def lambda_whole_array(N):
    """Whole-array oracle: one bool Eratosthenes sieve over 0..N, then p^k by exponent."""
    is_prime = np.ones(N + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(N) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    primes = np.nonzero(is_prime)[0]
    values = np.zeros(N + 1)
    if len(primes):
        values[primes] = np.log(primes)
        k = 2
        while True:
            root = int(round(N ** (1.0 / k)))
            while root > 1 and root**k > N:
                root -= 1
            if root < 2:
                break
            base = primes[primes <= root]
            if len(base) == 0:
                break
            values[base**k] = np.log(base)
            k += 1
    return values


# 2^18 = TILE is a prime power and the last entry of tile 0
@pytest.mark.parametrize("N", [1, 2, TILE - 1, TILE, TILE + 1, 3 * TILE - 1, 3 * TILE + 1])
def test_tiles_match_whole_array_sieve(N):
    # every tile source yields flat TILE-long float64 tiles holding
    # Lambda(1..N), zero past N
    oracle = lambda_whole_array(N)
    table = build_lambda(N)
    assert table.values.tobytes() == oracle.tobytes()
    sources = {
        "lambda_tiles": lambda_tiles(N),
        "LambdaStream": LambdaStream(N).tiles(),
        "LambdaTable": table.tiles(),
    }
    for name, tiles in sources.items():
        tiles = list(tiles)
        assert len(tiles) == -(-N // TILE), name
        assert all(t.shape == (TILE,) and t.dtype == np.float64 for t in tiles), name
        flat = np.concatenate(tiles)
        assert flat[:N].tobytes() == oracle[1:].tobytes(), name
        assert not flat[N:].any(), name


def test_block_sizes_divide_the_tile():
    # the engine takes its moments over whole tiles, reshaped to (-1, B)
    assert TILE % _BLOCK == TILE % _SMALL_BLOCK == 0


def test_stream_checks_its_limit():
    for N in (0, -5, MAX_LIMIT + 1):
        with pytest.raises(CapacityError):
            lambda_tiles(N)  # before any tile is asked for
        with pytest.raises(CapacityError):
            LambdaStream(N)
    assert LambdaStream(1000).limit == 1000


def test_small_values(table_small):
    v = table_small.values
    assert v[1] == 0.0
    assert v[9] == pytest.approx(math.log(3), rel=1e-15)
    assert v[12] == 0.0
    assert v[8] == pytest.approx(math.log(2), rel=1e-15)
    assert v[7] == pytest.approx(math.log(7), rel=1e-15)
    assert v[6] == 0.0


def test_matches_trial_division(table_small):
    oracle = lambda_trial_division(10_000)
    mine = table_small.values
    assert np.array_equal(mine > 0, oracle > 0)
    nz = oracle > 0
    assert np.max(np.abs(mine[nz] / oracle[nz] - 1.0)) <= 1e-12


def test_prefix_invariants(table_small):
    p = table_small.prefix
    assert np.all(np.diff(p) >= 0.0)
    # cumulative rounding only: differences recover the values to ~ulp(psi)
    assert np.allclose(np.diff(p), table_small.values[1:], rtol=0, atol=1e-9)
    assert p[1] == 0.0


def test_prefix_computed_on_first_use():
    table = build_lambda(1000)
    assert "prefix" not in vars(table)
    v = chebyshev_psi(table, 100.0)
    assert "prefix" in vars(table)
    assert v == float(np.cumsum(table.values)[100])
    assert table.prefix is vars(table)["prefix"]  # computed once, then cached


def test_divisor_sum_identity(table_small):
    # sum_{d | n} Lambda(d) = log n
    N = 10_000
    acc = np.zeros(N + 1)
    for d in range(2, N + 1):
        if table_small.values[d] != 0.0:
            acc[d::d] += table_small.values[d]
    n = np.arange(2, N + 1, dtype=float)
    assert np.max(np.abs(acc[2:] - np.log(n))) <= 1e-9


def test_chebyshev_psi_values(table_small):
    assert chebyshev_psi(table_small, 1.5) == 0.0
    expected = 3 * math.log(2) + 2 * math.log(3) + math.log(5) + math.log(7)
    assert chebyshev_psi(table_small, 10.0) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(RangeError):
        chebyshev_psi(table_small, 10_001.0)
    with pytest.raises(RangeError):
        chebyshev_psi(table_small, -1.0)


def test_psi_pnt_sanity_and_prime_count():
    table = build_lambda(1_000_000)
    v = chebyshev_psi(table, 1e6)
    assert abs(v / 1e6 - 1.0) < 5e-3
    # independent cross-check: number of entries with Lambda > 0 equals
    # pi(1e6) = 78498 (classical) plus the count of higher prime powers
    positive = int(np.count_nonzero(table.values > 0))

    def is_prime(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    higher = 0
    for p in range(2, 1001):
        if is_prime(p):
            pk = p * p
            while pk <= 1_000_000:
                higher += 1
                pk *= p
    assert positive == 78498 + higher


def test_capacity_gate():
    with pytest.raises(CapacityError):
        build_lambda(200_000_000)
