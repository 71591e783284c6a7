import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothed_pnt import sieve
from smoothed_pnt.errors import CapacityError, RangeError
from smoothed_pnt.sieve import _TILE as TILE
from smoothed_pnt.sieve import (
    MAX_LIMIT,
    LambdaStream,
    OddTile,
    build_lambda,
    chebyshev_psi,
    flat_tile,
)
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
@pytest.mark.parametrize("N", [1, 2] + [k * TILE + d for k in (1, 2, 3, 4) for d in (-1, 0, 1)])
def test_tiles_match_whole_array_sieve(N):
    # every tile source yields flat TILE-long float64 tiles holding
    # Lambda(1..N), zero past N (a LambdaStream's OddTiles interleaved)
    oracle = lambda_whole_array(N)
    table = build_lambda(N)
    assert table.values.tobytes() == oracle.tobytes()
    sources = {
        "LambdaStream": map(flat_tile, LambdaStream(N).tiles()),
        "LambdaTable": table.tiles(),
    }
    for name, tiles in sources.items():
        tiles = list(tiles)
        assert len(tiles) == -(-N // TILE), name
        assert all(t.shape == (TILE,) and t.dtype == np.float64 for t in tiles), name
        flat = np.concatenate(tiles)
        assert flat[:N].tobytes() == oracle[1:].tobytes(), name
        assert not flat[N:].any(), name


# 2^22 + 1: the powers of two 2^19 .. 2^22 each end a tile
@pytest.mark.parametrize("N", [k * TILE + d for k in (1, 2, 3, 4) for d in (-1, 0, 1)] + [2**22 + 1])
def test_odd_tiles_are_the_whole_array_sieve(N):
    # tile 0 is flat; past it a LambdaStream yields OddTiles whose half
    # tile holds the odd n and whose two Lambda at the tile's last n, the
    # only even n that can be a power of two, each with the oracle's bits,
    # and whose interleave is build_lambda's
    oracle = lambda_whole_array(N)
    padded = np.zeros(-(-N // TILE) * TILE + 1)
    padded[: N + 1] = oracle
    tiles = list(LambdaStream(N).tiles())
    assert isinstance(tiles[0], np.ndarray)
    assert tiles[0].tobytes() == padded[1 : TILE + 1].tobytes()
    for t, tile in enumerate(tiles[1:], start=1):
        lo = 1 + t * TILE
        assert isinstance(tile, OddTile)
        assert tile.odd.shape == (TILE // 2,) and tile.odd.dtype == np.float64
        assert tile.odd.tobytes() == padded[lo : lo + TILE : 2].tobytes()
        assert type(tile.two) is float
        even = np.flatnonzero(padded[lo + 1 : lo + TILE : 2]) * 2 + 1
        assert even.tolist() == ([TILE - 1] if tile.two else [])
        n = lo + TILE - 1
        assert np.float64(tile.two).tobytes() == padded[n].tobytes()
        if tile.two:
            assert n & (n - 1) == 0 and n <= N  # a power of two
        assert flat_tile(tile).tobytes() == padded[lo : lo + TILE].tobytes()
    flat = np.concatenate([flat_tile(t) for t in tiles])
    assert flat[:N].tobytes() == build_lambda(N).values[1:].tobytes()


def assert_tiles_are_the_oracle(N):
    tiles = list(map(flat_tile, LambdaStream(N).tiles()))
    assert len(tiles) == -(-N // TILE)
    flat = np.concatenate(tiles)
    assert flat[:N].tobytes() == lambda_whole_array(N)[1:].tobytes()
    assert not flat[N:].any()


def test_small_limits_match_whole_array_sieve():
    # the wheel primes 3..13, their squares and cubes, n = 1 and n = 2
    for N in range(1, 201):
        assert_tiles_are_the_oracle(N)


@settings(max_examples=25, deadline=None)
@given(N=st.integers(1, 3 * TILE))
def test_any_limit_matches_whole_array_sieve(N):
    assert_tiles_are_the_oracle(N)


@pytest.mark.parametrize("split", [17, 100])
def test_scattered_primes_match_whole_array_sieve(monkeypatch, split):
    # below the pinned size only base primes under sqrt(3 TILE) < 900
    # exist, so move the strided/scattered split down to reach the octaves
    monkeypatch.setattr(sieve, "_SCATTER_FROM", split)
    for N in (200, 17 * 17, 18_000, TILE - 1, TILE + 1, 3 * TILE + 1):
        assert_tiles_are_the_oracle(N)


@pytest.mark.parametrize("m", [TILE // 2, 1000, 1])
def test_octaves_cover_every_odd_multiple(m):
    primes = sieve._primes_upto(10_000)
    primes = primes[primes > 13]
    octaves = sieve._octaves(primes, m)
    assert octaves[0][0].start == 0
    assert [a.stop for a, _ in octaves[:-1]] == [b.start for b, _ in octaves[1:]]
    assert octaves[-1][0].stop == len(primes)
    for rows, k in octaves:
        group = primes[rows]
        assert group[-1] < 2 * group[0]
        # a prime p has at most ceil(m / p) odd multiples among m consecutive odd n
        assert all(-(-m // p) <= len(k) for p in group.tolist())
        assert k.tolist() == list(range(len(k)))


def test_large_table_bits_are_pinned():
    # at this size every path of the segment sieve runs: strided and
    # scattered base primes, 188 wheel phases, prime powers in most tiles.
    # The digest of the concatenated tiles was recorded from the plain
    # segmented sieve (every base prime a strided write over all n).
    digest = hashlib.sha256()
    for tile in LambdaStream(49_066_291).tiles():
        digest.update(flat_tile(tile))
    assert digest.hexdigest() == "e17206c78d911d675337a6b1ddd1406d01abfefe12053ab3fa21ba13cec22ad3"


def test_block_sizes_divide_the_tile():
    # the engine takes its moments over whole tiles, reshaped to (-1, B)
    assert TILE % _BLOCK == TILE % _SMALL_BLOCK == 0


def test_stream_checks_its_limit():
    for N in (0, -5, MAX_LIMIT + 1):
        with pytest.raises(CapacityError):
            build_lambda(N)  # before any array is allocated
        with pytest.raises(CapacityError):
            LambdaStream(N)
    assert LambdaStream(1000).limit == 1000


@pytest.mark.parametrize("N", [math.nan, math.inf, -math.inf])
def test_non_finite_limit_is_a_capacity_error(N):
    # refused before int(N), which raises ValueError or OverflowError
    with pytest.raises(CapacityError, match="outside supported range"):
        sieve.check_limit(N)
    with pytest.raises(CapacityError):
        build_lambda(N)
    with pytest.raises(CapacityError):
        LambdaStream(N)


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
