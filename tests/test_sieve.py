import math

import numpy as np
import pytest

from smoothed_pnt.errors import CapacityError, RangeError
from smoothed_pnt.sieve import build_lambda, chebyshev_psi


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
    with pytest.raises(CapacityError):
        build_lambda(1_000_000, budget_bytes=1024)
