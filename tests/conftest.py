import numpy as np
import pytest

from smoothed_pnt.sieve import build_lambda
from smoothed_pnt.zeros import builtin_zeros


@pytest.fixture(scope="session")
def table_small():
    return build_lambda(10_000)


@pytest.fixture(scope="session")
def table_mid():
    # covers delta() up to x = 1.77e4 at tol 1e-9 (cutoff 331,776 at x = 1e4)
    return build_lambda(600_000)


@pytest.fixture(scope="session")
def zeros_rh():
    return builtin_zeros()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250809)
