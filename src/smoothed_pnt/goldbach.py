"""Additive k-fold Lambda convolutions and the circle-quadrature identity.

psi_k(n) counts ordered ways to write n as a sum of k prime powers,
weighted by the product of the Lambda values; F_k(x) is its e^{-n/x}
smoothing and satisfies F_k(x) = Psi(x)^k identically.

The coefficient-extraction identity implemented by contour_extract
recovers sum_{n<=N} psi2_0(n) from a circle integral of the squared
generating function (Lambda(n) - 1 coefficients) against the kernel
K_N(z) = sum_{n<=N} z^{-n}.  The literal display this follows is often
printed WITHOUT the square on the generating factor; read that way it
extracts sum_{n<=N} (Lambda(n) - 1) instead.  Both readings are
implemented (squared=True/False) so the discrepancy is demonstrable
rather than silently patched.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AliasError, CapacityError, DomainError
from .sieve import LambdaTable
from .smooth import weighted_exp_sum

__all__ = [
    "ConvolutionTable",
    "convolve_psik",
    "psi2_centered",
    "smooth_Fk",
    "fk_tail_bound",
    "contour_extract",
]

# direct O(k N^2) convolution below this, FFT above; the two must agree
# to 1e-9 relative on the overlap (tested).
DIRECT_LIMIT = 20_000


@dataclass(frozen=True)
class ConvolutionTable:
    """psi_k(n) for n <= limit; values[n] = 0 for n < 2k by construction."""

    k: int
    limit: int
    values: np.ndarray


def _self_convolve(seq, k, N, method):
    """k-fold additive self-convolution of seq (index = n, seq[0] ignored)."""
    conv = seq[: N + 1].copy()
    acc = conv
    for _ in range(k - 1):
        if method == "direct":
            acc = np.convolve(acc, conv)[: N + 1]
        else:
            size = len(acc) + len(conv) - 1
            acc = np.fft.irfft(np.fft.rfft(acc, size) * np.fft.rfft(conv, size), size)[: N + 1]
            acc[np.abs(acc) < 1e-30] = 0.0
    return acc


def convolve_psik(table: LambdaTable, k, N, method="auto"):
    """Exact truncated k-fold self-convolution of the Lambda sequence.

    method "direct" uses iterated exact summation, "fft" a real
    transform; "auto" switches at N = 20000.  Indices below k stay zero
    (fewer than k positive parts cannot reach them, and Lambda(1) = 0
    actually forces zeros below 2k).
    """
    if not (1 <= k <= 8):
        raise DomainError("k must be in [1, 8]")
    N = int(N)
    if N > table.limit:
        raise CapacityError(f"N = {N} exceeds table limit {table.limit}")
    if method == "auto":
        method = "direct" if N <= DIRECT_LIMIT else "fft"
    seq = np.zeros(N + 1)
    seq[1 : N + 1] = table.values[1 : N + 1]
    vals = _self_convolve(seq, k, N, method)
    vals[: min(2 * k, N + 1)] = 0.0  # exact zeros, keep FFT dust out
    return ConvolutionTable(k=k, limit=N, values=vals)


def psi2_centered(table: LambdaTable, N, method="auto"):
    """psi2_0(n) = sum_{m+m'=n} (Lambda(m)-1)(Lambda(m')-1) for 0 <= n <= N."""
    N = int(N)
    if N > table.limit:
        raise CapacityError(f"N = {N} exceeds table limit {table.limit}")
    if method == "auto":
        method = "direct" if N <= DIRECT_LIMIT else "fft"
    seq = np.zeros(N + 1)
    seq[1 : N + 1] = table.values[1 : N + 1] - 1.0
    return _self_convolve(seq, 2, N, method)


def fk_tail_bound(k, limit, x):
    """Bound on sum_{n > limit} n^{k-1} (log n)^k e^{-n/x} by integral comparison."""
    if limit <= max(8, 4 * k * x):
        return math.inf
    log_term = (k - 1) * math.log(limit) + k * math.log(math.log(limit))
    # geometric-style envelope: the summand shrinks by at least e^{-1/(2x)}
    # per step once n > 4kx, so the tail is <= first term / (1 - ratio)
    ratio = math.exp(-0.5 / x)
    return math.exp(log_term - limit / x) / (1.0 - ratio)


def smooth_Fk(conv: ConvolutionTable, x, tol=1e-9):
    """F_k(x) = sum psi_k(n) e^{-n/x}, certified within tol of the full sum."""
    bound = fk_tail_bound(conv.k, conv.limit, x)
    if not bound <= tol:
        need = int(4 * conv.k * x) + 8
        while fk_tail_bound(conv.k, need, x) > tol:
            need = int(need * 1.3) + 1
        raise CapacityError(
            f"tail bound {bound:.2e} > tol; need convolution limit >= {need}"
        )
    return weighted_exp_sum(conv.values[1:], x)


def _power_series_cutoff(r, floor=1e-18):
    """Smallest C with r^C < floor."""
    return int(math.ceil(math.log(floor) / math.log(r)))


def contour_extract(table: LambdaTable, N, r=None, nodes=None, squared=True):
    """Partial sum of psi2_0 (or of Lambda - 1) by circle quadrature.

    Uniform trapezoid on |z| = r of  A(z)^p K_N(z) / z  with A(z) =
    sum (Lambda(n) - 1) z^n truncated where r^n < 1e-18, p = 2 when
    squared else 1.  The default radius is e^{-1/N}.  The node count
    must exceed the full Laurent span 2*(cutoff + N), otherwise the
    sampled coefficient aliases and AliasError is raised.
    """
    N = int(N)
    if N < 2:
        raise DomainError("N must be >= 2")
    if r is None:
        r = math.exp(-1.0 / N)
    if not (0.0 < r < 1.0):
        raise DomainError("radius must satisfy 0 < r < 1")
    cutoff = _power_series_cutoff(r)
    if cutoff > table.limit:
        raise CapacityError(
            f"power-series cutoff {cutoff} exceeds table limit {table.limit}"
        )
    min_nodes = 2 * (cutoff + N) + 1
    if nodes is None:
        nodes = min_nodes
    if nodes < min_nodes:
        raise AliasError(f"need at least {min_nodes} nodes, got {nodes}")
    M = int(nodes)
    # A at the M roots r*e^{2 pi i j / M}: one inverse DFT of a_n r^n
    coeff = np.zeros(M, dtype=float)
    n = np.arange(1, cutoff + 1, dtype=float)
    coeff[1 : cutoff + 1] = (table.values[1 : cutoff + 1] - 1.0) * np.exp(
        n * math.log(r)
    )
    A = np.fft.ifft(coeff) * M
    z = r * np.exp(2j * math.pi * np.arange(M) / M)
    zinv = 1.0 / z
    # K_N(z) = sum_{n=1..N} z^{-n}, closed geometric form (|z| < 1 so z != 1)
    K = zinv * (1.0 - zinv**N) / (1.0 - zinv)
    integrand = (A * A if squared else A) * K
    val = np.mean(integrand)
    return float(val.real), float(abs(val.imag))
