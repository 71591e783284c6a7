"""Additive k-fold Lambda convolutions and the circle-quadrature identity.

psi_k(n) counts ordered ways to write n as a sum of k prime powers,
weighted by the product of the Lambda values; F_k(x) is its e^{-n/x}
smoothing and satisfies F_k(x) = Psi(x)^k identically.  psi2_centered
expands through convolve_psik, and smooth_Fk sums a grid of x in one
pass of the Delta engine's kernel.

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
from .sieve import LambdaTable, array_tiles
from .smooth import _cutoffs, _log_tail, _positive_finite, _psi_many

__all__ = [
    "ConvolutionTable",
    "convolve_psik",
    "psi2_centered",
    "smooth_Fk",
    "fk_tail_bound",
    "fk_cutoff",
    "contour_cutoff",
    "contour_extract",
]

DIRECT_LIMIT = 20_000  # exact sums up to this N, _banded_fft past it (tested to agree)


@dataclass(frozen=True)
class ConvolutionTable:
    """psi_k(n) for n <= limit; values[n] = 0 for n < 2k by construction."""

    k: int
    limit: int
    values: np.ndarray


def _direct(seq, k):
    """k-fold self-convolution of seq by exact sums, truncated to its length."""
    acc = seq
    for _ in range(k - 1):
        acc = np.convolve(acc, seq)[: len(seq)]
    return acc


def _banded_fft(seq, k):
    """k-fold self-convolution of a nonnegative seq by FFT, band by band.

    FFT rounding is absolute, on the scale of the largest coefficient, and
    psi_k(n) grows like n^{k-1}: one transform of the whole range leaves
    the small-n coefficients, and F_k at small x, with a relative error of
    eps (N/n)^{k-1} (the leading digit is wrong at k = 5, N = 3e4).  So
    each dyadic band (hi/2, hi] comes from its own transform of seq[:hi+1],
    and the band below 64 is convolved directly.  A band's largest
    coefficient is within about 2^{k-1} of its smallest of the same
    parity only: psi_2(odd n) needs a power of two, so it sits far below
    psi_2(even n), as psi_3(even n) below psi_3(odd n).  Against
    np.convolve at N = 37,002 the worst relative errors are 4.5e-12 (odd
    n) and 1.6e-15 (even) for k = 2, 2.2e-13 (even) and 2.3e-15 (odd) for
    k = 3 (tested).  F_k keeps a few eps: the dense parity dominates it.
    """
    vals = np.empty(len(seq))
    hi = len(seq) - 1
    while hi > 64:
        size = 1 << (2 * hi).bit_length()  # a power of two past 2 hi: no wrap-around
        spectrum = np.fft.rfft(seq[: hi + 1], size)
        acc = seq[: hi + 1]
        for _ in range(k - 1):
            acc = np.fft.irfft(np.fft.rfft(acc, size) * spectrum, size)[: hi + 1]
            acc[np.abs(acc) < 1e-30] = 0.0
        vals[hi // 2 + 1 : hi + 1] = acc[hi // 2 + 1 :]
        hi //= 2
    vals[: hi + 1] = _direct(seq[: hi + 1], k)
    return vals


def convolve_psik(table: LambdaTable, k, N):
    """Truncated k-fold self-convolution of the Lambda sequence.

    Up to N = DIRECT_LIMIT by exact sums, past it by _banded_fft.
    Indices below k stay zero (fewer than k positive parts cannot reach
    them, and Lambda(1) = 0 actually forces zeros below 2k).
    """
    if not (1 <= k <= 8):
        raise DomainError("k must be in [1, 8]")
    N = int(N)
    if N > table.limit:
        raise CapacityError(f"N = {N} exceeds table limit {table.limit}")
    seq = np.concatenate(([0.0], table.values[1 : N + 1]))  # Lambda(n) at index n
    vals = _direct(seq, k) if k == 1 or N <= DIRECT_LIMIT else _banded_fft(seq, k)
    vals[: 2 * k] = 0.0  # exact zeros, keep FFT dust out
    return ConvolutionTable(k=k, limit=N, values=vals)


def psi2_centered(table: LambdaTable, N):
    """psi2_0(n) = sum_{m+m'=n} (Lambda(m)-1)(Lambda(m')-1) for 0 <= n <= N,
    as psi_2(n) - 2 psi(n-1) + (n-1) for n >= 1, psi_2 from convolve_psik."""
    N = int(N)
    vals = convolve_psik(table, 2, N).values
    vals[1:] = vals[1:] - 2.0 * np.cumsum(table.values[:N]) + np.arange(N)
    return vals


def fk_tail_bound(k, limit, x):
    """Bound on sum_{n > limit} n^{k-1} (log n)^k e^{-n/x}: e^{smooth._log_tail}.

    RangeError unless x is positive and finite, as for fk_cutoff.
    """
    return float(np.exp(_log_tail(float(limit), _positive_finite(x), k)))


def fk_cutoff(k, x, tol):
    """Smallest convolution limit L > max(8, 4kx) with fk_tail_bound(k, L, x) <= tol.

    RangeError unless x is positive and finite and L fits an int64.
    """
    return int(_certified_limits(k, [x], tol)[0])


def _certified_limits(k, xs, tol):
    """fk_cutoff at each of xs, by one smooth._cutoffs search."""
    if not tol > 0.0:
        raise DomainError("tol must be positive")

    def floor(x):
        return np.floor(np.maximum(8.0, 4.0 * k * x)) + 1.0

    return _cutoffs(xs, math.log(tol), floor, k=k)


def smooth_Fk(conv: ConvolutionTable, x, tol=1e-9):
    """F_k(x) = sum psi_k(n) e^{-n/x}, its truncation certified within tol.

    At each x of an array, each entry bitwise what x alone gives (a float
    for a scalar x).  CapacityError, naming the first x that needs more,
    unless conv.limit is at least fk_cutoff at every x.  Rounding is not
    part of tol: it is relative, like that of the coefficients, a few eps
    of F_k (at most 2.0e-15 for k <= 5 against direct sums).  The sum
    runs through the Delta engine's kernel, which reads whole blocks:
    past conv.limit it reads the zeros that pad the last tile.
    """
    xs = np.atleast_1d(x).astype(float)
    need = _certified_limits(conv.k, xs, tol)
    if (short := need > conv.limit).any():
        i = np.argmax(short)
        bound = fk_tail_bound(conv.k, conv.limit, xs[i])
        raise CapacityError(
            f"tail bound {bound:.2e} > tol at x = {xs[i]:g}; need convolution limit >= {need[i]}"
        )
    fk = _psi_many(array_tiles(conv.values), xs, np.full(len(xs), conv.limit))
    return float(fk[0]) if np.ndim(x) == 0 else fk


def contour_cutoff(N, r=None):
    """Table limit contour_extract(table, N, r) reads: smallest C with r^C < 1e-18."""
    if not (0.0 < N < math.inf):
        raise DomainError("N must be positive and finite")
    if r is None:
        r = math.exp(-1.0 / N)
    if not (0.0 < r < 1.0):
        raise DomainError("radius must satisfy 0 < r < 1")
    return int(math.ceil(math.log(1e-18) / math.log(r)))


def contour_extract(table: LambdaTable, N, r=None, nodes=None, squared=True):
    """Partial sum of psi2_0 (or of Lambda - 1) by circle quadrature.

    Uniform trapezoid on |z| = r of  A(z)^p K_N(z) / z  with A(z) =
    sum (Lambda(n) - 1) z^n truncated where r^n < 1e-18, p = 2 when
    squared else 1.  The default radius is e^{-1/N}.  The node count
    must exceed the full Laurent span 2*(cutoff + N), otherwise the
    sampled coefficient aliases and AliasError is raised.
    """
    if not (2 <= N < math.inf):
        raise DomainError("N must be finite and >= 2")
    N = int(N)
    if r is None:
        r = math.exp(-1.0 / N)
    cutoff = contour_cutoff(N, r)
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
