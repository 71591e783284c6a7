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
from .sieve import LambdaTable, array_tiles
from .smooth import _cutoffs, _log_tail, _psi_many

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

# direct O(k N^2) convolution below this, FFT above; the two must agree
# to 1e-9 relative on the overlap (tested).
DIRECT_LIMIT = 20_000


@dataclass(frozen=True)
class ConvolutionTable:
    """psi_k(n) for n <= limit; values[n] = 0 for n < 2k by construction."""

    k: int
    limit: int
    values: np.ndarray


def _lambda_seq(table, N, shift=0.0):
    """Lambda(n) - shift at index n for 1 <= n <= N, and 0 at index 0."""
    if N > table.limit:
        raise CapacityError(f"N = {N} exceeds table limit {table.limit}")
    seq = np.zeros(N + 1)
    seq[1:] = table.values[1 : N + 1] - shift
    return seq


def _method(method, N):
    if method == "auto":
        return "direct" if N <= DIRECT_LIMIT else "fft"
    return method


def _self_convolve(seq, k, method):
    """k-fold additive self-convolution of seq, truncated to its length."""
    N = len(seq) - 1
    acc = seq
    if method == "direct":
        for _ in range(k - 1):
            acc = np.convolve(acc, seq)[: N + 1]
        return acc
    size = 1 << (2 * N).bit_length()  # a power of two past 2N: no wrap-around
    spectrum = np.fft.rfft(seq, size)
    for _ in range(k - 1):
        acc = np.fft.irfft(np.fft.rfft(acc, size) * spectrum, size)[: N + 1]
        acc[np.abs(acc) < 1e-30] = 0.0
    return acc


def _banded_fft(seq, k):
    """k-fold self-convolution of a nonnegative seq by FFT, band by band.

    FFT rounding is absolute, on the scale of the largest coefficient, and
    psi_k(n) grows like n^{k-1}: one transform of the whole range leaves
    the small-n coefficients, and F_k at small x, with a relative error of
    eps (N/n)^{k-1} (the leading digit is wrong at k = 5, N = 3e4).  So
    each dyadic band (hi/2, hi] comes from its own transform of seq[:hi+1],
    whose largest coefficient is within about 2^{k-1} of the band's
    smallest; the band below 64 is convolved directly.
    """
    vals = np.empty(len(seq))
    hi = len(seq) - 1
    while hi > 64:
        vals[hi // 2 + 1 : hi + 1] = _self_convolve(seq[: hi + 1], k, "fft")[hi // 2 + 1 :]
        hi //= 2
    vals[: hi + 1] = _self_convolve(seq[: hi + 1], k, "direct")
    return vals


def convolve_psik(table: LambdaTable, k, N, method="auto"):
    """Truncated k-fold self-convolution of the Lambda sequence.

    method "direct" uses iterated exact summation, "fft" real transforms
    over dyadic bands, each rounding relative to its own coefficients
    (_banded_fft); "auto" switches at N = 20000.  Indices below k stay
    zero (fewer than k positive parts cannot reach them, and Lambda(1) = 0
    actually forces zeros below 2k).
    """
    if not (1 <= k <= 8):
        raise DomainError("k must be in [1, 8]")
    N = int(N)
    seq = _lambda_seq(table, N)
    if k == 1 or _method(method, N) == "direct":
        vals = _self_convolve(seq, k, "direct")
    else:
        vals = _banded_fft(seq, k)
    vals[: 2 * k] = 0.0  # exact zeros, keep FFT dust out
    return ConvolutionTable(k=k, limit=N, values=vals)


def psi2_centered(table: LambdaTable, N, method="auto"):
    """psi2_0(n) = sum_{m+m'=n} (Lambda(m)-1)(Lambda(m')-1) for 0 <= n <= N."""
    N = int(N)
    return _self_convolve(_lambda_seq(table, N, shift=1.0), 2, _method(method, N))


def fk_tail_bound(k, limit, x):
    """Bound on sum_{n > limit} n^{k-1} (log n)^k e^{-n/x}: e^{smooth._log_tail}."""
    return float(np.exp(_log_tail(float(limit), x, k)))


def fk_cutoff(k, x, tol):
    """Smallest convolution limit L > max(8, 4kx) with fk_tail_bound(k, L, x) <= tol.

    RangeError unless x is positive and finite and L fits an int64.
    """
    return int(_certified_limits(k, [x], tol, 0)[0])


def _certified_limits(k, xs, tol, least):
    """fk_cutoff at each of xs by smooth._cutoffs, searched from least on: least if it certifies tol."""
    if not tol > 0.0:
        raise DomainError("tol must be positive")

    def floor(x):
        return np.maximum(np.floor(np.maximum(8.0, 4.0 * k * x)) + 1.0, least)

    return _cutoffs(xs, math.log(tol), floor, k=k)


def smooth_Fk(conv: ConvolutionTable, x, tol=1e-9):
    """F_k(x) = sum psi_k(n) e^{-n/x}, its truncation certified within tol.

    CapacityError unless fk_cutoff certifies conv.limit.  Rounding is not
    part of tol: it is relative, like that of the coefficients, a few eps
    of F_k (at most 2.0e-15 for k <= 5 against direct sums).  The sum
    runs through the Delta engine's kernel, which reads whole blocks:
    past conv.limit it reads the zeros that pad the last tile.
    """
    need = int(_certified_limits(conv.k, [x], tol, conv.limit)[0])
    if need > conv.limit:
        bound = fk_tail_bound(conv.k, conv.limit, x)
        raise CapacityError(f"tail bound {bound:.2e} > tol; need convolution limit >= {need}")
    return float(_psi_many(array_tiles(conv.values), np.array([float(x)]), np.array([conv.limit]))[0])


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
