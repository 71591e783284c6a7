"""Complex special functions: Gamma, zeta, zeta'/zeta, and Hardy's Z.

Everything here is plain binary64.  The gamma function uses a fixed
15-coefficient Lanczos approximation (g = 607/128) which is uniformly
accurate to ~1e-13 relative on the right half plane; the left half plane
goes through the reflection formula in log space so that large imaginary
parts neither overflow nor lose the phase.  Zeta and zeta' come from one
Euler-Maclaurin core: head sums over n^{-s}, a slice of s at a time
through one 512 KiB buffer, and one loop over the Bernoulli terms, which
carries zeta with its explicit remainder bound, and zeta' with its
differentiated bound when a caller asks for it.  zeta_em,
zeta_deriv_em and zeta_logderiv are certifying front ends over one
validation and conjugate-fold path, and hardy_Z calls the core on
whole arrays of heights.  Valid for Re s > -1, which covers every
consumer in this package (the supported strip is -1 < Re s <= 3 plus
the half plane Re s > 1 where the Dirichlet series converges anyway).

The zero finder takes its heads from Chebyshev moments instead
(_head_moments, _hardy_Z_moments), in its sign scan below t = 200 and at
every bracket end and secant point of its refinement: near a height t_a,
n^{-s} = n^{-s_a} e^{-iz} e^{-iz x_n} with x_n = 2 log n / log(N-1) - 1
in [-1, 1], and e^{-izx} is the Delta engine's expansion e^{-rx} =
sum_j a_j(r) T_j(x) (smooth._chebyshev_coeffs) at r = iz.  So one
expansion serves both sides of the package: moments of the Lambda
table in smooth, moments of the head powers here.  The moment heads
enter the same core, whose bound then carries the expansion's
truncation as well.

Hardy's Z also has a private Riemann-Siegel evaluator, _rs_Z, for the
zero finder's sign scan: floor(sqrt(t/2pi)) <= 12 cosines per height up
to t = 1e3, where Euler-Maclaurin needs a head of up to 1,310 terms.
Its value carries the first correction term C_0, and its bound is
Gabcke's (1979) remainder 0.127 (t/2pi)^{-3/4}, proven for t >= 200
(the evaluator refuses lower heights), plus an allowance for the
rounding of the phases.  That bound is ~1e-2 to 3e-3, far coarser than
the core's, so the value serves for a sign where the bound is below
|Z|.  It works a slice of heights at a time, theta and the bound with
the cosines, in about the head buffer's bytes.  hardy_Z itself is
Euler-Maclaurin throughout.

Conjugate symmetry is structural: inputs with negative imaginary part are
folded to the upper half plane and the result conjugated, so
f(conj z) == conj(f(z)) holds exactly, not just to rounding.
"""

import math

import numpy as np

from .errors import AccuracyError, DomainError, NearSingularError, PoleError
from .smooth import _J, _chebyshev_coeffs, _chebyshev_table

__all__ = [
    "gamma_complex",
    "loggamma",
    "zeta_em",
    "zeta_deriv_em",
    "zeta_logderiv",
    "rs_theta",
    "hardy_Z",
]

_TWO_PI = 2.0 * math.pi
# Gabcke's Riemann-Siegel remainder bound is proven from this height up
_RS_MIN_T = 200.0
_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Lanczos g = 607/128, 15 terms.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


# Bernoulli numbers B_0 .. B_64 (B_1 = -1/2), each the correctly rounded
# float of its exact rational value, as literals, as pintz keeps its
# Gauss-Legendre rule (tests/test_specfun.py rebuilds them from the
# exact recurrence).  B_62 and B_64 only enter error bounds.
_BERNOULLI = np.array([
    1.0, -0.5, 0.16666666666666666, 0.0,
    -0.03333333333333333, 0.0, 0.023809523809523808, 0.0,
    -0.03333333333333333, 0.0, 0.07575757575757576, 0.0,
    -0.2531135531135531, 0.0, 1.1666666666666667, 0.0,
    -7.092156862745098, 0.0, 54.971177944862156, 0.0,
    -529.1242424242424, 0.0, 6192.123188405797, 0.0,
    -86580.25311355312, 0.0, 1425517.1666666667, 0.0,
    -27298231.067816094, 0.0, 601580873.9006424, 0.0,
    -15116315767.092157, 0.0, 429614643061.1667, 0.0,
    -13711655205088.332, 0.0, 488332318973593.2, 0.0,
    -1.9296579341940068e+16, 0.0, 8.416930475736826e+17, 0.0,
    -4.0338071854059454e+19, 0.0, 2.1150748638081993e+21, 0.0,
    -1.2086626522296526e+23, 0.0, 7.500866746076964e+24, 0.0,
    -5.038778101481069e+26, 0.0, 3.6528776484818122e+28, 0.0,
    -2.849876930245088e+30, 0.0, 2.3865427499683627e+32, 0.0,
    -2.1399949257225335e+34, 0.0, 2.0500975723478097e+36, 0.0,
    -2.093800591134638e+38,
])
_EM_MAX_K = 30


def _loggamma_right(z):
    """log Gamma on Re z >= 0.5 (scalar or ndarray), continuous branch.

    The three logarithms below never cross a branch cut on this half
    plane (t stays in the right half plane and the rational series s
    stays near 1), so the imaginary part is the honest continuous one.
    """
    zz = z - 1.0
    s = _LANCZOS_C[0]
    for k in range(1, 15):
        s = s + _LANCZOS_C[k] / (zz + k)
    t = zz + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (zz + 0.5) * np.log(t) - t + np.log(s)


def _log_sin_pi_upper(z):
    """log sin(pi z) for Im z >= 0, correct modulo 2*pi*i.

    sin(pi z) = e^{-i pi z} (e^{2 i pi z} - 1) / (2i); the log1p argument
    has modulus < 1 when Im z > 0 so nothing overflows even for huge
    imaginary parts.  Only exp() of the result is ever used.
    """
    return (
        -1j * math.pi * z
        + np.log1p(-np.exp(2j * math.pi * z))
        - complex(math.log(2.0), 0.5 * math.pi)
        + 1j * math.pi
    )


def _near_nonpositive_integer(z, tol):
    """Elementwise: within tol of 0, -1, -2, ... (scalar or ndarray z)."""
    near_int = np.abs(z.real - np.round(z.real)) <= tol
    return (z.real <= 0.5) & (np.abs(z.imag) <= tol) & near_int


def loggamma(z):
    """A branch of log Gamma(z), exact for exp(); scalar or ndarray.

    On Re z >= 0.5 this is the standard continuous branch.  On the
    reflected half plane the imaginary part is only meaningful modulo
    2*pi; gamma_complex(), which exponentiates, is unaffected.  A scalar
    argument gives a Python complex, an array one a complex ndarray.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    lower = z.imag < 0.0
    z = np.where(lower, np.conj(z), z)
    poles = _near_nonpositive_integer(z, 1e-12)
    if np.any(poles):
        raise PoleError(f"log Gamma pole at z = {complex(z[poles][0])}")
    left = z.real < 0.5
    out = _loggamma_right(np.where(left, 1.0 - z, z))
    out[left] = math.log(math.pi) - _log_sin_pi_upper(z[left]) - out[left]
    out = np.where(lower, np.conj(out), out)
    return complex(out[0]) if scalar else out


def gamma_complex(z):
    """Gamma(z) for complex z.

    Relative accuracy ~1e-13 for |z| <= 200, Re z >= -50.  Raises
    PoleError within 1e-12 of a nonpositive integer, and DomainError if
    the true value overflows binary64 (real part of log Gamma > 709).
    """
    z = complex(z)
    lg = loggamma(z)  # folds conjugates and refuses poles
    if lg.real > 709.0:
        raise DomainError(f"Gamma({z}) overflows binary64")
    return complex(np.exp(lg))


# Head powers held at once by _head_sums, in values: 2^15 complex,
# 512 KiB, or 25 heights a slice at find_zeros' 1,309-term heads.
# _rs_Z's slices take a quarter as many terms, whose few real
# temporaries come to about as many bytes.  A slice stays in a core's L2
# cache (2 MiB a core on the 2-vCPU Xeon measured) from its exp to its
# sums, and a process maps no more pages for it.  In 30 alternating
# pairs of fresh `zeros --T 1000` processes there, one BLAS thread, the
# child peaked at 31.99 MB (IQR 31.98-32.02) at 2^15 against 32.64 MB
# (32.61-32.67) at 2^16, and find_zeros(1000) took 0.127 s of CPU
# (0.108-0.134) against 0.125 s (0.102-0.134), faster in 13 of 30.
_HEAD_BUF = 1 << 15


def _head_sums(x, log_n, deriv, basis=None):
    """sum_n n^{-x} and, when `deriv`, sum_n n^{-x} log n over n = e^{log_n}, for a 1-D x.

    The powers go through one buffer of at most _HEAD_BUF values (512 KiB
    complex; one row, if a row is longer), allocated once, a slice of rows
    at a time.
    Each row's sum is numpy's pairwise sum of that row alone, so a sum
    does not depend on the slicing or on the rest of x.  Given a real
    `basis` (one row per n) and a complex x, the one result holds the
    moments sum_n n^{-x} basis[n, j] instead, a row per x: one real
    matrix product per row, as the row's real and imaginary parts are
    two columns, so a row's moments do not depend on the rest of x either.
    """
    rows = max(1, _HEAD_BUF // max(1, len(log_n)))
    buf = np.empty((min(rows, len(x)), len(log_n)), dtype=x.dtype)
    if basis is None:
        sums = [np.empty(len(x), dtype=x.dtype) for _ in range(1 + deriv)]
    else:
        basis_t = np.ascontiguousarray(basis.T)
        sums = [np.empty((len(x), len(basis_t)), dtype=complex)]
    for i in range(0, len(x), rows):
        part = buf[: len(x[i : i + rows])]
        np.multiply.outer(x[i : i + rows], log_n, out=part)
        np.negative(part, out=part)
        np.exp(part, out=part)
        if basis is None:
            sums[0][i : i + rows] = part.sum(axis=-1)
        else:
            pairs = part.view(float).reshape(len(part), len(log_n), 2)
            sums[0][i : i + rows] = np.matmul(basis_t, pairs).view(complex)[..., 0]
        if deriv:
            np.multiply(part, log_n, out=part)
            sums[1][i : i + rows] = part.sum(axis=-1)
    return sums


def _em_core(s, n_terms, deriv=False, heads=None, head_err=0.0):
    """Euler-Maclaurin zeta, and zeta' when `deriv`, for an ndarray of s.

    Every s shares the truncation N = n_terms and the head sums over
    n^{-s} (n < N), vectorized over s, which is what the zero finder
    leans on.  The head powers pass through one buffer of _HEAD_BUF
    complex values (512 KiB) a slice of s at a time, so a call's working
    set is that buffer plus a few arrays shaped like s, whatever the
    batch.  A caller that has the heads some other way passes them as
    `heads`, a list shaped like the values, with `head_err`, a bound on
    their error that joins each returned bound: the zero finder takes
    them from Chebyshev head moments (_hardy_Z_moments).
    One loop over the Bernoulli terms carries each series with
    its remainder bound and keeps, per s, the term with the smallest bound;
    an s stops taking terms once all its bounds are below 1e-18
    max(1, |value|), so no value depends on the rest of the batch.
    zeta' differentiates the truncated formula analytically, which avoids
    the cancellation a finite difference would suffer near zeros.  Returns
    (values, bounds), each a list [zeta] or [zeta, zeta'] of arrays shaped
    like s.  A bound is the truncation bound, plus head_err, plus a floor
    for the head sum's rounding, one ulp per head term.  Valid for
    Re s > -1, s != 1.
    """
    s = np.asarray(s, dtype=complex)
    sigma = s.real
    log_n = np.log(np.arange(1, n_terms, dtype=float))
    head = heads
    if heads is None:
        head = [h.reshape(s.shape) for h in _head_sums(s.reshape(-1), log_n, deriv)]
    N = float(n_terms)
    acc = [head[0] + N ** (-s) / 2.0 + N ** (1.0 - s) / (s - 1.0)]
    if deriv:
        logN = math.log(N)
        acc.append(
            -head[1]
            - logN * N ** (-s) / 2.0
            + N ** (1.0 - s) * (-logN / (s - 1.0) - 1.0 / (s - 1.0) ** 2)
        )
    best = [np.full(s.shape, np.inf) for _ in acc]
    best_val = [a.copy() for a in acc]
    live = np.ones(s.shape, dtype=bool)  # the s still taking terms
    poch, dpoch = s.copy(), np.ones_like(s)  # (s)_{2k-1} and d/ds of it, k = 1
    for k in range(1, _EM_MAX_K + 1):
        f = _BERNOULLI[2 * k] / math.factorial(2 * k)
        fb = abs(_BERNOULLI[2 * k + 2]) / math.factorial(2 * k + 2)
        grow = N ** (1.0 - s - 2 * k)
        terms = [poch, dpoch - logN * poch] if deriv else [poch]
        if deriv:
            dpoch = dpoch * (s + 2 * k - 1) * (s + 2 * k) + poch * (2 * s + 4 * k - 1)
        poch = poch * (s + 2 * k - 1) * (s + 2 * k)
        # the differentiated remainder carries both pochhammer derivatives;
        # |poch| alone degenerates to 0 at s = 0 and would lie about the tail
        mags = [np.abs(poch), np.abs(dpoch) + logN * np.abs(poch)] if deriv else [np.abs(poch)]
        shrink = N ** (1.0 - sigma - 2 * k - 2)
        for i, (term, mag) in enumerate(zip(terms, mags)):
            acc[i] = acc[i] + f * term * grow
            bound = fb * mag * shrink * np.abs(s + 2 * k + 1) / (sigma + 2 * k + 1)
            better = live & (bound < best[i])
            best[i] = np.where(better, bound, best[i])
            best_val[i] = np.where(better, acc[i], best_val[i])
        done = True
        for b, v in zip(best, best_val):
            done = done & (b < 1e-18 * np.maximum(1.0, np.abs(v)))
        live = live & ~done
        if not live.any():
            break
    # a floor for the head sums' rounding, one ulp per term: eps times the
    # sum of the moduli n^{-sigma} (times log n for zeta').  It is not a
    # bound: summation and the phase t log n of each term (about eps |s|
    # log n) round further, up to ~100 times this floor against mpmath.
    # One row per distinct Re s (hardy_Z's grid shares Re s = 1/2).
    sig, at = np.unique(sigma, return_inverse=True)
    floors = _head_sums(sig, log_n, deriv)
    eps = np.finfo(float).eps
    return best_val, [b + head_err + eps * h[at].reshape(s.shape) for b, h in zip(best, floors)]


def _auto_terms(t):
    """Head terms for zeta at heights up to |t| (hardy_Z's and zeta_em's default)."""
    return int(max(25, 1.3 * abs(t) + 10))


def _em_point(s, terms, deriv=False, contract=True):
    """One s through the core: validation, conjugate fold, one core call.

    Returns ([zeta(, zeta')], [bounds], n_terms).  Im s < 0 is folded to
    the upper half plane and the values conjugated back.  `contract`
    enforces zeta_em's accuracy contract (|Im s| <= 1e3, at least 2 head
    terms).
    """
    s = complex(s)
    lower = s.imag < 0.0
    if lower:
        s = s.conjugate()
    if abs(s - 1.0) <= 1e-12:
        raise PoleError("zeta pole at s = 1")
    if s.real <= -1.0:
        raise DomainError("zeta_em supports Re s > -1 only")
    n_terms = terms if terms is not None else _auto_terms(s.imag)
    if contract and abs(s.imag) > 1e3:
        raise AccuracyError("zeta_em accuracy contract limited to |Im s| <= 1e3")
    if contract and n_terms < 2:
        raise AccuracyError("need at least 2 direct terms")
    vals, bounds = _em_core(np.array([s]), n_terms, deriv=deriv)
    vals = [complex(v[0]).conjugate() if lower else complex(v[0]) for v in vals]
    return vals, [float(b[0]) for b in bounds], n_terms


def _certified(value, bound, tol, n_terms, what):
    # |zeta| can vanish on the critical line; the floor keeps the
    # relative contract meaningful away from zeros without lying near them.
    if bound > tol * max(abs(value), 1e-4):
        raise AccuracyError(f"{what} {bound:.2e} exceeds tolerance with {n_terms} terms")
    return value


def zeta_em(s, terms=None, tol=1e-10):
    """Riemann zeta via Euler-Maclaurin summation.

    `terms` is the number of direct head terms (auto-sized from Im s when
    omitted).  The certified remainder, plus a floor for the head sum's
    rounding (one ulp per term; not a bound on it), must be <=
    tol * max(|value|, 1e-4), else AccuracyError.  Supported domain:
    Re s > -1, |Im s| <= 1e3.
    """
    (z,), (zb,), n_terms = _em_point(s, terms)
    return _certified(z, zb, tol, n_terms, "remainder bound")


def zeta_deriv_em(s, terms=None, tol=1e-8):
    """zeta'(s) by term-by-term differentiation of the Euler-Maclaurin sum.

    Certified like zeta_em, on Re s > -1; the height contract is not
    enforced here.
    """
    (_, dz), (_, dzb), n_terms = _em_point(s, terms, deriv=True, contract=False)
    return _certified(dz, dzb, tol, n_terms, "derivative remainder")


def zeta_logderiv(s, terms=None, with_error=False):
    """zeta'(s)/zeta(s).

    Refuses evaluation within 1e-6 of s = 1 or of a point where |zeta|
    itself is below 1e-6 (that is how "too close to a zero" is detected;
    it needs no zero table and catches off-line zeros too, if any).
    On Re s >= 3/2 the result carries ~1e-10 certified accuracy; closer
    to the critical strip the reported estimate grows like 1/|zeta|.
    """
    s = complex(s)
    if abs(s - 1.0) <= 1e-6:
        raise NearSingularError("zeta'/zeta pole at s = 1")
    (z, dz), (zb, dzb), n_terms = _em_point(s, terms, deriv=True)
    _certified(z, zb, 1e-9, n_terms, "remainder bound")
    if abs(z) <= 1e-6:
        raise NearSingularError(f"|zeta({s})| = {abs(z):.2e}: too close to a zero")
    ratio = _certified(dz, dzb, 1e-8, n_terms, "derivative remainder") / z
    if with_error:
        # crude but honest: remainder of both series, amplified by 1/|zeta|
        est = zb * (math.log(n_terms) + 3.0) * (1.0 + abs(ratio)) / abs(z)
        return ratio, est
    return ratio


def rs_theta(t):
    """Riemann-Siegel theta: Im log Gamma(1/4 + it/2) - (t/2) log pi.

    Computed through the recurrence log Gamma(z) = log Gamma(z+1) - log z
    so that only the Re >= 0.5 Lanczos branch is used; that keeps the
    imaginary part on the correct continuous branch for all t >= 0.
    """
    t = np.asarray(t, dtype=float)
    z = 0.25 + 0.5j * t
    lg = _loggamma_right(z + 1.0) - np.log(z)
    out = lg.imag - 0.5 * t * math.log(math.pi)
    return float(out) if out.ndim == 0 else out


def _hardy_Z_array(ts, terms=None, heads=None, head_err=0.0):
    ts = np.asarray(ts, dtype=float)
    n_terms = terms if terms is not None else _auto_terms(ts.max())
    s = 0.5 + 1j * ts
    (val,), (bound,) = _em_core(s, n_terms, heads=heads, head_err=head_err)
    if np.any(bound > 1e-9):
        raise AccuracyError("zeta remainder too large for hardy_Z at this height")
    rotated = np.exp(1j * rs_theta(ts)) * val
    if np.any(np.abs(rotated.imag) > 1e-10 * np.maximum(1.0, np.abs(rotated.real))):
        raise AccuracyError("e^{i theta} zeta(1/2 + it) is off the real axis by more than 1e-10")
    return rotated, bound


def hardy_Z(t, terms=None):
    """Hardy's Z function: e^{i theta(t)} zeta(1/2 + it), a real number.

    Accepts a scalar or an array of heights in [0, 1e3]; an empty array
    gives an empty array, a NaN height DomainError.  Every height goes
    through the Euler-Maclaurin core with one head of `terms` terms
    (sized from the largest height when omitted).  The rotation must land
    on the real axis: an imaginary part above 1e-10 max(1, |Z|) raises
    AccuracyError (it is ~2e-12 on find_zeros' grid up to 1e3).  Sign
    changes of the result bracket critical-line zeros.
    """
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(np.isnan(arr)):
        raise DomainError("hardy_Z needs real heights, got NaN")
    if not arr.size:
        return np.zeros(arr.shape)
    if arr.min() < 0.0 or arr.max() > 1e3:
        raise AccuracyError("hardy_Z supports 0 <= t <= 1e3")
    rotated, _ = _hardy_Z_array(arr, terms=terms)
    out = rotated.real
    return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def _head_moments(ts, n_terms):
    """Chebyshev head moments H[b, j] = sum_{n<N} n^{-(1/2 + i ts[b])} T_j(x_n), j < _J.

    N = n_terms, L = log(N - 1) and x_n = 2 log n / L - 1, which runs
    over [-1, 1].  Each row is built from its own head powers through
    _head_sums' buffer, a slice of rows at a time.  _moment_heads
    takes the head at any height c near ts[b] from row b.
    """
    log_n = np.log(np.arange(1, n_terms, dtype=float))
    basis = _chebyshev_table(2.0 * log_n / log_n[-1] - 1.0)
    return _head_sums(0.5 + 1j * np.asarray(ts, dtype=float), log_n, False, basis)[0]


def _expansion_tail(z):
    """A bound on |e^{-izx} - sum_{j<_J} a_j(iz) T_j(x)| over -1 <= x <= 1, for real z.

    e^{-izx} = sum_j a_j(iz) T_j(x) with a_0 = J_0(z), a_j = 2 (-i)^j
    J_j(z), and |T_j| <= 1 on [-1, 1].  With w = |z|/2 < 1 and
    |J_j(z)| <= w^j / j! (DLMF 10.14.4), the omitted orders j >= J
    contribute at most 2 w^J / (J! (1 - w/(J+1))).  Each kept a_j is
    _chebyshev_coeffs' series in k cut at K = _J terms; what it omits,
    2 sum_{k>=K} w^{2k+j} / (k! (k+j)!), summed over j < J, is at most
    2 w^{2K} / (K!^2 (1 - w) (1 - w^2/(K+1)^2)).  The bound is the sum
    of the two; at the refinement's |z| <= 0.18 it is below 2e-30, and
    the zero finder's scan spaces its anchors by it (zeros._anchor_spacing).
    Rounding is not in it.
    """
    w = np.abs(z) / 2.0
    if np.any(w >= 1.0):
        raise AccuracyError("the head moment expansion needs |z| < 2")
    J = K = _J
    omitted_orders = 2.0 * w**J / (math.factorial(J) * (1.0 - w / (J + 1)))
    cut_series = 2.0 * w ** (2 * K) / (math.factorial(K) ** 2 * (1.0 - w) * (1.0 - (w / (K + 1)) ** 2))
    return omitted_orders + cut_series


def _moment_heads(cs, left, moments, n_terms):
    """Heads sum_{n<N} n^{-(1/2 + ic)} at heights cs[b] >= left[b], and a bound on their error.

    moments is _head_moments(left, n_terms).  With z = (c - t_a) L / 2
    (t_a = left[b], L = log(N - 1)), n^{-(1/2 + ic)} = n^{-(1/2 + i t_a)}
    e^{-iz} e^{-iz x_n}, and e^{-izx} = sum_j a_j(iz) T_j(x) is the
    Delta engine's expansion at r = iz (smooth._chebyshev_coeffs), so
    the head is e^{-iz} sum_j a_j(iz) H[b, j]: _J complex multiply-adds
    a height, each row on its own.  As |n^{-(1/2 + i t_a)} e^{-iz}| =
    n^{-1/2}, the expansion's truncation moves a head by at most
    _expansion_tail(z) sum_{n<N} n^{-1/2}, the returned bound.
    """
    z = (cs - left) * (0.5 * math.log(n_terms - 1))
    head = np.exp(-1j * z) * (_chebyshev_coeffs(1j * z) * moments).sum(axis=1)
    root_sum = float(np.sum(np.arange(1, n_terms, dtype=float) ** -0.5))
    return head, _expansion_tail(z) * root_sum


def _hardy_Z_moments(cs, left, moments, n_terms):
    """Hardy's Z at heights cs[b] >= left[b], its heads from the moments of the heights left.

    The Euler-Maclaurin core adds its Bernoulli terms to _moment_heads'
    heads, and its bound takes their truncation bound, so both of
    hardy_Z's checks hold every value.  Returns the real Z and the core's
    bound on its error, which |e^{i theta}| = 1 carries over from zeta.
    """
    head, err = _moment_heads(cs, left, moments, n_terms)
    rotated, bound = _hardy_Z_array(cs, n_terms, heads=[head], head_err=err)
    return rotated.real, bound


def _rs_Z(ts):
    """Riemann-Siegel Z(t) and a bound on its error, for an ndarray of heights >= 200.

    With a = sqrt(t/2pi), N = floor(a) and p = a - N,

        Z(t) = 2 sum_{n<=N} n^{-1/2} cos(theta(t) - t log n)
               + (-1)^{N-1} a^{-1/2} C_0(p) + R(t),

    and Gabcke (1979) proves |R(t)| <= 0.127 a^{-3/2} for t >= 200; a
    lower height raises DomainError.  C_0(p) = cos 2pi(p^2 - p - 1/16)
    / cos 2pi p is 0/0 at p = 1/4 and 3/4; with u = p - 1/4, v = p - 3/4
    it equals sin(2pi uv) / (2 sin(pi u) sin(pi v)) = sinc(2uv) /
    (pi sinc(u) sinc(v)), which has no singularity on 0 <= p < 1.

    The bound adds a rounding allowance to Gabcke's term: each phase is
    within 4 eps (|theta| + t log N) + eps (rs_theta is within 3 eps
    |theta| of mpmath on [200, 1e3]), the sum of N terms adds N eps per
    term, and a^{-1/2} C_0(p) is within 8 eps a.  It is ~1e-10, a
    fraction 1e-8 of the whole.  Returns (values, bounds).

    Heights go a slice at a time, _HEAD_BUF // 4 terms (682 heights of
    12 terms up to t = 1e3): each slice takes its own theta, a, N, C_0,
    cosine sums and bound.  All of it is elementwise work and per-row
    sums, so a value and its bound do not depend on the slicing or on
    the other heights.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(ts >= _RS_MIN_T):
        raise DomainError(f"Gabcke's Riemann-Siegel bound needs t >= {_RS_MIN_T:g}")
    # floor(sqrt(t/2pi)) is monotone in t, so the top height has the most terms
    n = np.arange(1.0, np.floor(np.sqrt(ts.max(initial=0.0) / _TWO_PI)) + 1.0)
    log_n, root_n = np.log(n), n**-0.5
    eps = np.finfo(float).eps
    values, bounds = np.empty(len(ts)), np.empty(len(ts))
    # a slice's few real temporaries of 8 bytes a term take about
    # _head_sums' buffer in bytes
    rows = max(1, _HEAD_BUF // 4 // max(1, len(n)))
    for i in range(0, len(ts), rows):
        t = ts[i : i + rows]
        a = np.sqrt(t / _TWO_PI)
        n_cut = np.floor(a)
        theta = rs_theta(t)
        weights = np.where(n <= n_cut[:, None], root_n, 0.0)
        phase = theta[:, None] - np.multiply.outer(t, log_n)
        main = 2.0 * (weights * np.cos(phase)).sum(axis=1)
        u, v = a - n_cut - 0.25, a - n_cut - 0.75
        c0 = np.sinc(2.0 * u * v) / (math.pi * np.sinc(u) * np.sinc(v))
        sign = np.where(n_cut % 2.0 == 1.0, 1.0, -1.0)  # (-1)^{N-1}
        per_term = 4.0 * (np.abs(theta) + t * np.log(n_cut)) + n_cut + 1.0
        rounding = eps * (2.0 * weights.sum(axis=1) * per_term + 8.0 * a)
        values[i : i + rows] = main + sign * c0 / np.sqrt(a)
        bounds[i : i + rows] = 0.127 * a**-1.5 + rounding
    return values, bounds
