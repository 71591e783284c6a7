"""Nontrivial zeta zeros: location, persistence, and the explicit formula.

Only zeros with gamma > 0 are stored.  Every zero term in the package,
Gamma(rho) exp(L(rho)), comes from one kernel, ZeroSet.gamma_terms, on
the set's one log Gamma(rho) array.  A conjugate-symmetric sum takes
2 Re of each stored zero's term (the explicit formula) or twice its
modulus (W); U_residue's summand is not symmetric, so it asks the
kernel for each conjugate zero explicitly.

Zero-table file format (also what the CLI emits): UTF-8 text, one zero
per line, either "gamma" (beta assumed 1/2) or "beta gamma" separated by
whitespace, gamma strictly ascending, '#' starts a comment line.
"""

import functools
import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, EmptySetError, OrderError, ParseError
from .smooth import DELTA_LIMIT
from .specfun import (
    _RS_MIN_T,
    _auto_terms,
    _expansion_tail,
    _hardy_Z_moments,
    _head_moments,
    _rs_Z,
    hardy_Z,
    loggamma,
)

__all__ = [
    "ZeroSet",
    "load_zeros",
    "save_zeros",
    "builtin_zeros",
    "find_zeros",
    "riemann_vonmangoldt_count",
    "explicit_delta",
]


@dataclass(frozen=True)
class ZeroSet:
    """Ordered zeros rho = beta + i*gamma with gamma > 0.

    `height` is the completeness bound: every zero with 0 < gamma <=
    height is present.  `assume_rh` forces beta = 1/2 exactly.  Betas are
    stored even under RH so synthetic off-line zeros can be injected for
    experiments.
    """

    betas: np.ndarray
    gammas: np.ndarray
    assume_rh: bool = True
    height: float = 0.0

    def __post_init__(self):
        b = np.asarray(self.betas, dtype=float)
        g = np.asarray(self.gammas, dtype=float)
        object.__setattr__(self, "betas", b)
        object.__setattr__(self, "gammas", g)
        if b.shape != g.shape:
            raise DomainError("betas and gammas must have matching shapes")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(g))):
            raise DomainError("betas and gammas must be finite")
        if len(g) and (np.any(g <= 0.0) or np.any(np.diff(g) <= 0.0)):
            raise OrderError("gammas must be positive and strictly ascending")
        if np.any(b <= 0.0) or np.any(b >= 1.0):
            raise DomainError("betas must lie in (0, 1)")
        if self.assume_rh and np.any(b != 0.5):
            raise DomainError("assume_rh requires beta = 1/2 exactly")

    def __len__(self):
        return len(self.gammas)

    # log Gamma over all zeros, once per set: every call of gamma_terms
    # reads the same array, so caching it moves no bit
    @functools.cached_property
    def loggamma_rho(self):
        """log Gamma(rho) per zero, read-only."""
        lg = loggamma(self.betas + 1j * self.gammas)
        lg.flags.writeable = False
        return lg

    def gamma_terms(self, *logs, conjugates=False):
        """Gamma(rho) exp(L_1(rho) + L_2(rho) + ...) per zero rho, 0 where it underflows.

        Each L maps the array of zeros to logs, added to log Gamma(rho) left
        to right.  `conjugates` puts each zero's conjugate right after it.
        """
        rho, expo = self.betas + 1j * self.gammas, self.loggamma_rho
        if conjugates:
            rho, expo = (np.column_stack([v, np.conj(v)]).ravel() for v in (rho, expo))
        for log in logs:
            expo = expo + log(rho)
        return np.where(expo.real <= -745.0, 0.0, np.exp(expo))

    def require_nonempty(self):
        if len(self) == 0:
            raise EmptySetError("operation needs at least one zero")


def load_zeros(path):
    """Read a zero table (format in the module docstring)."""
    betas, gammas = [], []
    explicit_beta = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            try:
                if len(fields) == 1:
                    b, g = 0.5, float(fields[0])
                elif len(fields) == 2:
                    b, g = float(fields[0]), float(fields[1])
                    explicit_beta = True
                else:
                    raise ValueError("expected 1 or 2 columns")
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if gammas and g <= gammas[-1]:
                raise OrderError(f"line {lineno}: gamma {g} not ascending")
            betas.append(b)
            gammas.append(g)
    if not gammas:
        raise EmptySetError(f"no zeros in {path}")
    return ZeroSet(
        betas=np.array(betas),
        gammas=np.array(gammas),
        assume_rh=not explicit_beta,
        height=gammas[-1],
    )


def save_zeros(zeros: ZeroSet, path):
    """Write a zero table in the shared file format (round-trips exactly)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# zeta zeros, gamma ascending, height {float(zeros.height)!r}\n")
        for b, g in zip(zeros.betas, zeros.gammas):
            if zeros.assume_rh:
                fh.write(f"{float(g)!r}\n")
            else:
                fh.write(f"{float(b)!r} {float(g)!r}\n")


def builtin_zeros():
    """The bundled table of the first 100 critical-line zeros.

    Generated by find_zeros() itself and cross-checked against the
    zero-counting formula; see tests/test_zeros.py for the checks.
    """
    ref = importlib.resources.files("smoothed_pnt").joinpath("data/zeros_rh_100.txt")
    with importlib.resources.as_file(ref) as path:
        return load_zeros(path)


def _refine_zeros(a, b, scan_a, scan_b):
    """Shrink every sign-change bracket [a, b] (a < b) of Z to adjacent doubles at once.

    scan_a and scan_b are the sign scan's Z at the ends.  Vectorized
    regula falsi with the Illinois fix in its Anderson-Bjorck form: one Z
    evaluation on the array of secant points per step.  When the new
    point keeps the sign of b, the Z weight of the kept end a is scaled
    by 1 - Z(c)/Z(b) (halved when that is not positive), so both ends
    converge superlinearly.  Each result is the final bracket end with
    the smaller |Z|, which is brentq's rule.

    Every Z here comes from head moments: every bracket's Euler-Maclaurin
    head at its left end a, expanded in the Chebyshev polynomials of
    log n, is built once (specfun._head_moments, the head length the top
    bracket needs), and each Z then takes its head from its bracket's row
    in _J multiply-adds (specfun._hardy_Z_moments), where a direct head
    costs one power per term.  That holds for the ends too, at z = 0 and
    z = step L/2 <= 0.18: an end whose value there disagrees in sign with
    the scan's raises AccuracyError, so no bracket that is not one is
    refined.
    """
    if not len(a):
        return a
    n_terms = _auto_terms(b.max())
    left = a.copy()
    moments = _head_moments(left, n_terms)
    za = _hardy_Z_moments(a, left, moments, n_terms)[0]
    zb = _hardy_Z_moments(b, left, moments, n_terms)[0]
    if np.any(np.sign(za) != np.sign(scan_a)) or np.any(np.sign(zb) != np.sign(scan_b)):
        raise AccuracyError("a bracket end's Z from head moments disagrees in sign with the scan")
    wa = za.copy()  # weighted Z at a; za stays the true value
    for _ in range(100):  # ~10 steps reach adjacent doubles at T = 1e3
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        live = np.nonzero((np.nextafter(lo, hi) < hi) & (zb != 0.0))[0]
        if live.size == 0:
            break
        al, bl, wl, zl = a[live], b[live], wa[live], zb[live]
        lo, hi = lo[live], hi[live]
        c = bl - zl * (bl - al) / (zl - wl)
        # rounding can put the secant point on an end or outside
        c = np.clip(c, np.nextafter(lo, hi), np.nextafter(hi, lo))
        zc = _hardy_Z_moments(c, left[live], moments[live], n_terms)[0]
        flip = np.sign(zc) != np.sign(zl)
        scale = 1.0 - zc / zl
        scale = np.where(scale > 0.0, scale, 0.5)
        # a sign change between b and c: b becomes the kept end a
        a[live] = np.where(flip, bl, al)
        za[live] = np.where(flip, zl, za[live])
        wa[live] = np.where(flip, zl, scale * wl)
        b[live], zb[live] = c, zc
    return np.where(np.abs(za) < np.abs(zb), a, b)


def _anchor_spacing(n_terms, step):
    """Grid steps g between the anchor rows of _moment_scan's head moments.

    A height k steps above its anchor takes its head at z = k step L/2
    (L = log(N - 1), N = n_terms), where the expansion's truncation
    moves it by at most _expansion_tail(z) sum_{n<N} n^{-1/2}.  g is the
    widest spacing whose farthest height, k = g - 1, keeps that within
    1e-18, the size below which the Euler-Maclaurin core stops taking
    Bernoulli terms.  Below t = 200 at step 0.05 (N = 269) g = 6: z <=
    0.70 and a bound of 1.5e-19, where g = 7 would give 2.8e-18.
    """
    dz = step * 0.5 * math.log(n_terms - 1)
    root_sum = float(np.sum(np.arange(1, n_terms, dtype=float) ** -0.5))
    g = 1
    while _expansion_tail(g * dz) * root_sum <= 1e-18:
        g += 1
    return g


def _moment_scan(ts, step):
    """Z at ascending grid heights ts, step apart, and the core's bounds on it, from head moments.

    One head length N serves every height: the one the top height needs.
    Every g-th height (g = _anchor_spacing(N, step)) anchors one row of
    head moments (specfun._head_moments), and each height takes its head
    from the row of the anchor at or below it: one head of powers per g
    heights, where a direct head costs one per height.
    """
    n_terms = _auto_terms(ts[-1])
    g = _anchor_spacing(n_terms, step)
    anchors = ts[::g]
    moments = _head_moments(anchors, n_terms)
    zs, bounds = np.empty(len(ts)), np.empty(len(ts))
    for k in range(g):  # the heights k steps above their anchors
        n = len(ts[k::g])
        zs[k::g], bounds[k::g] = _hardy_Z_moments(ts[k::g], anchors[:n], moments[:n], n_terms)
    return zs, bounds


def find_zeros(T, step=0.05):
    """All critical-line zeros with gamma <= T via sign changes of Z.

    Z is sampled on a grid of the given step (contract: 0 < step <= 0.05)
    and all sign changes are refined together by regula falsi until each
    bracket holds no double inside, so a zero is as accurate as the
    computed Z allows (~1e-13 here).  Supported for 10 <= T <= 1e3; at
    these heights consecutive zeros are separated by far more than the
    grid step, so no pair can hide in one cell.

    The scan needs only the sign of Z.  Below t = 200 it comes from
    Euler-Maclaurin with heads from sub-interval moments (_moment_scan):
    one anchor row every g grid steps, g derived from the expansion's
    truncation bound (g = 6 at step 0.05).  From t = 200 up it comes
    from Riemann-Siegel (at most 12 cosines a height), wherever its
    Gabcke bound (~3e-3 to 1e-2) is below |Z|; the heights it cannot
    certify (41 of 16,001 at T = 1e3) go through hardy_Z, whose direct
    heads are the only ones left.

    Refinement (_refine_zeros) reads Z at both ends of every bracket and
    at every secant point from one row of head moments per bracket: the
    Delta engine's expansion of e^{-rx}, here at an imaginary r, so one
    expansion serves both sides of the package.  Each bracket's moments
    cost one head of powers, built once, and each Z then costs _J
    multiply-adds where a direct head costs 1,309 powers.  Zeros come out
    within 5.7e-13 of mpmath's.

    The moments and the direct heads sum their head powers a slice of
    heights at a time through one 1 MiB buffer, so the working set does
    not grow with the batch.
    """
    if not (10.0 <= T <= 1e3):
        raise DomainError("find_zeros supports 10 <= T <= 1e3")
    if not (0.0 < step <= 0.05):
        raise DomainError("grid step must satisfy 0 < step <= 0.05")
    ts = np.append(np.arange(1.0, T, step), T)
    zs = np.empty_like(ts)
    high = ts >= _RS_MIN_T
    zs[~high] = _moment_scan(ts[~high], step)[0]
    z_rs, bound = _rs_Z(ts[high])
    uncertified = np.abs(z_rs) <= bound
    z_rs[uncertified] = hardy_Z(ts[high][uncertified])
    zs[high] = z_rs
    cell = np.nonzero(np.sign(zs[:-1]) * np.sign(zs[1:]) < 0)[0]
    roots = _refine_zeros(ts[cell], ts[cell + 1], zs[cell], zs[cell + 1])
    gam = np.sort(roots[roots <= T])
    return ZeroSet(
        betas=np.full(len(gam), 0.5),
        gammas=gam,
        assume_rh=True,
        height=float(T),
    )


def riemann_vonmangoldt_count(T):
    """Main term of the zero count up to height T: (T/2pi) log(T/2pi e) + 7/8."""
    if not (0 < T < math.inf):
        raise DomainError("T must be positive and finite")
    return T / (2 * math.pi) * math.log(T / (2 * math.pi * math.e)) + 7.0 / 8.0


def _zero_sum_terms(zeros: ZeroSet, log_x):
    """2 Re(Gamma(rho) x^rho) per stored zero."""
    return 2.0 * zeros.gamma_terms(lambda rho: rho * log_x).real


def explicit_delta(x, zeros: ZeroSet, constant_mode="derived"):
    """Explicit-formula prediction for Delta(x).

    -sum_{0<gamma<=height} 2 Re(Gamma(rho) x^rho) + C, the doubled real
    part standing in for the conjugate zeros.  constant_mode selects C:
    "derived" uses 1/2 - log 2pi (what direct summation certifies),
    "paper" uses -log 2pi (the widely quoted display, kept available as a
    negative control; it is off by exactly 1/2).

    Only the Mellin residues at s = 1, s = 0 and the nontrivial zeros are
    kept, so with C "derived" and a complete zero table

        Delta(x) - explicit_delta(x) = c1/x + c2(x)/x^2 + O(x^-3),

    c1 = zeta'/zeta(-1) - 1/12 = 12 log A - 1 - 1/12 ~ 1.9017 (A is
    Glaisher's constant): zeta'/zeta(-1)/x is the residue of
    Gamma(s) x^s (-zeta'/zeta(s)) at the Gamma pole s = -1, and -1/(12x)
    is the matching term of the baseline I(x) = x - 1/2 + 1/(12x) - ...;
    c2(x) = -(log(2 pi x) - zeta'/zeta(3))/2 is the residue at the double
    pole s = -2 (Gamma pole and trivial zero).  I has no x^-2 term.
    """
    zeros.require_nonempty()
    if not (1.0 <= x < math.inf):
        raise DomainError("x must be finite and >= 1")
    if constant_mode == "derived":
        const = DELTA_LIMIT
    elif constant_mode == "paper":
        const = -math.log(2.0 * math.pi)
    else:
        raise DomainError(f"unknown constant_mode {constant_mode!r}")
    return const - float(np.sum(_zero_sum_terms(zeros, math.log(x))))
