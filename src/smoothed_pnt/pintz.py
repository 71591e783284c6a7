"""Analytic lower-bound machinery: the Mellin transform H(s), the Gaussian
line-integral identity, the smoothing integral U(mu) in both of its
representations, and a numerical verifier for the Turan power-sum bound.

The two U representations form the main cross-check.  U_integral works
purely from the sieved table (the u-side), U_residue purely from a zero
set (the s-side: ZeroSet.gamma_terms over the zeros and their conjugates,
and no term at s = 1, where H is regular); neither sees the other's data.
U_residue omits the shifted-contour remainder and attaches the crude
envelope e^{-mu + 9k/4} as reported uncertainty; at the parameter scales
used here the actual remainder is orders of magnitude smaller (the Gamma
factor on the shifted line decays like e^{-pi Im /2}): honest but loose.

The Turan bound verified here is  max_{a<=t<=a+b} |sum_j e^{alpha_j t}|
>= (b / (8e(a+b)))^n.  The denominator of this bound is frequently
misprinted as 8e(a + b/b), which is dimensionally incoherent; the form
used here is the standard one, and the verifier makes it falsifiable.
turan_bounds verifies a batch of instances: a grid scan per instance,
then one vectorized golden-section search (metrics._golden_section, the
package's one 1-D minimizer) for all instances with the same number of
exponents.  Each row is bitwise what its instance gives alone, and
turan_bound is the batch of one.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CapacityError,
    DomainError,
    NormalizationError,
    RangeError,
    ToleranceError,
)
from .metrics import _golden_section
from .sieve import LambdaBuffer, LambdaTable
from .smooth import (
    _INT64_MAX,
    _NO_ROWS,
    DELTA_LIMIT,
    _blocked_exp_sum,
    _psi_many,
    delta_many,
    smooth_baseline,
)
from .specfun import gamma_complex, zeta_em, zeta_logderiv
from .zeros import ZeroSet

__all__ = [
    "PintzParams",
    "mellin_H_closed",
    "mellin_H_quadrature",
    "gaussian_line_check",
    "U_window",
    "U_integral",
    "U_residue",
    "turan_bound",
    "turan_bounds",
    "QuadResult",
]


@dataclass(frozen=True)
class PintzParams:
    """Free parameters of the smoothing integral: center, width, reference zero."""

    mu: float
    k: float
    rho0: complex

    def __post_init__(self):
        if not (0.0 < self.k < math.inf):
            raise DomainError("k must be positive and finite")
        if not math.isfinite(self.mu):
            raise DomainError("mu must be finite")
        r = complex(self.rho0)
        if not (0.0 < r.real < 1.0) or r.imag <= 0.0:
            raise DomainError("rho0 must satisfy 0 < Re < 1 and Im > 0")
        object.__setattr__(self, "rho0", r)


# Gauss-Legendre nodes and weights on [-1, 1] for the two orders used,
# as literals (QUADPACK keeps its rules the same way).  The last bit of
# each weight matters: U_integral's cancellation turns a 1e-15 change in
# the weights into ~5e-8 relative in U, so the tables are pinned here
# rather than recomputed (numpy's leggauss differs by up to 1.8e-15).
_GAUSS_LEGENDRE = {
    10: (
        np.array([
            -0.9739065285171717, -0.8650633666889844, -0.6794095682990244,
            -0.4333953941292472, -0.14887433898163116, 0.14887433898163116,
            0.4333953941292472, 0.6794095682990244, 0.8650633666889844,
            0.9739065285171717,
        ]),
        np.array([
            0.06667134430868714, 0.14945134915058053, 0.21908636251598224,
            0.26926671930999674, 0.2955242247147533, 0.2955242247147533,
            0.26926671930999674, 0.21908636251598224, 0.14945134915058053,
            0.06667134430868714,
        ]),
    ),
    12: (
        np.array([
            -0.9815606342467192, -0.9041172563704749, -0.7699026741943047,
            -0.5873179542866175, -0.36783149899818013, -0.12523340851146897,
            0.12523340851146897, 0.36783149899818013, 0.5873179542866175,
            0.7699026741943047, 0.9041172563704749, 0.9815606342467192,
        ]),
        np.array([
            0.04717533638651319, 0.10693932599531782, 0.16007832854334608,
            0.20316742672306573, 0.2334925365383547, 0.2491470458134026,
            0.2491470458134026, 0.2334925365383547, 0.20316742672306573,
            0.16007832854334608, 0.10693932599531782, 0.04717533638651319,
        ]),
    ),
}


def _gl_nodes(edges, m):
    """Nodes and weights of the m-point Gauss-Legendre rule on each panel between edges."""
    xg, wg = _GAUSS_LEGENDRE[m]
    mids = 0.5 * (edges[:-1] + edges[1:])
    rads = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + rads[:, None] * xg[None, :]).ravel()
    weights = (rads[:, None] * wg[None, :]).ravel()
    return nodes, weights


class QuadResult(NamedTuple):
    value: complex
    error: float


def mellin_H_closed(s):
    """H(s) = s Gamma(s) (zeta'/zeta(s) + zeta(s)), the closed form (Re s > 1)."""
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("closed form requires Re s > 1")
    return s * gamma_complex(s) * (zeta_logderiv(s) + zeta_em(s))


def _loose_cutoff(u, eps):
    """Direct tail bound for sum_{n>M} log(n) e^{-n/u}: first-term/(1-ratio) style."""
    u = max(u, 1.0)
    m = u * max(5.0, math.log(2.4 * u * 20.0 / eps))
    for _ in range(40):
        m_new = u * math.log(2.4 * u * (math.log(m) + 1.0) / eps)
        if abs(m_new - m) < 1.0:
            break
        m = m_new
    return int(m) + 1


def _clamped_cutoff(u, eps, limit):
    """_loose_cutoff(u, eps), clamped to the table's limit without notice."""
    return min(_loose_cutoff(u, eps), limit)


def _delta_point(held, u, eps, prior):
    """(Delta(u), rows) to absolute accuracy ~eps by the cheap tail rule (not the certified one).

    The sum runs to _clamped_cutoff(u, eps, held.limit) and is read by
    smooth._blocked_exp_sum from held, a sieve.LambdaBuffer, which is
    filled that far first.  rows are that sum's block row sums; prior,
    those of an earlier call at the same u (_NO_ROWS for none), spares
    its GEMV the rows it already holds, at the same bits at one BLAS
    thread.  The clamp is silent: where the table is shorter than
    _loose_cutoff(u, eps), Delta is read only as far as the table
    reaches, not to eps.  U_window sizes the table for 1e-5 at the
    window's top, so U_integral's tail envelope probes, which ask for
    1e-7, read a shorter table than they ask for near that top; the
    probes past held.reach take the same clamp in U_integral before
    their _psi_many pass.
    """
    if u < 0.004:
        return 0.0, _NO_ROWS
    cutoff = _clamped_cutoff(u, eps, held.limit)
    psi, rows = _blocked_exp_sum(held.upto(cutoff), u, prior)
    return psi - smooth_baseline(u), rows


def mellin_H_quadrature(table: LambdaTable, s, upper=2000.0):
    """H(s) from its integral form: -s * integral of Delta(u) u^{-s-1} du.

    Composite Gauss-Legendre in log u on [0.02, upper]; the omitted head
    is doubly-exponentially small and the tail beyond `upper` is bounded
    with the trivial |Delta| envelope and folded into the reported error.
    The error estimate compares against the rule on panels joined in
    pairs.  Delta at the nodes of both rules and at `upper` comes from
    one delta_many call at tol 1e-10, so a table too short for `upper`
    raises CapacityError.  Requires a finite s with Re s >= 2 and upper
    >= 1e3; raises ToleranceError when the estimate exceeds 1e-4.
    """
    s = complex(s)
    if not (2.0 <= s.real < math.inf):
        raise DomainError("quadrature form requires a finite Re s >= 2")
    if not math.isfinite(s.imag):
        raise DomainError("quadrature form requires a finite Im s")
    if not (1e3 <= upper < math.inf):
        raise DomainError("upper must be finite and at least 1e3")
    u_min = 0.02
    node_eps = 1e-10
    h = 0.5 / max(abs(s.imag), 1.0)
    v_lo, v_hi = math.log(u_min), math.log(upper)
    n_panels = int(math.ceil((v_hi - v_lo) / h))
    edges = np.linspace(v_lo, v_hi, n_panels + 1)
    v_fine, w_fine = _gl_nodes(edges, 10)
    v_coarse, w_coarse = _gl_nodes(np.append(edges[:-1:2], edges[-1]), 10)
    vs = np.concatenate([v_fine, v_coarse])
    d = delta_many(table, np.append(np.exp(vs), upper), tol=node_eps).delta
    terms = d[:-1] * np.exp(-s * vs)
    fine = -s * np.dot(w_fine, terms[: len(v_fine)])
    coarse = -s * np.dot(w_coarse, terms[len(v_fine) :])
    d_upper = abs(d[-1])
    tail = max(2.0, 1.5 * d_upper) * abs(s) * upper ** (-s.real) / s.real
    head = 3.0 * math.exp(-1.0 / u_min) * abs(s) * u_min ** (-s.real)
    est = abs(fine - coarse) + tail + head + node_eps * abs(s) * 60.0
    if est > 1e-4:
        raise ToleranceError(f"H quadrature error estimate {est:.2e} > 1e-4")
    return QuadResult(value=complex(fine), error=float(est))


def gaussian_line_check(kk, w, height=None):
    """Quadrature vs closed form for (1/2pi i) int exp(kk s^2 + w s) ds.

    The closed form is exp(-w^2/(4 kk)) / (2 sqrt(pi kk)).  The vertical
    line defaults to Re s = 2; when evaluating there would demand more
    cancellation than binary64 carries (the integrand modulus exceeds
    the answer by e^{kk(2 + w/2kk)^2}), the line is shifted toward the
    saddle at -w/(2 kk), offset by 2/sqrt(kk) so the quadrature still
    exercises genuine oscillation.  Any vertical line gives the same
    integral; the shift is pure conditioning.
    """
    if not (0.0 < kk < math.inf and math.isfinite(w)):
        raise DomainError("kk must be positive, and kk and w finite")
    sigma = 2.0
    if kk * (sigma + w / (2.0 * kk)) ** 2 > 8.0:
        sigma = -w / (2.0 * kk) + 2.0 / math.sqrt(kk)
    omega = abs(2.0 * kk * sigma + w)
    if height is None:
        height = 10.0 / math.sqrt(kk) + (abs(w) / kk if sigma == 2.0 else 0.0) + 2.0
    h = 0.5 / max(omega, math.sqrt(kk), 1.0)
    n_panels = int(math.ceil(2.0 * height / h))
    t, weights = _gl_nodes(np.linspace(-height, height, n_panels + 1), 12)
    s = sigma + 1j * t
    vals = np.exp(kk * s * s + w * s)
    quad = complex(np.sum(weights * vals) / (2.0 * math.pi))
    arg = -w * w / (4.0 * kk)
    closed = complex(math.exp(arg) / (2.0 * math.sqrt(math.pi * kk)) if arg > -745 else 0.0)
    scale = max(abs(closed), 1e-300)
    if abs(quad.real - closed.real) > 1e-10 * scale or abs(quad.imag) > 1e-12 * max(
        1.0, scale
    ):
        raise ToleranceError(
            f"gaussian line check failed: quad={quad!r} closed={closed!r}"
        )
    return quad, closed


def _g_weight(u, p: PintzParams):
    """g(u) = u^{-rho0} exp(-(mu - log u)^2 / 4k); accepts scalars or arrays."""
    lu = np.log(u)
    return np.exp(-p.rho0 * lu - (p.mu - lu) ** 2 / (4.0 * p.k))


def _g_prime_times_u(u, p: PintzParams):
    """u * g'(u) = u^{-rho0} e^{-(mu-log u)^2/4k} (-rho0 + (mu - log u)/2k)."""
    return _g_weight(u, p) * (-p.rho0 + (p.mu - np.log(u)) / (2.0 * p.k))


def U_window(p: PintzParams, tol):
    """U_integral's window half-width in log u, and the table limit its nodes reach.

    The window is [e^{mu-width}, e^{mu+width}] with width = 6 sqrt(k
    log(1/tol)); Delta at its top is read to 1e-5 under the loose tail.
    RangeError when the top or the limit leaves the binary64 or int64 range.
    """
    if not (0.0 < tol < 1.0):
        raise DomainError("tol must lie in (0, 1)")
    width = 6.0 * math.sqrt(p.k * math.log(1.0 / tol))
    try:
        limit = _loose_cutoff(math.exp(p.mu + width), 1e-5)
    except OverflowError:
        limit = math.inf
    if limit > _INT64_MAX:
        raise RangeError(f"mu + width = {p.mu + width:g}: the window's limit exceeds int64")
    return width, limit


def U_integral(table, p: PintzParams, tol=0.1, panel_scale=1.0):
    """The smoothing integral from the u-side:

        U = (1/(2 sqrt(pi k))) * int Delta(u) d/du[u^{-rho0} e^{-(mu-log u)^2/4k}] du

    over the window of U_window(p, tol).

    The smooth limit constant of Delta is split off and integrated in
    closed form (the integrand is an exact derivative, so this is an
    identity, not an approximation; it only reduces the cancellation the
    quadrature has to resolve).  The oscillatory remainder is integrated
    by adaptive Gauss-Legendre panels in log u, which stop once panel
    contributions fall below the running tolerance; what remains of the
    window is covered by an empirical envelope bound from probe
    evaluations, reported inside `error` together with head/tail bounds.

    The march runs twice over the same nodes when the first (pilot) pass
    at node_eps 1e-8 shows that the tolerance needs a finer one.  Each
    pilot node keeps its block row sums (smooth._blocked_exp_sum), and the
    refined pass at that node computes only the rows past them; every
    other step of a node's Delta is as without them, so at one BLAS
    thread U has the same bits.  The pilot's rows are dropped as the
    refined pass reads them, and the rest once it ends.

    The table is read only through `limit` and `tiles()`, as the Delta
    engine reads it, so a sieve.LambdaStream serves: the march's nodes
    read a sieve.LambdaBuffer, filled only as far as their largest
    cutoff; the probes inside its reach read it too, and the rest take one
    _psi_many pass at the same clamped cutoffs, rounded up to whole
    blocks, over the buffer's tiles, so no tile is sieved twice.  That
    pass frees the held tiles once it has read them, before it sieves
    the rest.  CapacityError comes before any tile is sieved.
    """
    width, limit = U_window(p, tol)
    b = math.exp(p.mu + width)
    pref = 1.0 / (2.0 * math.sqrt(math.pi * p.k))
    if limit > table.limit:
        raise CapacityError(
            f"window reaches u = {b:.3g}, beyond table limit {table.limit}"
        )
    held = LambdaBuffer(table)
    gamma0 = abs(p.rho0.imag)
    h = min(0.7 / max(gamma0, 1.0), 0.25 * math.sqrt(p.k)) * panel_scale
    xg, wg = _GAUSS_LEGENDRE[12]
    # march a little below the nominal window: the integrand there is
    # doubly-exponentially small and cheap, and it shrinks the head bound
    y_lo = max(math.log(0.004) - p.mu, -width - 8.0)

    def run(node_eps, prior, rows):
        # prior: an earlier pass's block row sums, one entry per node in
        # march order, each dropped once read; this pass's go to rows
        total = 0j
        weight_mass = 0.0
        y_stop = width
        small_run = 0
        y = y_lo
        while y < width - 1e-12:
            yb = min(y + h, width)
            mid, rad = 0.5 * (y + yb), 0.5 * (yb - y)
            panel = 0j
            for xx, ww in zip(xg, wg):
                u = math.exp(p.mu + mid + rad * xx)
                d, r = _delta_point(held, u, node_eps, prior.popleft() if prior else _NO_ROWS)
                rows.append(r)
                d -= DELTA_LIMIT
                gw = _g_prime_times_u(u, p)
                panel += ww * rad * d * gw
                weight_mass += ww * rad * abs(gw)
            total += panel
            y = yb
            if y > 0.0 and abs(panel) < tol * max(abs(total), 1e-300) / 50.0:
                small_run += 1
                if small_run >= 4:
                    y_stop = y
                    break
            else:
                small_run = 0
        return total, weight_mass, y_stop

    # the refined pass marches the pilot's nodes, so it computes only the
    # block rows past the pilot's; its own rows are not kept (maxlen 0)
    node_eps = 1e-8
    pilot_rows = deque()
    total, weight_mass, y_stop = run(node_eps, deque(), pilot_rows)
    refined = max(1e-13, tol * abs(total) / max(30.0 * weight_mass, 1.0))
    if refined < node_eps:
        node_eps = refined
        total, weight_mass, y_stop = run(node_eps, pilot_rows, deque(maxlen=0))
    del pilot_rows
    # the constant's share over the full half line is exactly zero
    # (int c g' du = c [g] with g vanishing at both ends), so splitting it
    # off leaves one exact boundary term at the start of the march; the
    # far end is inside the envelope bound below since Delta - c decays
    const_term = -DELTA_LIMIT * _g_weight(math.exp(p.mu + y_lo), p)
    # tail envelope for the skipped [y_stop, width] from probe evaluations
    tail_bound = 0.0
    if y_stop < width - 1e-9:
        u_stop = math.exp(p.mu + y_stop)
        probes = np.geomspace(u_stop, b, 6)
        # probes the march's buffer reaches read it as the march does;
        # the rest share one pass over its held tiles and then the rest of
        # its stream, at the same clamped cutoffs
        cutoffs = np.array([_clamped_cutoff(u, 1e-7, table.limit) for u in probes])
        far = cutoffs > held.reach
        d = np.empty(len(probes))
        d[~far] = [_delta_point(held, u, 1e-7, _NO_ROWS)[0] for u in probes[~far]]
        psi = _psi_many(held.tiles(), probes[far], cutoffs[far])
        d[far] = psi - [smooth_baseline(u) for u in probes[far]]
        env = float(np.max(np.abs(d - DELTA_LIMIT)))
        # cover the skipped stretch plus the beyond-window residue of the
        # Gaussian weight (the envelope is taken non-increasing past b)
        ys = np.linspace(y_stop, width + 6.0, 240)
        us = np.exp(p.mu + ys)
        wts = np.abs(_g_prime_times_u(us, p))
        tail_bound = 3.0 * env * float(np.trapezoid(wts, ys))
    u_head = math.exp(p.mu + y_lo)
    head_bound = 3.0 * math.exp(-1.0 / u_head) * abs(_g_prime_times_u(u_head, p))
    err = pref * (node_eps * weight_mass + tail_bound + head_bound)
    err += tol * abs(pref * (total + const_term)) * 0.1  # quadrature share
    value = pref * (total + const_term)
    if err > tol * max(abs(value), 1e-300) + 1e-12:
        raise ToleranceError(
            f"U_integral error estimate {err:.2e} exceeds tol*|U| + 1e-12"
        )
    return QuadResult(value=complex(value), error=float(err))


def U_residue(zeros: ZeroSet, p: PintzParams):
    """The smoothing integral from the s-side: the sum over the zeros.

    Gamma(rho) rho exp(k(rho-rho0)^2 + mu(rho-rho0)) over every zero rho
    and its conjugate (entered explicitly: rho0 in the upper half plane
    breaks the symmetry).  H(s) has no pole at s = 1, where zeta'/zeta's
    residue -1 cancels zeta's +1 and H(1) = 2 gamma_E.  The shifted-contour
    remainder is not computed; the envelope e^{-mu + 9k/4} ships as `error`.
    """
    zeros.require_nonempty()
    k_term, mu_term = (lambda rho: p.k * (rho - p.rho0) ** 2), (lambda rho: p.mu * (rho - p.rho0))
    terms = zeros.gamma_terms(np.log, k_term, mu_term, conjugates=True)
    remainder = math.exp(min(709.0, -p.mu + 2.25 * p.k))
    return QuadResult(value=complex(np.sum(terms)), error=float(remainder))


def _turan_grid(alphas, a, b):
    """|sum_j e^{alpha_j t}| at the 10,000 points t_j = a + j*b/9999, j = 0..9999.

    With h = b/9999, B = 100 and j = qB + m, the exponential splits as
    e^{alpha (a + qBh)} * e^{alpha mh}: two n x B tables of exps and one
    complex GEMM give every sample, 2Bn exps instead of B^2 n.  Each
    point is a + qBh + mh in exact arithmetic, so it lands within a few
    ulp of a + jh; the last one stands in for a + b.
    """
    block = 100
    steps = np.arange(block)
    h = b / (block * block - 1)
    coarse = np.exp(np.outer(alphas, a + (block * h) * steps))
    fine = np.exp(np.outer(alphas, h * steps))
    return np.abs((coarse.T @ fine).reshape(-1))


def _turan_args(alphas, a, b):
    """turan_bound's argument checks; alphas as a complex array."""
    alphas = np.asarray(alphas, dtype=complex)
    if not (1 <= len(alphas) <= 32):
        raise DomainError("need 1 to 32 exponents")
    if not (0.0 < a <= 100.0 and 0.0 < b <= 100.0):
        raise DomainError("a, b must lie in (0, 100]")
    re = alphas.real
    if abs(re.max()) > 1e-12 or abs(re[0]) > 1e-12:
        raise NormalizationError(
            "max Re(alpha) must be 0 and attained by the first exponent"
        )
    return alphas, a, b


_TURAN_LAST = 9_999  # index of the scan's last point, t = a + b


def _turan_points(j, a, b):
    """t_j of np.linspace(a, a + b, 10_000), by its own arithmetic, per lane.

    linspace forms step = ((a + b) - a) / 9999 and t_j = j * step + a,
    and puts a + b itself last.  (Where the step underflows to 0 it
    forms (j / 9999) * ((a + b) - a) + a instead; that needs a + b below
    1e-303, where every sample of the scan is the same and none is
    refined.)
    """
    stop = a + b
    t = j * ((stop - a) / _TURAN_LAST) + a
    return np.where(j == _TURAN_LAST, stop, t)


def turan_bound(alphas, a, b):
    """Grid maximum of |sum_j e^{alpha_j t}| on [a, a+b] against the power-sum bound.

    Returns (grid_max, bound) with bound = (b/(8e(a+b)))^n.  The grid max
    is a lower bound on the true maximum, so the verified contract is
    grid_max >= 0.99 * bound.  Callers must normalize: max Re alpha_j = 0,
    attained by the first entry.  This is turan_bounds on one instance.
    """
    grid_max, bound = turan_bounds([(alphas, a, b)])
    return float(grid_max[0]), float(bound[0])


def turan_bounds(instances):
    """turan_bound for each (alphas, a, b) of instances: arrays (grid_max, bound).

    Every instance is checked, in order, before any is scanned, so the
    first bad one raises turan_bound's error.  Each row is bitwise the
    one a search of its instance alone gives, whatever the batch.

    Each instance's scan samples t_j = a + j*b/9999, each point within a
    few ulp, through _turan_grid's block split: 200n exps and one GEMM
    instead of 10,000n exps.  Each sample differs from the direct sum at
    np.linspace(a, a + b, 10_000) by at most
    8 * eps * n * (1 + max|alpha| (a+b)), the exponent's rounding carried
    through exp (tests/test_pintz.py checks it; 3.2 in place of 8 is the
    worst measured).  A grid stays per instance: stacking a group's exps
    into one batched matmul gave the same bits but ran about 25% slower.

    The linspace points around each argmax bracket it; unless that is an
    endpoint, a golden-section search on the direct sum refines it.  The
    instances of each n share one vectorized search (metrics.
    _golden_section) whose objective takes |sum| by np.hypot: np.abs's
    SIMD loop differs in the last bit from the scalar abs() for about a
    third of complex values, hypot matches it.  The bound is a Python
    float power per instance for the same reason: np.power's SIMD loop
    differs from the C pow in the last bit.
    """
    checked = [_turan_args(alphas, a, b) for alphas, a, b in instances]
    grid_max = np.empty(len(checked))
    peak = np.empty(len(checked), dtype=np.intp)
    for k, (alphas, a, b) in enumerate(checked):
        vals = _turan_grid(alphas, a, b)
        peak[k] = np.argmax(vals)
        grid_max[k] = vals[peak[k]]
    a = np.array([inst[1] for inst in checked], dtype=float)
    b = np.array([inst[2] for inst in checked], dtype=float)
    n = np.array([len(inst[0]) for inst in checked])
    lo = _turan_points(np.maximum(peak - 1, 0), a, b)
    mid = _turan_points(peak, a, b)
    hi = _turan_points(np.minimum(peak + 1, _TURAN_LAST), a, b)
    refine = (lo < mid) & (mid < hi)
    for size in sorted(set(n[refine].tolist())):
        rows = np.flatnonzero(refine & (n == size))
        exps = np.array([checked[k][0] for k in rows])

        def neg_abs(t):
            s = np.exp(exps * t[:, None]).sum(axis=1)
            return -np.hypot(s.real, s.imag)

        # xtol sqrt(machine epsilon), relative
        _, fx, dip = _golden_section(neg_abs, lo[rows], mid[rows], hi[rows], xtol=2.0**-26)
        best = -fx
        grid_max[rows] = np.where(dip & (best > grid_max[rows]), best, grid_max[rows])
    ratio = b / (8.0 * math.e * (a + b))
    bound = np.array([r**k for r, k in zip(ratio.tolist(), n.tolist())])
    return grid_max, bound
