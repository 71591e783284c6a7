"""The deviation-metric family: W, omega, omega_eta, varpi, and log ratios.

W(x) bounds the zero-sum contribution, S(x) and D(x) (from .smooth) the
actual deviation, and the omega transforms put everything on the same
logarithmic yardstick.  One caveat belongs up front: at desk scale W(x)
is NOT above S(x).  The comparison only kicks in once the first-zero
term c*sqrt(x) with c = 2|Gamma(rho_1 + 1)|/gamma_1 ~ 1.1e-9 absorbs the
constant log 2pi, i.e. for x beyond roughly 1e18.  Nothing here asserts
W >= S and no test should.

Zero-free-region profiles eta(u) come in three kinds: a constant, the
classical shape c / max(log(u + e), 1), or a tabulated staircase.  The
height argument passed to eta is a convention choice (height t versus
log-height log t); both appear in the literature and both are supported,
explicitly, by the `convention` argument of eta_from_zeros.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, ParseError, RangeError
from .smooth import _distinct, delta_many, hybrid_grid, trapezoid_mean
from .zeros import ZeroSet

__all__ = [
    "EtaFunction",
    "load_eta",
    "eta_from_zeros",
    "MetricsRow",
    "metrics_row",
    "metrics_rows",
    "zero_sum_W",
    "omega_zero",
    "omega_eta",
    "varpi",
    "omega_from_value",
    "Minimum",
]


@dataclass(frozen=True)
class EtaFunction:
    """A non-increasing zero-free-region profile valued in (0, 1/2]."""

    kind: str
    c: float = 0.5
    table: Optional[tuple] = None  # (u array, eta array) for kind="tabulated"

    def __post_init__(self):
        if self.kind not in ("constant", "classical", "tabulated"):
            raise DomainError(f"unknown eta kind {self.kind!r}")
        if self.kind in ("constant", "classical"):
            if not (0.0 < self.c <= 0.5):
                raise DomainError("eta parameter must lie in (0, 1/2]")
        else:
            us, vs = self.table
            us = np.asarray(us, dtype=float)
            vs = np.asarray(vs, dtype=float)
            if us.shape != vs.shape or us.ndim != 1:
                raise DomainError("tabulated eta needs one value per u")
            if not (np.all(np.isfinite(us)) and np.all(np.isfinite(vs))):
                raise DomainError("tabulated eta needs finite u and values")
            if len(us) == 0 or np.any(np.diff(us) <= 0.0):
                raise DomainError("tabulated eta needs strictly ascending u")
            if np.any(vs <= 0.0) or np.any(vs > 0.5):
                raise DomainError("tabulated eta values must lie in (0, 1/2]")
            if np.any(np.diff(vs) > 0.0):
                raise DomainError("tabulated eta must be non-increasing")
            object.__setattr__(self, "table", (us, vs))

    @classmethod
    def constant(cls, c):
        return cls(kind="constant", c=c)

    @classmethod
    def classical(cls, c):
        return cls(kind="classical", c=c)

    @classmethod
    def tabulated(cls, us, values):
        return cls(kind="tabulated", table=(us, values))

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        if self.kind == "constant":
            out = np.full(u.shape, self.c)
        elif self.kind == "classical":
            out = np.clip(self.c / np.maximum(np.log(u + math.e), 1.0), None, 0.5)
        else:
            us, vs = self.table
            # step interpolation, held constant beyond the ends
            idx = np.clip(np.searchsorted(us, u, side="right") - 1, 0, len(us) - 1)
            out = vs[idx]
        return float(out) if out.ndim == 0 else out


def load_eta(path):
    """Tabulated eta from a text file of "u value" pairs ('#' comments)."""
    us, vs = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ParseError("expected 'u value'", line=lineno)
            try:
                us.append(float(fields[0]))
                vs.append(float(fields[1]))
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
    if not us:
        raise ParseError(f"no entries in {path}")
    return EtaFunction.tabulated(np.array(us), np.array(vs))


def eta_from_zeros(zeros: ZeroSet, convention="height"):
    """Largest staircase profile consistent with a zero set.

    eta(u) = min(1/2, min of delta_j over zeros with argument <= u) where
    the argument is gamma_j ("height") or log gamma_j ("log-height").
    By construction eta(arg_j) <= delta_j for every zero, so the region
    sigma > 1 - eta(...) really is zero-free for this set.
    """
    zeros.require_nonempty()
    if convention == "height":
        args = zeros.gammas
    elif convention == "log-height":
        args = np.log(zeros.gammas)
    else:
        raise DomainError(f"unknown convention {convention!r}")
    deltas = 1.0 - zeros.betas
    order = np.argsort(args)
    us, vs = [], []
    running = 0.5
    # a leading segment at 1/2 so eta is defined from u = 0
    us.append(min(0.0, float(args[order[0]]) - 1.0))
    vs.append(0.5)
    for i in order:
        running = min(running, float(deltas[i]), 0.5)
        u = float(args[i])
        if us and u <= us[-1]:
            vs[-1] = min(vs[-1], running)
        else:
            us.append(u)
            vs.append(running)
    return EtaFunction.tabulated(np.array(us), np.array(vs))


@dataclass(frozen=True)
class MetricsRow:
    """One line of the metric family at scale x (what the CLI emits)."""

    x: float
    psi: float
    baseline: float
    delta: float
    S: float
    D: float
    W: float
    omega: float
    omega_S: float
    omega_D: float
    omega_W: float


def metrics_row(table, zeros: ZeroSet, x, tol=1e-6):
    """metrics_rows at the one scale x."""
    return metrics_rows(table, zeros, [x], tol=tol)[0]


def metrics_rows(table, zeros: ZeroSet, xs, tol=1e-6):
    """A MetricsRow at every x of xs; the omega_V columns are log(x/V) by construction.

    One delta_many call covers every x's avg_metric grid at 64 panels,
    which is its sup_metric grid at 64 points plus u = 0, so S and D
    equal what those two functions return, bit for bit (the engine's
    results do not depend on the batch), and the table is read once for
    all of them.  The grids share their [0.02, 1] head and u = 0, so the
    call takes each distinct point once.  Psi, I and Delta at x come
    from the same call: each grid ends at x.
    """
    grids = [hybrid_grid(x, points=64, include_zero=True) for x in xs]
    us_all = np.concatenate([np.empty(0), *grids])
    points = _distinct(us_all)
    # each grid point's place among the distinct ones (a lighter inverse
    # than np.unique's, which argsorts)
    at = np.searchsorted(points, us_all)
    batch = delta_many(table, points, tol=tol)
    rows = []
    end = 0
    for x, us in zip(xs, grids):
        start, end = end, end + len(us)
        vals = np.abs(batch.delta[at[start:end]])
        S = float(np.max(vals))
        D = trapezoid_mean(us, vals, x).value
        W = zero_sum_W(max(x, 1.0), zeros)
        last = at[end - 1]
        rows.append(MetricsRow(
            x=float(x),
            psi=float(batch.psi[last]),
            baseline=float(batch.baseline[last]),
            delta=float(batch.delta[last]),
            S=S,
            D=D,
            W=W,
            omega=omega_zero(x, zeros) if x > 1.0 else float("nan"),
            omega_S=omega_from_value(x, S),
            omega_D=omega_from_value(x, D),
            omega_W=omega_from_value(x, W),
        ))
    return rows


def zero_sum_W(x, zeros: ZeroSet):
    """W(x) = sum over zeros (conjugates doubled) of |Gamma(rho+1)| x^beta / gamma."""
    return float(np.sum(zero_sum_W_terms(x, zeros)))


def zero_sum_W_terms(x, zeros: ZeroSet):
    """Per-zero terms 2 |rho Gamma(rho)| x^beta / gamma of W(x), for dominance diagnostics."""
    zeros.require_nonempty()
    if not (1.0 <= x < math.inf):
        raise DomainError("x must be finite and >= 1")
    log_x = math.log(x)
    return 2.0 * np.abs(zeros.gamma_terms(np.log, lambda rho: rho.real * log_x - np.log(rho.imag)))


def omega_zero(x, zeros: ZeroSet):
    """omega(x) = min over stored zeros of ((1 - beta) log x + log gamma)."""
    zeros.require_nonempty()
    if not (1.0 < x < math.inf):
        raise DomainError("x must be finite and > 1")
    vals = (1.0 - zeros.betas) * math.log(x) + np.log(zeros.gammas)
    return float(np.min(vals))


class Minimum(NamedTuple):
    value: float
    minimizer: float


_GOLDEN_R = 0.61803399  # 2 / (1 + sqrt 5) to 8 digits, as classic golden-section codes
_GOLDEN_C = 1.0 - _GOLDEN_R


def _golden_section(f, xa, xb, xc, xtol):
    """Golden-section searches for minima of f, one per lane, inside xa < xb < xc.

    xa, xb and xc hold one bracket per lane, and f maps an array of one
    abscissa per lane to the values there, each lane's from its own
    abscissa alone.  A lane needs f(xb) below both f(xa) and f(xc); one
    without that dip is no search.  A lane stops once its bracket is
    narrower than xtol * (|x1| + |x2|), xtol being relative, or after
    5,000 steps.  Returns (x, fx, dip): per lane the better of the two
    interior points and f there, and the mask of lanes with a dip (x and
    fx mean nothing elsewhere).

    Each lane makes the elementwise IEEE operations of a one-bracket
    search in the same order (both step formulas are formed for every
    lane and np.where keeps its own), and f is evaluated on every lane at
    each step with the stopped ones' values discarded, so a lane's result
    does not depend on the others.
    """
    xa, xb, xc = (np.asarray(v, dtype=float) for v in (xa, xb, xc))
    fa, fb, fc = f(xa), f(xb), f(xc)
    dip = (fb < fa) & (fb < fc)
    x0, x3 = xa, xc
    wide = np.abs(xc - xb) > np.abs(xb - xa)
    x1 = np.where(wide, xb, xb - _GOLDEN_C * (xb - xa))
    x2 = np.where(wide, xb + _GOLDEN_C * (xc - xb), xb)
    f1, f2 = f(x1), f(x2)
    live = dip.copy()
    for _ in range(5000):
        live &= ~(np.abs(x3 - x0) <= xtol * (np.abs(x1) + np.abs(x2)))
        if not live.any():
            break
        down = f2 < f1
        right, left = live & down, live & ~down
        # right: x0, x1, f1 = x1, x2, f2 and then a new x2;
        # left: x3, x2, f2 = x2, x1, f1 and then a new x1
        x0 = np.where(right, x1, x0)
        x3 = np.where(left, x2, x3)
        x1, x2 = np.where(right, x2, x1), np.where(left, x1, x2)
        f1, f2 = np.where(right, f2, f1), np.where(left, f1, f2)
        t = np.where(down, _GOLDEN_R * x1 + _GOLDEN_C * x3, _GOLDEN_R * x2 + _GOLDEN_C * x0)
        ft = f(t)
        x1, f1 = np.where(left, t, x1), np.where(left, ft, f1)
        x2, f2 = np.where(right, t, x2), np.where(right, ft, f2)
    better = f1 < f2
    return np.where(better, x1, x2), np.where(better, f1, f2), dip


def _grid_golden_min(f, grid):
    """Grid scan plus golden-section refinement on the best bracket.

    The objectives here are sums of one decreasing and one increasing
    term, near-unimodal but possibly flat; the 1024-point grid guards
    against the refinement latching onto the wrong valley.  f is scalar
    (omega_eta's takes math.log, which np.log's SIMD loop need not match
    bit for bit), so the refinement runs it lane by lane on a batch of
    one.
    """
    vals = np.array([f(t) for t in grid])
    i = int(np.argmin(vals))
    if 0 < i < len(grid) - 1:
        x, fx, dip = _golden_section(
            lambda ts: np.array([f(t) for t in ts]),
            grid[i - 1 : i], grid[i : i + 1], grid[i + 1 : i + 2], xtol=1e-12,
        )
        if dip[0] and fx[0] <= vals[i]:
            return Minimum(float(fx[0]), float(x[0]))
    return Minimum(float(vals[i]), float(grid[i]))


def omega_eta(x, eta: EtaFunction):
    """omega_eta(x) = inf over t >= 1 of (eta(t) log x + log t).

    Searches t in [1, x^2]: beyond that log t alone already exceeds the
    value at t = 1 for any eta <= 1/2.  Returns the minimizing t too.
    """
    if x <= 1.0:
        raise DomainError("x must be > 1")
    log_x = math.log(x)

    def f(t):
        return float(eta(t)) * log_x + math.log(t)

    grid = np.exp(np.linspace(0.0, 2.0 * log_x, 1024))
    return _grid_golden_min(f, grid)


def varpi(x, eta: EtaFunction):
    """varpi(x) = min over u >= 0 of (eta(u) log x + u), searched on [0, log x + 10]."""
    if x <= 1.0:
        raise DomainError("x must be > 1")
    log_x = math.log(x)

    def f(u):
        return float(eta(u)) * log_x + u

    grid = np.linspace(0.0, log_x + 10.0, 1024)
    return _grid_golden_min(f, grid)


def omega_from_value(x, v):
    """log(x / v): the log-ratio transform behind omega_S, omega_D, omega_W."""
    if not (0.0 < x < math.inf):
        raise RangeError("x must be positive and finite")
    if not (0.0 < v < math.inf):
        raise DomainError("value must be positive and finite to take log(x/v)")
    return math.log(x) - math.log(v)
