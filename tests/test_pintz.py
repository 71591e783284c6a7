import cmath
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smoothed_pnt
from smoothed_pnt import metrics, pintz, sieve
from smoothed_pnt.errors import (
    CapacityError,
    DomainError,
    NormalizationError,
    RangeError,
    ToleranceError,
)
from smoothed_pnt.goldbach import contour_cutoff, contour_extract
from smoothed_pnt.pintz import (
    _GAUSS_LEGENDRE_12,
    PintzParams,
    _turan_grid,
    U_integral,
    U_residue,
    U_window,
    gaussian_line_check,
    mellin_H_closed,
    mellin_H_quadrature,
    turan_bound,
    turan_bounds,
)
from smoothed_pnt.sieve import _TILE, LambdaStream, LambdaTable, build_lambda
from smoothed_pnt.smooth import (
    _BLOCK,
    DELTA_LIMIT,
    _log_tail,
    delta_many,
    truncation_cutoff,
)
from smoothed_pnt.specfun import gamma_complex, loggamma
from smoothed_pnt.zeros import ZeroSet

GAMMA1 = 14.134725141734693
RHO1 = complex(0.5, GAMMA1)
EULER_GAMMA = 0.5772156649015329


def _bits(result):
    return (result.value.real.hex(), result.value.imag.hex(), result.error.hex())


class TestGaussLegendreTables:
    # U_integral's panel rule, the one Gauss-Legendre rule left
    @pytest.mark.parametrize("m", [12])
    def test_rule(self, m):
        xg, wg = _GAUSS_LEGENDRE_12
        assert len(xg) == len(wg) == m
        assert np.all(np.diff(xg) > 0.0) and np.all(wg > 0.0)
        assert abs(wg.sum() - 2.0) <= 1e-15
        # exact for every monomial of degree <= 2m - 1
        for j in range(2 * m):
            exact = 2.0 / (j + 1) if j % 2 == 0 else 0.0
            assert abs(np.dot(wg, xg**j) - exact) <= 1e-14

    @pytest.mark.parametrize("m", [12])
    def test_agrees_with_leggauss(self, m):
        xg, wg = _GAUSS_LEGENDRE_12
        xl, wl = np.polynomial.legendre.leggauss(m)
        assert np.max(np.abs(xg - xl)) <= 1e-14
        assert np.max(np.abs(wg - wl)) <= 1e-14


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            PintzParams(mu=1.0, k=0.0, rho0=RHO1)
        for k in (math.nan, math.inf):
            with pytest.raises(DomainError):
                PintzParams(mu=1.0, k=k, rho0=RHO1)
        for mu in (math.nan, -math.inf):
            with pytest.raises(DomainError):
                PintzParams(mu=mu, k=1.0, rho0=RHO1)
        with pytest.raises(DomainError):
            PintzParams(mu=1.0, k=1.0, rho0=complex(1.2, 5.0))
        with pytest.raises(DomainError):
            PintzParams(mu=1.0, k=1.0, rho0=complex(0.5, -5.0))


class TestMellinClosed:
    def test_factor_oracles_at_two(self, table_small):
        n = np.arange(1, table_small.limit + 1, dtype=float)
        logderiv_oracle = -float(np.dot(table_small.values[1:], n**-2.0))
        zeta_oracle = math.pi**2 / 6.0
        expected = 2.0 * 1.0 * (logderiv_oracle + zeta_oracle)
        # the Lambda Dirichlet tail at 1e4 is ~1e-3; allow for it
        assert mellin_H_closed(2.0).real == pytest.approx(expected, abs=3e-3)
        assert abs(mellin_H_closed(2.0).imag) < 1e-12

    def test_finite_and_stable_near_one(self):
        # H is regular at s = 1: the residues of zeta'/zeta (-1) and of
        # zeta (+1) cancel, and H(1) = 2 gamma_E (gaps 0.042 to 3.7e-5)
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            v = mellin_H_closed(1.0 + eps)
            assert abs(v - 2.0 * EULER_GAMMA) <= eps / 2.0

    def test_conjugate_symmetry(self):
        s = complex(2.0, 3.7)
        assert mellin_H_closed(s.conjugate()) == mellin_H_closed(s).conjugate()

    def test_domain(self):
        with pytest.raises(DomainError):
            mellin_H_closed(0.5)


class TestMellinQuadrature:
    def test_matches_closed_at_two(self, table_mid):
        quad = mellin_H_quadrature(table_mid, 2.0)
        assert abs(quad.value - mellin_H_closed(2.0)) <= 1e-4
        assert quad.error <= 1e-4

    def test_matches_closed_off_axis(self, table_mid):
        s = complex(2.0, 5.0)
        quad = mellin_H_quadrature(table_mid, s)
        assert abs(quad.value - mellin_H_closed(s)) <= 1e-3

    # |H - closed| at upper = 2000 was 3.8e-11 to 7.4e-11 at Re s = 2 and
    # 7.2e-12 to 2.0e-11 elsewhere; the error is at least 1.4e-9
    @pytest.mark.parametrize(
        "s",
        [2.0, complex(2.0, 1.0), complex(2.0, 5.0), complex(3.0, 10.0),
         complex(2.0, 50.0), complex(4.0, 50.0), complex(2.5, 100.0)],
    )
    def test_error_covers_the_closed_form(self, table_mid, s):
        quad = mellin_H_quadrature(table_mid, s)
        assert abs(quad.value - mellin_H_closed(s)) <= quad.error
        assert abs(quad.value - mellin_H_closed(s)) <= 1e-10

    def test_step_shrinks_with_im_s(self, table_mid, monkeypatch):
        # h = 0.5/max(|Im s|, 5) on [0.02, 2000]: 118 nodes up to |Im s| = 5,
        # then about twice as many for each doubling of |Im s|
        counts = []

        def counting(table, us, tol):
            counts.append(len(us) - 1)  # the last point is `upper`
            return delta_many(table, us, tol=tol)

        monkeypatch.setattr(pintz, "delta_many", counting)
        for s in (2.0, complex(2.0, 5.0), complex(2.0, 10.0), complex(2.0, 20.0)):
            mellin_H_quadrature(table_mid, s)
        assert counts[0] == counts[1] == 118
        assert counts[2] == 233 and counts[3] == 463

    def test_short_table_raises(self, table_small):
        # at tol 1e-10 the nodes above u ~ 315 need cutoffs past the table's 10,000
        with pytest.raises(CapacityError):
            mellin_H_quadrature(table_small, 2.0)

    def test_domain(self, table_small):
        with pytest.raises(DomainError):
            mellin_H_quadrature(table_small, complex(1.5, 0.0))


@pytest.mark.parametrize(
    "call",
    [
        lambda t: mellin_H_quadrature(t, complex(3.0, math.nan)),
        lambda t: mellin_H_quadrature(t, complex(3.0, math.inf)),
        lambda t: mellin_H_quadrature(t, complex(3.0, -math.inf)),
        lambda t: mellin_H_quadrature(t, complex(math.inf, 0.0)),
        lambda t: gaussian_line_check(math.nan, 0.0),
        lambda t: gaussian_line_check(1.0, math.nan),
        lambda t: gaussian_line_check(math.inf, 0.0),
        lambda t: contour_cutoff(math.nan),
        lambda t: contour_cutoff(0),
        lambda t: contour_extract(t, math.nan),
        lambda t: gaussian_line_check(1.0, math.inf),
        lambda t: contour_extract(t, math.inf),
    ],
)
def test_non_finite_arguments_are_domain_errors(table_small, call):
    # each is refused by its range check, before any conversion of it
    with pytest.raises(DomainError):
        call(table_small)


class TestGaussianLine:
    def test_w_zero(self):
        quad, closed = gaussian_line_check(1.0, 0.0)
        assert closed.real == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), rel=1e-14)
        assert quad.real == pytest.approx(closed.real, rel=1e-10)

    def test_example_kk1_w2(self):
        quad, closed = gaussian_line_check(1.0, 2.0)
        expected = math.exp(-1.0) / (2.0 * math.sqrt(math.pi))
        assert closed.real == pytest.approx(expected, rel=1e-14)
        assert quad.real == pytest.approx(closed.real, rel=1e-10)

    def test_even_in_w(self):
        qp, cp = gaussian_line_check(2.0, 3.0)
        qm, cm = gaussian_line_check(2.0, -3.0)
        assert cp == cm
        assert qp.real == pytest.approx(qm.real, rel=1e-10)

    def test_random_suite(self, rng):
        for _ in range(100):
            kk = rng.uniform(0.1, 10.0)
            w = rng.uniform(-20.0, 20.0)
            quad, closed = gaussian_line_check(kk, w)  # raises on failure
            assert abs(quad.real - closed.real) <= 1e-10 * max(abs(closed.real), 1e-300)

    def test_domain(self):
        with pytest.raises(DomainError):
            gaussian_line_check(-1.0, 0.0)


# Seeded (M1, M2) pairs on real Lambda, twelve to a panel of
# pintz._panel_sums: the rows of a sum over M1 coefficients as the prior
# of one over M2, each at one x.  Each node's sum and rows must be
# weighted_exp_sum's and its one GEMV's, and what the node gives alone,
# from a sieved table (OddTiles past tile 0) and an array-backed one
# (flat tiles).  Each case is named when it occurs: one row left past the
# prior's whole groups, M1 > M2, a direct sum (M < 2 _BLOCK), whole
# blocks only, a last row that is a tile's first, every row from the
# prior, and a node clamped at the table's end (N is no whole block).
# Each panel runs twice, from the buffer at chunk 0 and at the table's
# last chunk, so its chunks are visited ascending and then descending,
# with the same bits.  A held tile 0's head is Lambda(1 .. 8191) flat.
_ROW_REUSE_SCRIPT = textwrap.dedent(
    """
    import json
    import numpy as np
    from smoothed_pnt.pintz import _CHUNK, _HeldTiles, _NO_ROWS, _panel_sums
    from smoothed_pnt.sieve import _TILE, LambdaStream, build_lambda
    from smoothed_pnt.smooth import _BLOCK, weighted_exp_sum

    class Visiting(_HeldTiles):
        def __init__(self, table):
            super().__init__(table)
            self.visits = []

        def chunk(self, c):
            self.visits.append(c)
            return super().chunk(c)

    N = 320 * _BLOCK + 1234
    table = build_lambda(N)
    c = table.values[1:]
    sources = {"odd tiles": LambdaStream(N), "flat tiles": table}
    held = {name: Visiting(source) for name, source in sources.items()}
    last_chunk = (N - 1) // (_CHUNK * _BLOCK)
    rng = np.random.default_rng(19)
    pairs = [(8 * _BLOCK + 17, 9 * _BLOCK + 5), (13 * _BLOCK, 13 * _BLOCK + 99),
             (40 * _BLOCK, 21 * _BLOCK), (3000, 7 * _BLOCK), (9 * _BLOCK, 8191),
             (65 * _BLOCK + 7, 65 * _BLOCK + 7), (3 * _BLOCK, 129 * _BLOCK + 1),
             (80 * _BLOCK, 64 * _BLOCK + 9), (N, N)]
    for _ in range(500):
        q = rng.integers(0, 321, 2)
        r = np.where(rng.random(2) < 0.2, 0, rng.integers(0, _BLOCK, 2))
        pairs.append(tuple(np.clip(q * _BLOCK + r, 1, N).tolist()))
    xs = [max(m2, 1) / rng.uniform(8.0, 30.0) for m1, m2 in pairs]

    def rows_of(m, x):
        q = m // _BLOCK if m >= 2 * _BLOCK else 0
        return c[: q * _BLOCK].reshape(q, _BLOCK) @ np.exp(-np.arange(1, _BLOCK + 1) / x)

    priors = [rows_of(m1, x) for (m1, m2), x in zip(pairs, xs)]
    cases, bad = set(), []
    for at in range(0, len(pairs), 12):
        panel = slice(at, at + 12)
        args = xs[panel], [m2 for m1, m2 in pairs[panel]], priors[panel]
        for name, h in held.items():
            h.upto(N)
            got = []
            for start, order in [(0, "ascending"), (last_chunk, "descending")]:
                h.chunk(start)
                h.visits = []
                got.append(_panel_sums(h, *args))
                if len(h.visits) > 1 and h.visits == sorted(h.visits, reverse=order == "descending"):
                    cases.add(order)
            for j, (x, m2, prior) in enumerate(zip(*args)):
                alone = _panel_sums(h, [x], [m2], [prior])
                want = weighted_exp_sum(c[:m2], x), rows_of(m2, x)
                for total, rows in [*((g[0][j], g[1][j]) for g in got), (alone[0][0], alone[1][0])]:
                    if total.hex() != want[0].hex() or rows.tobytes() != want[1].tobytes():
                        bad.append((name, pairs[at + j]))
            if h.head.tobytes() != c[: 2 * _BLOCK - 1].tobytes():
                bad.append((name, "head"))
            cases.add(name)
        for (m1, m2), prior in zip(pairs[panel], priors[panel]):
            q1, q2 = len(prior), m2 // _BLOCK
            k = 4 * (min(q1, q2) // 4)
            if q2 >= 2 and q2 - k == 1:
                cases.add("one row left")
            if m1 > m2 >= 2 * _BLOCK:
                cases.add("M1 > M2")
            if min(m1, m2) < 2 * _BLOCK:
                cases.add("direct sum")
            if m1 % _BLOCK == 0 and m2 % _BLOCK == 0 and min(m1, m2) >= 2 * _BLOCK:
                cases.add("whole blocks")
            if q2 >= 2 and k < q2 and (q2 - 1) % (_TILE // _BLOCK) == 0:
                cases.add("last row a tile's first")
            if q2 >= 2 and k >= q2:
                cases.add("every row from the prior")
            if m2 == N:
                cases.add("clamped")
    print(json.dumps({"bad": bad, "cases": sorted(cases)}))
    """
)


def test_blocked_rows_reuse_is_bitwise():
    # One BLAS thread, as the benchmark runs: with two, OpenBLAS splits a
    # GEMV's rows among threads by its length, and reused rows can differ
    # from fresh ones in the last bit.
    src = str(Path(smoothed_pnt.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _ROW_REUSE_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["bad"] == []
    assert out["cases"] == [
        "M1 > M2", "ascending", "clamped", "descending", "direct sum",
        "every row from the prior", "flat tiles", "last row a tile's first", "odd tiles",
        "one row left", "whole blocks",
    ]


def _probe_pass(monkeypatch, table, p, tol):
    """Run U_integral; the tail bound's grid, the probe top and the far pass's probes."""
    seen = {}
    weight_top, psi_many = pintz._weight_top, pintz._psi_many

    def top(ys, wts):
        seen["ys"], seen["wts"] = ys, wts
        seen["y_top"] = weight_top(ys, wts)
        return seen["y_top"]

    def far(tiles, us, cutoffs):
        seen["us"], seen["cutoffs"] = us, cutoffs
        return psi_many(tiles, us, cutoffs)

    monkeypatch.setattr(pintz, "_weight_top", top)
    monkeypatch.setattr(pintz, "_psi_many", far)
    U_integral(table, p, tol=tol)
    return seen


def _envelope_probes(monkeypatch, p, tol):
    """U_integral's six envelope probes, sorted: those its march holds and the far pass's."""
    calls = []
    march_deltas = pintz._march_deltas

    def recording(held, us, eps, priors):
        calls.append(list(us))
        return march_deltas(held, us, eps, priors)

    monkeypatch.setattr(pintz, "_march_deltas", recording)
    seen = _probe_pass(monkeypatch, LambdaStream(U_window(p, tol)[1]), p, tol)
    # the probes' own _march_deltas call is the last one, after the march's
    return np.sort(np.concatenate([calls[-1], seen["us"]]))


def _u_trap(table, p, width, h=0.05):
    """U by the trapezoid rule on the lattice log u_j = jh, its Delta from one delta_many call.

    Shares nothing with U_integral's march, probes or envelope.  The
    nodes run from j = (mu - width - 8)/h, where the Gaussian is below
    e^{-60}, to (mu + width)/h, each Delta at tol 1e-12.  The integrand
    (Delta - c) u g'(u) in y = log u is analytic in a strip and decays
    like a Gaussian, so the rule converges geometrically (Trefethen and
    Weideman, SIAM Review 56 (2014)); the constant's share, c [g], is
    zero over the whole line.
    """
    j = np.arange(math.floor((p.mu - width - 8.0) / h), math.floor((p.mu + width) / h) + 1)
    u = np.exp(j * h)
    d = delta_many(table, u, tol=1e-12).delta
    pref = 1.0 / (2.0 * math.sqrt(math.pi * p.k))
    return pref * h * np.sum((d - DELTA_LIMIT) * pintz._g_prime_times_u(u, p))


def _oracle_limit(p, width):
    """The limit _u_trap's top node certifies at tol 1e-12."""
    return truncation_cutoff(math.exp(p.mu + width), 1e-12)


def _without_missing(deltas):
    """pintz._march_deltas with every node's missing tail set to 0.0."""

    def silent(held, us, eps, priors):
        d, rows, missing = deltas(held, us, eps, priors)
        return d, rows, [0.0] * len(missing)

    return silent


class TestUIntegral:
    @pytest.mark.parametrize(
        "scale, k, tol",
        [
            (20.0, 0.5, 0.2),  # the golden config
            (50.0, 0.3, 0.1),
            (60.0, 0.6, 0.1),  # the pintz_far golden
        ],
    )
    def test_trapezoid_oracle(self, scale, k, tol):
        # measured |U_integral - U_trap|: 1.2e-11, 3.5e-12 and 8.0e-12,
        # against errors of 3.2e-10, 1.3e-10 and 1.8e-10; halving h moves
        # U_trap by 5.6e-13, 3.9e-15 and 4.8e-15
        p = PintzParams(mu=math.log(scale), k=k, rho0=RHO1)
        width, limit = U_window(p, tol)
        r = U_integral(LambdaStream(limit), p, tol=tol)
        table = LambdaStream(_oracle_limit(p, width))
        trap = _u_trap(table, p, width)
        assert abs(trap - _u_trap(table, p, width, h=0.1)) <= 1e-2 * r.error
        assert abs(r.value - trap) <= r.error

    def test_trapezoid_oracle_sees_one_missing_prime(self):
        # Lambda(19) = 0, next to e^mu = 20, moves U_trap 9.6e-9 from
        # U_integral: 30 times its error.  (At (50, 0.3) and (60, 0.6) one
        # prime near e^mu moves U by only 0.5 to 1.5 times the error.)
        p = PintzParams(mu=math.log(20.0), k=0.5, rho0=RHO1)
        width, limit = U_window(p, 0.2)
        r = U_integral(LambdaStream(limit), p, tol=0.2)
        cutoff = _oracle_limit(p, width)
        values = build_lambda(cutoff).values.copy()
        values[19] = 0.0
        trap = _u_trap(LambdaTable(cutoff, values), p, width)
        assert abs(r.value - trap) > 10.0 * r.error

    def test_capacity_gate(self, table_small):
        p = PintzParams(mu=math.log(200.0), k=1.0, rho0=RHO1)
        with pytest.raises(CapacityError):
            U_integral(table_small, p, tol=0.01)

    def test_window_sizes_the_table(self):
        p = PintzParams(mu=math.log(20.0), k=0.5, rho0=RHO1)
        width, limit = U_window(p, 0.2)
        assert width == 6.0 * math.sqrt(0.5 * math.log(5.0))
        U_integral(build_lambda(limit), p, tol=0.2)
        with pytest.raises(CapacityError):
            U_integral(build_lambda(limit - 1), p, tol=0.2)
        with pytest.raises(DomainError):
            U_window(p, 1.0)
        with pytest.raises(DomainError):
            U_window(p, math.nan)

    @pytest.mark.parametrize("scale, k", [(1e299, 1.0), (1e307, 1.0), (1e280, 100.0), (1e20, 1.0)])
    def test_window_past_int64_is_a_range_error(self, scale, k):
        # the top e^{mu+width}, or the limit under it, leaves binary64 or int64
        with pytest.raises(RangeError, match="int64"):
            U_window(PintzParams(mu=math.log(scale), k=k, rho0=RHO1), 0.1)

    @pytest.mark.parametrize(
        "scale, k, tol, tiles",
        [
            (20.0, 0.5, 0.2, 1),  # the golden config: the march reads part of one tile
            (60.0, 0.6, 0.1, 2),  # two tiles, and the far probes stream
        ],
    )
    def test_stream_matches_held_table(self, monkeypatch, scale, k, tol, tiles):
        holdings = []

        class Recording(pintz._HeldTiles):
            def __init__(self, table):
                super().__init__(table)
                holdings.append(self)

        monkeypatch.setattr(pintz, "_HeldTiles", Recording)
        p = PintzParams(mu=math.log(scale), k=k, rho0=RHO1)
        limit = U_window(p, tol)[1]
        streamed = U_integral(LambdaStream(limit), p, tol=tol)
        held = U_integral(build_lambda(limit), p, tol=tol)
        assert _bits(streamed) == _bits(held)
        reach = holdings[0].reach
        assert (tiles - 1) * _TILE < reach <= min(tiles * _TILE, limit)

    def test_far_probes_read_the_held_tiles(self, monkeypatch):
        # the march holds two tiles; the far probes read those, then sieve
        # the tiles up to the one that holds their largest cutoff, once
        # each and in order: 5 of the table's 7
        sieved = []
        segment = sieve._segment

        def recording(lo, *args):
            sieved.append(lo)
            return segment(lo, *args)

        monkeypatch.setattr(sieve, "_segment", recording)
        p = PintzParams(mu=math.log(60.0), k=0.6, rho0=RHO1)
        limit = U_window(p, 0.1)[1]
        seen = _probe_pass(monkeypatch, LambdaStream(limit), p, 0.1)
        top_tile = (int(seen["cutoffs"].max()) - 1) // _TILE
        assert sieved == list(range(1, top_tile * _TILE + 2, _TILE))
        assert len(sieved) < -(-limit // _TILE)

    @pytest.mark.parametrize(
        "scale, k, tol",
        [
            (60.0, 0.6, 0.1),  # the pintz_far golden
            (198.657, 1.0, 0.1),  # the benchmark's lower_bound seed 0
        ],
    )
    def test_probes_end_where_the_weight_does(self, monkeypatch, scale, k, tol):
        # the top probe sits at the first point of the tail bound's grid
        # past which the trapezoid weight is at most 1e-3 of the whole,
        # and the table reaches its cutoff at 1e-7: no probe is clamped
        p = PintzParams(mu=math.log(scale), k=k, rho0=RHO1)
        width, limit = U_window(p, tol)
        seen = _probe_pass(monkeypatch, LambdaStream(limit), p, tol)
        ys, wts = seen["ys"], seen["wts"]
        i = int(np.flatnonzero(ys == seen["y_top"])[0])
        whole = np.trapezoid(wts, ys)
        assert np.trapezoid(wts[i:], ys[i:]) <= 1e-3 * whole
        assert np.trapezoid(wts[i - 1 :], ys[i - 1 :]) > 1e-3 * whole
        assert seen["y_top"] < width
        top = float(seen["us"].max())
        assert top == math.exp(p.mu + seen["y_top"])
        assert pintz._loose_cutoff(top, 1e-7) <= limit

    @pytest.mark.parametrize(
        "scale, k, tol",
        [
            (20.0, 0.5, 0.2),  # the pintz golden
            (60.0, 0.6, 0.1),  # the pintz_far golden
            (198.657, 1.0, 0.1),  # the benchmark's lower_bound seed 0
            *(
                pytest.param(
                    *config,
                    marks=pytest.mark.xfail(
                        strict=True,
                        raises=AssertionError,
                        reason="the march runs to the window's top, so the probes' geomspace "
                        "starts and ends at u = b: six probes at one point (ROADMAP item 15)",
                    ),
                )
                for config in [(20.0, 0.2, 0.2), (30.0, 0.4, 0.3)]
            ),
        ],
    )
    def test_envelope_probes_are_distinct(self, monkeypatch, scale, k, tol):
        p = PintzParams(mu=math.log(scale), k=k, rho0=RHO1)
        probes = _envelope_probes(monkeypatch, p, tol)
        assert len(probes) == 6
        assert np.all(np.diff(probes) > 0.0)

    @pytest.mark.parametrize(
        "scale, k, clamped",
        [
            (54.598, 0.1, True),  # the table ends short of all six probes' cutoffs
            (60.0, 0.6, False),  # no probe is clamped: the bits stay
        ],
    )
    def test_clamped_probes_carry_their_tail(self, monkeypatch, scale, k, clamped):
        # where the probes are clamped, the envelope, held by the first
        # probe, grows by that probe's certified tail past the table's end
        p = PintzParams(mu=math.log(scale), k=k, rho0=RHO1)
        table = build_lambda(U_window(p, 0.1)[1])
        seen = {}
        weight_top = pintz._weight_top

        def top(ys, wts):
            seen["weight"] = np.trapezoid(wts, ys)
            seen["u_stop"] = math.exp(p.mu + ys[0])
            return weight_top(ys, wts)

        monkeypatch.setattr(pintz, "_weight_top", top)
        # the march nodes' clamped tails (counted apart) left out of both runs
        monkeypatch.setattr(pintz, "_march_deltas", _without_missing(pintz._march_deltas))
        counted = U_integral(table, p, tol=0.1)
        monkeypatch.setattr(pintz, "_log_tail", lambda m, x: np.full(np.shape(x), -np.inf))
        silent = U_integral(table, p, tol=0.1)
        assert counted.value == silent.value
        tail = math.exp(_log_tail(table.limit, seen["u_stop"])) if clamped else 0.0
        pref = 1.0 / (2.0 * math.sqrt(math.pi * p.k))
        grown = counted.error - silent.error
        assert grown == pytest.approx(3.0 * pref * tail * seen["weight"], rel=1e-4, abs=0.0)

    @pytest.mark.parametrize(
        "scale, k, tol, clamped",
        [
            (20.0, 0.5, 0.2, True),  # the golden config: 28 refined-pass nodes
            (54.598, 0.1, 0.1, True),
            (60.0, 0.6, 0.1, False),  # no node is clamped: the bits stay
        ],
    )
    def test_clamped_march_nodes_carry_their_tail(self, monkeypatch, scale, k, tol, clamped):
        # a march node whose cutoff passes the table's end adds its
        # certified missing tail, weighted as the node is, to the error
        p = PintzParams(mu=math.log(scale), k=k, rho0=RHO1)
        table = build_lambda(U_window(p, tol)[1])
        deltas = pintz._march_deltas
        tails = []

        def recording(held, us, eps, priors):
            d, rows, missing = deltas(held, us, eps, priors)
            for u, miss in zip(us, missing):
                if eps < 1e-7 and u >= 0.004:  # a march node, not an envelope probe
                    short = pintz._loose_cutoff(u, eps) > table.limit
                    tail = math.exp(_log_tail(table.limit, u)) if short else 0.0
                    assert miss == pytest.approx(tail, rel=1e-14, abs=0.0)
                    tails.append(miss)
            return d, rows, missing

        monkeypatch.setattr(pintz, "_march_deltas", recording)
        counted = U_integral(table, p, tol=tol)
        monkeypatch.setattr(pintz, "_march_deltas", _without_missing(deltas))
        silent = U_integral(table, p, tol=tol)
        assert counted.value == silent.value
        assert (max(tails) > 0.0) == clamped
        if clamped:
            assert counted.error > silent.error
        else:
            assert _bits(counted) == _bits(silent)

    def test_far_pass_frees_the_held_tiles(self, monkeypatch):
        # the held tiles are gone before the far pass sieves a fresh tile
        held, arrays, sieved = [], [], []
        segment = sieve._segment

        class Recording(pintz._HeldTiles):
            def __init__(self, table):
                super().__init__(table)
                held.append(self)

            def upto(self, n):
                super().upto(n)
                # every tile, tile 0 too, is held as its offsets and values
                if self.tiles:
                    arrays[:] = map(weakref.ref, [self.head, *(a for t in self.tiles for a in t)])

        def recording(lo, *args):
            sieved.append((lo, bool(arrays) and all(ref() is None for ref in arrays)))
            return segment(lo, *args)

        monkeypatch.setattr(pintz, "_HeldTiles", Recording)
        monkeypatch.setattr(sieve, "_segment", recording)
        p = PintzParams(mu=math.log(60.0), k=0.6, rho0=RHO1)
        U_integral(LambdaStream(U_window(p, 0.1)[1]), p, tol=0.1)
        reach = held[0].reach
        assert [dead for lo, dead in sieved if lo <= reach] == [False, False]
        fresh = [dead for lo, dead in sieved if lo > reach]
        assert fresh and all(fresh)

    @pytest.mark.parametrize(
        "scale, k, tol",
        [
            (20.0, 0.5, 0.2),  # the golden config
            (60.0, 0.6, 0.1),  # the march holds two tiles
        ],
    )
    def test_row_reuse_keeps_the_bits(self, monkeypatch, scale, k, tol):
        # the refined pass reuses the pilot's block rows, and U has the
        # bits of the same march computing every row afresh
        sums = pintz._panel_sums
        reused = []

        def counting(held, us, cutoffs, priors):
            reused.extend(len(r) >= 4 and m >= 8 * _BLOCK for m, r in zip(cutoffs, priors))
            return sums(held, us, cutoffs, priors)

        def fresh(held, us, cutoffs, priors):
            return sums(held, us, cutoffs, [pintz._NO_ROWS] * len(us))

        p = PintzParams(mu=math.log(scale), k=k, rho0=RHO1)
        table = LambdaStream(U_window(p, tol)[1])
        monkeypatch.setattr(pintz, "_panel_sums", counting)
        with_reuse = U_integral(table, p, tol=tol)
        assert sum(reused) > 100
        monkeypatch.setattr(pintz, "_panel_sums", fresh)
        assert _bits(U_integral(table, p, tol=tol)) == _bits(with_reuse)

    def test_pilot_rows_share_one_empty_array(self, monkeypatch):
        # the pilot's rows stay alive until the refined pass reads them; at
        # lower_bound's seed 0 thousands of its nodes are direct sums (or
        # lie below u = 0.004) and have none, and all of those hold the
        # one _NO_ROWS
        calls = []
        deltas = pintz._march_deltas

        def recording(held, us, eps, priors):
            out = deltas(held, us, eps, priors)
            calls.append((eps, out[1]))
            return out

        monkeypatch.setattr(pintz, "_march_deltas", recording)
        p = PintzParams(mu=math.log(198.657), k=1.0, rho0=RHO1)
        U_integral(LambdaStream(U_window(p, 0.1)[1]), p, tol=0.1)
        pilot_eps = calls[0][0]
        assert any(eps < pilot_eps for eps, rows in calls)  # a refined pass ran
        empty = [r for eps, rows in calls if eps == pilot_eps for r in rows if not len(r)]
        assert len(empty) > 1000
        assert len({id(r) for r in empty}) == 1

    @pytest.mark.parametrize(
        "scale, k, tol",
        [
            pytest.param(60.0, 0.6, 0.1, id="60.0-0.6-0.1"),  # the pintz_far golden: two tiles
            pytest.param(198.657, 1.0, 0.1, id="198.657-1.0-0.1"),  # lower_bound seed 0: ten
        ],
    )
    def test_march_holds_odd_tiles(self, monkeypatch, scale, k, tol):
        # the march holds every tile, tile 0 too, as the offsets of its
        # nonzero entries at 4 bytes each, and its prime powers p^k (k >= 2)
        # at 12: its tracemalloc peak, up to the far pass, stays within
        # those, the 1 MiB chunk buffer, the 64 KB head and the sieve's own
        # peak for one tile (tile 0 of the same table, flat).  Holding
        # every entry's value too, 12 bytes an entry, exceeds it by 1.3 MB
        # at lower_bound's seed 0 (at mu-scale 60, sieving tile 0 beside
        # the chunk buffer sets the peak either way); the march stays 0.2
        # and 0.13 MB below.
        seen = {}

        class Recording(pintz._HeldTiles):
            def pass_tiles(self):
                seen["peak"] = tracemalloc.get_traced_memory()[1]
                seen["reach"] = self.reach
                return super().pass_tiles()

        monkeypatch.setattr(pintz, "_HeldTiles", Recording)
        p = PintzParams(mu=math.log(scale), k=k, rho0=RHO1)
        limit = U_window(p, tol)[1]
        tracemalloc.start()
        try:
            next(LambdaStream(limit).tiles())
            one_tile = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            U_integral(LambdaStream(limit), p, tol=tol)
        finally:
            tracemalloc.stop()
        assert seen["reach"] > _TILE
        values = build_lambda(seen["reach"]).values
        n = np.flatnonzero(values)
        prime_powers = np.count_nonzero(np.abs(values[n] - np.log(n)) > 0.5)
        chunk_buffer, head = pintz._CHUNK * _BLOCK * 8, (2 * _BLOCK - 1) * 8
        held = 4 * len(n) + 12 * prime_powers
        assert seen["peak"] <= held + chunk_buffer + head + one_tile

    def test_a_dropped_prime_power_moves_u(self, monkeypatch):
        # the bitwise tests can see a wrong held entry: without the first
        # prime power held in tile 1, U at the benchmark's seed 0 moves
        dropped = []

        class Dropping(pintz._HeldTiles):
            def upto(self, n):
                super().upto(n)
                if len(self.tiles) > 1 and not dropped:
                    at, *kept = self.tiles[1]
                    dropped.append(int(at[0]))
                    self.tiles[1] = at[1:], *kept

        p = PintzParams(mu=math.log(198.657), k=1.0, rho0=RHO1)
        table = LambdaStream(U_window(p, 0.1)[1])
        kept = U_integral(table, p, tol=0.1)
        monkeypatch.setattr(pintz, "_HeldTiles", Dropping)
        assert _bits(U_integral(table, p, tol=0.1)) != _bits(kept)
        assert dropped == [2]  # n = 262,147, a prime

    @pytest.mark.parametrize("scale", [5.0, 10.0])
    def test_march_to_the_window_top_counts_past_it(self, scale):
        # at k 0.2 and tol 0.3 the march runs to the window's top, and the
        # integral past it is 18-21 times the error the march alone
        # reports: U_integral must count it, and so land within its error
        # of a trapezoid U whose nodes run on to y = 7.49, or raise.  (That
        # U moves by 2e-14 when h halves, and lies 8e-14 and 3e-14 from
        # U_residue.)
        p = PintzParams(mu=math.log(scale), k=0.2, rho0=RHO1)
        width, limit = U_window(p, 0.3)
        assert width < 7.49
        try:
            r = U_integral(LambdaStream(limit), p, tol=0.3)
        except ToleranceError:
            return
        trap = _u_trap(LambdaStream(_oracle_limit(p, 7.49)), p, 7.49)
        assert abs(r.value - trap) <= r.error

    def test_short_stream_raises_before_sieving(self, monkeypatch):
        def sieved(*args):
            raise AssertionError("a tile was sieved")

        monkeypatch.setattr(sieve, "_segment", sieved)
        p = PintzParams(mu=math.log(20.0), k=0.5, rho0=RHO1)
        limit = U_window(p, 0.2)[1]
        with pytest.raises(AssertionError):
            next(LambdaStream(limit).tiles())
        with pytest.raises(CapacityError):
            U_integral(LambdaStream(limit - 1), p, tol=0.2)

    def test_dual_representation_secondary_point(self, zeros_rh):
        # a second (mu, k) besides the acceptance one
        table = build_lambda(2_000_000)
        p = PintzParams(mu=math.log(60.0), k=0.6, rho0=RHO1)
        ui = U_integral(table, p, tol=0.1)
        ur = U_residue(zeros_rh, p)
        assert abs(ui.value - ur.value) <= 0.1 * abs(ur.value)


class TestUResidue:
    def test_matches_per_zero_loop(self, zeros_rh):
        p = PintzParams(mu=math.log(200.0), k=1.0, rho0=RHO1)
        total = 0j  # no term at s = 1, where H is regular
        for b, g in zip(zeros_rh.betas, zeros_rh.gammas):
            for rho in (complex(b, g), complex(b, -g)):
                shift = rho - p.rho0
                expo = loggamma(rho) + cmath.log(rho) + p.k * shift**2 + p.mu * shift
                if expo.real > -745.0:
                    total += cmath.exp(expo)
        assert abs(U_residue(zeros_rh, p).value - total) <= 1e-13 * abs(total)

    def test_single_zero_dominant_term(self, zeros_rh):
        one = ZeroSet(betas=zeros_rh.betas[:1], gammas=zeros_rh.gammas[:1])
        rho0 = complex(0.6, 10.0)
        p = PintzParams(mu=4.0, k=0.25, rho0=rho0)
        rho1 = complex(one.betas[0], one.gammas[0])
        term = (
            gamma_complex(rho1)
            * rho1
            * cmath.exp(p.k * (rho1 - rho0) ** 2 + p.mu * (rho1 - rho0))
        )
        conj_term = (
            gamma_complex(rho1.conjugate())
            * rho1.conjugate()
            * cmath.exp(
                p.k * (rho1.conjugate() - rho0) ** 2 + p.mu * (rho1.conjugate() - rho0)
            )
        )
        res = U_residue(one, p)
        assert res.value == pytest.approx(term + conj_term, rel=1e-10)

    def test_agrees_with_U_integral_at_small_k(self, zeros_rh):
        # at k = 0.1 an s = 1 term e^{k(1-rho0)^2 + mu(1-rho0)} would be
        # twice U; without it the two sides agree to 1.3e-11, inside
        # U_integral's own error of 1.1e-10
        p = PintzParams(mu=4.0, k=0.1, rho0=complex(zeros_rh.betas[0], zeros_rh.gammas[0]))
        ui = U_integral(build_lambda(U_window(p, 0.1)[1]), p, tol=0.1)
        ur = U_residue(zeros_rh, p)
        assert abs(ui.value - ur.value) <= ui.error

    def test_reference_zero_term_is_k_independent(self, zeros_rh):
        one = ZeroSet(betas=zeros_rh.betas[:1], gammas=zeros_rh.gammas[:1])
        p_lo = PintzParams(mu=math.log(200.0), k=0.5, rho0=RHO1)
        p_hi = PintzParams(mu=math.log(200.0), k=2.0, rho0=RHO1)
        v_lo = U_residue(one, p_lo).value
        v_hi = U_residue(one, p_hi).value
        expected = gamma_complex(RHO1) * RHO1
        assert v_lo == pytest.approx(expected, rel=1e-6)
        assert v_hi == pytest.approx(expected, rel=1e-6)

    def test_remainder_envelope_attached(self, zeros_rh):
        p = PintzParams(mu=math.log(200.0), k=1.0, rho0=RHO1)
        res = U_residue(zeros_rh, p)
        assert res.error == pytest.approx(math.exp(-p.mu + 2.25 * p.k), rel=1e-12)

    def test_empty_set(self):
        zs = ZeroSet(betas=np.array([]), gammas=np.array([]))
        p = PintzParams(mu=1.0, k=1.0, rho0=RHO1)
        from smoothed_pnt.errors import EmptySetError

        with pytest.raises(EmptySetError):
            U_residue(zs, p)


class TestTuran:
    def test_single_exponent(self):
        gmax, bound = turan_bound([0.0], 1.0, 2.0)
        assert gmax == pytest.approx(1.0, rel=1e-12)
        assert bound == pytest.approx(2.0 / (8 * math.e * 3.0), rel=1e-12)
        assert gmax >= bound

    def test_two_exponents(self):
        gmax, bound = turan_bound([0.0, 1j * math.pi], 1.0, 2.0)
        assert gmax >= 0.99 * bound
        assert gmax == pytest.approx(2.0, abs=1e-6)  # constructive max at even t

    def test_normalization_guard(self):
        with pytest.raises(NormalizationError):
            turan_bound([complex(-0.5, 1.0)], 1.0, 1.0)
        with pytest.raises(NormalizationError):
            turan_bound([complex(-0.5, 0.0), 0.0], 1.0, 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            turan_bound([0.0], 0.0, 1.0)
        with pytest.raises(DomainError):
            turan_bound(np.zeros(40, dtype=complex), 1.0, 1.0)

    def test_random_contract(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            alphas = np.zeros(n, dtype=complex)
            alphas[0] = 1j * rng.uniform(-10, 10)
            if n > 1:
                alphas[1:] = rng.uniform(-1, 0, n - 1) + 1j * rng.uniform(-10, 10, n - 1)
            a = rng.uniform(1, 10)
            b = rng.uniform(1, 10)
            gmax, bound = turan_bound(alphas, a, b)
            assert gmax >= 0.99 * bound


EPS = np.finfo(float).eps
# Worst |split - direct| / (EPS n (1 + max|alpha| (a+b))) seen: 2.7 over
# 20,000 seeded draws of the distribution below (tiny a and b included),
# 3.2 over 4,000 Hypothesis examples that targeted it.
TURAN_GRID_C = 8.0


@st.composite
def turan_instances(draw):
    n = draw(st.integers(1, 32))
    im = st.floats(-10.0, 10.0)
    alphas = [1j * draw(im)]
    alphas += [complex(draw(st.floats(-1.0, 0.0)), draw(im)) for _ in range(n - 1)]
    side = st.floats(0.0, 100.0, exclude_min=True)
    return np.array(alphas), draw(side), draw(side)


@settings(max_examples=100, deadline=None)
@given(turan_instances())
def test_turan_grid_matches_direct_sum(inst):
    alphas, a, b = inst
    got = _turan_grid(alphas, a, b)
    ts = np.linspace(a, a + b, 10_000)
    direct = np.abs(np.exp(np.outer(alphas, ts)).sum(axis=0))
    scale = EPS * len(alphas) * (1.0 + np.abs(alphas).max() * (a + b))
    assert got.shape == (10_000,)
    assert np.max(np.abs(got - direct)) <= TURAN_GRID_C * scale
    # t = a exactly: the same exps, summed in another order, so a few
    # ulp of the terms' total modulus
    terms = np.exp(alphas * a)
    assert abs(got[0] - abs(terms.sum())) <= 8.0 * EPS * np.abs(terms).sum()


def _scalar_turan_bound(alphas, a, b):
    """The one-instance verifier as a scalar reference: np.linspace's own
    points, abs() of each direct sum and a one-bracket golden-section
    search (the constants and steps of metrics._golden_section)."""
    alphas = np.asarray(alphas, dtype=complex)
    ts = np.linspace(a, a + b, 10_000)
    vals = _turan_grid(alphas, a, b)
    i = int(np.argmax(vals))
    grid_max = float(vals[i])

    def f(t):
        return -abs(np.exp(alphas * t).sum())

    xa, xb, xc = ts[max(i - 1, 0)], ts[i], ts[min(i + 1, len(ts) - 1)]
    if xa < xb < xc and f(xb) < f(xa) and f(xb) < f(xc):
        r, c = metrics._GOLDEN_R, metrics._GOLDEN_C
        x0, x3 = xa, xc
        if abs(xc - xb) > abs(xb - xa):
            x1, x2 = xb, xb + c * (xc - xb)
        else:
            x1, x2 = xb - c * (xb - xa), xb
        f1, f2 = f(x1), f(x2)
        for _ in range(5000):
            if abs(x3 - x0) <= 2.0**-26 * (abs(x1) + abs(x2)):
                break
            if f2 < f1:
                x0, x1, f1 = x1, x2, f2
                x2 = r * x1 + c * x3
                f2 = f(x2)
            else:
                x3, x2, f2 = x2, x1, f1
                x1 = r * x2 + c * x0
                f1 = f(x1)
        grid_max = max(grid_max, float(-min(f1, f2)))
    return grid_max, (b / (8.0 * math.e * (a + b))) ** len(alphas)


def _bits_of(rows):
    return [(float(g).hex(), float(b).hex()) for g, b in rows]


class TestTuranBatch:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(turan_instances(), min_size=1, max_size=12), st.randoms())
    def test_rows_are_the_one_instance_search(self, insts, random):
        got = _bits_of(zip(*turan_bounds(insts)))
        assert got == _bits_of(turan_bound(*inst) for inst in insts)
        assert got == _bits_of(_scalar_turan_bound(*inst) for inst in insts)
        # a row does not depend on its batch: shuffled, or a subset
        order = list(range(len(insts)))
        random.shuffle(order)
        shuffled = _bits_of(zip(*turan_bounds([insts[k] for k in order])))
        assert shuffled == [got[k] for k in order]
        kept = order[: len(order) // 2 + 1]
        subset = _bits_of(zip(*turan_bounds([insts[k] for k in kept])))
        assert subset == [got[k] for k in kept]

    def test_cli_distribution_matches_scalar_search(self, rng):
        insts = []
        for _ in range(300):
            n = int(rng.integers(1, 9))
            alphas = np.zeros(n, dtype=complex)
            alphas[0] = 1j * rng.uniform(-10, 10)
            if n > 1:
                alphas[1:] = rng.uniform(-1, 0, n - 1) + 1j * rng.uniform(-10, 10, n - 1)
            insts.append((alphas, rng.uniform(1, 10), rng.uniform(1, 10)))
        got = _bits_of(zip(*turan_bounds(insts)))
        assert got == _bits_of(_scalar_turan_bound(*inst) for inst in insts)

    @pytest.mark.parametrize(
        "alphas, a, b, peak",
        [
            ([0.0, -0.5], 1.0, 2.0, 0),  # |1 + e^{-t/2}| falls
            ([0.0, complex(-0.1, math.pi)], 1.0, 0.9, 9_999),  # 1 + e^{-t/10} e^{i pi t} grows
        ],
    )
    def test_endpoint_peak_is_not_refined(self, alphas, a, b, peak):
        vals = _turan_grid(np.array(alphas, dtype=complex), a, b)
        assert int(np.argmax(vals)) == peak
        grid_max, _ = turan_bounds([(alphas, a, b), ([0.0, 1j], 2.0, 3.0)])
        assert grid_max[0] == vals[peak]

    @pytest.mark.parametrize(
        "alphas, a, b",
        [
            # |e^{it}| is 1 up to rounding
            ([1j], 1.0, 2.0),
            # points inside this bracket sum higher than the grid max, but
            # a bracket without a dip is no search, so they are not taken
            (
                [4.644249399284632j, complex(-0.6345713761518337, -2.044519930890085)],
                46.539642342563866,
                70.67728412771324,
            ),
        ],
    )
    def test_bracket_without_a_dip(self, monkeypatch, alphas, a, b):
        # the grid's argmax is interior, but the direct sums at it and its
        # neighbours do not peak there
        alphas = np.array(alphas)
        vals = _turan_grid(alphas, a, b)
        i = int(np.argmax(vals))
        assert 0 < i < 9_999
        ts = np.linspace(a, a + b, 10_000)[i - 1 : i + 2]
        lo, mid, hi = (abs(np.exp(alphas * t).sum()) for t in ts)
        assert not (mid > lo and mid > hi)
        dips = []
        search = metrics._golden_section

        def spy(*args, **kwargs):
            out = search(*args, **kwargs)
            dips.append(out[2].tolist())
            return out

        monkeypatch.setattr(pintz, "_golden_section", spy)
        (gmax,), (bound,) = turan_bounds([(alphas, a, b)])
        assert dips == [[False]]
        assert (gmax, bound) == (vals[i], (b / (8.0 * math.e * (a + b))) ** len(alphas))

    @settings(max_examples=200, deadline=None)
    @given(turan_instances())
    def test_points_are_linspace_points(self, inst):
        _, a, b = inst
        assume(((a + b) - a) / 9_999 > 0.0)  # _turan_points' docstring
        j = np.arange(10_000)
        got = pintz._turan_points(j, np.full(j.shape, a), np.full(j.shape, b))
        assert got.tobytes() == np.linspace(a, a + b, 10_000).tobytes()

    def test_first_bad_instance_raises_before_any_scan(self, monkeypatch):
        def scanned(*args):
            raise AssertionError("an instance was scanned")

        monkeypatch.setattr(pintz, "_turan_grid", scanned)
        good = ([0.0], 1.0, 2.0)
        with pytest.raises(NormalizationError):
            turan_bounds([good, ([complex(-0.5, 1.0)], 1.0, 1.0), ([0.0], 0.0, 1.0)])
        with pytest.raises(DomainError, match="a, b"):
            turan_bounds([good, ([0.0], 0.0, 1.0), ([complex(-0.5, 1.0)], 1.0, 1.0)])
        with pytest.raises(DomainError, match="exponents"):
            turan_bounds([good, (np.zeros(40, dtype=complex), 1.0, 1.0)])
