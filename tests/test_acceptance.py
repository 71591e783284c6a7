"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Criterion 3 pins the residual between the smoothed
deviation and its explicit-formula prediction to
(zeta'/zeta(-1) - 1/12)/x plus its x^-2 term, to 0.05 on the 12x-scaled
residual.  It was first written as r ~ -1/(12x), which is false: that
keeps the baseline's 1/(12x) and drops the Gamma-pole residue
zeta'/zeta(-1)/x, so 12xr + 1 tends to ~23.8, not to 0.
"""

import math
import time

import numpy as np
import pytest

from smoothed_pnt import cli
from smoothed_pnt.goldbach import contour_extract, convolve_psik, psi2_centered, smooth_Fk
from smoothed_pnt.metrics import EtaFunction, omega_eta, varpi
from smoothed_pnt.pintz import (
    PintzParams,
    U_integral,
    U_residue,
    gaussian_line_check,
    mellin_H_closed,
    mellin_H_quadrature,
    turan_bound,
)
from smoothed_pnt.sieve import build_lambda
from smoothed_pnt.smooth import DELTA_LIMIT, avg_metric, delta, smooth_baseline, sup_metric
from smoothed_pnt.specfun import gamma_complex, zeta_logderiv
from smoothed_pnt.zeros import builtin_zeros, explicit_delta, find_zeros, riemann_vonmangoldt_count

GAMMA1 = 14.134725141734693
EULER_GAMMA = 0.5772156649015329


@pytest.fixture(scope="module")
def big_table():
    return build_lambda(55_000_000)


@pytest.fixture(scope="module")
def zeros_rh():
    return builtin_zeros()


def report(num, name, t0, ok, detail=""):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status} ({elapsed:.2f}s) {detail}")
    return elapsed


def test_c01_baseline_identity():
    t0 = time.time()
    worst = 0.0
    for x in [1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6]:
        M = int(30 * x) + 50  # tail e^{-30} ~ 9e-14, below the 1e-12 gate
        direct = float(np.sum(np.exp(-np.arange(1, M + 1, dtype=float) / x)))
        worst = max(worst, abs(smooth_baseline(x) / direct - 1.0))
    ok = worst <= 1e-12
    elapsed = report(1, "baseline vs direct summation", t0, ok, f"worst rel {worst:.2e}")
    assert ok
    assert elapsed < 1.0


def test_c02_delta_limit_constant(big_table):
    t0 = time.time()
    devs = [abs(delta(big_table, x, tol=1e-6).delta - DELTA_LIMIT) for x in (1e2, 1e3, 1e4)]
    neg_control = abs(delta(big_table, 1e4, tol=1e-6).delta - (-math.log(2 * math.pi)))
    ok = devs[2] <= 1e-3 and devs[0] > devs[1] > devs[2] and abs(neg_control - 0.5) <= 0.05
    elapsed = report(
        2, "delta limit 1/2 - log 2pi", t0, ok,
        f"|dev|={devs} negative-control={neg_control:.3f}",
    )
    assert ok
    assert elapsed < 5.0


def test_c03_explicit_formula_residual(big_table, zeros_rh):
    # r = Delta - explicit_delta = c1/x + c2(x)/x^2 + O(x^-3), from the
    # Mellin residues explicit_delta leaves out and the baseline's 1/(12x):
    #   c1 = zeta'/zeta(-1) - 1/12 (Gamma pole at s = -1), with
    #        zeta'/zeta(-1) = log 2pi - (1 - gamma_E) - zeta'/zeta(2)
    #                       = 12 log A - 1 (A is Glaisher's constant);
    #   c2(x) = -(log(2 pi x) - zeta'/zeta(3))/2 (double pole at s = -2).
    t0 = time.time()
    c1 = math.log(2 * math.pi) - (1.0 - EULER_GAMMA) - zeta_logderiv(2.0).real - 1.0 / 12.0
    zl3 = zeta_logderiv(3.0).real
    rs = {
        x: delta(big_table, x, tol=1e-9).delta - explicit_delta(x, zeros_rh, "derived")
        for x in (1e2, 3e2, 1e3)
    }
    vals = {
        x: 12.0 * x * (r - c1 / x + (math.log(2 * math.pi * x) - zl3) / (2.0 * x**2))
        for x, r in rs.items()
    }
    # the one-term prediction must miss: the bound resolves the x^-2 term
    neg_control = 12.0 * 1e2 * (rs[1e2] - c1 / 1e2)
    ok = all(abs(v) <= 0.05 for v in vals.values()) and abs(neg_control) > 0.05
    report(
        3, "explicit-formula residual (zeta'/zeta(-1) - 1/12)/x", t0, ok,
        f"12x(r - c1/x - c2/x^2) = { {k: f'{v:.2e}' for k, v in vals.items()} } "
        f"c1={c1:.10f} negative-control(c1/x only, x=100)={neg_control:.3f}",
    )
    assert ok, f"12x(r - c1/x - c2/x^2) = {vals}, negative control {neg_control}"


def test_c04_rh_bound_surrogate(big_table):
    t0 = time.time()
    xs = np.geomspace(10.0, 1e6, 25)
    ratios = np.array(
        [abs(delta(big_table, x, tol=1e-6).delta) / math.sqrt(x) for x in xs]
    )
    tail = ratios[xs >= 1e3]
    # smoothed-prime-count trend at the top of the grid rides along
    pnt = delta(big_table, 1e6, tol=1e-6).psi / 1e6
    ok = ratios.max() <= 10.0 and np.all(np.diff(tail) < 0.0) and 0.99 <= pnt <= 1.01
    elapsed = report(
        4, "sup |delta|/sqrt(x) bounded, decreasing", t0, ok,
        f"max={ratios.max():.4f}, psi(1e6)/1e6={pnt:.7f}",
    )
    assert ok
    assert elapsed < 10.0


def test_c05_fk_power_identity():
    t0 = time.time()
    table = build_lambda(8_000)
    worst = 0.0
    N = 4000  # >= 40x for both scales; also gives the tail bound headroom
    convs = {k: convolve_psik(table, k, N) for k in (2, 3, 4)}
    for x in (50.0, 100.0):
        psi = delta(table, x, tol=1e-12).psi
        for k in (2, 3, 4):
            # half the 1e-7 relative budget goes to the certified tail
            fk = smooth_Fk(convs[k], x, tol=0.5e-7 * psi**k)
            worst = max(worst, abs(fk / psi**k - 1.0))
    ok = worst <= 1e-7
    elapsed = report(5, "F_k = Psi^k identity", t0, ok, f"worst rel {worst:.2e}")
    assert ok
    assert elapsed < 30.0


def test_c06_goldbach_error_shape(big_table):
    t0 = time.time()
    conv = convolve_psik(big_table, 2, 460_000)
    ratios = []
    for N in (1e2, 1e3, 1e4):
        f2 = smooth_Fk(conv, N, tol=1e-4)
        ratios.append(abs(f2 - N * N) / N**1.5)
    ok = max(ratios) <= 1.0 and ratios[0] > ratios[1] > ratios[2]
    elapsed = report(
        6, "|F_2(N) - N^2| / N^{3/2} bounded, decreasing", t0, ok,
        f"ratios={[round(r, 4) for r in ratios]}",
    )
    assert ok
    assert elapsed < 60.0


def test_c07_contour_identity():
    t0 = time.time()
    table = build_lambda(10_000)
    r = math.exp(-1.0 / 100.0)
    squared, imag_sq = contour_extract(table, 100, r=r, squared=True)
    direct = float(np.sum(psi2_centered(table, 100)[:101]))
    unsquared, _ = contour_extract(table, 100, r=r, squared=False)
    lam_sum = float(np.sum(table.values[1:101])) - 100.0
    ok = (
        abs(squared / direct - 1.0) <= 1e-6
        and abs(unsquared / lam_sum - 1.0) <= 1e-6
        and imag_sq <= 1e-10
    )
    elapsed = report(
        7, "contour identity (squared) + typo demo (unsquared)", t0, ok,
        f"squared rel {abs(squared / direct - 1):.1e}, "
        f"unsquared rel {abs(unsquared / lam_sum - 1):.1e}",
    )
    assert ok
    assert elapsed < 5.0


def test_c08_zero_finder():
    t0 = time.time()
    z50 = find_zeros(50.0)
    counts_ok = True
    for T in (50.0, 100.0, 300.0):
        n = len(find_zeros(T))
        if abs(n - riemann_vonmangoldt_count(T)) > 2.0:
            counts_ok = False
    ok = len(z50) == 10 and abs(z50.gammas[0] - 14.1347) <= 5e-4 and counts_ok
    elapsed = report(
        8, "zero finder count and gamma_1", t0, ok,
        f"n(50)={len(z50)}, gamma_1={z50.gammas[0]:.6f}",
    )
    assert ok
    assert elapsed < 60.0


def test_c09_metric_chain(big_table):
    t0 = time.time()
    xs = np.geomspace(10.0, 1e6, 25)
    ok = True
    for x in xs:
        S = sup_metric(big_table, x, grid=64, tol=1e-6)
        D = avg_metric(big_table, x, panels=64, tol=1e-6)
        if D.value > S + D.quad_error + 1e-12:
            ok = False
    # the W >= S half is NOT asserted: it only begins once the first-zero
    # coefficient absorbs log 2pi, around x ~ 1e18.  Check the coefficient
    # and that the README documents the caveat.
    coeff = 2.0 * abs(gamma_complex(complex(1.5, GAMMA1))) / GAMMA1
    ok = ok and 1.0e-9 <= coeff <= 1.2e-9
    import pathlib

    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    ok = ok and "1.1e-9" in readme and "1e18" in readme
    elapsed = report(
        9, "S >= D on matched grids (W >= S documented out of reach)", t0, ok,
        f"first-zero coefficient {coeff:.3e}",
    )
    assert ok
    assert elapsed < 120.0


def test_c10_minimizer_correctness():
    t0 = time.time()
    worst = 0.0
    for x in (1e3, 1e6):
        log_x = math.log(x)
        for eta in (EtaFunction.constant(0.3), EtaFunction.classical(0.1)):
            tg = np.exp(np.linspace(0.0, 2.0 * log_x, 1_000_000))
            brute_t = float(np.min(eta(tg) * log_x + np.log(tg)))
            worst = max(worst, abs(omega_eta(x, eta).value - brute_t))
            ug = np.linspace(0.0, log_x + 10.0, 1_000_000)
            brute_u = float(np.min(eta(ug) * log_x + ug))
            worst = max(worst, abs(varpi(x, eta).value - brute_u))
    half = EtaFunction.constant(0.5)
    exact_ok = (
        omega_eta(1e4, half).value == pytest.approx(0.5 * math.log(1e4), rel=1e-12)
        and omega_eta(1e4, half).minimizer == pytest.approx(1.0, abs=1e-6)
        and varpi(1e4, half).value == pytest.approx(0.5 * math.log(1e4), rel=1e-12)
        and varpi(1e4, half).minimizer == pytest.approx(0.0, abs=1e-9)
    )
    ok = worst <= 1e-4 and exact_ok
    elapsed = report(10, "1-D minimizers vs dense grids", t0, ok, f"worst {worst:.2e}")
    assert ok
    assert elapsed < 60.0


def test_c11_gaussian_identity():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        kk = rng.uniform(0.1, 10.0)
        w = rng.uniform(-20.0, 20.0)
        quad, closed = gaussian_line_check(kk, w)
        worst = max(
            worst, abs(quad.real - closed.real) / max(abs(closed.real), 1e-300)
        )
    ok = worst <= 1e-10
    elapsed = report(11, "Gaussian line integral identity", t0, ok, f"worst rel {worst:.2e}")
    assert ok
    assert elapsed < 5.0


def test_c12_mellin_cross_check():
    t0 = time.time()
    table = build_lambda(600_000)
    worst = 0.0
    for s in (2.0, complex(2.0, 1.0), complex(2.0, 5.0)):
        closed = mellin_H_closed(s)
        quad = mellin_H_quadrature(table, s)
        worst = max(worst, abs(closed - quad.value))
    ok = worst <= 1e-3
    elapsed = report(12, "Mellin H closed vs quadrature", t0, ok, f"worst abs {worst:.2e}")
    assert ok
    assert elapsed < 30.0


def test_c13_turan_verifier():
    t0 = time.time()
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        alphas = np.zeros(n, dtype=complex)
        alphas[0] = 1j * rng.uniform(-10, 10)
        if n > 1:
            alphas[1:] = rng.uniform(-1, 0, n - 1) + 1j * rng.uniform(-10, 10, n - 1)
        a = rng.uniform(1, 10)
        b = rng.uniform(1, 10)
        gmax, bound = turan_bound(alphas, a, b)
        if gmax < 0.99 * bound:
            ok = False
    elapsed = report(13, "Turan power-sum bound (corrected form)", t0, ok)
    assert ok
    assert elapsed < 60.0


def test_c14_u_dual_representation(big_table, zeros_rh):
    t0 = time.time()
    p = PintzParams(mu=math.log(200.0), k=1.0, rho0=complex(0.5, zeros_rh.gammas[0]))
    ui = U_integral(big_table, p, tol=0.1)
    ur = U_residue(zeros_rh, p)
    rel = abs(ui.value - ur.value) / abs(ur.value)
    ok = rel <= 0.10
    elapsed = report(
        14, "U integral vs residue representation", t0, ok,
        f"rel diff {rel:.3f} (|U| ~ {abs(ur.value):.2e})",
    )
    assert ok
    assert elapsed < 60.0


def test_c15_cli_determinism(tmp_path):
    t0 = time.time()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["metrics", "--x", "10:1e3:5", "--zeros", "builtin", "--tol", "1e-6"]
    code_a = cli.main(args + ["--out", str(a)])
    code_b = cli.main(args + ["--out", str(b)])
    ok = code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
    report(15, "cmd_metrics byte-identical reruns", t0, ok)
    assert ok
