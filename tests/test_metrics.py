import math

import numpy as np
import pytest

import smoothed_pnt.zeros as zeros_mod
from smoothed_pnt.errors import DomainError, ParseError, RangeError
from smoothed_pnt.metrics import (
    EtaFunction,
    _golden_section,
    eta_from_zeros,
    load_eta,
    metrics_row,
    omega_eta,
    omega_from_value,
    omega_zero,
    varpi,
    zero_sum_W,
    zero_sum_W_terms,
)
from smoothed_pnt.specfun import gamma_complex, loggamma
from smoothed_pnt.zeros import ZeroSet

GAMMA1 = 14.134725141734693


def brute_force_min(eta, log_x, grid, arg="t"):
    if arg == "t":
        return float(np.min(eta(grid) * log_x + np.log(grid)))
    return float(np.min(eta(grid) * log_x + grid))


class TestW:
    def test_single_zero_closed_form(self, zeros_rh):
        one = ZeroSet(betas=zeros_rh.betas[:1], gammas=zeros_rh.gammas[:1])
        x = 1234.0
        expected = (
            2.0
            * abs(gamma_complex(complex(1.5, GAMMA1)))
            * math.sqrt(x)
            / GAMMA1
        )
        assert zero_sum_W(x, one) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_x(self, zeros_rh):
        assert zero_sum_W(4000.0, zeros_rh) > zero_sum_W(1000.0, zeros_rh)

    def test_first_zero_dominates(self, zeros_rh):
        terms = zero_sum_W_terms(1e6, zeros_rh)
        assert terms[0] / terms.sum() > 0.999

    def test_terms_match_per_zero_closed_form(self, zeros_rh):
        x = 777.0
        terms = zero_sum_W_terms(x, zeros_rh)
        for t, b, g in zip(terms, zeros_rh.betas, zeros_rh.gammas):
            expected = 2.0 * abs(gamma_complex(complex(b + 1.0, g))) * x**b / g
            assert t == pytest.approx(expected, rel=1e-10)
        assert zero_sum_W(x, zeros_rh) == float(np.sum(terms))

    def test_loggamma_once_per_set_same_bits(self, zeros_rh, monkeypatch):
        # every x reads the set's one log Gamma(rho) array, which is the
        # array loggamma gives, so each term keeps its bits
        calls = []
        monkeypatch.setattr(zeros_mod, "loggamma", lambda z: calls.append(len(z)) or loggamma(z))
        zs = ZeroSet(betas=zeros_rh.betas, gammas=zeros_rh.gammas, height=zeros_rh.height)
        rho = zs.betas + 1j * zs.gammas
        for x in (1.0, 777.0, 1e6):
            expo = loggamma(rho) + np.log(rho) + (rho.real * math.log(x) - np.log(rho.imag))
            want = 2.0 * np.abs(np.where(expo.real <= -745.0, 0.0, np.exp(expo)))
            assert zero_sum_W_terms(x, zs).tobytes() == want.tobytes()
            zero_sum_W(x, zs)
        assert calls == [len(zs)]
        assert not zs.loggamma_rho.flags.writeable

    @pytest.mark.parametrize("fn", [zero_sum_W, zero_sum_W_terms])
    def test_domain(self, fn, zeros_rh):
        for x in (0.0, 0.5):
            with pytest.raises(DomainError):
                fn(x, zeros_rh)


def _lanewise(f):
    """A scalar objective applied to each lane of an array."""
    return lambda ts: np.array([f(t) for t in ts])


class TestGoldenSection:
    def test_flat_bracket_gives_none(self):
        _, _, dip = _golden_section(_lanewise(lambda t: 3.0), [0.0], [1.0], [2.0], xtol=1e-12)
        assert not dip[0]
        # a middle point that only ties one end is no dip either
        _, _, dip = _golden_section(
            _lanewise(lambda t: min(t, 1.0)), [0.0], [1.0], [2.0], xtol=1e-12
        )
        assert not dip[0]

    @pytest.mark.parametrize("xtol", [1e-12, 2.0**-26])
    def test_matches_dense_grid(self, xtol):
        def f(t):
            return math.cosh(t - 0.7) + 0.3 * t

        grid = np.linspace(0.0, 2.0, 2_000_001)
        vals = np.cosh(grid - 0.7) + 0.3 * grid
        i = int(np.argmin(vals))
        x, fx, dip = _golden_section(_lanewise(f), [0.0], [0.5], [2.0], xtol=xtol)
        assert dip[0]
        assert abs(x[0] - grid[i]) <= 1e-6
        assert fx[0] <= vals[i] + 1e-15
        assert fx[0] == f(x[0])

    def test_lanes_do_not_depend_on_the_batch(self):
        # the lanes stop at different steps (at xtol 0 all run to the
        # 5,000-step cap) and one has no dip; each equals its search alone
        def f(t):
            return np.cosh(t - 0.7) + 0.3 * t

        xa = np.array([0.0, 0.38, -3.0, 0.0, 0.3])
        xb = np.array([0.5, 0.4, 0.5, 1.9, 0.41])
        xc = np.array([2.0, 0.5, 9.0, 2.0, 0.42])
        for xtol in (1e-12, 2.0**-26, 0.0):
            together = _golden_section(f, xa, xb, xc, xtol=xtol)
            assert list(together[2]) == [True, True, True, False, True]
            for k in range(len(xa)):
                alone = _golden_section(f, xa[k : k + 1], xb[k : k + 1], xc[k : k + 1], xtol)
                assert [v[0] for v in alone] == [v[k] for v in together]


# omega_eta and varpi at seeded inputs, as the one-bracket scalar search
# gave them: (eta, x, function, value.hex(), minimizer.hex())
OMEGA_PINS = [
    ("classical", 50.0, "omega_eta", "0x1.c98d8cda62c4fp-1", "0x1.0000000000000p+0"),
    ("classical", 50.0, "varpi", "0x1.2c71807cdaa36p+0", "0x0.0p+0"),
    ("classical", 1e6, "omega_eta", "0x1.93f7ca424f452p+1", "0x1.0000000000000p+0"),
    ("classical", 1e6, "varpi", "0x1.02cfa35f43bcep+2", "0x1.b9645bb75fdeep-2"),
    ("classical", 1e15, "omega_eta", "0x1.93bd7f30fe7a6p+2", "0x1.1309834b258b8p+4"),
    ("classical", 1e15, "varpi", "0x1.1574445bf574cp+3", "0x1.d0e79c00a3edap+0"),
    ("tabulated", 50.0, "omega_eta", "0x1.994904be04841p+0", "0x1.0000000000000p+0"),
    ("tabulated", 50.0, "varpi", "0x1.994904be04841p+0", "0x0.0p+0"),
    ("tabulated", 1e6, "omega_eta", "0x1.695a5bb2c869bp+2", "0x1.0000000000000p+0"),
    ("tabulated", 1e6, "varpi", "0x1.695a5bb2c869bp+2", "0x0.0p+0"),
    ("tabulated", 1e15, "omega_eta", "0x1.2898d20af3d20p+3", "0x1.1f1bc12bdafb3p+5"),
    ("tabulated", 1e15, "varpi", "0x1.c3b0f29f7a842p+3", "0x0.0p+0"),
]


@pytest.mark.parametrize("kind, x, name, value, minimizer", OMEGA_PINS)
def test_omega_eta_and_varpi_bits(kind, x, name, value, minimizer):
    if kind == "classical":
        eta = EtaFunction.classical(0.3)
    else:
        rng = np.random.default_rng(7)
        us = np.sort(rng.uniform(0.0, 40.0, 8))
        eta = EtaFunction.tabulated(us, np.sort(rng.uniform(0.05, 0.5, 8))[::-1])
    res = {"omega_eta": omega_eta, "varpi": varpi}[name](x, eta)
    assert (res.value.hex(), res.minimizer.hex()) == (value, minimizer)


class TestOmegaZero:
    def test_rh_set_minimizes_at_first_zero(self, zeros_rh):
        for x in (10.0, 1e4, 1e12):
            expected = 0.5 * math.log(x) + math.log(GAMMA1)
            assert omega_zero(x, zeros_rh) == pytest.approx(expected, rel=1e-12)

    def test_synthetic_low_beta_zero_wins_at_large_x(self, zeros_rh):
        synth = ZeroSet(
            betas=np.concatenate([[0.5], [0.9]]),
            gammas=np.concatenate([[GAMMA1], [100.0]]),
            assume_rh=False,
        )
        x = math.exp(100.0)
        # 0.1*100 + log 100 < 0.5*100 + log 14.13
        assert omega_zero(x, synth) == pytest.approx(10.0 + math.log(100.0), rel=1e-12)

    def test_single_zero_exact(self):
        zs = ZeroSet(betas=np.array([0.7]), gammas=np.array([33.0]), assume_rh=False)
        x = 55.0
        assert omega_zero(x, zs) == 0.3 * math.log(x) + math.log(33.0)


class TestEtaFunction:
    def test_constant_and_classical_shapes(self):
        eta_c = EtaFunction.constant(0.25)
        assert eta_c(5.0) == 0.25
        eta_cl = EtaFunction.classical(0.1)
        assert eta_cl(0.0) == pytest.approx(0.1, rel=1e-12)
        assert eta_cl(1e6) == pytest.approx(0.1 / math.log(1e6 + math.e), rel=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            EtaFunction.constant(0.7)
        with pytest.raises(DomainError):
            EtaFunction.tabulated([1.0, 2.0], [0.1, 0.2])  # increasing
        with pytest.raises(DomainError):
            EtaFunction.tabulated([2.0, 1.0], [0.2, 0.1])  # u not ascending

    def test_tabulated_step_lookup(self):
        eta = EtaFunction.tabulated([0.0, 10.0], [0.5, 0.25])
        assert eta(5.0) == 0.5
        assert eta(10.0) == 0.25
        assert eta(1e9) == 0.25

    def test_load_eta(self, tmp_path):
        p = tmp_path / "eta.txt"
        p.write_text("# profile\n0.0 0.5\n10.0 0.3\n20.0 0.2\n")
        eta = load_eta(p)
        assert eta(15.0) == 0.3
        p2 = tmp_path / "bad.txt"
        p2.write_text("0.0 0.5 9\n")
        with pytest.raises(ParseError):
            load_eta(p2)

    @pytest.mark.parametrize(
        "us, values",
        [
            ([0.0, 10.0], [0.5, math.nan]),
            ([0.0, 10.0], [math.nan, 0.25]),
            ([0.0, math.nan], [0.5, 0.25]),
            ([0.0, math.inf], [0.5, 0.25]),
            ([math.inf], [0.3]),
            ([-math.inf, 0.0], [0.5, 0.25]),
        ],
    )
    def test_tabulated_rejects_non_finite(self, us, values):
        with pytest.raises(DomainError, match="finite"):
            EtaFunction.tabulated(us, values)

    @pytest.mark.parametrize(
        "us, values",
        [
            ([0.0, 10.0], [0.5]),  # the step past 10 would have no value
            ([0.0], [0.5, 0.25]),
            ([[0.0, 10.0]], [[0.5, 0.25]]),
        ],
    )
    def test_tabulated_rejects_mismatched_lengths(self, us, values):
        with pytest.raises(DomainError, match="one value per u"):
            EtaFunction.tabulated(us, values)

    @pytest.mark.parametrize("line", ["inf 0.3", "nan 0.3", "1.0 nan", "1.0 -inf"])
    def test_load_eta_rejects_non_finite(self, tmp_path, line):
        p = tmp_path / "eta.txt"
        p.write_text(f"0.0 0.5\n{line}\n")
        with pytest.raises(DomainError, match="finite"):
            load_eta(p)


class TestOmegaEta:
    def test_constant_half_minimizes_at_one(self):
        for x in (10.0, 1e5):
            res = omega_eta(x, EtaFunction.constant(0.5))
            assert res.value == pytest.approx(0.5 * math.log(x), rel=1e-10)
            assert res.minimizer == pytest.approx(1.0, abs=1e-6)

    def test_classical_against_dense_grid(self):
        eta = EtaFunction.classical(0.1)
        for x in (1e3, 1e6):
            log_x = math.log(x)
            grid = np.exp(np.linspace(0.0, 2.0 * log_x, 1_000_000))
            brute = brute_force_min(eta, log_x, grid, arg="t")
            assert abs(omega_eta(x, eta).value - brute) <= 1e-4

    def test_boundary_at_e(self):
        eta = EtaFunction.classical(0.3)
        res = omega_eta(math.e, eta)
        assert res.value == pytest.approx(float(eta(1.0)), abs=1e-9)

    def test_monotone_in_x(self):
        eta = EtaFunction.classical(0.2)
        vals = [omega_eta(x, eta).value for x in np.geomspace(2.0, 1e8, 25)]
        assert np.all(np.diff(vals) >= -1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            omega_eta(1.0, EtaFunction.constant(0.5))


class TestVarpi:
    def test_constant_half_minimizes_at_zero(self):
        x = 50.0
        res = varpi(x, EtaFunction.constant(0.5))
        assert res.value == pytest.approx(0.5 * math.log(x), rel=1e-12)
        assert res.minimizer == pytest.approx(0.0, abs=1e-9)

    def test_classical_against_dense_grid(self):
        eta = EtaFunction.classical(0.1)
        for x in (1e3, 1e6):
            log_x = math.log(x)
            grid = np.linspace(0.0, log_x + 10.0, 1_000_000)
            brute = brute_force_min(eta, log_x, grid, arg="u")
            assert abs(varpi(x, eta).value - brute) <= 1e-4

    def test_upper_bounded_by_left_endpoint(self):
        eta = EtaFunction.classical(0.4)
        for x in (5.0, 1e4):
            assert varpi(x, eta).value <= float(eta(0.0)) * math.log(x) + 1e-12

    def test_monotone_in_x(self):
        eta = EtaFunction.classical(0.2)
        vals = [varpi(x, eta).value for x in np.geomspace(2.0, 1e8, 25)]
        assert np.all(np.diff(vals) >= -1e-9)


class TestMetricsRow:
    def test_log_ratio_invariant(self, table_mid, zeros_rh):
        row = metrics_row(table_mid, zeros_rh, 500.0, tol=1e-6)
        assert row.omega_S == pytest.approx(math.log(500.0 / row.S), rel=1e-12)
        assert row.omega_D == pytest.approx(math.log(500.0 / row.D), rel=1e-12)
        assert row.omega_W == pytest.approx(math.log(500.0 / row.W), rel=1e-12)
        assert row.omega_S <= row.omega_D  # equivalent to S >= D


class TestOmegaFromValue:
    def test_identities(self):
        assert omega_from_value(10.0, 10.0) == 0.0
        assert omega_from_value(10.0, 1.0) == pytest.approx(math.log(10.0))

    def test_errors(self):
        with pytest.raises(DomainError):
            omega_from_value(10.0, 0.0)
        with pytest.raises(RangeError):
            omega_from_value(-1.0, 1.0)


class TestEnvelopeChain:
    def test_omega_eta_below_omega_for_consistent_profile(self, zeros_rh):
        eta = eta_from_zeros(zeros_rh, convention="height")
        for x in (10.0, 1e3, 1e6):
            assert omega_eta(x, eta).value <= omega_zero(x, zeros_rh) + 1e-9

    def test_with_synthetic_off_line_zeros(self, zeros_rh):
        synth = ZeroSet(
            betas=np.array([0.5, 0.75, 0.6]),
            gammas=np.array([GAMMA1, 40.0, 90.0]),
            assume_rh=False,
        )
        eta = eta_from_zeros(synth, convention="height")
        for x in (10.0, 1e4, 1e8):
            assert omega_eta(x, eta).value <= omega_zero(x, synth) + 1e-9

    def test_both_argument_conventions_supported(self, zeros_rh):
        for conv in ("height", "log-height"):
            eta = eta_from_zeros(zeros_rh, convention=conv)
            assert 0.0 < eta(20.0) <= 0.5
        with pytest.raises(DomainError):
            eta_from_zeros(zeros_rh, convention="other")
