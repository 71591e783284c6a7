import cmath
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothed_pnt.specfun as specfun
from smoothed_pnt.errors import (
    AccuracyError,
    DomainError,
    NearSingularError,
    NumericsError,
    PoleError,
)
from smoothed_pnt.smooth import _J, _chebyshev_coeffs, _chebyshev_table
from smoothed_pnt.specfun import (
    _BERNOULLI,
    _auto_terms,
    _em_core,
    _expansion_tail,
    _hardy_Z_array,
    _hardy_Z_moments,
    _head_moments,
    _moment_heads,
    _rs_Z,
    gamma_complex,
    hardy_Z,
    loggamma,
    rs_theta,
    zeta_deriv_em,
    zeta_em,
    zeta_logderiv,
)
from smoothed_pnt.zeros import _STEP

GAMMA1 = 14.134725141734693
GOLDEN_1000 = Path(__file__).resolve().parent / "golden" / "zeros_1000.txt"


class TestGamma:
    def test_classical_values(self):
        assert gamma_complex(1.0) == pytest.approx(1.0, rel=1e-12)
        assert gamma_complex(0.5).real == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert gamma_complex(5.0).real == pytest.approx(24.0, rel=1e-12)

    def test_modulus_against_stirling_form(self):
        # |Gamma(beta + i t)| ~ sqrt(2 pi) |t|^{beta - 1/2} e^{-pi |t| / 2}
        t = 14.1347
        val = abs(gamma_complex(complex(0.5, t)))
        stirling = math.sqrt(2 * math.pi) * math.exp(-math.pi * t / 2.0)
        assert val == pytest.approx(stirling, rel=0.02)

    def test_recurrence_on_random_sample(self, rng):
        checked = 0
        while checked < 1000:
            z = complex(rng.uniform(-50, 60), rng.uniform(-150, 150))
            if abs(z) > 199 or abs(z + 1) > 199:
                continue
            if z.real < 1 and abs(z.imag) < 0.1:
                continue  # stay clear of the pole line
            lhs = gamma_complex(z + 1)
            rhs = z * gamma_complex(z)
            assert abs(lhs - rhs) <= 1e-9 * abs(lhs)
            checked += 1

    def test_reflection_identity(self, rng):
        for _ in range(300):
            z = complex(rng.uniform(-20, 20), rng.uniform(0.2, 20))
            lhs = gamma_complex(z) * gamma_complex(1.0 - z)
            rhs = math.pi / cmath.sin(math.pi * z)
            assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_conjugate_symmetry_exact(self, rng):
        for _ in range(100):
            z = complex(rng.uniform(-40, 60), rng.uniform(0.5, 150))
            if abs(z) > 199:
                continue
            assert gamma_complex(z.conjugate()) == gamma_complex(z).conjugate()

    def test_accuracy_domain_against_mpmath(self, rng):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        checked = 0
        while checked < 300:
            z = complex(rng.uniform(-50, 60), rng.uniform(-180, 180))
            if abs(z) > 199:
                continue
            if z.real < 1 and abs(z.imag) < 0.1:
                continue
            if loggamma(z).real > 700.0:
                continue
            ref = complex(mpmath.gamma(mpmath.mpc(z)))
            assert gamma_complex(z) == pytest.approx(ref, rel=1e-10)
            checked += 1

    def test_stirling_envelope_constant(self):
        # |Gamma(sigma + it)| <= C |t|^{sigma - 1/2} e^{-pi|t|/2} with C <= 3
        for sigma in np.linspace(0.0, 2.0, 9):
            for t in np.geomspace(2.0, 100.0, 25):
                val = abs(gamma_complex(complex(sigma, t)))
                envelope = t ** (sigma - 0.5) * math.exp(-math.pi * t / 2.0)
                assert val <= 3.0 * envelope

    def test_poles(self):
        for z in [0.0, -1.0, -2.0, -7.0]:
            with pytest.raises(PoleError):
                gamma_complex(z)
        with pytest.raises(PoleError):
            gamma_complex(complex(-3.0 + 1e-13, 1e-14))

    def test_overflow_guarded(self):
        with pytest.raises(DomainError):
            gamma_complex(200.0)

    @pytest.mark.parametrize("x", [0.75, 3.5, 12.0, 100.0])
    def test_loggamma_matches_lgamma_on_reals(self, x):
        assert loggamma(x).real == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)
        assert loggamma(x).imag == 0.0


class TestLogGammaArray:
    def test_matches_scalar_elementwise(self, rng):
        # both half planes, both signs of Im, the reflected branch included
        zs = rng.uniform(-30, 30, 400) + 1j * rng.uniform(-200, 200, 400)
        out = loggamma(zs)
        assert out.shape == zs.shape and out.dtype == complex
        assert all(out[i] == loggamma(complex(z)) for i, z in enumerate(zs))

    def test_scalar_gives_python_complex(self):
        assert type(loggamma(2.5)) is complex
        assert type(loggamma(np.float64(2.5))) is complex

    def test_conjugate_symmetry_exact(self, rng):
        zs = rng.uniform(-20, 20, 200) + 1j * rng.uniform(0.1, 300, 200)
        assert np.array_equal(loggamma(np.conj(zs)), np.conj(loggamma(zs)))

    def test_critical_line_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        zs = 0.5 + 1j * np.linspace(10.0, 1000.0, 25)
        out = loggamma(zs)
        for z, v in zip(zs, out):
            ref = complex(mpmath.loggamma(mpmath.mpc(z)))
            assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_pole_anywhere_in_array(self):
        with pytest.raises(PoleError):
            loggamma(np.array([2.0 + 1j, -3.0 + 0j, 0.5 + 14j]))


class TestBernoulli:
    def test_spot_values(self):
        assert _BERNOULLI[0] == 1.0
        assert _BERNOULLI[1] == -0.5
        assert _BERNOULLI[2] == 1.0 / 6.0
        assert _BERNOULLI[12] == -691.0 / 2730.0
        assert _BERNOULLI[64] == float(Fraction(
            -106783830147866529886385444979142647942017, 510
        ))

    def test_odd_values_vanish(self):
        assert len(_BERNOULLI) == 65
        assert np.all(_BERNOULLI[3::2] == 0.0)

    def test_literals_are_the_exact_recurrence_rounded(self):
        # B_0 .. B_64 exact from sum_{k<=n} C(n+1, k) B_k = 0, B_1 = -1/2
        b = [Fraction(1)]
        for n in range(1, 65):
            b.append(-sum(math.comb(n + 1, k) * b[k] for k in range(n) if b[k]) / (n + 1))
        assert [v.hex() for v in _BERNOULLI.tolist()] == [float(v).hex() for v in b]


class TestZeta:
    def test_classical_values(self):
        assert zeta_em(2.0).real == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
        assert zeta_em(0.0).real == pytest.approx(-0.5, rel=1e-12)
        assert zeta_em(3.0).real == pytest.approx(1.2020569031595943, rel=1e-12)

    def test_first_zero_height(self):
        assert abs(zeta_em(complex(0.5, 14.1347))) < 1e-3

    def test_against_mpmath_grid(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 25
        for sigma in (0.0, 0.5, 1.5, 3.0):
            for t in (0.3, 5.0, 14.5, 50.0, 100.0):
                s = complex(sigma, t)
                ref = complex(mpmath.zeta(mpmath.mpc(s)))
                if abs(ref) < 1e-3:
                    continue
                assert zeta_em(s) == pytest.approx(ref, rel=1e-10)

    def test_continuation_left_of_critical_line(self):
        mpmath = pytest.importorskip("mpmath")
        ref = complex(mpmath.zeta(mpmath.mpc(-0.5, 7.0)))
        assert zeta_em(complex(-0.5, 7.0)) == pytest.approx(ref, rel=1e-10)

    def test_conjugate_symmetry_exact(self):
        s = complex(0.7, 23.4)
        assert zeta_em(s.conjugate()) == zeta_em(s).conjugate()

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            zeta_em(1.0 + 1e-14)
        with pytest.raises(DomainError):
            zeta_em(-1.5)
        with pytest.raises(AccuracyError):
            zeta_em(complex(0.5, 2000.0))

    def test_insufficient_terms(self):
        with pytest.raises(AccuracyError):
            zeta_em(complex(0.5, 80.0), terms=5)

    def test_tol_below_head_rounding_raises(self):
        # near Re s = -1 the head terms grow like n^0.95 and cancel: with
        # 1000 of them the value is 2.6e-10 off mpmath's, past tol 1e-12
        with pytest.raises(AccuracyError):
            zeta_em(complex(-0.95, 5.0), terms=1000, tol=1e-12)


class TestZetaDeriv:
    # s = 0 is where (s)_{2k-1} vanishes, so |poch| alone would bound the
    # differentiated remainder by 0; Re s = -0.5 is left of the strip
    GRID = [0.0, -0.5, complex(-0.5, 7.0), complex(-0.9, 0.1), 2.0, complex(3.0, 0.3),
            complex(0.5, 14.134725141734693), complex(1.5, -20.0), complex(0.5, 100.0),
            complex(0.25, 500.0)]

    @pytest.mark.parametrize("s", GRID)
    def test_against_mpmath(self, s):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        ref = complex(mpmath.zeta(mpmath.mpc(s), derivative=1))
        assert abs(zeta_deriv_em(s) - ref) <= 1e-11 * max(abs(ref), 1.0)

    @pytest.mark.parametrize("s", [0.0, -0.5, complex(0.5, 100.0)])
    def test_bound_is_honest_for_every_truncation(self, s):
        # whatever the head length, a returned value is within its contract
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 30
        ref = complex(mpmath.zeta(mpmath.mpc(s), derivative=1))
        returned = 0
        for terms in range(2, 160, 3):
            try:
                val = zeta_deriv_em(s, terms=terms, tol=1e-4)
            except AccuracyError:
                continue
            returned += 1
            assert abs(val - ref) <= 1e-4 * max(abs(ref), 1e-4)
        assert returned > 0

    def test_insufficient_terms(self):
        with pytest.raises(AccuracyError):
            zeta_deriv_em(complex(0.5, 80.0), terms=5)
        with pytest.raises(AccuracyError):
            zeta_deriv_em(0.0, terms=2, tol=1e-12)

    def test_tol_below_head_rounding_raises(self):
        # the computed value is 4.3e-9 relative from mpmath's here
        with pytest.raises(AccuracyError):
            zeta_deriv_em(complex(-0.95, 5.0), terms=1000, tol=1e-12)

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            zeta_deriv_em(1.0 + 1e-14)
        with pytest.raises(DomainError):
            zeta_deriv_em(-1.5)


class TestLogDeriv:
    def test_value_at_zero_argument(self):
        # zeta'(0)/zeta(0) = log 2pi
        assert zeta_logderiv(0.0).real == pytest.approx(math.log(2 * math.pi), rel=1e-10)

    def test_dirichlet_series_oracle(self, table_small):
        # zeta'/zeta(s) = -sum Lambda(n) n^{-s}; partial sums as oracle
        n = np.arange(1, table_small.limit + 1, dtype=float)
        for s, tol in [(2.0, 2e-3), (4.0, 1e-8)]:
            oracle = -float(np.dot(table_small.values[1:], n ** (-s)))
            tail = (math.log(table_small.limit) + 1.0) * table_small.limit ** (1.0 - s) / (s - 1.0)
            val = zeta_logderiv(s).real
            assert abs(val - oracle) <= tail + tol

    def test_dirichlet_series_oracle_long(self):
        # the s = 2 case with a 1e6-term oracle pins the value much tighter
        from smoothed_pnt.sieve import build_lambda

        t = build_lambda(1_000_000)
        n = np.arange(1, t.limit + 1, dtype=float)
        oracle = -float(np.dot(t.values[1:], n**-2.0))
        tail = (math.log(t.limit) + 1.0) / t.limit
        assert abs(zeta_logderiv(2.0).real - oracle) <= 1.1 * tail

    def test_near_singular_guards(self):
        with pytest.raises(NearSingularError):
            zeta_logderiv(1.0 + 1e-8)
        with pytest.raises(NearSingularError):
            zeta_logderiv(complex(0.5, GAMMA1))

    def test_error_report(self):
        val, err = zeta_logderiv(complex(1.5, 10.0), with_error=True)
        assert err < 1e-8
        val2, err2 = zeta_logderiv(complex(0.7, 10.0), with_error=True)
        assert err2 > 0.0  # degrades gracefully but still reports


def _sliced_bits(monkeypatch, evaluate):
    """evaluate()'s values and bounds as bytes, with one row a slice and with every row at once."""
    out = []
    for size in (1, 1 << 40):
        monkeypatch.setattr(specfun, "_HEAD_BUF", size)
        out.append(np.concatenate(evaluate()).tobytes())
    return out


class TestEmHeadSlices:
    """_em_core's head sums go a slice of s at a time through one buffer."""

    @pytest.mark.parametrize("deriv", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_one_row_or_all_rows_same_bits(self, monkeypatch, seed, deriv):
        rng = np.random.default_rng(seed)
        s = rng.uniform(-0.99, 3.0, 300) + 1j * rng.uniform(0.0, 1e3, 300)
        n_terms = int(rng.integers(2, 1400))
        one, every = _sliced_bits(monkeypatch, lambda: _em_core(s, n_terms, deriv=deriv))
        assert one == every

    @pytest.mark.parametrize("deriv", [False, True])
    def test_near_golden_zeros_same_bits(self, monkeypatch, deriv):
        # heights within 1e-9 of the T = 1000 zeros, at the refinement's
        # 1,310 terms, where |zeta| is smallest against its head sums
        gammas = np.array(GOLDEN_1000.read_text(encoding="utf-8").split(), dtype=float)
        rng = np.random.default_rng(1000)
        s = 0.5 + 1j * (gammas + rng.uniform(-1e-9, 1e-9, len(gammas)))
        one, every = _sliced_bits(monkeypatch, lambda: _em_core(s, 1310, deriv=deriv))
        assert one == every

    def test_head_sums_are_the_unsliced_formula(self):
        # the buffer's in-place ufuncs give the bits of the plain
        # expressions, for complex s and for the real rounding floor
        rng = np.random.default_rng(5)
        log_n = np.log(np.arange(1, 1310, dtype=float))
        for x in (0.5 + 1j * rng.uniform(0.0, 1e3, 120), rng.uniform(-0.99, 3.0, 7)):
            powers = np.exp(-np.multiply.outer(x, log_n))
            want = [powers.sum(axis=-1), (powers * log_n).sum(axis=-1)]
            got = specfun._head_sums(x, log_n, deriv=True)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_shape_and_empty_batches(self):
        s = np.array([[2.0 + 1j, 0.5 + 14j], [3.0, -0.5 + 100j]])
        vals, bounds = _em_core(s, 200, deriv=True)
        flat_vals, flat_bounds = _em_core(s.ravel(), 200, deriv=True)
        for a, b in zip(vals + bounds, flat_vals + flat_bounds):
            assert a.shape == s.shape and a.ravel().tobytes() == b.tobytes()
        vals, bounds = _em_core(np.empty(0, dtype=complex), 200)
        assert vals[0].shape == bounds[0].shape == (0,)


class TestHardyZ:
    def test_at_zero_is_zeta_half(self):
        assert hardy_Z(0.0) == pytest.approx(zeta_em(0.5).real, rel=1e-12)
        assert hardy_Z(0.0) == pytest.approx(-1.4603545088095868, rel=1e-10)

    def test_sign_change_brackets_first_zero(self):
        assert hardy_Z(14.0) * hardy_Z(15.0) < 0.0

    def test_realness_on_grid(self):
        ts = np.linspace(0.0, 1000.0, 1000)
        rotated, _ = _hardy_Z_array(ts)
        assert np.max(np.abs(rotated.imag)) <= 1e-8

    def test_realness_at_20(self):
        rotated, _ = _hardy_Z_array(np.array([20.0]))
        assert abs(rotated.imag[0]) <= 1e-8

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for t in (0.5, 14.0, 25.0, 100.0, 500.0):
            assert hardy_Z(t) == pytest.approx(float(mpmath.siegelz(t)), abs=1e-8)

    def test_theta_at_zero(self):
        assert rs_theta(0.0) == 0.0

    def test_height_guard(self):
        with pytest.raises(AccuracyError):
            hardy_Z(1500.0)

    def test_empty_array_gives_empty_array(self):
        out = hardy_Z(np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize("t", [math.nan, np.array([14.0, math.nan])])
    def test_nan_height_is_a_domain_error(self, t):
        with pytest.raises(DomainError):
            hardy_Z(t)

    def test_rotation_off_the_real_axis_raises(self, monkeypatch):
        theta = specfun.rs_theta
        monkeypatch.setattr(specfun, "rs_theta", lambda t: theta(t) + 1e-6)
        with pytest.raises(AccuracyError):
            hardy_Z(np.linspace(1.0, 50.0, 200))


# the refinement's head length at T = 1000
N_1000 = _auto_terms(1e3)


def _golden_brackets():
    """The T = 1000 zeros and the scan grid point (step 0.05) below each."""
    gammas = np.array(GOLDEN_1000.read_text(encoding="utf-8").split(), dtype=float)
    left = 1.0 + 0.05 * np.floor((gammas - 1.0) / 0.05)
    return gammas, left


class TestHeadMoments:
    """Heads at a secant point c from the Chebyshev moments at its bracket's left end."""

    def test_zeta_against_mpmath(self):
        # errors are the head powers' phase rounding, ~eps t log n a term
        # (ROADMAP item 7): the worst over these 24 heights is 6.9e-13 from
        # moments and 8.5e-13 from direct heads, so 2e-12 keeps a margin
        # of ~3; a phase off by one part in 1e12 would exceed it
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261019)
        cs = np.sort(np.concatenate([rng.uniform(14.0, 1e3, 23), [1e3]]))
        left = cs - rng.uniform(0.0, 0.05, len(cs))
        head, err = _moment_heads(cs, left, _head_moments(left, N_1000), N_1000)
        (val,), (bound,) = _em_core(0.5 + 1j * cs, N_1000, heads=[head], head_err=err)
        with mpmath.workdps(25):
            ref = np.array([complex(mpmath.zeta(mpmath.mpc(0.5, c))) for c in cs])
        assert np.all(np.abs(val - ref) <= bound + 2e-12)
        assert np.all(err < 1e-27)  # |z| <= 0.18: the truncation is negligible

    def test_at_the_left_end_the_head_is_the_zeroth_moment(self):
        _, left = _golden_brackets()
        moments = _head_moments(left[:50], N_1000)
        head, err = _moment_heads(left[:50], left[:50], moments, N_1000)
        assert head.tobytes() == moments[:, 0].tobytes() and np.all(err == 0.0)

    @pytest.mark.parametrize("z", [0.18, 1.0, 1.5, 1.9])
    def test_expansion_tail_bounds_the_truncation(self, z):
        # at |z| >= 1 the omitted terms (~1e-14 at 1.9) show above rounding
        x = np.linspace(-1.0, 1.0, 2001)
        series = _chebyshev_table(x) @ _chebyshev_coeffs(np.array([1j * z]))[0]
        gap = np.max(np.abs(np.exp(-1j * z * x) - series))
        assert gap <= _expansion_tail(z) + 1e-15
        with pytest.raises(AccuracyError):
            _expansion_tail(np.array([2.0]))

    def test_coefficients_are_bessel_j(self):
        # a_j(iz) = 2 (-i)^j J_j(z), a_0 = J_0(z)
        mpmath = pytest.importorskip("mpmath")
        zs = np.array([0.01, 0.09, 0.18, 0.5])
        got = _chebyshev_coeffs(1j * zs)
        for z, row in zip(zs, got):
            want = [(2.0 if j else 1.0) * (-1j) ** j * float(mpmath.besselj(j, z)) for j in range(_J)]
            assert np.allclose(row, want, rtol=1e-14, atol=1e-300)

    def test_real_path_keeps_its_bits(self):
        # the engine's real r and the same r in complex dtype give one row
        r = np.random.default_rng(3).uniform(0.0, 0.5, 200)
        real = _chebyshev_coeffs(r)
        assert real.dtype == np.float64
        assert _chebyshev_coeffs(r.astype(complex)).real.tobytes() == real.tobytes()

    def test_same_bits_whatever_is_live(self):
        # a moment row and a moment-step Z at a secant point near a zero,
        # where |Z| is smallest, do not depend on the other brackets
        gammas, left = _golden_brackets()
        moments = _head_moments(left, N_1000)
        whole, _ = _hardy_Z_moments(gammas, left, moments, N_1000)
        rng = np.random.default_rng(16)
        for size in (1, 2, 17, 300):
            idx = np.sort(rng.choice(len(gammas), size=size, replace=False))
            rows = _head_moments(left[idx], N_1000)
            assert rows.tobytes() == moments[idx].tobytes()
            got, _ = _hardy_Z_moments(gammas[idx], left[idx], rows, N_1000)
            assert got.tobytes() == whole[idx].tobytes()

    def test_both_hardy_Z_checks_hold_every_value(self, monkeypatch):
        _, left = _golden_brackets()
        cs, left = left[:40] + 0.03, left[:40]
        moments = _head_moments(left, N_1000)
        monkeypatch.setattr(specfun, "_expansion_tail", lambda z: np.full(len(z), 1e-10))
        with pytest.raises(AccuracyError, match="remainder"):
            _hardy_Z_moments(cs, left, moments, N_1000)
        monkeypatch.undo()
        theta = specfun.rs_theta
        monkeypatch.setattr(specfun, "rs_theta", lambda t: theta(t) + 1e-6)
        with pytest.raises(AccuracyError, match="real axis"):
            _hardy_Z_moments(cs, left, moments, N_1000)


def _height_with_exact_p(n, p):
    """A double t near 2pi (n + p)^2 whose sqrt(t/2pi) has fraction exactly p."""
    t = 2.0 * math.pi * (n + p) ** 2
    up = down = t
    for _ in range(100):
        for c in (up, down):
            a = math.sqrt(c / (2.0 * math.pi))
            if a - math.floor(a) == p:
                return c
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
    raise AssertionError(f"no double with fraction {p} near n = {n}")


# C_0's 0/0 points: p = 1/4 and p = 3/4 exactly, every N whose t is in [200, 1e3]
RS_SINGULAR = [_height_with_exact_p(n, p) for n in range(6, 13) for p in (0.25, 0.75)]
RS_SINGULAR = [t for t in RS_SINGULAR if t <= 1e3]


class TestRiemannSiegel:
    @pytest.fixture(scope="class")
    def siegelz(self):
        # mpmath's siegelz costs ~20 ms a height: a seeded sample here, and
        # the whole scan grid against Euler-Maclaurin below
        mpmath = pytest.importorskip("mpmath")
        ts = np.sort(np.random.default_rng(20261018).uniform(200.0, 1e3, 120))
        ts = np.concatenate([ts, RS_SINGULAR])
        return ts, np.array([float(mpmath.siegelz(t)) for t in ts])

    def test_within_bound_of_mpmath(self, siegelz):
        ts, ref = siegelz
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val, bound = _rs_Z(ts)
        assert np.all(np.isfinite(val)) and np.all(np.isfinite(bound))
        assert np.all(np.abs(val - ref) <= bound)
        # Gabcke's term, not the rounding allowance, sets the bound
        assert np.all(bound <= 0.128 * (ts / (2.0 * math.pi)) ** -0.75)

    def test_singular_p_values_are_exact_fractions(self):
        assert len(RS_SINGULAR) == 13
        a = np.sqrt(np.array(RS_SINGULAR) / (2.0 * math.pi))
        assert set(a - np.floor(a)) == {0.25, 0.75}

    def test_without_c0_the_bound_breaks(self, siegelz):
        # negative control: drop the (-1)^{N-1} a^{-1/2} C_0(p) correction
        ts, ref = siegelz
        val, bound = _rs_Z(ts)
        a = np.sqrt(ts / (2.0 * math.pi))
        n, p = np.floor(a), a - np.floor(a)
        regular = (p != 0.25) & (p != 0.75)
        c0 = np.cos(2.0 * math.pi * (p**2 - p - 1.0 / 16.0)) / np.cos(2.0 * math.pi * p)
        bare = val - (-1.0) ** (n - 1.0) * c0 / np.sqrt(a)
        assert np.any(np.abs(bare - ref)[regular] > bound[regular])

    def test_signs_agree_with_euler_maclaurin_on_the_scan_grid(self):
        ts = np.arange(200.0, 1e3, 0.05)
        val, bound = _rs_Z(ts)
        em = np.concatenate([hardy_Z(ts[i : i + 2000]) for i in range(0, len(ts), 2000)])
        assert np.all(np.abs(val - em) <= bound)
        certified = np.abs(val) > bound
        assert np.mean(certified) > 0.99
        assert np.array_equal(np.sign(val[certified]), np.sign(em[certified]))

    def test_one_height_or_all_heights_same_bits(self, monkeypatch):
        # theta, C_0 and the bound are built a slice of heights at a time,
        # as the cosine sums are; here on find_zeros' scan grid at T = 1e3
        ts = np.append(np.arange(1.0, 1e3, _STEP), 1e3)
        ts = np.concatenate([ts[ts >= 200.0], RS_SINGULAR])
        one, every = _sliced_bits(monkeypatch, lambda: _rs_Z(ts))
        assert one == every

    def test_refuses_heights_below_gabcke_range(self):
        with pytest.raises(DomainError):
            _rs_Z(np.array([199.9, 500.0]))


def _outcome(f, z):
    try:
        return f(z)
    except NumericsError as exc:  # then the conjugate must raise the same type
        return type(exc)


# each function with a box reaching past its domain: Re range, Im upper end
CONJ_CASES = {
    "zeta_em": (zeta_em, -1.2, 3.5, 1100.0),
    "zeta_deriv_em": (zeta_deriv_em, -1.2, 3.5, 1100.0),
    "zeta_logderiv": (zeta_logderiv, -1.2, 3.5, 1100.0),
    "loggamma": (loggamma, -60.0, 60.0, 300.0),
    "gamma_complex": (gamma_complex, -60.0, 200.0, 200.0),
}


@pytest.mark.parametrize("name", sorted(CONJ_CASES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_conjugate_symmetry_is_exact(name, data):
    f, re_lo, re_hi, im_hi = CONJ_CASES[name]
    re = data.draw(st.floats(min_value=re_lo, max_value=re_hi))
    im = data.draw(st.floats(min_value=0.0, max_value=im_hi, exclude_min=True))
    z = complex(re, im)
    up, down = _outcome(f, z), _outcome(f, z.conjugate())
    if isinstance(up, type):
        assert down is up
    else:
        assert down == up.conjugate()
