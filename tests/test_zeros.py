import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothed_pnt.specfun as specfun
import smoothed_pnt.zeros as zeros_mod
from smoothed_pnt.errors import (
    AccuracyError,
    DomainError,
    EmptySetError,
    OrderError,
    ParseError,
    RangeError,
)
from smoothed_pnt.metrics import omega_from_value, omega_zero, zero_sum_W, zero_sum_W_terms
from smoothed_pnt.pintz import PintzParams, U_residue
from smoothed_pnt.smooth import DELTA_LIMIT, delta
from smoothed_pnt.specfun import (
    _auto_terms,
    _expansion_tail,
    _hardy_Z_array,
    _rs_Z,
    gamma_complex,
    hardy_Z,
    loggamma,
    zeta_logderiv,
)
from smoothed_pnt.zeros import (
    ZeroSet,
    _zero_sum_terms,
    builtin_zeros,
    explicit_delta,
    find_zeros,
    load_zeros,
    riemann_vonmangoldt_count,
    save_zeros,
)

GOLDEN_1000 = Path(__file__).resolve().parent / "golden" / "zeros_1000.txt"
GAMMA1 = 14.134725141734693
EULER_GAMMA = 0.5772156649015329


class TestLoad:
    def test_single_line(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.134725141734693\n")
        zs = load_zeros(p)
        assert len(zs) == 1
        assert zs.assume_rh
        assert zs.betas[0] == 0.5
        assert zs.gammas[0] == pytest.approx(14.1347, abs=5e-4)

    def test_comments_and_two_columns(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# header\n0.5 14.134725\n0.9 100.0\n")
        zs = load_zeros(p)
        assert len(zs) == 2
        assert not zs.assume_rh
        assert zs.betas[1] == 0.9

    def test_empty_file(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("# nothing here\n")
        with pytest.raises(EmptySetError):
            load_zeros(p)

    def test_descending_entries(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("21.02\n14.13\n")
        with pytest.raises(OrderError):
            load_zeros(p)

    @pytest.mark.parametrize("text", ["14.134725\nnan\n25.0\n", "14.134725\ninf\n", "nan 14.134725\n"])
    def test_non_finite_entries(self, tmp_path, text):
        p = tmp_path / "z.txt"
        p.write_text(text)
        with pytest.raises(DomainError, match="finite"):
            load_zeros(p)

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.13\nnot-a-number\n")
        with pytest.raises(ParseError) as exc:
            load_zeros(p)
        assert exc.value.line == 2

    def test_roundtrip(self, tmp_path, zeros_rh):
        p = tmp_path / "out.txt"
        save_zeros(zeros_rh, p)
        back = load_zeros(p)
        assert np.array_equal(back.gammas, zeros_rh.gammas)
        assert np.array_equal(back.betas, zeros_rh.betas)

    @settings(max_examples=100, deadline=None)
    @given(
        gammas=st.lists(
            st.floats(min_value=0.0, max_value=1e12, exclude_min=True),
            min_size=1, max_size=30, unique=True,
        ),
        betas=st.lists(
            st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
            min_size=30, max_size=30,
        ),
        assume_rh=st.booleans(),
    )
    def test_roundtrip_is_exact(self, tmp_path_factory, gammas, betas, assume_rh):
        # both file formats: one column under RH, "beta gamma" otherwise
        g = np.sort(gammas)
        b = np.full(len(g), 0.5) if assume_rh else np.array(betas[: len(g)])
        zs = ZeroSet(betas=b, gammas=g, assume_rh=assume_rh, height=float(g[-1]))
        p = tmp_path_factory.mktemp("zeros") / "z.txt"
        save_zeros(zs, p)
        back = load_zeros(p)
        assert back.betas.tobytes() == zs.betas.tobytes()
        assert back.gammas.tobytes() == zs.gammas.tobytes()
        assert back.assume_rh is assume_rh


class TestZeroSetInvariants:
    def test_beta_range(self):
        with pytest.raises(DomainError):
            ZeroSet(betas=np.array([1.2]), gammas=np.array([14.0]), assume_rh=False)

    @pytest.mark.parametrize(
        "betas,gammas",
        [([0.5], [np.nan]), ([0.5, 0.5], [14.0, np.inf]), ([np.nan], [14.0]), ([-np.inf], [14.0])],
    )
    def test_non_finite(self, betas, gammas):
        with pytest.raises(DomainError, match="finite"):
            ZeroSet(betas=np.array(betas), gammas=np.array(gammas), assume_rh=False)

    def test_gamma_ascending(self):
        with pytest.raises(OrderError):
            ZeroSet(betas=np.array([0.5, 0.5]), gammas=np.array([20.0, 14.0]))

    def test_rh_flag_forces_half(self):
        with pytest.raises(DomainError):
            ZeroSet(betas=np.array([0.6]), gammas=np.array([14.0]), assume_rh=True)

    def test_empty_guard(self):
        zs = ZeroSet(betas=np.array([]), gammas=np.array([]))
        with pytest.raises(EmptySetError):
            zs.require_nonempty()


class TestFindZeros:
    def test_first_zero(self):
        zs = find_zeros(20.0)
        assert len(zs) == 1
        assert abs(zs.gammas[0] - 14.1347) <= 5e-4

    def test_count_to_fifty(self):
        assert len(find_zeros(50.0)) == 10

    def test_empty_below_first(self):
        assert len(find_zeros(10.0)) == 0

    def test_prefix_property(self):
        z50 = find_zeros(50.0)
        z80 = find_zeros(80.0)
        assert np.max(np.abs(z80.gammas[: len(z50)] - z50.gammas)) <= 1e-6

    @pytest.mark.parametrize("T", [None, 1000.0])
    def test_reproduces_builtin_table(self, T):
        # the builtin table was refined to 1e-10, so every zero agrees to
        # 2e-10; the top zero must not come out even one ulp above the
        # table height, whatever T sets the evaluation context
        ref = builtin_zeros()
        found = find_zeros(ref.height if T is None else T).gammas
        assert np.max(np.abs(found[: len(ref)] - ref.gammas)) <= 2e-10
        assert np.sum(found <= ref.gammas[-1]) == len(ref)

    @pytest.mark.parametrize("T", [50.0, 100.0, 300.0])
    def test_count_matches_counting_formula(self, T):
        n = len(find_zeros(T))
        assert abs(n - riemann_vonmangoldt_count(T)) <= 2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            find_zeros(5.0)
        with pytest.raises(DomainError):
            find_zeros(2000.0)

    @pytest.mark.parametrize("T", [250.0, 500.0, 750.0, 1000.0])
    def test_count_matches_mpmath_nzeros(self, T):
        mpmath = pytest.importorskip("mpmath")
        assert len(find_zeros(T)) == mpmath.nzeros(T)

    def test_euler_maclaurin_only_scan_matches_golden(self, monkeypatch):
        # Riemann-Siegel certifies no sign: every height from 200 up goes
        # through hardy_Z's direct heads, and the zeros are still the
        # pinned bytes
        def certify_nothing(ts):
            return np.zeros(len(ts)), np.full(len(ts), np.inf)

        monkeypatch.setattr(zeros_mod, "_rs_Z", certify_nothing)
        want = np.array(GOLDEN_1000.read_text(encoding="utf-8").split(), dtype=float)
        assert find_zeros(1000.0).gammas.tobytes() == want.tobytes()

    @staticmethod
    def _agrees_with_direct_heads(cs, z, bound, n_terms):
        # the signs of hardy_Z(cs, terms=n_terms), and its values within the
        # two bounds plus the phase rounding that neither bound carries: each
        # side's term n^{-1/2 - ic} turns by up to 2 eps c log n (the moment
        # side through its anchor's phase), so 4 eps c sum_n n^{-1/2} log n
        direct, direct_bound = _hardy_Z_array(cs, terms=n_terms)
        assert np.array_equal(np.sign(z), np.sign(direct.real))
        log_n = np.log(np.arange(1, n_terms, dtype=float))
        phases = 4.0 * np.finfo(float).eps * cs * np.sum(np.exp(-0.5 * log_n) * log_n)
        assert np.all(np.abs(z - direct.real) <= bound + direct_bound + phases)

    @pytest.mark.parametrize("T", [50.0, 199.95, 250.0, 1000.0])
    def test_moment_scan_agrees_with_direct_heads(self, T):
        ts = np.append(np.arange(1.0, T, 0.05), T)
        low = ts[ts < 200.0]
        z, bound = zeros_mod._moment_scan(low, 0.05)
        self._agrees_with_direct_heads(low, z, bound, _auto_terms(low[-1]))

    @pytest.mark.parametrize("T", [50.0, 199.95, 250.0, 1000.0])
    def test_bracket_end_values_agree_with_direct_heads(self, monkeypatch, T):
        # the refinement's first two moment calls read every bracket's ends
        # (z = 0 and z = step L/2), before any secant point moves an end
        ends, calls = [], []
        refine, moment_Z = zeros_mod._refine_zeros, zeros_mod._hardy_Z_moments

        def spy_refine(a, b, scan_a, scan_b):
            ends.extend([a, b])
            return refine(a, b, scan_a, scan_b)

        def spy_moment_Z(cs, left, moments, n_terms):
            z, bound = moment_Z(cs, left, moments, n_terms)
            if any(cs is e for e in ends):  # copies: refinement moves both in place
                calls.append((cs.copy(), z.copy(), bound, n_terms))
            return z, bound

        monkeypatch.setattr(zeros_mod, "_refine_zeros", spy_refine)
        monkeypatch.setattr(zeros_mod, "_hardy_Z_moments", spy_moment_Z)
        zeros_mod.find_zeros(T)
        assert len(calls) == 2
        for cs, z, bound, n_terms in calls:
            self._agrees_with_direct_heads(cs, z, bound, n_terms)

    @pytest.mark.parametrize("n_terms,step", [(269, 0.05), (141, 0.05), (269, 0.01), (25, 0.003)])
    def test_anchor_spacing_is_the_widest_within_1e_18(self, n_terms, step):
        g = zeros_mod._anchor_spacing(n_terms, step)
        dz = step * 0.5 * math.log(n_terms - 1)
        root_sum = np.sum(np.arange(1, n_terms, dtype=float) ** -0.5)
        assert _expansion_tail((g - 1) * dz) * root_sum <= 1e-18 < _expansion_tail(g * dz) * root_sum
        if (n_terms, step) == (269, 0.05):  # below t = 200 on find_zeros' grid
            assert g == 6

    def test_end_sign_disagreement_raises(self, monkeypatch):
        # a bracket end whose moment value has the other sign than the scan
        # says is no bracket: refining it would be refining noise
        ends = []
        refine, moment_Z = zeros_mod._refine_zeros, zeros_mod._hardy_Z_moments

        def spy_refine(a, b, scan_a, scan_b):
            ends.append(b)
            return refine(a, b, scan_a, scan_b)

        def flip_one_right_end(cs, left, moments, n_terms):
            z, bound = moment_Z(cs, left, moments, n_terms)
            if ends and cs is ends[0]:
                z = z.copy()
                z[3] = -z[3]
            return z, bound

        monkeypatch.setattr(zeros_mod, "_refine_zeros", spy_refine)
        monkeypatch.setattr(zeros_mod, "_hardy_Z_moments", flip_one_right_end)
        with pytest.raises(AccuracyError, match="sign"):
            find_zeros(50.0)

    def test_direct_heads_only_where_riemann_siegel_cannot_certify(self, monkeypatch):
        # below t = 200 and at the bracket ends Z comes from head moments:
        # hardy_Z (direct heads) sees only the 41 heights >= 200 whose
        # Riemann-Siegel bound does not exceed |Z|
        points = []

        def counting_hardy_Z(t, terms=None):
            points.append(np.size(t))
            return hardy_Z(t, terms=terms)

        monkeypatch.setattr(zeros_mod, "hardy_Z", counting_hardy_Z)
        assert len(find_zeros(1000.0)) == 649
        assert sum(points) == 41

    def test_no_brackets(self):
        # no sign change below the first zero: nothing to refine
        assert len(find_zeros(14.0)) == 0
        empty = np.empty(0)
        assert zeros_mod._refine_zeros(empty, empty, empty, empty).shape == (0,)

    def test_siegelz_changes_sign_at_each_zero(self):
        # an oracle independent of the finder's Z: mpmath's Z at 25 digits
        # has opposite signs 6e-13 below and above each zero (~46 ms a
        # height); 20 zeros spread over [14, 1000], gamma_100 and the last
        mpmath = pytest.importorskip("mpmath")
        gammas = find_zeros(1000.0).gammas
        picks = sorted({*np.linspace(0, len(gammas) - 1, 20).astype(int).tolist(), 99})
        assert picks[-1] == len(gammas) - 1 == 648
        with mpmath.workdps(25):
            for i in picks:
                g = mpmath.mpf(float(gammas[i]))
                below, above = mpmath.siegelz(g - 6e-13), mpmath.siegelz(g + 6e-13)
                assert below * above < 0, f"zero {i + 1} at {gammas[i]!r}"

    @staticmethod
    def _peak(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_peak(self):
        # the working set is the head buffer (16 bytes a value), the scan
        # grid's few float arrays and the refinement's moments: 1.88 MiB
        # measured, within the buffer and a dozen grid-long float arrays.
        # A scan that builds theta and its bound for the whole grid at
        # once, beside a 2^16-value buffer, peaks at 3.12 MiB and fails
        grid = 8 * len(np.arange(1.0, 1000.0, zeros_mod._STEP))
        assert self._peak(lambda: find_zeros(1000.0)) <= 16 * specfun._HEAD_BUF + 12 * grid

    def test_riemann_siegel_memory_peak(self):
        # past its two outputs, _rs_Z holds one slice of _HEAD_BUF // 4
        # terms: about six real temporaries of 8 bytes a term, within the
        # head buffer's 16 bytes a value (0.61 MiB measured on this grid).
        # Building theta and the bound for every height at once, with
        # slices of _HEAD_BUF terms, peaks at 2.68 MiB and fails
        ts = np.arange(200.0, 1000.0, zeros_mod._STEP)
        outputs = 2 * 8 * len(ts)
        assert self._peak(lambda: _rs_Z(ts)) <= outputs + 16 * specfun._HEAD_BUF

    def test_gammas_do_not_depend_on_the_buffer(self, monkeypatch):
        gammas = []
        for size in (1 << 16, 1 << 15):
            monkeypatch.setattr(specfun, "_HEAD_BUF", size)
            gammas.append(find_zeros(1000.0).gammas.tobytes())
        assert gammas[0] == gammas[1]

    def test_em_value_does_not_depend_on_the_batch(self):
        # the scan passes hardy_Z the heights Riemann-Siegel leaves, a
        # subset of the grid; each value must not depend on the subset
        self._same_bits_in_every_batch(np.arange(900.0, 1000.0, 0.05))

    def test_em_value_at_zeros_does_not_depend_on_the_batch(self):
        # at the zeros |Z| is far below the 1e-18 at which the Bernoulli
        # loop lets a height stop, so each height must stop on its own
        self._same_bits_in_every_batch(
            np.array(GOLDEN_1000.read_text(encoding="utf-8").split(), dtype=float)
        )

    @staticmethod
    def _same_bits_in_every_batch(ts):
        rng = np.random.default_rng(7)
        n_terms = _auto_terms(ts.max())
        whole = hardy_Z(ts, terms=n_terms)
        for size in (1, 2, 17, 300):
            idx = np.sort(rng.choice(len(ts), size=size, replace=False))
            assert hardy_Z(ts[idx], terms=n_terms).tobytes() == whole[idx].tobytes()


class TestGammaTerms:
    @staticmethod
    def _want(rho, logs):
        # the kernel's formula with log Gamma taken afresh over rho
        expo = loggamma(rho)
        for log in logs:
            expo = expo + log(rho)
        return np.where(expo.real <= -745.0, 0.0, np.exp(expo))

    def test_loggamma_once_per_set_same_bits(self, zeros_rh, monkeypatch):
        # every call reads the set's one log Gamma(rho) array, which is the
        # array loggamma gives, so each term keeps its bits; U_residue is a
        # call of the kernel over the conjugate pairs
        calls = []
        monkeypatch.setattr(zeros_mod, "loggamma", lambda z: calls.append(len(z)) or loggamma(z))
        zs = ZeroSet(betas=zeros_rh.betas, gammas=zeros_rh.gammas, height=zeros_rh.height)
        rho = zs.betas + 1j * zs.gammas
        pairs = np.column_stack([rho, np.conj(rho)]).ravel()
        p = PintzParams(mu=math.log(200.0), k=1.0, rho0=complex(0.5, GAMMA1))
        shift = (np.log, lambda r: p.k * (r - p.rho0) ** 2, lambda r: p.mu * (r - p.rho0))
        want = self._want(pairs, shift)
        assert zs.gamma_terms(*shift, conjugates=True).tobytes() == want.tobytes()
        assert U_residue(zs, p).value == complex(np.sum(want))
        for x in (1.0, 50.0, 777.0, 1e3, 1e6):
            power = (lambda r, log_x=math.log(x): r * log_x,)
            assert zs.gamma_terms(*power).tobytes() == self._want(rho, power).tobytes()
        assert calls == [len(zs)]
        assert not zs.loggamma_rho.flags.writeable
        with pytest.raises(ValueError):
            zs.loggamma_rho[0] = 0.0
        assert [f.name for f in dataclasses.fields(zs)] == ["betas", "gammas", "assume_rh", "height"]

    def test_one_entry_per_zero(self, zeros_rh):
        # 0 where binary64 underflows, in the zero's own place
        assert zeros_rh.gamma_terms().shape == (len(zeros_rh),)
        assert zeros_rh.gamma_terms(conjugates=True).shape == (2 * len(zeros_rh),)
        tiny = zeros_rh.gamma_terms(lambda r: np.where(r.imag > 20.0, -800.0, -700.0))
        assert np.count_nonzero(tiny) == 1 and tiny[0] != 0.0

    def test_conjugate_pairs_sum_to_twice_the_real_part(self, zeros_rh):
        eps = np.finfo(float).eps
        for x in (1.0, 50.0, 1e6):
            log_x = math.log(x)
            for logs in ((lambda r: r * log_x,), (np.log, lambda r: r * log_x)):
                terms = zeros_rh.gamma_terms(*logs)
                pairs = zeros_rh.gamma_terms(*logs, conjugates=True)
                assert pairs[0::2].tobytes() == terms.tobytes()
                total = pairs[0::2] + pairs[1::2]
                assert np.all(np.abs(total - 2.0 * terms.real) <= 4.0 * eps * np.abs(terms))


@pytest.mark.parametrize("x", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call, error",
    [
        pytest.param(explicit_delta, DomainError, id="explicit_delta"),
        pytest.param(zero_sum_W, DomainError, id="zero_sum_W"),
        pytest.param(zero_sum_W_terms, DomainError, id="zero_sum_W_terms"),
        pytest.param(omega_zero, DomainError, id="omega_zero"),
        pytest.param(lambda x, zs: omega_from_value(x, 1.0), RangeError, id="omega_from_value"),
        pytest.param(lambda v, zs: omega_from_value(10.0, v), DomainError, id="omega_from_value_v"),
        pytest.param(
            lambda x, zs: riemann_vonmangoldt_count(x), DomainError, id="riemann_vonmangoldt_count"
        ),
    ],
)
def test_non_finite_x_is_refused(zeros_rh, call, error, x):
    # the zero side refuses NaN and inf with its out-of-range error (and
    # omega_from_value a non-finite value v)
    with pytest.raises(error, match="finite"):
        call(x, zeros_rh)


class TestExplicitDelta:
    def test_at_one_all_powers_unity(self, zeros_rh):
        val = explicit_delta(1.0, zeros_rh)
        terms = sum(
            2.0 * gamma_complex(complex(b, g)).real
            for b, g in zip(zeros_rh.betas, zeros_rh.gammas)
        )
        assert val == pytest.approx(DELTA_LIMIT - terms, rel=1e-12)

    def test_terms_match_per_zero_loop(self, zeros_rh):
        log_x = math.log(50.0)
        terms = _zero_sum_terms(zeros_rh, log_x)
        for t, b, g in zip(terms, zeros_rh.betas, zeros_rh.gammas):
            expo = loggamma(complex(b, g)) + complex(b, g) * log_x
            expected = 2.0 * math.exp(expo.real) * math.cos(expo.imag)
            assert abs(t - expected) <= 1e-12 * abs(expected)

    def test_loggamma_once_per_set_same_bits(self, zeros_rh, monkeypatch):
        # every x reads the set's one log Gamma(rho) array, which is the
        # array loggamma gives, so each term keeps its bits
        calls = []
        monkeypatch.setattr(zeros_mod, "loggamma", lambda z: calls.append(len(z)) or loggamma(z))
        zs = ZeroSet(betas=zeros_rh.betas, gammas=zeros_rh.gammas, height=zeros_rh.height)
        rho = zs.betas + 1j * zs.gammas
        for x in (1.0, 50.0, 1e3, 1e6):
            expo = loggamma(rho) + rho * math.log(x)
            want = 2.0 * np.where(expo.real <= -745.0, 0.0, np.exp(expo)).real
            assert _zero_sum_terms(zs, math.log(x)).tobytes() == want.tobytes()
            explicit_delta(x, zs)
        assert calls == [len(zs)]
        assert not zs.loggamma_rho.flags.writeable

    def test_constant_modes_differ_by_half(self, zeros_rh):
        d = explicit_delta(100.0, zeros_rh, constant_mode="derived")
        p = explicit_delta(100.0, zeros_rh, constant_mode="paper")
        assert d - p == pytest.approx(0.5, rel=1e-12)

    def test_height_truncation_stable(self, zeros_rh):
        # Gamma(rho) decays like e^{-pi gamma / 2}: zeros beyond 50 are dust
        sub = ZeroSet(
            betas=zeros_rh.betas[:10], gammas=zeros_rh.gammas[:10], height=50.0
        )
        for x in (10.0, 1e3, 1e6):
            assert abs(explicit_delta(x, sub) - explicit_delta(x, zeros_rh)) < 1e-8

    def test_against_smoothed_delta_with_correction(self, table_mid, zeros_rh):
        # correction c1/x + c2(x)/x^2 from the residues at s = -1 and s = -2
        # (see explicit_delta); the x^-3 term left over is ~1.1e-10 here
        x = 1e3
        c1 = math.log(2 * math.pi) - (1.0 - EULER_GAMMA) - zeta_logderiv(2.0).real - 1.0 / 12.0
        c2 = -(math.log(2 * math.pi * x) - zeta_logderiv(3.0).real) / 2.0
        lhs = explicit_delta(x, zeros_rh, constant_mode="derived")
        rhs = delta(table_mid, x, tol=1e-9).delta - c1 / x - c2 / x**2
        assert abs(lhs - rhs) <= 1e-9

    def test_empty_set(self):
        zs = ZeroSet(betas=np.array([]), gammas=np.array([]))
        with pytest.raises(EmptySetError):
            explicit_delta(10.0, zs)

    def test_bad_mode(self, zeros_rh):
        with pytest.raises(DomainError):
            explicit_delta(10.0, zeros_rh, constant_mode="other")
