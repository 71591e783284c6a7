import importlib.util
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothed_pnt import cli
from smoothed_pnt.errors import AliasError, CapacityError, DomainError, RangeError
from smoothed_pnt.goldbach import (
    DIRECT_LIMIT,
    ConvolutionTable,
    _banded_fft,
    _direct,
    _certified_limits,
    contour_cutoff,
    contour_extract,
    convolve_psik,
    fk_cutoff,
    fk_tail_bound,
    psi2_centered,
    smooth_Fk,
)
from smoothed_pnt.sieve import build_lambda
from smoothed_pnt.smooth import delta, truncation_cutoff

LOG2 = math.log(2)
LOG3 = math.log(3)


class TestConvolution:
    def test_small_values_k2(self, table_small):
        conv = convolve_psik(table_small, 2, 50)
        assert conv.values[4] == pytest.approx(LOG2**2, rel=1e-14)
        assert conv.values[5] == pytest.approx(2 * LOG2 * LOG3, rel=1e-14)

    def test_small_values_k3(self, table_small):
        conv = convolve_psik(table_small, 3, 50)
        assert conv.values[6] == pytest.approx(LOG2**3, rel=1e-14)

    def test_zero_below_2k_and_nonnegative(self, table_small):
        conv = convolve_psik(table_small, 4, 200)
        assert np.all(conv.values[:8] == 0.0)
        assert np.all(conv.values >= 0.0)

    def test_enumeration_oracle_k2(self, table_small):
        # O(N^2) brute force over ordered pairs
        N = 60
        lam = table_small.values
        for n in range(2, N + 1):
            brute = sum(lam[m] * lam[n - m] for m in range(1, n))
            conv = convolve_psik(table_small, 2, N)
            assert conv.values[n] == pytest.approx(brute, rel=1e-12, abs=1e-15)

    def test_direct_and_fft_agree(self, table_small):
        d = convolve_psik(table_small, 2, 5000).values  # exact sums below DIRECT_LIMIT
        f = _banded_fft(table_small.values[:5001], 2)
        nz = d > 0
        assert np.max(np.abs(f[nz] / d[nz] - 1.0)) <= 1e-9

    def test_banded_fft_accuracy_by_parity(self):
        # each band rounds on the scale of its largest coefficient, which
        # is of the dense parity: even n for k = 2 (psi_2 at odd n needs a
        # power of two), odd n for k = 3.  Worst relative errors against
        # exact sums at the lower_bound benchmark's convolution limit:
        # 4.5e-12 and 1.6e-15 (k = 2, odd and even n), 2.3e-15 and 2.2e-13
        # (k = 3, odd and even n)
        N = 37_002
        table = build_lambda(N)
        seq = table.values[: N + 1]
        exact = {2: np.convolve(seq, seq)[: N + 1]}
        exact[3] = np.convolve(exact[2], seq)[: N + 1]
        odd = np.arange(N + 1) % 2 == 1
        for k, odd_most, even_most in ((2, 1e-11, 4e-15), (3, 5e-15, 5e-13)):
            vals = convolve_psik(table, k, N).values
            nz = exact[k] > 0
            rel = np.zeros(N + 1)
            rel[nz] = np.abs(vals[nz] / exact[k][nz] - 1.0)
            assert rel[odd].max() <= odd_most, k
            assert rel[~odd].max() <= even_most, k

    @pytest.mark.parametrize("N", [37_002, DIRECT_LIMIT + 1])
    def test_banded_fft_has_the_bits_of_two_transforms_a_power(self, N):
        # the square is spectrum * spectrum, where the oracle, _banded_fft
        # as it was, transforms seq[:hi+1] a second time for it
        def two_transforms(seq, k):
            vals = np.empty(len(seq))
            hi = len(seq) - 1
            while hi > 64:
                size = 1 << (2 * hi).bit_length()
                spectrum = np.fft.rfft(seq[: hi + 1], size)
                acc = seq[: hi + 1]
                for _ in range(k - 1):
                    acc = np.fft.irfft(np.fft.rfft(acc, size) * spectrum, size)[: hi + 1]
                    acc[np.abs(acc) < 1e-30] = 0.0
                vals[hi // 2 + 1 : hi + 1] = acc[hi // 2 + 1 :]
                hi //= 2
            vals[: hi + 1] = _direct(seq[: hi + 1], k)
            return vals

        seq = build_lambda(N).values
        for k in range(2, 6):
            assert _banded_fft(seq, k).tobytes() == two_transforms(seq, k).tobytes(), k

    def test_banded_fft_holds_two_spectra(self):
        # at k = 2 the top band holds its squared spectrum and irfft's
        # output, size // 2 + 1 complex and size real entries, beside vals,
        # the cleanup's |acc| and mask and one more array of N + 1 floats:
        # 2.92 MB at N = 37,002, where a third spectrum, the product of
        # two transforms, took 3.44 MB
        N = 37_002
        seq = build_lambda(N).values
        _banded_fft(seq, 2)  # what numpy caches for these sizes stays out of the peak
        tracemalloc.start()
        try:
            _banded_fft(seq, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = 1 << (2 * N).bit_length()
        assert peak <= 2 * 16 * (size // 2 + 1) + 3 * 8 * (N + 1) + (N + 1)

    def test_k_range_and_capacity(self, table_small):
        with pytest.raises(DomainError):
            convolve_psik(table_small, 9, 100)
        with pytest.raises(CapacityError):
            convolve_psik(table_small, 2, 20_000)


class TestCentered:
    def test_smallest_values(self, table_small):
        c = psi2_centered(table_small, 10)
        assert c[2] == pytest.approx(1.0, rel=1e-14)  # (Lambda(1)-1)^2
        assert c[3] == pytest.approx(2 * (1 - LOG2), rel=1e-14)

    def test_enumeration_oracle(self, table_small):
        # O(N^2) brute force over ordered pairs of the centered sequence;
        # the expansion through psi_2 is within 5.5e-16 n of it at N = 100
        N = 100
        c = psi2_centered(table_small, N)
        lam = table_small.values
        assert c[0] == c[1] == 0.0
        for n in range(2, N + 1):
            brute = sum((lam[m] - 1.0) * (lam[n - m] - 1.0) for m in range(1, n))
            assert abs(c[n] - brute) <= 4e-15 * n


class TestSmoothFk:
    def test_k1_equals_delta_psi(self, table_mid):
        x = 100.0
        limit = truncation_cutoff(x, 1e-9)
        conv = convolve_psik(table_mid, 1, limit)
        fk = smooth_Fk(conv, x, tol=1e-9)
        assert fk == pytest.approx(delta(table_mid, x, tol=1e-9).psi, rel=1e-12)

    @pytest.mark.parametrize("k,x,tol", [(2, 50.0, 1e-8), (3, 50.0, 1e-7)])
    def test_power_identity(self, table_small, k, x, tol):
        conv = convolve_psik(table_small, k, 3000)
        fk = smooth_Fk(conv, x, tol=1e-9)
        psi = delta(table_small, x, tol=1e-12).psi
        assert fk == pytest.approx(psi**k, rel=tol)

    @pytest.mark.parametrize("x, tol, limit", [(100.0, 1e-3, 2_469), (12_000.0, 100.0, 278_432)])
    def test_table_end_inside_a_block(self, table_mid, x, tol, limit):
        # the engine sums whole blocks, 64 at x = 100 and 4096 at
        # x = 12000: a limit 37 and 4000 entries into a block, past
        # fk_cutoff (2,411 and 276,819), is read to that block's end
        # through the zeros that pad the last tile; stopping at the block
        # before would drop 2.1e-10 and 7.6e-10 of F_2
        conv = convolve_psik(table_mid, 2, limit)
        n = np.arange(1, limit + 1, dtype=float)
        direct = float(np.dot(conv.values[1:], np.exp(-n / x)))
        assert abs(smooth_Fk(conv, x, tol=tol) - direct) <= 1e-13 * direct

    def test_grid_is_bitwise_each_point_alone(self, table_mid):
        # one cutoff search and one kernel pass serve the whole grid (x = 10
        # is a direct sum, the rest read block moments of the banded FFT's
        # coefficients); a scalar x gives a float
        conv = convolve_psik(table_mid, 2, 40_000)
        xs = np.geomspace(10.0, 1e3, 7)
        fk = smooth_Fk(conv, xs, tol=1e-6)
        alone = [smooth_Fk(conv, x, tol=1e-6) for x in xs.tolist()]
        assert all(type(f) is float for f in alone)
        assert fk.tolist() == alone

    def test_grid_capacity_names_the_first_x(self, table_small):
        conv = convolve_psik(table_small, 2, 3000)
        with pytest.raises(CapacityError, match="at x = 400;") as exc:
            smooth_Fk(conv, [10.0, 400.0, 900.0], tol=1e-9)
        assert f">= {fk_cutoff(2, 400.0, 1e-9)}" in str(exc.value)

    def test_capacity_reports_required_limit(self, table_small):
        conv = convolve_psik(table_small, 2, 100)
        with pytest.raises(CapacityError) as exc:
            smooth_Fk(conv, 50.0, tol=1e-9)
        assert f">= {fk_cutoff(2, 50.0, 1e-9)}" in str(exc.value)

    @pytest.mark.parametrize(
        "k,x,tol,want",
        [(3, 1e3, 1e-6, 50_210), (2, 1e3, 1e-6, 36_630), (2, 600.0, 1e-6, 21_282)],
    )
    def test_cutoff_is_smallest_certified_limit(self, k, x, tol, want):
        L = fk_cutoff(k, x, tol)
        assert L == want
        assert fk_tail_bound(k, L, x) <= tol < fk_tail_bound(k, L - 1, x)

    def test_cutoff_needs_positive_tol(self):
        with pytest.raises(DomainError):
            fk_cutoff(2, 10.0, 0.0)

    @pytest.mark.parametrize("x", [0.0, -1.0, -5.0, math.inf, math.nan])
    def test_x_must_be_positive_and_finite(self, table_small, x):
        with pytest.raises(RangeError, match="positive and finite"):
            fk_cutoff(2, x, 1e-6)
        with pytest.raises(RangeError, match="positive and finite"):
            fk_tail_bound(2, 1000, x)
        with pytest.raises(RangeError, match="positive and finite"):
            smooth_Fk(convolve_psik(table_small, 2, 100), x, tol=1e-6)

    def test_tail_bound_conservative(self, table_small):
        # the bound must dominate the actual omitted tail
        x = 20.0
        full = convolve_psik(table_small, 2, 4000)
        short = convolve_psik(table_small, 2, 1200)
        actual_tail = smooth_Fk(full, x, tol=1e-12) - float(
            np.dot(
                short.values[1:],
                np.exp(-np.arange(1, short.limit + 1, dtype=float) / x),
            )
        )
        assert fk_tail_bound(2, 1200, x) >= abs(actual_tail)


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _linear_tail_bound(k, limit, x):
    """fk_tail_bound's envelope with its ratio in linear form, 1 - e^{-1/(2x)}."""
    if limit <= max(8, 4 * k * x):
        return math.inf
    log_term = (k - 1) * math.log(limit) + k * math.log(math.log(limit))
    return math.exp(log_term - limit / x) / (1.0 - math.exp(-0.5 / x))


def _scalar_cutoff(k, x, tol):
    """fk_cutoff by a scalar doubling-then-bisection search on _linear_tail_bound."""
    def fits(m):
        return _linear_tail_bound(k, m, x) <= tol

    lo = hi = int(max(8, 4 * k * x)) + 1
    if fits(lo):
        return lo
    while not fits(hi):
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if fits(mid) else (mid, hi)
    return hi


def _goldbach_config_points():
    """(k, x, tol) at every x of the golden, CLI-default and lower_bound seed 0-9 grids."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    grids = ["10:1e2:3", "10:1e3:7"] + [
        step[4] for seed in range(10) for step in workloads.steps("lower_bound", seed)
        if step[0] == "goldbach"
    ]
    assert len(grids) == 12
    return [(2, x, 1e-6) for grid in grids for x in cli._parse_grid(grid).tolist()]


def test_fk_cutoff_is_the_scalar_search():
    # 20,000 seeded draws, 100 x in [1e-2, 1e6] for each of 25 tolerances
    # at each k, go through fk_cutoff's batched search, and the first x of
    # each batch through fk_cutoff itself.  Past x ~ 1.6e6 the linear
    # form's 1 - e^{-1/(2x)} loses enough digits to move a cutoff by one.
    rng = np.random.default_rng(20_023)
    for k in range(1, 9):
        for tol in 10.0 ** rng.uniform(-15.0, -1.0, 25):
            xs = 10.0 ** rng.uniform(-2.0, 6.0, 100)
            want = [_scalar_cutoff(k, x, tol) for x in xs.tolist()]
            assert _certified_limits(k, xs, tol).tolist() == want, (k, tol)
            assert fk_cutoff(k, xs[0], tol) == want[0]
    for k, x, tol in _goldbach_config_points():
        assert fk_cutoff(k, x, tol) == _scalar_cutoff(k, x, tol)


class TestContour:
    def test_smallest_case(self, table_small):
        val, imag = contour_extract(table_small, 2, r=math.exp(-0.5))
        assert val == pytest.approx(1.0, rel=1e-10)
        assert imag <= 1e-10

    def test_matches_direct_sum(self, table_small):
        val, imag = contour_extract(table_small, 100, r=math.exp(-0.01))
        direct = float(np.sum(psi2_centered(table_small, 100)[:101]))
        assert val == pytest.approx(direct, rel=1e-6)
        assert imag <= 1e-10

    def test_unsquared_reading_extracts_lambda_sum(self, table_small):
        # the literal (unsquared) generating factor picks out sum (Lambda - 1)
        val, _ = contour_extract(table_small, 100, r=math.exp(-0.01), squared=False)
        expected = float(np.sum(table_small.values[1:101])) - 100.0
        assert val == pytest.approx(expected, rel=1e-6)

    def test_default_radius(self, table_small):
        v1, _ = contour_extract(table_small, 50)
        v2, _ = contour_extract(table_small, 50, r=math.exp(-1.0 / 50))
        assert v1 == v2

    def test_alias_guard(self, table_small):
        with pytest.raises(AliasError):
            contour_extract(table_small, 100, r=math.exp(-0.01), nodes=2000)

    def test_radius_capacity(self, table_small):
        with pytest.raises(CapacityError):
            contour_extract(table_small, 100, r=math.exp(-1.0 / 20_000))

    def test_radius_domain(self, table_small):
        with pytest.raises(DomainError):
            contour_extract(table_small, 100, r=1.5)

    def test_cutoff_is_the_table_the_quadrature_reads(self):
        from smoothed_pnt.sieve import build_lambda

        C = contour_cutoff(100)
        assert C == 4145
        contour_extract(build_lambda(C), 100)
        with pytest.raises(CapacityError):
            contour_extract(build_lambda(C - 1), 100)


# The banded FFT rounds each coefficient relative to its own band, so F_k
# carries a relative rounding error: on x in [10, 300] at tol = 1e-15 x^k
# it was at most 31 eps of Psi^k over 300 draws.  One transform over the
# whole range is off by about eps (L/x)^{k-1}, most of F_k at k = 5.
@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 5), x=st.floats(10.0, 300.0))
def test_fk_equals_psi_power(table_mid, k, x):
    tol = 1e-15 * x**k
    L = fk_cutoff(k, x, tol)
    fk = smooth_Fk(ConvolutionTable(k, L, _banded_fft(table_mid.values[: L + 1], k)), x, tol=tol)
    psi = smooth_Fk(convolve_psik(table_mid, 1, L), x, tol=tol)
    # Psi_L^k adds to F_k only k-tuples past L, which the tail bound covers
    assert abs(fk - psi**k) <= tol + 32 * k * np.finfo(float).eps * psi**k
