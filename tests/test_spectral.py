"""Exact eigenbasis evolution: phase rotation, reconstruction, densities."""

import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import relwell

from relwell import (
    autocorrelation,
    CoefficientVector,
    SpatialGrid,
    WavepacketSpec,
    WellModel,
    decompose,
    density_rows,
    dominant_level,
    energy,
    evolve,
    gaussian_state,
    reconstruct_at,
    revival_times,
)
from relwell.grids import sine_transform, sine_workspace
from relwell.spectral import phases
from oracles import reconstruct

MODEL = WellModel(well_width=125.0 * 2.0 * math.pi)
L = MODEL.well_width


def fig2_coefficients(grid_intervals=2048):
    grid = SpatialGrid(L, grid_intervals)
    spec = WavepacketSpec(x0=L / 2, sigma=L / 20, p0=0.0)
    return decompose(gaussian_state(spec, grid, MODEL), MODEL), grid


class TestEvolve:
    def test_zero_time_identity(self):
        coeffs, _ = fig2_coefficients(512)
        out = evolve(coeffs, 0.0)
        assert np.array_equal(out.coefficients, coeffs.coefficients)

    def test_moduli_preserved(self):
        coeffs, _ = fig2_coefficients(512)
        for t in (1.0, 1e4, -3e7):
            out = evolve(coeffs, t)
            assert np.max(np.abs(np.abs(out.coefficients) - np.abs(coeffs.coefficients))) < 1e-15

    def test_reversibility(self):
        raw = np.zeros(6, dtype=complex)
        raw[5] = 1.0
        coeffs = CoefficientVector(raw, MODEL)
        out = evolve(evolve(coeffs, 123.456), -123.456)
        assert np.max(np.abs(out.coefficients - raw)) < 1e-14

    def test_norm_constant(self):
        coeffs, _ = fig2_coefficients(512)
        base = coeffs.norm_squared()
        for t in np.geomspace(1.0, 1e9, 7):
            assert abs(evolve(coeffs, t).norm_squared() - base) < 1e-14

    def test_composition_at_large_times(self):
        # phases reduced in double-double: evolving in two big steps must agree
        # with a single combined step
        coeffs, _ = fig2_coefficients(512)
        t1, t2 = 3.1e9, 4.7e9
        once = evolve(coeffs, t1 + t2)
        twice = evolve(evolve(coeffs, t1), t2)
        assert np.max(np.abs(once.coefficients - twice.coefficients)) < 1e-9

    def test_phase_agrees_with_reduced_arithmetic(self):
        # single level: the rotated phase must match exact modular reduction
        model = WellModel(well_width=math.pi)
        raw = np.array([1.0 + 0.0j])
        t = 1.0e12
        rotated = evolve(CoefficientVector(raw, model), t).coefficients[0]
        import mpmath as mp

        mp.mp.dps = 40
        theta = mp.mpf(energy(model, 1)) * t % (2 * mp.pi)
        expected = complex(mp.cos(-theta), mp.sin(-theta))
        assert abs(rotated - expected) < 1e-6


class TestPhaseKernel:
    """The one phase kernel against 40-digit reduction, through each caller."""

    MODEL = WellModel(well_width=math.pi)

    def rotation(self, n, t):
        """exp(-i E_n t / hbar) from a 40-digit reduction of the phase."""
        import mpmath as mp

        mp.mp.dps = 40
        theta = mp.mpf(energy(self.MODEL, n)) * t % (2 * mp.pi)
        return complex(mp.cos(-theta), mp.sin(-theta))

    @pytest.mark.parametrize("t", [1e3, 1e6, 1e9, 1e12])
    def test_phases(self, t):
        theta = phases(energy(self.MODEL, np.array([1])), t, self.MODEL.hbar)[0]
        assert abs(np.exp(-1j * theta) - self.rotation(1, t)) < 1e-6

    @pytest.mark.parametrize("t", [1e3, 1e6, 1e9, 1e12])
    def test_autocorrelation(self, t):
        coeffs = CoefficientVector(np.array([1.0 + 0.0j]), self.MODEL)
        value = autocorrelation(coeffs, [t]).values[0]
        assert abs(value - self.rotation(1, t)) < 1e-6

    @pytest.mark.parametrize("t", [1e3, 1e6, 1e9, 1e12])
    def test_density_rows(self, t):
        # a single mode's density carries no phase, so the row holds two modes
        # and its shape follows their relative phase
        grid = SpatialGrid(self.MODEL.well_width, 64)
        raw = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        row = density_rows(CoefficientVector(raw, self.MODEL), grid, [t])[0]
        x = grid.points
        L = grid.well_width
        psi = sum(
            a * self.rotation(n, t) * math.sqrt(2.0 / L) * np.sin(n * np.pi * x / L)
            for n, a in zip((1, 2), raw)
        )
        assert np.max(np.abs(row - np.abs(psi) ** 2)) < 1e-6


class TestPhaseSweep:
    """Double-double phases against 40-digit reduction of the same float64
    energies and times, from t = 1e3 to 1e14 and from the rest mass to the
    ultra-relativistic regime (E_1 = 1 + 2e-7 up to E = 1000, v/c = 1)."""

    CASES = [
        (WellModel(well_width=800.0 * 2.0 * math.pi), (1, 521, 5000)),
        (WellModel(well_width=math.pi), (1, 10, 1000)),
    ]
    TIMES = np.geomspace(1e3, 1e14, 12)

    @staticmethod
    def reduced(e, t, hbar):
        """E t / hbar mod 2 pi at 40 digits."""
        with mp.workdps(40):
            return mp.fmod(mp.mpf(float(e)) * mp.mpf(float(t)) / mp.mpf(hbar), 2 * mp.pi)

    @staticmethod
    def turn_distance(theta, exact):
        with mp.workdps(40):
            d = abs(mp.mpf(float(theta)) - exact)
            return float(min(d, 2 * mp.pi - d))

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_phases(self, case):
        model, levels = self.CASES[case]
        energies = energy(model, np.array(levels))
        worst = 0.0
        for t in self.TIMES:
            for e, theta in zip(energies, phases(energies, t, model.hbar)):
                assert 0.0 <= theta < 2.0 * math.pi
                worst = max(worst, self.turn_distance(theta, self.reduced(e, t, model.hbar)))
        assert worst < 1e-14

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_evolve(self, case):
        model, levels = self.CASES[case]
        raw = np.ones(max(levels), dtype=complex)
        for t in self.TIMES:
            rotated = evolve(CoefficientVector(raw, model), t).coefficients
            for n in levels:
                theta = self.reduced(energy(model, n), t, model.hbar)
                with mp.workdps(40):
                    want = complex(mp.cos(theta), -mp.sin(theta))
                assert abs(rotated[n - 1] - want) < 1e-14

    def test_extreme_inputs_stay_in_range(self):
        # two-products of operands near the float64 limits must not overflow
        big = np.finfo(float).max
        energies = np.array([5e-324, 1e-300, 1.0, 1e300, big])[:, None]
        times = np.array([-big, -1e302, -1.0, 0.0, 5e-324, 1e302, 1e308, big])
        theta = phases(energies, times, 1.0)
        assert np.all(np.isfinite(theta))
        assert np.all((theta >= 0.0) & (theta < 2.0 * math.pi))
        assert theta[2, 2] == pytest.approx(2.0 * math.pi - 1.0, abs=1e-15)

    def test_integer_hbar_beyond_int64(self):
        # a JSON config can give hbar as an integer no fixed-width type holds
        energies = energy(self.CASES[0][0], np.array([1, 2]))
        assert np.array_equal(phases(energies, 1e9, 2**64), phases(energies, 1e9, 2.0**64))

    def test_no_extended_precision_in_source(self):
        # long double is float64 on some platforms, which costs 1e-4 rad at t = 1e12
        package = Path(relwell.__file__).parent
        mentions = [p.name for p in package.rglob("*.py") if "longdouble" in p.read_text()]
        assert mentions == []


class TestSineTransform:
    """The numpy DST-I against scipy.fft.dst(type=1), bit for bit."""

    @staticmethod
    def reference(part):
        from scipy.fft import dst

        return dst(part, type=1)

    @staticmethod
    def assert_same_bits(got, want):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 3, 777, 1000, 1023, 2047, 4095])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        workspace = sine_workspace(n)
        for part in (values.real, values.imag):
            self.assert_same_bits(sine_transform(part, workspace), self.reference(part))

    @pytest.mark.parametrize("n", [1, 2, 1023])
    def test_zero_rows_keep_their_signs(self, n):
        for zero in (0.0, -0.0):
            part = np.full(n, zero)
            got, want = sine_transform(part, sine_workspace(n)), self.reference(part)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            self.assert_same_bits(got, want)

    def test_interior_slice_views(self):
        # the strided .real and .imag of a complex interior slice, as
        # decompose passes them
        rng = np.random.default_rng(7)
        padded = np.zeros(1026, dtype=np.complex128)
        padded[1:400] = rng.standard_normal(399) + 1j * rng.standard_normal(399)
        interior = padded[1:-1]
        assert not interior.real.flags.c_contiguous
        workspace = sine_workspace(interior.size)
        for part in (interior.real, interior.imag):
            self.assert_same_bits(sine_transform(part, workspace), self.reference(part))

    def test_short_part_is_zero_padded(self):
        # a reused workspace forgets a longer earlier part: n_max amplitudes
        # transform as the grid-length vector that holds them
        rng = np.random.default_rng(9)
        workspace = sine_workspace(1023)
        sine_transform(rng.standard_normal(1023), workspace)
        for k in (400, 0, 1023):
            part = rng.standard_normal(k)
            padded = np.zeros(1023)
            padded[:k] = part
            self.assert_same_bits(sine_transform(part, workspace), self.reference(padded))

    def test_scale_into_strided_out(self):
        rng = np.random.default_rng(4)
        part = rng.standard_normal(777)
        out = np.empty(777, dtype=np.complex128)
        got = sine_transform(part, sine_workspace(777), 0.3, out=out.imag)
        assert np.shares_memory(got, out)
        self.assert_same_bits(out.imag, 0.3 * self.reference(part))

    def test_part_longer_than_the_workspace_refused(self):
        with pytest.raises(ValueError, match="length 4"):
            sine_transform(np.ones(5), sine_workspace(4))


class TestReconstruct:
    def test_single_mode(self):
        grid = SpatialGrid(L, 256)
        raw = np.zeros(1, dtype=complex)
        raw[0] = 1.0
        state = reconstruct(CoefficientVector(raw, MODEL), grid)
        target = math.sqrt(2.0 / L) * np.sin(np.pi * grid.points / L)
        assert np.max(np.abs(state.values - target)) < 1e-12

    def test_inverse_of_decompose(self):
        coeffs, grid = fig2_coefficients(512)
        back = decompose(reconstruct(coeffs, grid), MODEL, n_max=coeffs.n_max)
        assert np.max(np.abs(back.coefficients - coeffs.coefficients)) < 1e-12

    def test_direct_summation_oracle(self):
        # DST-based reconstruction against direct sine sums at random points
        coeffs, grid = fig2_coefficients(1024)
        state = reconstruct(coeffs, grid)
        rng = np.random.default_rng(11)
        idx = rng.integers(1, grid.intervals, size=16)
        direct = reconstruct_at(coeffs, grid.points[idx])
        err = np.sqrt(np.sum(np.abs(state.values[idx] - direct) ** 2) * grid.spacing)
        assert err < 1e-8

    def test_norm_matches_coefficients(self):
        coeffs, grid = fig2_coefficients(512)
        state = reconstruct(coeffs, grid)
        assert state.norm_squared() == pytest.approx(coeffs.norm_squared(), abs=1e-10)

    def test_under_resolved_grid_rejected(self):
        raw = np.zeros(300, dtype=complex)
        raw[-1] = 1.0
        with pytest.raises(ValueError):
            reconstruct(CoefficientVector(raw, MODEL), SpatialGrid(L, 256))


class TestDensity:
    def test_initial_row(self):
        coeffs, grid = fig2_coefficients(512)
        row = density_rows(coeffs, grid, [0.0])[0]
        # exact identity against the truncated state the engine evolves
        truncated = reconstruct(coeffs, grid)
        assert np.max(np.abs(row - truncated.density())) < 1e-14
        # and the truncation itself only touches the sampled Gaussian at the
        # tail-threshold level
        state = gaussian_state(WavepacketSpec(L / 2, L / 20), grid, MODEL)
        assert np.max(np.abs(row - state.density())) < 1e-8

    def test_stationary_state(self):
        grid = SpatialGrid(L, 256)
        raw = np.zeros(4, dtype=complex)
        raw[3] = 1.0
        coeffs = CoefficientVector(raw, MODEL)
        base, *later = density_rows(coeffs, grid, [0.0, 10.0, 1e5])
        for row in later:
            assert np.max(np.abs(row - base)) < 1e-12

    def test_full_revival_row(self):
        # after one revival time the density returns to the initial profile
        coeffs, grid = fig2_coefficients(2048)
        t_rev = revival_times(MODEL, dominant_level(coeffs)).t_revival
        row0, row1 = density_rows(coeffs, grid, [0.0, t_rev])
        l1 = np.sum(np.abs(row1 - row0)) * grid.spacing
        assert l1 < 0.05

    def test_rows_match_single_calls(self):
        coeffs, grid = fig2_coefficients(512)
        times = np.array([0.0, 17.3, 9910.0])
        rows = density_rows(coeffs, grid, times)
        for i, t in enumerate(times):
            single = reconstruct(evolve(coeffs, t), grid).density()
            assert np.array_equal(rows[i], single)

    def test_energies_computed_once_per_carpet(self, monkeypatch):
        # the frequencies do not depend on t, so the row loop reuses them
        import relwell.spectral as spectral

        calls = []

        def counted(model, n):
            calls.append(n)
            return energy(model, n)

        monkeypatch.setattr(spectral, "energy", counted)
        coeffs, grid = fig2_coefficients(512)
        density_rows(coeffs, grid, np.linspace(0.0, 50.0, 7))
        assert len(calls) == 1

    def test_non_finite_time_rejected(self):
        coeffs, grid = fig2_coefficients(512)
        with pytest.raises(ValueError, match="finite"):
            density_rows(coeffs, grid, [0.0, math.inf])

    def test_grid_must_hold_the_coefficients(self):
        raw = np.zeros(300, dtype=complex)
        raw[-1] = 1.0
        with pytest.raises(ValueError, match="cannot represent level 300"):
            density_rows(CoefficientVector(raw, MODEL), SpatialGrid(L, 256), [0.0])
        with pytest.raises(ValueError, match="well width"):
            density_rows(CoefficientVector(raw, MODEL), SpatialGrid(2.0 * L, 1024), [0.0])

    def test_workspace_is_a_few_rows(self):
        # 64 rows on 2^16 intervals: the output, a transform workspace of two
        # complex rows, and one evolve of 4000 levels
        grid = SpatialGrid(L, 1 << 16)
        rng = np.random.default_rng(3)
        raw = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
        coeffs = CoefficientVector(raw, MODEL)
        times = np.linspace(0.0, 100.0, 64)
        density_rows(coeffs, grid, times[:1])  # load the FFT before tracing
        tracemalloc.start()
        try:
            rows = density_rows(coeffs, grid, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        complex_row = 16 * (grid.intervals + 1)
        assert peak <= rows.nbytes + 3 * complex_row

    def test_norm_conserved_under_evolution(self):
        coeffs, grid = fig2_coefficients(512)
        t_rev = revival_times(MODEL, 1).t_revival
        for t in (0.0, 0.37 * t_rev, 5.0 * t_rev):
            state = reconstruct(evolve(coeffs, t), grid)
            assert abs(state.norm_squared() - 1.0) < 1e-10


class TestAutocorrelationPeaks:
    def test_revival_and_fractional_peaks(self):
        coeffs, _ = fig2_coefficients(2048)
        rt = revival_times(MODEL, dominant_level(coeffs))
        value = abs(autocorrelation(coeffs, [rt.t_revival]).values[0])
        assert value > 0.9
        # local maxima of |A| within 1% T_rev of T_rev/4 and T_rev/2
        for fraction in (0.25, 0.5):
            window = np.linspace(
                (fraction - 0.02) * rt.t_revival, (fraction + 0.02) * rt.t_revival, 801
            )
            mags = np.abs(autocorrelation(coeffs, window).values)
            peak_at = window[int(np.argmax(mags))]
            assert abs(peak_at - fraction * rt.t_revival) < 0.01 * rt.t_revival
            assert mags.max() > 0.9
