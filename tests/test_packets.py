"""Gaussian states, eigenbasis decomposition, dominant-level selection."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc

from relwell import (
    BoxGrid,
    CoefficientVector,
    GridState,
    SimulationError,
    SpatialGrid,
    WavepacketSpec,
    WellModel,
    decompose,
    dominant_level,
    gaussian_state,
)
from relwell.packets import TAIL_RUN, write_coefficients_csv
from oracles import reconstruct
from references import eigenfunction_position, gaussian_overlap_coefficients

MODEL = WellModel(well_width=125.0 * 2.0 * math.pi)
L = MODEL.well_width


def centered_packet(sigma=L / 20.0, x0=L / 2.0, p0=0.0):
    return WavepacketSpec(x0=x0, sigma=sigma, p0=p0)


class TestGaussianState:
    def test_unit_discrete_norm(self):
        grid = SpatialGrid(L, 1024)
        state = gaussian_state(centered_packet(), grid, MODEL)
        assert state.norm_squared() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_about_center(self):
        grid = SpatialGrid(L, 1024)
        state = gaussian_state(centered_packet(), grid, MODEL)
        assert np.max(np.abs(state.values - state.values[::-1])) < 1e-14

    def test_wall_tail_mass(self):
        # 10 sigma to each wall: the discarded Gaussian mass is the closed-form
        # tail integral, far below 1e-20
        grid = SpatialGrid(L, 1024)
        state = gaussian_state(centered_packet(), grid, MODEL)
        expected = erfc(10.0 / math.sqrt(2.0))
        assert state.metadata["discarded_mass"] == pytest.approx(expected, rel=1e-10)
        assert state.metadata["discarded_mass"] < 1e-20

    def test_zero_at_walls(self):
        grid = SpatialGrid(L, 512)
        state = gaussian_state(centered_packet(), grid, MODEL)
        assert state.values[0] == 0.0 and state.values[-1] == 0.0

    def test_coarse_grid_rejected(self):
        grid = SpatialGrid(L, 64)  # fewer than 8 points per sigma at sigma=L/20
        with pytest.raises(ValueError):
            gaussian_state(centered_packet(), grid, MODEL)

    def test_center_outside_box_rejected(self):
        with pytest.raises(ValueError):
            gaussian_state(WavepacketSpec(x0=-1.0, sigma=L / 20), SpatialGrid(L, 512), MODEL)

    def test_wide_packet_rejected(self):
        with pytest.raises(ValueError):
            gaussian_state(WavepacketSpec(x0=L / 2, sigma=0.6 * L), SpatialGrid(L, 4096), MODEL)


class TestDecompose:
    def test_pure_eigenstate(self):
        grid = SpatialGrid(L, 512)
        values = eigenfunction_position(L, 3, grid.points).astype(complex)
        state = GridState(values, grid)
        coeffs = decompose(state, MODEL, n_max=16)
        assert abs(coeffs.coefficients[2] - 1.0) < 1e-12
        others = np.delete(np.abs(coeffs.coefficients), 2)
        assert others.max() < 1e-10

    def test_even_levels_vanish_for_centered_packet(self):
        grid = SpatialGrid(L, 2048)
        coeffs = decompose(gaussian_state(centered_packet(), grid, MODEL), MODEL)
        weights = coeffs.weights()
        assert weights[1::2].max() < 1e-10 * weights.max()

    def test_every_third_level_vanishes_at_two_thirds(self):
        grid = SpatialGrid(L, 2048)
        coeffs = decompose(
            gaussian_state(centered_packet(x0=2.0 * L / 3.0), grid, MODEL), MODEL
        )
        weights = coeffs.weights()
        assert weights[2::3].max() < 1e-10 * weights.max()

    def test_beyond_nyquist_rejected(self):
        grid = SpatialGrid(L, 256)
        state = gaussian_state(centered_packet(sigma=L / 10), grid, MODEL)
        with pytest.raises(ValueError):
            decompose(state, MODEL, n_max=256)

    def test_auto_truncation_bookkeeping(self):
        grid = SpatialGrid(L, 2048)
        coeffs = decompose(gaussian_state(centered_packet(), grid, MODEL), MODEL)
        assert abs(coeffs.metadata["parseval_defect"]) < 1e-12
        assert coeffs.metadata["truncation_tail_ratio"] < 1e-12
        assert coeffs.n_max < 100

    @pytest.mark.parametrize("case", ["no quiet run", "quiet after the peak", "quiet at the end"])
    def test_automatic_truncation_level(self, case):
        # loud levels carry |a_n|^2 >= 1e-12; a zero level comes back from the
        # round trip some twenty orders below TAIL_THRESHOLD
        grid = SpatialGrid(L, 128)
        nyquist = grid.nyquist_level
        weights = np.geomspace(1e-2, 1e-12, nyquist)
        if case == "no quiet run":
            # one level short of a run, ending at the last level
            weights[nyquist - TAIL_RUN + 1 :] = 0.0
            expected = nyquist
        elif case == "quiet after the peak":
            # a full quiet run below the peak does not count: the scan starts there
            peak = TAIL_RUN + 3
            weights[:TAIL_RUN] = 0.0
            weights[TAIL_RUN:peak] = np.geomspace(1e-6, 1e-2, peak - TAIL_RUN)
            weights[peak:] = 0.0
            expected = peak + 1
        else:
            # a gap one level short of a run, then a run that ends at the last level
            weights[20 : 20 + TAIL_RUN - 1] = 0.0
            weights[nyquist - TAIL_RUN :] = 0.0
            expected = nyquist - TAIL_RUN + 1
        levels = np.arange(1, nyquist + 1)
        state = reconstruct(CoefficientVector(np.sqrt(weights) * np.exp(1j * levels), MODEL), grid)
        assert decompose(state, MODEL).n_max == expected

    def test_boosted_packet_keeps_high_levels(self):
        # the quiet-run truncation must scan past the populated band
        model = WellModel(well_width=101.25 * 2.0 * math.pi)
        lw = model.well_width
        spec = WavepacketSpec(x0=lw / 2, sigma=0.04 * lw, p0=270.0 * math.pi / lw)
        coeffs = decompose(gaussian_state(spec, SpatialGrid(lw, 1024), model), model)
        assert coeffs.n_max > 270
        assert abs(coeffs.metadata["parseval_defect"]) < 1e-12

    def test_coefficients_independent_of_kinetic_scales(self):
        # the same box and packet in lengths of hbar/(m c) at m = 17 and
        # c = 3: every length is 51 times larger, and the a_n are the same
        scale = 17.0 * 3.0
        spec = centered_packet()
        heavy = WellModel(well_width=scale * L)
        heavy_spec = WavepacketSpec(x0=scale * spec.x0, sigma=scale * spec.sigma, p0=spec.p0 / scale)
        ca = decompose(gaussian_state(spec, SpatialGrid(L, 1024), MODEL), MODEL)
        cb = decompose(gaussian_state(heavy_spec, SpatialGrid(scale * L, 1024), heavy), heavy)
        n = min(ca.n_max, cb.n_max)
        assert np.max(np.abs(ca.coefficients[:n] - cb.coefficients[:n])) < 1e-14

    @pytest.mark.parametrize("case", ["off-center", "mirrored", "boosted"])
    def test_bits_of_the_two_part_transform(self, case):
        # every bit, zero signs included, of scale * (DST re + 1j * DST im).
        # An exactly mirror-symmetric packet has zeros at every even level,
        # most of them -0.
        from scipy.fft import dst

        grid = SpatialGrid(L, 1024)
        x0 = 2.0 * L / 3.0 if case == "off-center" else L / 2.0
        p0 = 40.0 * math.pi / L if case == "boosted" else 0.0
        state = gaussian_state(centered_packet(x0=x0, p0=p0), grid, MODEL)
        if case == "mirrored":
            state.values[513:] = state.values[:512][::-1]
        coeffs = decompose(state, MODEL, n_max=grid.nyquist_level)
        v = state.values[1:-1]
        scale = math.sqrt(2.0 / L) * grid.spacing * 0.5
        want = scale * (dst(v.real, type=1) + 1j * dst(v.imag, type=1))
        assert np.array_equal(coeffs.coefficients.view(np.uint64), want.view(np.uint64))

    def test_coefficients_let_go_of_the_full_transform(self):
        grid = SpatialGrid(L, 1 << 16)
        state = gaussian_state(centered_packet(), grid, MODEL)
        tracemalloc.start()
        try:
            coeffs = decompose(state, MODEL)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert coeffs.coefficients.base is None
        assert held < 16 * grid.nyquist_level / 8


class TestGridState:
    def test_no_grid_sized_allocation(self):
        grid = SpatialGrid(L, 1 << 16)
        values = np.zeros(grid.size, dtype=np.complex128)
        tracemalloc.start()
        try:
            GridState(values, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid.size

    @pytest.mark.parametrize("grid", [SpatialGrid(L, 64), BoxGrid(0.0, L, 64)])
    def test_sample_count_checked(self, grid):
        assert GridState(np.zeros(grid.size), grid).values.shape == (grid.size,)
        with pytest.raises(ValueError, match="sample count"):
            GridState(np.zeros(grid.size + 1), grid)


class TestRoundTrip:
    def test_orthonormality_round_trip(self):
        rng = np.random.default_rng(7)
        grid = SpatialGrid(L, 512)
        n_half = grid.nyquist_level // 2
        raw = rng.normal(size=n_half) + 1j * rng.normal(size=n_half)
        raw /= np.linalg.norm(raw)
        coeffs = CoefficientVector(raw, MODEL)
        back = decompose(reconstruct(coeffs, grid), MODEL, n_max=n_half)
        assert np.max(np.abs(back.coefficients - raw)) < 1e-10


class TestDominantLevel:
    def test_single_eigenstate(self):
        raw = np.zeros(8, dtype=complex)
        raw[4] = 1.0
        assert dominant_level(CoefficientVector(raw, MODEL)) == 5

    def test_resting_packet_peaks_low(self):
        # p0 = 0: |a_n|^2 follows a Gaussian envelope centered at n = 0,
        # truncated to n >= 1, so the odd ground level dominates
        grid = SpatialGrid(L, 2048)
        coeffs = decompose(gaussian_state(centered_packet(), grid, MODEL), MODEL)
        assert dominant_level(coeffs) == 1
        odd = coeffs.weights()[::2]
        assert np.all(np.diff(odd[odd > 1e-20]) < 0)

    def test_boosted_packet_peaks_at_p0(self):
        model = WellModel(well_width=40.0 * 2.0 * math.pi)
        lw = model.well_width
        p0 = 120.0 * math.pi / lw
        spec = WavepacketSpec(x0=lw / 2, sigma=lw / 25, p0=p0)
        coeffs = decompose(gaussian_state(spec, SpatialGrid(lw, 2048), model), model)
        before = dict(coeffs.metadata)
        n0 = dominant_level(coeffs)
        assert coeffs.metadata == before  # a query, not a mutation
        expected = p0 * lw / math.pi
        assert abs(n0 - expected) <= 2
        # independent path: brute-force argmax of the closed-form overlaps
        closed = gaussian_overlap_coefficients(lw, spec.x0, spec.sigma, p0, coeffs.n_max)
        assert n0 == int(np.argmax(np.abs(closed) ** 2)) + 1
        # the expectation <n> the sidecars report sits at the same level
        weights = coeffs.weights()
        assert abs(round(np.dot(coeffs.levels, weights) / weights.sum()) - expected) <= 2

    def test_empty_vector_rejected(self):
        with pytest.raises(SimulationError):
            dominant_level(CoefficientVector(np.zeros(5, dtype=complex), MODEL))


class TestClosedFormOverlap:
    def test_matches_quadrature(self):
        grid = SpatialGrid(L, 2048)
        quad = decompose(gaussian_state(centered_packet(), grid, MODEL), MODEL)
        closed = gaussian_overlap_coefficients(L, L / 2.0, L / 20.0, 0.0, quad.n_max)
        assert np.max(np.abs(quad.coefficients - closed)) < 1e-10

    def test_norm_near_unity(self):
        closed = gaussian_overlap_coefficients(L, L / 2.0, L / 20.0, 0.0, 64)
        assert np.sum(np.abs(closed) ** 2) == pytest.approx(1.0, abs=1e-8)


class TestCoefficientVector:
    def test_csv_export(self, tmp_path):
        raw = np.array([0.5 + 0.25j, -0.5j], dtype=complex)
        path = tmp_path / "coeffs.csv"
        write_coefficients_csv(CoefficientVector(raw, MODEL), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,re_a,im_a,weight"
        assert lines[1].startswith("1,0.5,0.25,")
        assert len(lines) == 3
