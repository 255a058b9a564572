"""Autocorrelation, level extraction, carpets, light cone, level spacing."""

import math

import numpy as np
import pytest
from scipy.special import erfc

from relwell import (
    AutocorrelationSeries,
    CoefficientVector,
    SpatialGrid,
    WavepacketSpec,
    WellModel,
    autocorrelation,
    carpet,
    decompose,
    default_config,
    dominant_level,
    energy,
    extract_levels,
    gaussian_state,
    level_spacing,
    lightcone_leakage,
    revival_times,
)
from relwell.grids import write_table
from relwell.observables import (
    _BLOCK,
    write_autocorrelation_csv,
    write_carpet_binary,
    write_carpet_csv,
    write_carpet_pgm,
    write_spacing_csv,
)
from oracles import autocorrelation_direct, read_carpet_binary, reconstruct

MODEL = WellModel(well_width=125.0 * 2.0 * math.pi)
L = MODEL.well_width


def fig2_coefficients(intervals=2048, x0=None):
    grid = SpatialGrid(L, intervals)
    spec = WavepacketSpec(x0=L / 2 if x0 is None else x0, sigma=L / 20, p0=0.0)
    return decompose(gaussian_state(spec, grid, MODEL), MODEL), grid, spec


class TestAutocorrelation:
    def test_unity_at_zero(self):
        coeffs, _, _ = fig2_coefficients(512)
        assert autocorrelation(coeffs, [0.0]).values[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_eigenstate_stays_unimodular(self):
        raw = np.zeros(5, dtype=complex)
        raw[2] = 1.0
        coeffs = CoefficientVector(raw, MODEL)
        ts = np.linspace(0.0, 1e6, 17)
        mags = np.abs(autocorrelation(coeffs, ts).values)
        assert np.max(np.abs(mags - 1.0)) < 1e-12

    def test_two_level_beat(self):
        raw = np.zeros(4, dtype=complex)
        raw[0] = raw[3] = 1.0 / math.sqrt(2.0)
        coeffs = CoefficientVector(raw, MODEL)
        gap = energy(MODEL, 4) - energy(MODEL, 1)
        ts = np.linspace(0.0, 6.0 * math.pi * MODEL.hbar / gap, 400)
        mags2 = np.abs(autocorrelation(coeffs, ts).values) ** 2
        expected = np.cos(gap * ts / (2.0 * MODEL.hbar)) ** 2
        assert np.max(np.abs(mags2 - expected)) < 1e-12

    def test_bounded_by_total_weight(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=40) + 1j * rng.normal(size=40)
        raw /= np.linalg.norm(raw)
        coeffs = CoefficientVector(raw, MODEL)
        ts = np.linspace(0.0, 1e5, 300)
        mags = np.abs(autocorrelation(coeffs, ts).values)
        assert np.all(mags <= 1.0 + 1e-10)
        assert mags[0] == pytest.approx(1.0, abs=1e-12)


def oracle_grids():
    """Sample grids for the blocked autocorrelation: every short length, one
    and two blocks, degenerate and reversed grids, grids that are uniform
    only to 1e-10 or not at all, and a uniform grid far from t = 0."""
    rng = np.random.default_rng(12)
    span = 1e6
    jittered = np.linspace(0.0, span, 3000)
    jittered[1:] *= 1.0 + 1e-10 * rng.standard_normal(2999)
    return {
        "K=1": np.array([0.37 * span]),
        "K=2": np.array([0.0, 0.37 * span]),
        "K=3": np.linspace(0.0, span, 3),
        "K=B": np.linspace(0.0, span, _BLOCK),
        "K=B+1": np.linspace(0.0, span, _BLOCK + 1),
        "zeros": np.zeros(2 * _BLOCK + 5),
        "descending": np.linspace(span, 0.0, 1001),
        "mixed sign": np.linspace(-span, 0.5 * span, 1001),
        "jitter 1e-10": jittered,
        "random": rng.uniform(-span, span, 1500),
        "offset 1e12": 1e12 + np.linspace(0.0, span, 2000),
    }


class TestBlockedAutocorrelation:
    """The blocked matrix-product sum against the level-by-level sum it replaces."""

    @pytest.mark.parametrize("name", sorted(oracle_grids()))
    def test_matches_direct_sum(self, name):
        # a boosted packet holds 149 levels, up to E = 1.16 mc^2
        grid = SpatialGrid(L, 2048)
        spec = WavepacketSpec(x0=0.4 * L, sigma=L / 40, p0=0.4)
        coeffs = decompose(gaussian_state(spec, grid, MODEL), MODEL)
        times = oracle_grids()[name]
        got = autocorrelation(coeffs, times)
        assert got.times.shape == got.values.shape == times.shape
        assert np.max(np.abs(got.values - autocorrelation_direct(coeffs, times))) < 1e-13


class TestExtractLevels:
    def test_synthetic_two_level_recovery(self):
        e1, e2, w1 = 1.3, 2.05, 0.65
        duration, samples = 400.0, 4096
        ts = np.arange(samples) * (duration / samples)
        values = w1 * np.exp(-1j * e1 * ts) + (1 - w1) * np.exp(-1j * e2 * ts)
        estimates = extract_levels(AutocorrelationSeries(ts, values, True))
        assert len(estimates.energies) == 2
        for target, weight in ((e1, w1), (e2, 1 - w1)):
            j = int(np.argmin(np.abs(estimates.energies - target)))
            assert abs(estimates.energies[j] - target) < estimates.resolution
            # the Hann peak-height estimate carries a few-percent bias
            assert estimates.weights[j] == pytest.approx(weight, rel=0.1)

    def test_gaussian_packet_round_trip(self):
        model = WellModel(well_width=2.0 * math.pi)
        lw = model.well_width
        spec = WavepacketSpec(x0=lw / 2, sigma=lw / 10, p0=2.0)
        coeffs = decompose(gaussian_state(spec, SpatialGrid(lw, 1024), model), model)
        t_cl = revival_times(model, dominant_level(coeffs)).t_classical
        samples = 4096
        ts = np.arange(samples) * (50.0 * t_cl / samples)
        estimates = extract_levels(autocorrelation(coeffs, ts), hbar=model.hbar)
        weights = coeffs.weights()
        exact = energy(model, coeffs.levels)
        for e_true in exact[weights > 1e-3]:
            j = int(np.argmin(np.abs(estimates.energies - e_true)))
            assert abs(estimates.energies[j] - e_true) < estimates.resolution

    def test_boost_shifts_population_upward(self):
        model = WellModel(well_width=2.0 * math.pi)
        lw = model.well_width

        def top_level(p0):
            spec = WavepacketSpec(x0=lw / 2, sigma=lw / 10, p0=p0)
            coeffs = decompose(gaussian_state(spec, SpatialGrid(lw, 1024), model), model)
            t_cl = revival_times(model, dominant_level(coeffs)).t_classical
            ts = np.arange(4096) * (30.0 * t_cl / 4096)
            estimates = extract_levels(autocorrelation(coeffs, ts), hbar=model.hbar)
            strong = estimates.energies[estimates.weights > 1e-3]
            return strong.max()

        assert top_level(4.0) > top_level(0.0) + 1.0

    def test_nonuniform_rejected(self):
        ts = np.array([0.0, 1.0, 2.5, 3.0, 4.0, 5.0, 6.0, 7.0])
        series = AutocorrelationSeries(ts, np.ones(8, complex), uniform=False)
        with pytest.raises(ValueError):
            extract_levels(series)


class TestCarpet:
    def test_first_row_is_initial_density(self):
        coeffs, grid, spec = fig2_coefficients(512)
        times = np.linspace(0.0, 100.0, 4)
        result = carpet(coeffs, grid, times)
        from relwell import evolve

        initial = reconstruct(evolve(coeffs, 0.0), grid).density()
        assert np.max(np.abs(result.density[0] - initial)) < 1e-14

    def test_row_normalization(self):
        coeffs, grid, spec = fig2_coefficients(1024)
        t_rev = revival_times(MODEL, 1).t_revival
        times = np.linspace(0.0, t_rev, 12)
        result = carpet(coeffs, grid, times)
        assert np.max(np.abs(result.density.sum(axis=1) * result.spacing - 1.0)) < 1e-6

    def test_quarter_revival_row(self):
        # centered packet: a revival (possibly mirrored) near T_rev/4
        coeffs, grid, spec = fig2_coefficients(2048)
        t_rev = revival_times(MODEL, dominant_level(coeffs)).t_revival
        times = np.array([0.0, 0.25 * t_rev])
        result = carpet(coeffs, grid, times)
        row0, row1 = result.density
        dx = grid.spacing
        direct = float(np.sum(np.abs(row1 - row0)) * dx)
        mirrored = float(np.sum(np.abs(row1 - row0[::-1])) * dx)
        assert min(direct, mirrored) < 0.1

    def test_intermediate_regime_ratio(self):
        # wide boosted packet: quantum and classical revivals separated by
        # three orders of magnitude
        model = WellModel(well_width=101.25 * 2.0 * math.pi)
        lw = model.well_width
        spec = WavepacketSpec(x0=lw / 2, sigma=0.04 * lw, p0=270.0 * math.pi / lw)
        coeffs = decompose(gaussian_state(spec, SpatialGrid(lw, 1024), model), model)
        rt = revival_times(model, dominant_level(coeffs))
        assert 750.0 < rt.t_revival / rt.t_classical < 3000.0

    def test_split_engine_rows(self):
        model = WellModel(well_width=2.0 * math.pi)
        lw = model.well_width
        spec = WavepacketSpec(x0=lw / 2, sigma=lw / 16, p0=0.0)
        grid = SpatialGrid(lw, 256)
        coeffs = decompose(gaussian_state(spec, grid, model), model)
        config = default_config(model, n0=1, sigma=spec.sigma)
        times = np.linspace(0.0, 400 * config.dt, 3)
        result = carpet(coeffs, grid, times, config=config)
        assert result.density.shape == (3, config.grid_size)
        assert np.max(np.abs(result.density.sum(axis=1) * result.spacing - 1.0)) < 1e-6
        # the config, not the spectral grid, sets the positions
        assert np.array_equal(result.positions, config.grid.points)


class TestLightcone:
    def narrow_carpet(self, p0=0.0, x0_frac=0.5, t_fracs=(0.0, 0.2, 0.4)):
        model = WellModel(well_width=2.0 * math.pi)
        lw = model.well_width
        spec = WavepacketSpec(x0=x0_frac * lw, sigma=1e-5 * lw, p0=p0)
        grid = SpatialGrid(lw, 1 << 20)
        coeffs = decompose(gaussian_state(spec, grid, model), model)
        horizon = min(spec.x0, lw - spec.x0) / model.light_speed
        times = np.array(t_fracs) * horizon
        return carpet(coeffs, grid, times), spec, model

    def test_initial_row_matches_gaussian_tail(self):
        # the mass beyond 3 sigma of a Gaussian is erfc(3/sqrt(2)), not zero
        result, spec, model = self.narrow_carpet()
        report = lightcone_leakage(result, spec, model)
        assert report.fractions[0] == pytest.approx(erfc(3.0 / math.sqrt(2.0)), rel=5e-2)

    def test_moving_narrow_packet_confined(self):
        # chirally clean packet: everything stays behind the front
        result, spec, model = self.narrow_carpet(p0=8.0 / (1e-5 * 2.0 * math.pi), x0_frac=0.25)
        report = lightcone_leakage(result, spec, model)
        assert report.max_fraction < 1e-2

    def test_resting_packet_tails_follow_inverse_margin(self):
        # p0 = 0: the chiral halves of a real packet carry 1/x tails, so the
        # out-of-cone mass falls off like 1/margin instead of exponentially
        result, spec, model = self.narrow_carpet()
        x = result.positions
        dx = result.spacing
        row = result.density[-1]
        t = result.times[-1]
        masses = []
        for mult in (3.0, 300.0):
            outside = np.abs(x - spec.x0) > model.light_speed * t + mult * spec.sigma
            masses.append(float(row[outside].sum() * dx))
        assert masses[0] > 0.05  # measured ~0.105 for the resting packet
        assert masses[1] < masses[0] / 50.0

    def test_wide_packet_at_tiny_time(self):
        model = WellModel(well_width=125.0 * 2.0 * math.pi)
        lw = model.well_width
        spec = WavepacketSpec(x0=lw / 2, sigma=lw / 20, p0=0.0)
        grid = SpatialGrid(lw, 2048)
        coeffs = decompose(gaussian_state(spec, grid, model), model)
        times = np.array([0.0, 1e-4 * lw / model.light_speed])
        result = carpet(coeffs, grid, times)
        x = result.positions
        dx = result.spacing
        row = result.density[-1]
        outside = np.abs(x - spec.x0) > model.light_speed * result.times[-1] + 6.0 * spec.sigma
        assert float(row[outside].sum() * dx) < 1e-6

    def test_no_pre_reflection_rows(self):
        coeffs, grid, spec = fig2_coefficients(512)
        t_late = 2.0 * L / MODEL.light_speed
        result = carpet(coeffs, grid, [t_late])
        with pytest.raises(ValueError):
            lightcone_leakage(result, spec, MODEL)


class TestLevelSpacing:
    def test_low_levels_grow_linearly(self):
        stats = level_spacing(MODEL, 60)
        n = np.arange(1, 11)
        expected = (2 * n + 1) * (MODEL.hbar * math.pi / L) ** 2 / (2 * MODEL.mass)
        assert np.max(np.abs(stats.spacings[:10] - expected) / expected) < 1e-3

    def test_asymptote(self):
        model = WellModel(well_width=2.0 * math.pi)
        stats = level_spacing(model, 10**5)
        gap = stats.asymptote_gap
        assert gap == pytest.approx(math.pi * model.hbar * model.light_speed / model.well_width)
        assert abs(stats.spacings[-1] - gap) < 1e-6 * gap

    def test_monotone_and_bounded(self):
        model = WellModel(well_width=40.0)
        stats = level_spacing(model, 10**5)
        # strictly increasing until the plateau, nondecreasing within the
        # rounding of the O(1e4) energies being differenced
        assert np.all(np.diff(stats.spacings[:10**4]) > 0)
        rounding = 16 * np.finfo(float).eps * energy(model, 10**5)
        assert np.all(np.diff(stats.spacings) > -rounding)
        assert np.all(stats.spacings < stats.asymptote_gap)

    def test_asymptote_invariant_past_beta_threshold(self):
        from relwell import level_velocity

        model = WellModel(well_width=7.0)
        n_max = 3000
        stats = level_spacing(model, n_max)
        beta = level_velocity(model, np.arange(1, n_max)) / model.light_speed
        fast = beta > 0.999
        assert fast.any()
        gap = stats.asymptote_gap
        assert np.max(np.abs(stats.spacings[fast] - gap)) < 0.01 * gap

    def test_regime_labels(self):
        model = WellModel(well_width=300.0)
        stats = level_spacing(model, 1000)
        labels = np.array(stats.labels)
        assert labels[0] == "non-relativistic"
        assert labels[-1] == "ultra-relativistic"
        assert "intermediate" in labels

    def test_requires_two_levels(self):
        with pytest.raises(ValueError):
            level_spacing(MODEL, 1)


class TestExports:
    def build_small_carpet(self):
        coeffs, grid, spec = fig2_coefficients(512)
        times = np.linspace(0.0, 50.0, 3)
        return carpet(coeffs, grid, times)

    def test_carpet_csv(self, tmp_path):
        result = self.build_small_carpet()
        path = tmp_path / "carpet.csv"
        write_carpet_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,density"
        assert len(lines) == 1 + result.times.size * result.positions.size

    def test_carpet_binary_round_trip(self, tmp_path):
        result = self.build_small_carpet()
        path = tmp_path / "carpet.bin"
        write_carpet_binary(result, path)
        blob = path.read_bytes()
        assert blob[:4] == b"CRPT"
        back = read_carpet_binary(path)
        assert np.array_equal(back.density, result.density)
        assert back.times[0] == result.times[0] and back.times[-1] == result.times[-1]

    def test_carpet_pgm(self, tmp_path):
        result = self.build_small_carpet()
        path = tmp_path / "carpet.pgm"
        write_carpet_pgm(result, path)
        blob = path.read_bytes()
        header = f"P5\n{result.positions.size} {result.times.size}\n65535\n".encode()
        assert blob.startswith(header)
        pixels = np.frombuffer(blob[len(header):], dtype=">u2").reshape(result.density.shape)
        assert pixels.max() == 65535
        peak = np.unravel_index(np.argmax(result.density), result.density.shape)
        assert pixels[peak] == 65535

    def test_autocorr_and_levels_and_spacing_csv(self, tmp_path):
        coeffs, _, _ = fig2_coefficients(512)
        ts = np.linspace(0.0, 100.0, 16)
        series = autocorrelation(coeffs, ts)
        write_autocorrelation_csv(series, tmp_path / "a.csv")
        first = (tmp_path / "a.csv").read_text().splitlines()
        assert first[0] == "t,re_a,im_a,abs_a"
        row = first[1].split(",")
        assert row[0] == "0"
        assert float(row[1]) == pytest.approx(1.0, abs=1e-12)

        estimates = extract_levels(series, hbar=MODEL.hbar)
        columns = (estimates.energies, estimates.weights)
        write_table(tmp_path / "l.csv", ("energy", "weight"), columns)
        assert (tmp_path / "l.csv").read_text().splitlines()[0] == "energy,weight"

        stats = level_spacing(MODEL, 10)
        write_spacing_csv(stats, tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "n,spacing,regime"
        assert lines[1].endswith(",non-relativistic")
