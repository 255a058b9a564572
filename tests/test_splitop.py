"""Split-operator engine: unitarity, convergence order, cross-validation."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from relwell import (
    BoxGrid,
    GridState,
    MomentumGrid,
    PropagationConfig,
    SimulationError,
    SpatialGrid,
    WavepacketSpec,
    WellModel,
    decompose,
    default_config,
    dominant_level,
    evolve,
    gaussian_state,
    kinetic_phase,
    propagate,
    reconstruct_at,
    revival_times,
)
from relwell.splitop import power_plan
from oracles import momentum_eigenpairs, strang_steps

MODEL = WellModel(well_width=2.0 * math.pi)
L = MODEL.well_width


def boxed_initial_state(config, coeffs):
    """Eigenbasis reconstruction sampled on the propagation box."""
    x = config.grid.points
    psi = reconstruct_at(coeffs, x)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * config.grid.spacing))
    return GridState(psi, config.grid)


def packet_coefficients(sigma=L / 16.0, p0=0.0, intervals=512):
    grid = SpatialGrid(L, intervals)
    spec = WavepacketSpec(x0=L / 2, sigma=sigma, p0=p0)
    return decompose(gaussian_state(spec, grid, MODEL), MODEL)


class TestKineticPhase:
    def test_rest_energy_at_zero_momentum(self):
        dt = 1e-3
        expected = np.exp(-1j * dt)  # the rest energy m c^2 = 1
        assert kinetic_phase(0.0, dt) == pytest.approx(expected, rel=1e-15)

    def test_unit_modulus(self):
        p = np.geomspace(1e-8, 1e8, 50)
        factors = kinetic_phase(p, 0.37)
        assert np.max(np.abs(np.abs(factors) - 1.0)) < 1e-14

    def test_ultrarelativistic_argument(self):
        dt = 1e-6
        for p in (1e4, 1e6):
            phase = np.angle(kinetic_phase(p, dt))
            assert phase == pytest.approx(-p * dt, rel=1e-6)


class TestPropagationConfig:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            PropagationConfig(MODEL, 300, 1e-4, 1e4, L / 8)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            PropagationConfig(MODEL, 128, 1e-4, 1e4, L / 8)

    def test_box_is_the_well_and_its_margins(self):
        config = PropagationConfig(MODEL, 256, 1e-4, 1e4, L / 8)
        assert (config.grid.x_min, config.grid.x_max) == (-L / 8, L + L / 8)
        for margin in (0.0, -L / 8):
            with pytest.raises(ValueError, match="wall_margin"):
                PropagationConfig(MODEL, 256, 1e-4, 1e4, margin)

    def test_default_dt_respects_wall_phase_cap(self):
        config = default_config(MODEL, n0=1, p0=0.0, sigma=L / 16)
        assert config.wall_height == pytest.approx(1e4)
        assert config.dt <= math.pi / (8.0 * config.wall_height) * (1 + 1e-12)

    def test_default_dt_uses_classical_period_when_slower(self):
        config = default_config(MODEL, n0=1, p0=0.0, sigma=L / 16, wall_height=1e-3)
        t_cl = revival_times(MODEL, 1).t_classical
        assert config.dt == pytest.approx(t_cl / 1000.0)

    def test_momentum_cutoff_sets_grid(self):
        sigma = L / 200.0
        config = default_config(MODEL, n0=1, p0=3.0, sigma=sigma)
        box = config.grid.length
        p_grid_max = math.pi * config.grid_size / box
        assert p_grid_max >= 8.0 * (3.0 + 1.0 / sigma)
        assert config.grid_size >= 256 and config.grid_size & (config.grid_size - 1) == 0

    @pytest.mark.parametrize("t", [0.0, 0.05, 1e4])
    def test_step_dt_reaches_t_in_whole_steps(self, t):
        # the nearest whole number of steps, each t over that count
        config = default_config(MODEL, n0=1, sigma=L / 16)
        steps, dt = config.steps(t), config.step_dt(t)
        if t:
            assert dt == t / steps and abs(t - steps * config.dt) <= 0.5 * config.dt
        else:
            assert (steps, dt) == (0, config.dt)

    def test_potential_is_zero_inside_well(self):
        config = default_config(MODEL, n0=1, sigma=L / 16)
        v = config.potential()
        x = config.grid.points
        inside = (x >= 0) & (x <= L)
        assert np.all(v[inside] == 0.0)
        assert np.all(v[~inside] == config.wall_height)


class TestStep:
    def test_free_plane_wave_rotation(self):
        config = PropagationConfig(MODEL, 256, 1e-3, 0.0, L / 8)
        grid = config.grid
        k = 2 * math.pi * 8 / grid.length
        psi = np.exp(1j * k * (grid.points - grid.x_min)) / math.sqrt(grid.length)
        out = propagate(GridState(psi, grid), config, config.dt)[0]
        omega = math.hypot(1.0, k)
        assert np.max(np.abs(out.values - psi * np.exp(-1j * omega * config.dt))) < 1e-14

    def test_norm_drift_over_many_steps(self):
        coeffs = packet_coefficients()
        config = default_config(MODEL, n0=1, sigma=L / 16)
        state = boxed_initial_state(config, coeffs)
        out = propagate(state, config, 10_000 * config.dt)[0]
        assert abs(out.norm_squared() - 1.0) < 1e-9

    def test_blowup_detection_carries_step_index(self):
        # the error counts steps as the snapshots' metadata does: from the
        # given state, whatever steps_taken it carries
        config = default_config(MODEL, n0=1, sigma=L / 16)
        bad = np.full(config.grid_size, np.nan, dtype=complex)
        state = GridState(bad, config.grid, metadata={"steps_taken": 41})
        with pytest.raises(SimulationError, match=r"\(step 1\)$"):
            propagate(state, config, config.dt)

    def test_wrong_grid_rejected(self):
        config = default_config(MODEL, n0=1, sigma=L / 16)
        state = GridState(np.zeros(16, complex), BoxGrid(-1.0, 1.0, 16))
        for t_final in (0.0, config.dt):
            with pytest.raises(ValueError, match="config grid"):
                propagate(state, config, t_final)


class TestPropagate:
    def test_zero_steps_returns_input(self):
        coeffs = packet_coefficients()
        config = default_config(MODEL, n0=1, sigma=L / 16)
        state = boxed_initial_state(config, coeffs)
        out = propagate(state, config, 0.0, sample_times=[0.0])
        assert np.array_equal(out[0].values, state.values)
        assert out[0].time_tag == 0.0

    def test_snapshots_count_from_the_given_state(self):
        # the state's own time and metadata do not carry over: the snapshot
        # k steps on is at k dt and records its step count alone
        config = default_config(MODEL, n0=1, sigma=L / 16)
        values = boxed_initial_state(config, packet_coefficients()).values
        state = GridState(values, config.grid, 0.25, {"steps_taken": 7, "discarded_mass": 1e-3})
        out = propagate(state, config, 3 * config.dt, sample_times=[0.0, 3 * config.dt])
        assert [s.metadata for s in out] == [{"steps_taken": 0}, {"steps_taken": 3}]
        assert [s.time_tag for s in out] == pytest.approx([0.0, 3 * config.dt], rel=1e-15)

    def test_sample_times_outside_range_rejected(self):
        coeffs = packet_coefficients()
        config = default_config(MODEL, n0=1, sigma=L / 16)
        state = boxed_initial_state(config, coeffs)
        with pytest.raises(ValueError):
            propagate(state, config, 10 * config.dt, sample_times=[11 * config.dt])
        with pytest.raises(ValueError):
            propagate(state, config, 10 * config.dt, sample_times=[-config.dt])

    def test_repeated_sample_times_each_get_a_snapshot(self):
        coeffs = packet_coefficients()
        config = default_config(MODEL, n0=1, sigma=L / 16)
        state = boxed_initial_state(config, coeffs)
        # the middle three times round to step 2; none of them is dropped
        times = np.array([0.0, 2.0, 2.0, 2.1, 4.0]) * config.dt
        out = propagate(state, config, 4 * config.dt, sample_times=times)
        assert [s.metadata["steps_taken"] for s in out] == [0, 2, 2, 2, 4]
        assert np.array_equal(out[1].values, out[3].values)

    def test_steps_round_to_whole_strang_steps(self):
        config = default_config(MODEL, n0=1, sigma=L / 16)
        assert [config.steps(f * config.dt) for f in (0.0, 0.2, 2.4, 2.6)] == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="beyond any step count"):
            replace(config, dt=1e-320).steps(1.0)

    def test_incommensurate_horizon_adjusts_dt(self):
        coeffs = packet_coefficients()
        config = default_config(MODEL, n0=1, sigma=L / 16)
        state = boxed_initial_state(config, coeffs)
        t_final = 10.5 * config.dt
        out = propagate(state, config, t_final)
        assert out[0].time_tag == pytest.approx(t_final, rel=1e-12)
        assert "dt_adjusted" in out[0].metadata

    def test_deterministic(self):
        coeffs = packet_coefficients()
        config = default_config(MODEL, n0=1, sigma=L / 16)
        state = boxed_initial_state(config, coeffs)
        a = propagate(state, config, 500 * config.dt)[0]
        b = propagate(state, config, 500 * config.dt)[0]
        assert np.array_equal(a.values, b.values)


class TestEngineAgreement:
    def test_short_horizon_against_exact_engine(self):
        # before any wall contact the finite-wall bias is negligible and the
        # two engines must agree tightly
        coeffs = packet_coefficients()
        config = default_config(MODEL, n0=1, sigma=L / 16)
        state = boxed_initial_state(config, coeffs)
        t = 2500 * config.dt
        out = propagate(state, config, t)[0]
        x = config.grid.points
        exact = reconstruct_at(evolve(coeffs, t), x)
        l2 = math.sqrt(float(np.sum(np.abs(out.values - exact) ** 2) * config.grid.spacing))
        assert l2 < 1e-3

    def test_second_order_in_dt(self):
        # Richardson triplet: successive dt halvings must shrink the
        # dt-dependent part of the state by a factor of about four
        coeffs = packet_coefficients()
        n0 = dominant_level(coeffs)
        config = default_config(MODEL, n0=n0, sigma=L / 16)
        state = boxed_initial_state(config, coeffs)
        horizon = revival_times(MODEL, n0).t_classical / 8.0
        results = {}
        for factor in (1.0, 0.5, 0.25):
            run = replace(config, dt=config.dt * factor)
            results[factor] = propagate(state, run, horizon)[0].values
        dx = config.grid.spacing
        d1 = math.sqrt(float(np.sum(np.abs(results[1.0] - results[0.5]) ** 2) * dx))
        d2 = math.sqrt(float(np.sum(np.abs(results[0.5] - results[0.25]) ** 2) * dx))
        assert 3.5 < d1 / d2 < 4.5

    def test_second_order_in_dt_on_stepping_path(self):
        # the Richardson triplet with a sample one step before the horizon,
        # which power_plan always steps, so the step loop keeps its own check
        # of convergence order and norm
        coeffs = packet_coefficients()
        n0 = dominant_level(coeffs)
        config = default_config(MODEL, n0=n0, sigma=L / 16)
        state = boxed_initial_state(config, coeffs)
        horizon = revival_times(MODEL, n0).t_classical / 64.0
        results = {}
        for factor in (1.0, 0.5, 0.25):
            run = replace(config, dt=config.dt * factor)
            steps = run.steps(horizon)
            assert power_plan(run.grid_size, [steps - 1, 1]) is None
            times = [horizon * (steps - 1) / steps, horizon]
            out = propagate(state, run, horizon, sample_times=times)
            assert out[-1].metadata["steps_taken"] == steps
            assert abs(out[-1].norm_squared() - 1.0) < 1e-9
            results[factor] = out[-1].values
        dx = config.grid.spacing
        d1 = math.sqrt(float(np.sum(np.abs(results[1.0] - results[0.5]) ** 2) * dx))
        d2 = math.sqrt(float(np.sum(np.abs(results[0.5] - results[0.25]) ** 2) * dx))
        assert 3.5 < d1 / d2 < 4.5

    def test_against_momentum_solver_well(self):
        # both numerical engines solve the same finite-wall well; their
        # densities must agree far better than either agrees with the
        # hard-wall limit at a Compton-scale box
        coeffs = packet_coefficients()
        n0 = dominant_level(coeffs)
        config = default_config(MODEL, n0=n0, sigma=L / 16)
        state = boxed_initial_state(config, coeffs)
        horizon = revival_times(MODEL, n0).t_classical / 4.0
        out = propagate(state, config, horizon)[0]

        mgrid = MomentumGrid(60.0, 4096)
        levels, vectors = momentum_eigenpairs(mgrid, MODEL, config.wall_height, k_levels=24)
        p = mgrid.nodes
        x = config.grid.points
        dx = config.grid.spacing
        ft = np.exp(-1j * np.outer(p, x)) / math.sqrt(2 * math.pi)
        psi0_p = ft @ state.values * dx
        amps = (vectors.conj().T @ psi0_p) * mgrid.spacing
        completeness = float(np.sum(np.abs(amps) ** 2) / (np.sum(np.abs(psi0_p) ** 2) * mgrid.spacing))
        assert completeness > 1.0 - 1e-6
        evolved_p = vectors @ (amps * np.exp(-1j * levels * horizon))
        evolved_x = (ft.conj().T @ evolved_p) * mgrid.spacing

        l1_engines = float(np.sum(np.abs(out.density() - np.abs(evolved_x) ** 2)) * dx)
        exact = np.abs(reconstruct_at(evolve(coeffs, horizon), x)) ** 2
        l1_hard_wall = float(np.sum(np.abs(out.density() - exact)) * dx)
        assert l1_engines < 0.15
        assert l1_engines < 0.5 * l1_hard_wall

    def test_confinement_over_revival_time(self):
        # probability stays inside [-margin, L + margin] even when the box is
        # much wider, over a full revival time
        model = WellModel(well_width=math.pi)
        lw = model.well_width
        grid = SpatialGrid(lw, 512)
        spec = WavepacketSpec(x0=lw / 2, sigma=lw / 16, p0=0.0)
        coeffs = decompose(gaussian_state(spec, grid, model), model)
        n0 = dominant_level(coeffs)
        margin = lw / 8.0
        config = default_config(model, n0=n0, sigma=spec.sigma, wall_margin=margin)
        config = replace(config, wall_margin=4 * margin, grid_size=512)
        state = boxed_initial_state(config, coeffs)
        t_rev = revival_times(model, n0).t_revival
        sample_times = np.linspace(0.2, 1.0, 5) * t_rev
        outside = (config.grid.points < -margin) | (config.grid.points > lw + margin)
        worst = 0.0
        for snap in propagate(state, config, t_rev, sample_times=sample_times):
            worst = max(worst, float(snap.density()[outside].sum() * config.grid.spacing))
        assert worst < 1e-6


def linspace_gaps(steps: int, rows: int) -> list[int]:
    """Sample gaps of ``rows`` evenly spread times over ``steps`` steps, as
    propagate rounds them."""
    sample_steps = [round(t) for t in np.linspace(0.0, steps, rows).tolist()]
    return [b - a for a, b in zip([0, *sample_steps], sample_steps)]


class TestPowerPlan:
    """The powered-or-stepped rule on the shapes that matter."""

    def test_bench_split256_powers(self):
        # linspace gaps of 1269 and 1270 steps: h is the smaller
        assert power_plan(256, linspace_gaps(80_000, 64)) == 1269

    def test_bench_split2048_steps(self):
        assert power_plan(2048, linspace_gaps(25_000, 64)) is None

    def test_snapshot_split16_steps(self):
        # its dt of 2e-4 is capped at pi/(8 V0): 1273 steps, not 250
        assert power_plan(256, linspace_gaps(1273, 16)) is None

    def test_criterion_6_powers(self):
        for steps in (2_000_000, 4_000_000):
            assert power_plan(256, linspace_gaps(steps, 9)) is not None

    def test_workspace_bounds_the_grid(self):
        # three N x N complex matrices must fit: N = 1024 may power, 2048 never
        assert power_plan(1024, linspace_gaps(10**7, 9)) is not None
        assert power_plan(2048, linspace_gaps(10**9, 9)) is None

    def test_short_and_empty_runs_step(self):
        for gaps in ([], [0], [0, 0], [1], [0, 5, 5]):
            assert power_plan(256, gaps) is None

    def test_pure_function_of_its_arguments(self):
        gaps = linspace_gaps(80_000, 64)
        assert power_plan(256, gaps) == power_plan(256, list(gaps))


class TestPoweredPropagator:
    """The powered path against the plain Strang step loop of the oracle."""

    @staticmethod
    def start(**metadata):
        config = default_config(MODEL, n0=1, sigma=L / 16)
        return config, GridState(boxed_initial_state(config, packet_coefficients()).values,
                                 config.grid, 0.25, metadata)

    def test_matches_step_loop(self):
        config, state = self.start(steps_taken=7)
        # an incommensurate horizon: 20000 steps at an adjusted dt
        t_final = 20_000.3 * config.dt
        times = np.linspace(0.0, t_final, 64)
        gaps = linspace_gaps(20_000, 64)
        assert set(gaps) == {0, 317, 318} and power_plan(256, gaps) is not None
        powered = propagate(state, config, t_final, sample_times=times)
        stepped = strang_steps(state, config, t_final, sample_times=times)
        assert len(powered) == len(stepped) == 64
        for a, b in zip(powered, stepped):
            assert np.max(np.abs(a.values - b.values)) <= 1e-11
            assert a.metadata == b.metadata and "dt_adjusted" in a.metadata
            assert a.time_tag == b.time_tag

    def test_long_horizon_error_grows_at_most_n_eps(self):
        # powering one rounded U^h adds its rounding up coherently, about
        # eps per step crossed, where stepping's roundoff partly cancels
        config, state = self.start()
        steps = 1_000_000
        t_final = steps * config.dt
        times = np.linspace(0.0, t_final, 5)
        assert power_plan(256, linspace_gaps(steps, 5)) == 250_000
        powered = propagate(state, config, t_final, sample_times=times)
        stepped = strang_steps(state, config, t_final, sample_times=times)
        eps = np.finfo(float).eps
        for a, b in zip(powered, stepped):
            assert np.max(np.abs(a.values - b.values)) <= steps * eps
            assert abs(a.norm_squared() - 1.0) <= steps * eps

    def test_irregular_gaps_repeats_and_time_zero(self):
        config, state = self.start()
        sample_steps = [0, 0, 5000, 5000, 5003, 11_000, 11_000, 20_000, 3]
        times = np.array(sample_steps) * config.dt
        gaps = [b - a for a, b in zip([0, *sorted(sample_steps)], sorted(sample_steps))]
        assert power_plan(256, gaps) is not None
        powered = propagate(state, config, 20_000 * config.dt, sample_times=times)
        stepped = strang_steps(state, config, 20_000 * config.dt, sample_times=times)
        assert [s.metadata["steps_taken"] for s in powered] == sorted(sample_steps)
        assert np.array_equal(powered[0].values, state.values)
        assert np.array_equal(powered[1].values, state.values)
        assert np.array_equal(powered[3].values, powered[4].values)
        for a, b in zip(powered, stepped):
            assert np.max(np.abs(a.values - b.values)) <= 1e-11
            assert a.time_tag == b.time_tag

    def test_non_finite_state_names_the_stepping_step(self):
        config, state = self.start(steps_taken=41)
        state.values[:] = np.nan
        t_final = 20_000 * config.dt
        times = [0.5 * t_final, t_final]
        assert power_plan(256, [10_000, 10_000]) is not None
        with pytest.raises(SimulationError) as stepped:
            strang_steps(state, config, t_final, sample_times=times)
        with pytest.raises(SimulationError) as powered:
            propagate(state, config, t_final, sample_times=times)
        assert str(powered.value) == str(stepped.value)
        assert str(powered.value).endswith("(step 10000)")

    def test_stepped_shape_matches_unfused_steps(self):
        # the shape of the snapshot tool's split16 job: 1273 steps, 16 rows;
        # the fused in-place loop against the oracle's unfused scipy.fft steps,
        # within steps * eps * max|psi| (measured: 1.5e-14, 0.05 of it)
        config, state = self.start(steps_taken=3)
        steps = 1273
        t_final = steps * config.dt
        times = np.linspace(0.0, t_final, 16)
        assert power_plan(256, linspace_gaps(steps, 16)) is None
        seen = []
        stepped = propagate(state, config, t_final, sample_times=times, callback=seen.append)
        oracle = strang_steps(state, config, t_final, sample_times=times)
        assert seen == stepped
        bound = steps * np.finfo(float).eps * max(np.max(np.abs(b.values)) for b in oracle)
        for a, b in zip(stepped, oracle):
            assert np.max(np.abs(a.values - b.values)) <= bound
            assert (a.time_tag, a.metadata) == (b.time_tag, b.metadata)

    def test_workspace_is_three_matrices(self):
        config, state = self.start()
        n = config.grid_size
        t_final = 80_000 * config.dt
        times = np.linspace(0.0, t_final, 64)
        propagate(state, config, config.dt)  # load the FFT before tracing
        tracemalloc.start()
        try:
            propagate(state, config, t_final, sample_times=times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        matrix = 16 * n * n
        # at most three matrices, plus the 64 snapshots and a few vectors
        assert matrix < peak < 3 * matrix + 80 * 16 * n
