"""Acceptance suite: ten criteria, one test and one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Where a criterion compares an engine against a reference, the reference solves
the same equation with the same boundary:

* criterion 6 - the split-operator engine is measured against the exact
  eigendecomposition propagator of its own finite-wall grid Hamiltonian, so
  the gap is the splitting error and scales as dt^2; the gap to the sine-mode
  engine (the finite-wall bias, about 0.45 at any wall height) is printed;
* criterion 7 - the chirally clean boosted packet must stay inside the light
  cone, and the resting packet's out-of-cone mass (about 0.1, from the chiral
  1/x tails of the Salpeter evolution) must match an open-line FFT
  propagation of the same Gaussian row by row.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from relwell import (
    GridState,
    MomentumGrid,
    SpatialGrid,
    WavepacketSpec,
    WellModel,
    autocorrelation,
    carpet,
    decompose,
    default_config,
    dominant_level,
    energy,
    energy_derivative,
    evolve,
    extract_levels,
    gaussian_state,
    level_spacing,
    level_velocity,
    lightcone_leakage,
    propagate,
    reconstruct_at,
    revival_times,
    solve,
)
from oracles import fd_energy_derivative


def report(index, ok, detail):
    print(f"ACCEPTANCE {index:2d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_spectrum_equivalence():
    """Momentum-space diagonalization reproduces the closed-form spectrum."""
    started = time.monotonic()
    model = WellModel(well_width=120.0)
    grid = MomentumGrid(6.0, 2048)
    exact = energy(model, np.arange(1, 11))
    v0 = 1e3 * model.energy_scale
    errors = np.abs(solve(grid, model, v0, k_levels=10).levels - exact) / exact
    errors_doubled = np.abs(solve(grid, model, 2 * v0, k_levels=10).levels - exact) / exact
    elapsed = time.monotonic() - started
    ok = bool(errors.max() < 1e-3 and np.all(errors_doubled < errors) and elapsed < 60.0)
    report(
        1,
        ok,
        f"max rel err {errors.max():.2e} (< 1e-3), doubling V0 reduces all errors: "
        f"{bool(np.all(errors_doubled < errors))}, runtime {elapsed:.1f}s",
    )
    assert errors.max() < 1e-3
    assert np.all(errors_doubled < errors)
    assert elapsed < 60.0


def test_criterion_02_derivative_formula():
    """Closed-form level derivatives match high-precision finite differences."""
    model = WellModel(well_width=100.0 * math.pi)
    worst = 0.0
    for beta in np.linspace(0.01, 0.999, 12):
        momentum = beta / math.sqrt(1.0 - beta * beta)
        n0 = momentum * model.width_natural / math.pi
        for order in (1, 2, 3, 4):
            got = energy_derivative(model, n0, order)
            want = fd_energy_derivative(model, n0, order)
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst < 1e-6
    report(2, ok, f"orders 1..4 over v/c in [0.01, 0.999]: worst rel err {worst:.2e} (< 1e-6)")
    assert ok


def test_criterion_03_classical_period_limit():
    """The classical period saturates at 2L/c in the relativistic regime."""
    model = WellModel(well_width=2.0 * math.pi)
    bound = 2.0 * model.well_width / model.light_speed
    levels = np.arange(1, 5001)
    beta = level_velocity(model, levels) / model.light_speed
    fast = levels[beta > 0.995]
    deviations = np.array(
        [abs(revival_times(model, int(n)).t_classical - bound) for n in fast[:: max(1, fast.size // 64)]]
    )
    worst = deviations.max() / bound
    ok = worst < 0.01
    report(3, ok, f"{fast.size} levels with v/c > 0.995: worst |T_cl - 2L/c| = {worst:.4f} * 2L/c (< 0.01)")
    assert ok


def test_criterion_04_revival_reproduction():
    """Fig. 2-class packet: strong half revival, quarter revivals on schedule."""
    started = time.monotonic()
    model = WellModel(well_width=125.0 * 2.0 * math.pi)
    box = model.well_width
    spec = WavepacketSpec(x0=box / 2, sigma=box / 20, p0=0.0)
    coeffs = decompose(gaussian_state(spec, SpatialGrid(box, 2048), model), model)
    kinetic = float(np.dot(coeffs.weights(), energy(model, coeffs.levels) - model.energy_scale))
    assert kinetic < 1e-3 * model.energy_scale  # non-relativistic regime
    t_rev = revival_times(model, dominant_level(coeffs)).t_revival

    half = abs(autocorrelation(coeffs, [0.5 * t_rev]).values[0])
    offsets = {}
    for fraction in (0.25, 0.5):
        window = np.linspace((fraction - 0.02) * t_rev, (fraction + 0.02) * t_rev, 1601)
        mags = np.abs(autocorrelation(coeffs, window).values)
        offsets[fraction] = abs(window[int(np.argmax(mags))] - fraction * t_rev) / t_rev
    elapsed = time.monotonic() - started
    ok = bool(half > 0.9 and max(offsets.values()) < 0.01 and elapsed < 60.0)
    report(
        4,
        ok,
        f"|A(T_rev/2)| = {half:.4f} (> 0.9), quarter/half peak offsets "
        f"{offsets[0.25]:.5f}/{offsets[0.5]:.5f} T_rev (< 0.01), runtime {elapsed:.1f}s",
    )
    assert half > 0.9
    assert max(offsets.values()) < 0.01
    assert elapsed < 60.0


def test_criterion_05_coefficient_extinction():
    """Symmetric packet positions wipe out level families."""
    model = WellModel(well_width=125.0 * 2.0 * math.pi)
    box = model.well_width
    grid = SpatialGrid(box, 4096)
    ratios = {}
    for label, x0, pick in (
        ("x0=L/2 even n", box / 2, np.s_[1::2]),
        ("x0=2L/3 n=3m", 2 * box / 3, np.s_[2::3]),
    ):
        coeffs = decompose(gaussian_state(WavepacketSpec(x0, box / 20), grid, model), model)
        weights = coeffs.weights()
        ratios[label] = float(weights[pick].max() / weights.max())
    ok = all(r < 1e-10 for r in ratios.values())
    report(5, ok, ", ".join(f"{k}: {v:.1e}" for k, v in ratios.items()) + " (< 1e-10 of peak)")
    assert ok


def grid_hamiltonian_propagator(config):
    """Exact propagator of the split engine's own grid Hamiltonian F^-1 K F + V.

    K is the dispersion sqrt(m^2 c^4 + p^2 c^2) at the config's grid momenta,
    so F^-1 K F is the circulant matrix with first column ifft(K); V is the
    config's finite-wall potential.  A dense eigendecomposition evolves any
    grid state to any time without a time step.
    """
    model = config.model
    n = config.grid_size
    dispersion = np.hypot(model.energy_scale, config.grid.momenta(model.hbar) * model.light_speed)
    lags = np.subtract.outer(np.arange(n), np.arange(n)) % n
    hamiltonian = np.fft.ifft(dispersion)[lags] + np.diag(config.potential())
    levels, vectors = np.linalg.eigh(hamiltonian)

    def evolve_to(psi0, t):
        return vectors @ (np.exp(-1j * levels * t / model.hbar) * (vectors.conj().T @ psi0))

    return evolve_to


def test_criterion_06_engine_cross_validation():
    """Split-operator engine against the exact propagator of the same equation.

    The reference diagonalizes the config's own grid Hamiltonian (same grid,
    dispersion and finite wall) and is evaluated at each snapshot's time tag,
    so the L1 gap is the Strang splitting error alone and must shrink about
    fourfold when dt is halved.  The gap to the sine-mode engine is printed
    as the finite-wall bias: finite walls of any height converge to the
    restricted Salpeter operator, not to the sine-mode box, which leaves an
    L1 gap of about 0.45 over one period whatever V0 and dt.
    """
    model = WellModel(well_width=30.0)
    box = model.well_width
    spec = WavepacketSpec(x0=box / 2, sigma=box / 12, p0=1.2 * model.momentum_scale)
    coeffs = decompose(gaussian_state(spec, SpatialGrid(box, 1024), model), model)
    n0 = dominant_level(coeffs)
    t_cl = revival_times(model, n0).t_classical

    config = default_config(model, n0=n0, p0=spec.p0, sigma=spec.sigma)
    x = config.grid.points
    psi0 = reconstruct_at(coeffs, x)
    psi0 /= math.sqrt(float(np.sum(np.abs(psi0) ** 2) * config.grid.spacing))
    state = GridState(psi0, config.grid)
    same_wall = grid_hamiltonian_propagator(config)

    def max_l1(run_config):
        """Max L1 gaps to the same-wall propagator and to the sine-mode engine."""
        sample_times = np.linspace(0.0, t_cl, 9)
        gaps, biases = [], []
        for snap in propagate(state, run_config, t_cl, sample_times=sample_times):
            density = snap.density()
            exact = np.abs(same_wall(psi0, snap.time_tag)) ** 2
            sine = np.abs(reconstruct_at(evolve(coeffs, snap.time_tag), x)) ** 2
            gaps.append(float(np.sum(np.abs(density - exact)) * run_config.grid.spacing))
            biases.append(float(np.sum(np.abs(density - sine)) * run_config.grid.spacing))
        return max(gaps), max(biases)

    gap_default, bias = max_l1(config)
    gap_half, _ = max_l1(replace(config, dt=config.dt / 2.0))
    ratio = gap_default / gap_half
    ok = bool(gap_default < 1e-2 and 3.0 < ratio < 5.0)
    report(
        6,
        ok,
        f"L1 over one classical period vs same-wall exact propagator {gap_default:.2e} "
        f"(< 1e-2), dt-halving ratio {ratio:.2f} (3..5); finite-wall bias vs "
        f"sine-mode engine {bias:.3f}",
    )
    assert gap_default < 1e-2
    assert 3.0 < ratio < 5.0


def free_line_leakage(spec, model, spacing, width, times):
    """Out-of-cone mass of the same Gaussian evolved on an open line.

    The packet is sampled at ``spacing`` on a periodic line of length
    ``width`` centred on x0, with no walls and no sine basis, and propagated
    by exp(-i sqrt(m^2 c^4 + p^2 c^2) t / hbar) applied with numpy's FFT.
    Returns the mass beyond |x - x0| = c t + 3 sigma for each time.
    """
    n = 2 * int(math.ceil(width / (2.0 * spacing)))
    x = spec.x0 + spacing * (np.arange(n) - n // 2)
    psi = np.exp(-((x - spec.x0) ** 2) / (4.0 * spec.sigma**2) + 1j * spec.p0 * x / model.hbar)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * spacing))
    momenta = 2.0 * np.pi * model.hbar * np.fft.fftfreq(n, d=spacing)
    dispersion = np.hypot(model.energy_scale, momenta * model.light_speed)
    amplitudes = np.fft.fft(psi)
    fractions = []
    for t in times:
        density = np.abs(np.fft.ifft(np.exp(-1j * dispersion * t / model.hbar) * amplitudes)) ** 2
        outside = np.abs(x - spec.x0) > model.light_speed * t + 3.0 * spec.sigma
        fractions.append(float(density[outside].sum() * spacing))
    return np.asarray(fractions)


def test_criterion_07_light_cone():
    """Fig. 3-class narrow packets against the light cone.

    The boosted, chirally clean packet is what the equation confines: its
    mass beyond 3 sigma of the cone stays below 1e-2 (about 1.5e-3 once it
    moves, its own forward Gaussian tail; below 3e-15 behind).  The resting
    packet holds both momentum signs, and the non-local Salpeter evolution
    gives each chiral half 1/x tails (the Hilbert transform of the
    Gaussian), so about a tenth of its mass lies outside the cone margin.
    Every pre-reflection row must match the out-of-cone mass of the same
    Gaussian propagated on an open line by FFT within 1e-3.
    """
    model = WellModel(well_width=2.0 * math.pi)
    box = model.well_width
    grid = SpatialGrid(box, 1 << 20)

    spec = WavepacketSpec(x0=box / 2, sigma=1e-5 * box, p0=0.0)
    coeffs = decompose(gaussian_state(spec, grid, model), model)
    horizon = min(spec.x0, box - spec.x0) / model.light_speed
    times = np.linspace(0.0, 0.9, 6) * horizon
    resting = lightcone_leakage(carpet(coeffs, grid, times), spec, model)
    free = free_line_leakage(spec, model, grid.spacing, 2.0 * box, resting.times)
    deviation = float(np.max(np.abs(resting.fractions - free)))

    boosted_spec = WavepacketSpec(x0=box / 4, sigma=1e-5 * box, p0=8.0 / (1e-5 * box))
    boosted_coeffs = decompose(gaussian_state(boosted_spec, grid, model), model)
    boosted_horizon = min(boosted_spec.x0, box - boosted_spec.x0) / model.light_speed
    boosted = lightcone_leakage(
        carpet(boosted_coeffs, grid, np.linspace(0.0, 0.9, 4) * boosted_horizon),
        boosted_spec,
        model,
    )
    # the t = 0 row of any Gaussian holds erfc(3/sqrt 2) ~ 2.7e-3 beyond
    # 3 sigma; the propagation-confinement figure is the max over t > 0
    boosted_moving = float(boosted.fractions[1:].max())

    ok = bool(boosted.max_fraction < 1e-2 and deviation < 1e-3)
    report(
        7,
        ok,
        f"chirally clean packet beyond the front: {boosted.max_fraction:.1e} (< 1e-2, "
        f"{boosted_moving:.1e} once moving); resting packet (sigma=1e-5 L, p0=0) "
        f"leakage {resting.max_fraction:.3f} vs open-line {free.max():.3f}, "
        f"worst row deviation {deviation:.1e} (< 1e-3)",
    )
    assert boosted.max_fraction < 1e-2
    assert deviation < 1e-3


def test_criterion_08_spectroscopy_round_trip():
    """Levels extracted from a 50 T_cl autocorrelation match the spectrum."""
    model = WellModel(well_width=2.0 * math.pi)
    box = model.well_width
    spec = WavepacketSpec(x0=box / 2, sigma=box / 10, p0=2.0 * model.momentum_scale)
    coeffs = decompose(gaussian_state(spec, SpatialGrid(box, 1024), model), model)
    t_cl = revival_times(model, dominant_level(coeffs)).t_classical
    samples = 4096
    times = np.arange(samples) * (50.0 * t_cl / samples)
    estimates = extract_levels(autocorrelation(coeffs, times), hbar=model.hbar)

    weights = coeffs.weights()
    exact = energy(model, coeffs.levels)
    strong = weights > 1e-3
    worst = 0.0
    for e_true in exact[strong]:
        j = int(np.argmin(np.abs(estimates.energies - e_true)))
        worst = max(worst, abs(estimates.energies[j] - e_true))
    ok = worst < estimates.resolution
    report(
        8,
        ok,
        f"{int(strong.sum())} levels with weight > 1e-3: worst offset {worst:.2e} "
        f"< resolution {estimates.resolution:.2e}",
    )
    assert ok


def test_criterion_09_level_spacing_asymptote():
    """Nearest-neighbor gaps saturate at hbar pi c / L."""
    model = WellModel(well_width=7.0)
    n_max = 3000
    stats = level_spacing(model, n_max)
    beta = level_velocity(model, np.arange(1, n_max)) / model.light_speed
    fast = beta > 0.999
    gap = stats.asymptote_gap
    worst = float(np.max(np.abs(stats.spacings[fast] - gap))) / gap
    ok = bool(fast.any() and worst < 0.01)
    report(9, ok, f"{int(fast.sum())} levels with v/c > 0.999: worst |s_n - gap| = {worst:.2e} * gap (< 0.01)")
    assert ok


def test_criterion_10_intermediate_regime_substitute():
    """Configured intermediate packet: exact ratio identity, >= 100 bounces."""
    model = WellModel(well_width=101.25 * 2.0 * math.pi)
    box = model.well_width
    spec = WavepacketSpec(x0=box / 2, sigma=0.04 * box, p0=270.0 * math.pi / box)
    grid = SpatialGrid(box, 1024)
    coeffs = decompose(gaussian_state(spec, grid, model), model)
    n0 = dominant_level(coeffs)
    rt = revival_times(model, n0)

    ratio = rt.t_revival / rt.t_classical
    identity = 2.0 * n0 * rt.gamma**2
    identity_err = abs(ratio - identity) / identity

    # the carpet's mean position bounces at the classical period
    times = np.linspace(0.0, 3.0 * rt.t_classical, 128)
    result = carpet(coeffs, grid, times)
    mean_x = result.density @ result.positions * grid.spacing
    crossings = int(np.sum(np.diff(np.sign(mean_x - box / 2)) != 0))

    ok = bool(identity_err < 1e-10 and ratio >= 100.0 and crossings >= 4)
    report(
        10,
        ok,
        f"T_rev/T_cl = {ratio:.1f} (= 2 n0 gamma^2 to {identity_err:.1e}, >= 100), "
        f"{crossings} wall-to-wall swings in 3 T_cl",
    )
    assert identity_err < 1e-10
    assert ratio >= 100.0
    assert 750.0 < ratio < 3000.0
    assert crossings >= 4
