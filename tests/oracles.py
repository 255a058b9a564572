"""Helpers that run relwell's own routes on purpose, for the tests to compare.

The momentum-space eigenpairs from ``build_hamiltonian``'s matrix, the grid
wavefunction of a coefficient vector by relwell's sine transform, the
autocorrelation summed level by level with relwell's phases, the level
extraction's peak refinement one sample at a time, the split-operator
engine's plain Strang step loop and a reader for the carpet binary layout
documented in the README.  Each takes relwell's objects and shares some of
its code, so each checks a route against another route.  The independent
references, which import no relwell module, are in ``references``.
"""

import math
import struct
from dataclasses import replace

import numpy as np

from relwell import (
    CoefficientVector,
    GridState,
    MomentumGrid,
    SimulationError,
    SpatialGrid,
    WellModel,
    build_hamiltonian,
    energy,
    kinetic_phase,
)
from relwell.grids import sine_transform, sine_workspace
from relwell.observables import PEAK_THRESHOLD, CarpetGrid
from relwell.spectral import phases


def momentum_eigenpairs(
    grid: MomentumGrid,
    model: WellModel,
    wall_height: float,
    k_levels: int,
    galilean: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``k_levels`` levels and eigenvectors of the discretized
    Hamiltonian, from ``eigh`` with vectors on the two real parity blocks.
    ``galilean`` swaps the diagonal's E(p) for 1 + p^2 / 2, the
    Schroedinger well with its rest energy.

    A block eigenvector u becomes [u; +-J u] / sqrt(2 dp), J the reversal,
    and D = diag(exp(-i p L / 2)) is undone, so the columns are
    eigenvectors of the complex H, orthonormal under the dp-weighted inner
    product, up to one phase each.  Levels are merged by a stable sort: a
    level both blocks share lists the even one first.
    """
    import scipy.linalg

    h = build_hamiltonian(grid, model, wall_height)
    if galilean:
        p = grid.nodes
        idx = np.arange(grid.count)
        h[idx, idx] += 1.0 + p**2 / 2.0 - np.hypot(1.0, p)
    half = grid.count // 2
    upper = h[:half, :half]
    mirrored = h[:half, half:][:, ::-1]
    per_block = min(k_levels, half)
    (even_vals, even_vecs), (odd_vals, odd_vecs) = (
        scipy.linalg.eigh(upper + sign * mirrored, subset_by_index=(0, per_block - 1))
        for sign in (1.0, -1.0)
    )
    vals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(vals, kind="stable")[:k_levels]
    top = np.concatenate([even_vecs, odd_vecs], axis=1)[:, order]
    parity = np.where(order < per_block, 1.0, -1.0)
    vecs = np.concatenate([top, top[::-1] * parity], axis=0) / math.sqrt(2.0 * grid.spacing)
    theta = grid.nodes * (0.5 * model.well_width)
    return vals[order], vecs * np.exp(-1j * theta)[:, None]


def reconstruct(coeffs: CoefficientVector, grid: SpatialGrid) -> GridState:
    """psi(x_i) = sum_n a_n sqrt(2/L) sin(n pi x_i / L) at every grid point,
    zero on the walls, by one inverse DST-I of each part: the synthesis that
    ``density_rows`` runs for each row, unless the even levels are all
    exactly zero on a grid of 4k intervals."""
    if grid.well_width != coeffs.model.well_width:
        raise ValueError("grid and model disagree on the well width")
    if coeffs.n_max > grid.nyquist_level:
        raise ValueError(f"grid with {grid.intervals} intervals cannot represent level {coeffs.n_max}")
    scale = 0.5 * math.sqrt(2.0 / grid.well_width)
    a = coeffs.coefficients
    workspace = sine_workspace(grid.nyquist_level)
    values = np.zeros(grid.size, dtype=np.complex128)
    sine_transform(a.real, workspace, scale, out=values.real[1:-1])
    sine_transform(a.imag, workspace, scale, out=values.imag[1:-1])
    return GridState(values, grid)


# README "Carpet binary": magic CRPT, u32 version, u64 rows, u64 cols,
# f64 t0, t1, x0, x1, all little-endian, then row-major f64 densities
_CARPET_LAYOUT = "<4sIQQ4d"


def autocorrelation_direct(coeffs: CoefficientVector, times) -> np.ndarray:
    """A(t) = sum_n |a_n|^2 exp(-i E_n t), one phase per level and
    sample, levels added one at a time in order."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    values = np.zeros(ts.shape, dtype=np.complex128)
    for w, e in zip(coeffs.weights(), energy(coeffs.model, coeffs.levels)):
        values += w * np.exp(-1j * phases(e, ts))
    return values


def extract_levels_loop(series) -> tuple[np.ndarray, np.ndarray]:
    """``extract_levels``' energies and weights with its peak scan and
    three-point refinement done one sample at a time, in the same floating
    operations, so the array scan must match it bit for bit."""
    n = series.times.size
    t_total = n * float(series.times[1] - series.times[0])
    window = np.hanning(n)
    gain = window.sum()
    mag = np.abs(n * np.fft.ifft(window * series.values))
    peak_floor = PEAK_THRESHOLD * mag.max()
    energies, weights = [], []
    for k in range(1, n - 1):
        if mag[k] >= mag[k - 1] and mag[k] > mag[k + 1] and mag[k] > peak_floor:
            denom = mag[k - 1] - 2.0 * mag[k] + mag[k + 1]
            shift = 0.0 if denom == 0 else 0.5 * (mag[k - 1] - mag[k + 1]) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
            height = mag[k] - 0.25 * (mag[k - 1] - mag[k + 1]) * shift
            omega = 2.0 * math.pi * (k + shift) / t_total
            energies.append(omega)
            weights.append(height / gain)
    return np.asarray(energies), np.asarray(weights)


def read_carpet_binary(path) -> CarpetGrid:
    """Parse a carpet binary file from its documented layout."""
    with open(path, "rb") as fh:
        header = fh.read(struct.calcsize(_CARPET_LAYOUT))
        magic, version, rows, cols, t0, t1, x0, x1 = struct.unpack(_CARPET_LAYOUT, header)
        if magic != b"CRPT":
            raise ValueError("not a carpet file")
        if version != 1:
            raise ValueError(f"unsupported carpet version {version}")
        data = np.frombuffer(fh.read(8 * rows * cols), dtype="<f8")
    if data.size != rows * cols:
        raise ValueError("truncated carpet payload")
    return CarpetGrid(
        data.reshape(rows, cols),
        np.linspace(t0, t1, rows),
        np.linspace(x0, x1, cols),
    )


def strang_steps(
    state: GridState, config, t_final: float, sample_times=None, callback=None
) -> list[GridState]:
    """``propagate`` as one Strang step after another, every gap stepped.

    The split engine's step loop before it could power the one-step unitary
    or fuse half-kicks, kept as it was, on scipy.fft: a route independent of
    ``propagate``'s in-place numpy.fft loop.  The stepping path must agree
    with it to about eps per step, and the powered path to rounding.
    """
    from scipy.fft import fft, ifft

    if state.values.shape != (config.grid_size,):
        raise ValueError(
            f"state has {state.values.size} samples, not the {config.grid_size} of the "
            f"config grid on [{config.grid.x_min:g}, {config.grid.x_max:g})"
        )
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    steps_total = config.steps(t_final)
    dt_used = t_final / steps_total if steps_total else config.dt
    adjusted = not math.isclose(dt_used, config.dt, rel_tol=1e-12)
    run_config = replace(config, dt=dt_used) if adjusted else config

    if sample_times is None:
        sample_steps = [steps_total]
    else:
        requested = np.atleast_1d(np.asarray(sample_times, dtype=float))
        if np.any(requested < 0.0) or np.any(requested > t_final * (1 + 1e-12)):
            raise ValueError("sample times must lie inside [0, t_final]")
        sample_steps = sorted(round(t / dt_used) for t in requested.tolist())

    half_v = np.exp(-0.5j * run_config.potential() * run_config.dt)
    kin = kinetic_phase(run_config.grid.momenta(), run_config.dt)
    psi = state.values.copy()
    samples: list[GridState] = []

    def emit(step_index: int):
        if not np.all(np.isfinite(psi.view(float))):
            raise SimulationError(f"non-finite amplitudes during propagation (step {step_index})")
        meta = {"steps_taken": step_index}
        if adjusted:
            meta["dt_adjusted"] = dt_used
        snap = GridState(psi.copy(), state.grid, step_index * dt_used, meta)
        samples.append(snap)
        if callback is not None:
            callback(snap)

    cursor = 0
    for target in sample_steps:
        for _ in range(target - cursor):
            # one Strang step exp(-iV dt/2) F^-1 K F exp(-iV dt/2)
            psi = half_v * psi
            psi = ifft(kin * fft(psi))
            psi *= half_v
        cursor = target
        emit(cursor)
    return samples
