"""Exact time evolution in the analytic eigenbasis.

Evolution is a pure phase rotation of the eigenbasis coefficients, so this
engine has no time-step error at all; the only approximations live in the
initial decomposition and in the grid used for reconstruction.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AliasingError
from .grids import GridState, SpatialGrid
from .model import WellModel, energy
from .packets import CoefficientVector

# 2*pi at extended precision; the reduction below can wrap ~1e11 times, which
# would amplify a float64-rounded period into ~1e-5 phase errors
_TWO_PI = np.longdouble("6.28318530717958647692528676655900577")


def _phases(energies: np.ndarray, t: float, hbar: float) -> np.ndarray:
    """E_n * t / hbar reduced mod 2*pi in extended precision.

    Revival times grow like L^2 (and worse for super-revivals), so the raw
    phase can reach 1e12..1e15 radians where float64 products lose the
    fractional part that carries the physics.
    """
    theta = energies.astype(np.longdouble) * (np.longdouble(t) / np.longdouble(hbar))
    return np.mod(theta, _TWO_PI).astype(np.float64)


def evolve(coeffs: CoefficientVector, t: float) -> CoefficientVector:
    """Rotate each coefficient by exp(-i E_n t / hbar); negative t reverses time."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    model = coeffs.model
    energies = energy(model, coeffs.levels)
    rotated = coeffs.coefficients * np.exp(-1j * _phases(energies, t, model.hbar))
    return CoefficientVector(rotated, model, coeffs.time_tag + t, dict(coeffs.metadata))


def reconstruct(coeffs: CoefficientVector, grid: SpatialGrid) -> GridState:
    """psi(x_i) = sum_n a_n sqrt(2/L) sin(n pi x_i / L) via an inverse DST."""
    from scipy.fft import dst

    if grid.well_width != coeffs.model.well_width:
        raise ValueError("grid and model disagree on the well width")
    if coeffs.n_max > grid.nyquist_level:
        raise AliasingError(
            f"grid with {grid.intervals} intervals cannot represent level {coeffs.n_max}"
        )
    padded = np.zeros(grid.nyquist_level, dtype=np.complex128)
    padded[: coeffs.n_max] = coeffs.coefficients
    scale = 0.5 * math.sqrt(2.0 / grid.well_width)
    interior = scale * (dst(padded.real, type=1) + 1j * dst(padded.imag, type=1))
    values = np.zeros(grid.intervals + 1, dtype=np.complex128)
    values[1:-1] = interior
    return GridState(values, grid, coeffs.time_tag)


def reconstruct_at(coeffs: CoefficientVector, x) -> np.ndarray:
    """Direct sine summation at arbitrary positions inside [0, L].

    O(n_max * len(x)); used for oracle checks and for seeding other engines
    whose grids are not commensurate with the well grid.
    """
    model = coeffs.model
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    L = model.well_width
    k = coeffs.levels * (np.pi / L)
    basis = math.sqrt(2.0 / L) * np.sin(np.outer(xs, k))
    values = basis @ coeffs.coefficients
    values[(xs <= 0.0) | (xs >= L)] = 0.0
    return values


def density_at(coeffs: CoefficientVector, grid: SpatialGrid, t: float) -> np.ndarray:
    """|psi(x, t)|^2 on the grid; rows at different t are independent."""
    return reconstruct(evolve(coeffs, t), grid).density()


def density_rows(
    coeffs: CoefficientVector,
    grid: SpatialGrid,
    times,
    workers: int = 1,
) -> np.ndarray:
    """Stack of |psi(x, t)|^2 rows, one per requested time.

    Batches the per-row phase rotations and sine transforms; identical output
    regardless of ``workers``.
    """
    from scipy.fft import dst

    times = np.asarray(times, dtype=float)
    if coeffs.n_max > grid.nyquist_level:
        raise AliasingError(
            f"grid with {grid.intervals} intervals cannot represent level {coeffs.n_max}"
        )
    model = coeffs.model
    energies = energy(model, coeffs.levels)
    rows = np.empty((times.size, grid.intervals + 1), dtype=float)
    scale = 0.5 * math.sqrt(2.0 / grid.well_width)

    # chunk so the (rows x basis) workspace stays below ~64M complex entries
    chunk = max(1, (1 << 26) // max(grid.nyquist_level, 1))
    for start in range(0, times.size, chunk):
        ts = times[start : start + chunk]
        block = np.zeros((ts.size, grid.nyquist_level), dtype=np.complex128)
        for r, t in enumerate(ts):
            block[r, : coeffs.n_max] = coeffs.coefficients * np.exp(
                -1j * _phases(energies, t, model.hbar)
            )
        interior = scale * (
            dst(block.real, type=1, axis=1, workers=workers)
            + 1j * dst(block.imag, type=1, axis=1, workers=workers)
        )
        rows[start : start + chunk, 0] = 0.0
        rows[start : start + chunk, -1] = 0.0
        rows[start : start + chunk, 1:-1] = np.abs(interior) ** 2
    return rows
