"""Exact time evolution in the analytic eigenbasis.

Evolution is a pure phase rotation of the eigenbasis coefficients, so this
engine has no time-step error at all; the only approximations live in the
initial decomposition and in the grid used for reconstruction.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import GridState, SpatialGrid, sine_transform
from .model import energy
from .packets import CoefficientVector


def phases(energies, times, hbar: float) -> np.ndarray:
    """(E_n / hbar) * t reduced mod 2*pi in extended precision, as float64.

    ``energies`` and ``times`` broadcast against each other.  Revival times
    grow like L^2 (and worse for super-revivals), so the raw phase can reach
    1e12..1e15 radians where float64 products lose the fractional part that
    carries the physics.
    """
    # 2*pi at extended precision; the reduction can wrap ~1e11 times, which
    # would amplify a float64-rounded period into ~1e-5 phase errors
    two_pi = np.longdouble("6.28318530717958647692528676655900577")
    omega = np.asarray(energies, dtype=np.longdouble) / np.longdouble(hbar)
    theta = omega * np.asarray(times, dtype=np.longdouble)
    return np.mod(theta, two_pi).astype(np.float64)


def evolve(coeffs: CoefficientVector, t: float) -> CoefficientVector:
    """Rotate each coefficient by exp(-i E_n t / hbar); negative t reverses time."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    model = coeffs.model
    energies = energy(model, coeffs.levels)
    rotated = coeffs.coefficients * np.exp(-1j * phases(energies, t, model.hbar))
    return CoefficientVector(rotated, model, coeffs.time_tag + t, dict(coeffs.metadata))


def _synthesize(rows, count: int, n_max: int, grid: SpatialGrid) -> np.ndarray:
    """psi(x_i) = sum_n a_n sqrt(2/L) sin(n pi x_i / L) at every grid point,
    zero on the walls, for each of ``count`` coefficient rows a_1..a_n_max.

    Mode n and grid point n share an index, so the output buffer holds the
    zero-padded coefficients until one inverse DST-I overwrites its interior,
    in place: a copy would cost one more pass over the largest array.
    """
    if n_max > grid.nyquist_level:
        raise ValueError(f"grid with {grid.intervals} intervals cannot represent level {n_max}")
    values = np.zeros((count, grid.intervals + 1), dtype=np.complex128)
    interior = values[:, 1:-1]
    for r, row in enumerate(rows):
        interior[r, :n_max] = row
    scale = 0.5 * math.sqrt(2.0 / grid.well_width)
    np.multiply(scale, sine_transform(interior), out=interior)
    return values


def reconstruct(coeffs: CoefficientVector, grid: SpatialGrid) -> GridState:
    """psi(x_i) = sum_n a_n sqrt(2/L) sin(n pi x_i / L) via an inverse DST."""
    if grid.well_width != coeffs.model.well_width:
        raise ValueError("grid and model disagree on the well width")
    values = _synthesize([coeffs.coefficients], 1, coeffs.n_max, grid)[0]
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


def density_rows(coeffs: CoefficientVector, grid: SpatialGrid, times) -> np.ndarray:
    """Stack of |psi(x, t)|^2 rows, one per requested time.

    Rows are phased one at a time and transformed in batches.
    """
    times = np.asarray(times, dtype=float)
    energies = energy(coeffs.model, coeffs.levels)
    rows = np.empty((times.size, grid.intervals + 1), dtype=float)
    # chunk so the (rows x basis) workspace stays below ~64M complex entries
    chunk = max(1, (1 << 26) // max(grid.nyquist_level, 1))
    for start in range(0, times.size, chunk):
        ts = times[start : start + chunk]
        phased = (
            coeffs.coefficients * np.exp(-1j * phases(energies, t, coeffs.model.hbar)) for t in ts
        )
        values = _synthesize(phased, ts.size, coeffs.n_max, grid)
        rows[start : start + chunk] = np.abs(values) ** 2
    return rows
