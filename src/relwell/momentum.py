"""Momentum-space eigensolver for the finite square well.

Discretizes the bound-state integral equation on a uniform momentum grid.  The
delta-singular part of the step potential's Fourier transform is folded into a
uniform +V0 diagonal shift (complement decomposition V = V0 * (1 - window)),
which stays well conditioned at large V0; only the smooth well-window
transform W(q) = exp(-i q L / 2 hbar) * 2 hbar sin(q L / 2 hbar) / q is
sampled.  Conjugating by D = diag(exp(-i p L / 2 hbar)) removes its phase and
leaves a real symmetric matrix; E(p) is even and the nodes are mirror images,
so that matrix splits into even and odd blocks of half the size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SimulationError
from .grids import write_table
from .model import WellModel, energy

DEFAULT_GRID_SIZE = 2048
DEFAULT_WALL_HEIGHT_FACTOR = 1.0e3


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum nodes on [-p_max, p_max], symmetric about zero.

    ``count`` must be even, which places no node exactly at p = 0.  Node k is
    (k - (count - 1)/2) * spacing, so nodes k and count-1-k are exact negatives.
    """

    p_max: float
    count: int

    def __post_init__(self):
        if self.p_max <= 0:
            raise ValueError("p_max must be positive")
        if self.count < 4 or self.count % 2:
            raise ValueError("count must be an even integer >= 4")

    @property
    def nodes(self) -> np.ndarray:
        return (np.arange(self.count) - 0.5 * (self.count - 1)) * self.spacing

    @property
    def spacing(self) -> float:
        return 2.0 * self.p_max / (self.count - 1)


def default_grid(model: WellModel, n_target: int, count: int = DEFAULT_GRID_SIZE) -> MomentumGrid:
    """Grid wide enough for the highest targeted level."""
    p_max = max(
        20.0 * model.hbar / model.well_width * n_target,
        10.0 * model.momentum_scale,
    )
    return MomentumGrid(p_max, count)


def build_hamiltonian(
    grid: MomentumGrid,
    model: WellModel,
    wall_height: float,
    kinetic: str = "relativistic",
) -> np.ndarray:
    """Real symmetric H' = D^dagger H D, where
    H_ij = [E(p_i) + V0] delta_ij - (V0 dp / 2 pi hbar) W(p_i - p_j).

    H' keeps the diagonal; its coupling is the Toeplitz matrix
    -(V0 dp / 2 pi hbar) L sinc((i - j) dp L / 2 pi hbar).
    """
    p = grid.nodes
    if kinetic == "relativistic":
        diag_kinetic = np.hypot(model.energy_scale, p * model.light_speed)
    elif kinetic == "nonrelativistic":
        diag_kinetic = model.energy_scale + p**2 / (2.0 * model.mass)
    else:
        raise ValueError(f"unknown kinetic form {kinetic!r}")

    lags = np.arange(grid.count) * grid.spacing
    window = model.well_width * np.sinc(lags * model.well_width / (2.0 * math.pi * model.hbar))
    coupling = -wall_height * grid.spacing / (2.0 * math.pi * model.hbar) * window
    # row i is the length-n window starting at n-1-i in [c_{n-1}..c_1, c_0, c_1..c_{n-1}],
    # that is c_|i-j|, with no n x n index array
    mirrored = np.concatenate([coupling[:0:-1], coupling])
    h = sliding_window_view(mirrored, grid.count)[::-1].copy()
    idx = np.arange(grid.count)
    h[idx, idx] += diag_kinetic + wall_height
    return h


@dataclass
class EigenSpectrum:
    """Ascending bound-level energies of the discretized Hamiltonian, with
    the grid, wall height and kinetic form that produced them."""

    levels: np.ndarray
    metadata: dict = field(default_factory=dict)


def solve(
    grid: MomentumGrid,
    model: WellModel,
    wall_height: float,
    k_levels: int,
    kinetic: str = "relativistic",
) -> EigenSpectrum:
    """Lowest ``k_levels`` eigenvalues of the discretized Hamiltonian.

    Energies below V0 are bound-state candidates.  The even and odd blocks
    A +- B of H' are solved apart, for eigenvalues only, and their levels
    merged in ascending order.
    """
    if not 1 <= k_levels <= grid.count:
        raise ValueError("k_levels must lie in 1..count")
    if wall_height < 0:
        raise ValueError("wall_height must be nonnegative")

    h = build_hamiltonian(grid, model, wall_height, kinetic)
    half = grid.count // 2
    upper = h[:half, :half]
    mirrored = h[:half, half:][:, ::-1]
    per_block = min(k_levels, half)
    try:
        blocks = [
            np.linalg.eigvalsh(upper + sign * mirrored)[:per_block] for sign in (1.0, -1.0)
        ]
    except np.linalg.LinAlgError as exc:
        raise SimulationError(f"dense eigensolver failed: {exc}") from exc

    return EigenSpectrum(
        levels=np.sort(np.concatenate(blocks))[:k_levels],
        metadata={
            "wall_height": wall_height,
            "p_max": grid.p_max,
            "count": grid.count,
            "kinetic": kinetic,
        },
    )


def write_spectrum_csv(spectrum: EigenSpectrum, model: WellModel, path) -> None:
    """CSV comparing numeric levels with the closed-form spectrum."""
    n = np.arange(1, spectrum.levels.size + 1)
    analytic = energy(model, n)
    abs_err = np.abs(spectrum.levels - analytic)
    header = ("n", "e_numeric", "e_analytic", "abs_error", "rel_error")
    write_table(path, header, (n, spectrum.levels, analytic, abs_err, abs_err / analytic))
