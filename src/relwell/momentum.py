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

from .errors import EigensolverError
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
    import scipy.linalg

    p = grid.nodes
    if kinetic == "relativistic":
        diag_kinetic = np.hypot(model.energy_scale, p * model.light_speed)
    elif kinetic == "nonrelativistic":
        diag_kinetic = model.energy_scale + p**2 / (2.0 * model.mass)
    else:
        raise ValueError(f"unknown kinetic form {kinetic!r}")

    lags = np.arange(grid.count) * grid.spacing
    window = model.well_width * np.sinc(lags * model.well_width / (2.0 * math.pi * model.hbar))
    h = scipy.linalg.toeplitz(-wall_height * grid.spacing / (2.0 * math.pi * model.hbar) * window)
    idx = np.arange(grid.count)
    h[idx, idx] += diag_kinetic + wall_height
    return h


@dataclass
class EigenSpectrum:
    """Ascending bound-level energies with their momentum-space eigenvectors.

    Eigenvectors are columns of ``vectors`` (one per level), orthonormal under
    the dp-weighted inner product.  Each has mirrored components of equal
    modulus; the largest-modulus component with index below count/2 is
    rotated to the positive real axis.
    """

    levels: np.ndarray
    vectors: np.ndarray
    grid: MomentumGrid
    metadata: dict = field(default_factory=dict)


def solve(
    grid: MomentumGrid,
    model: WellModel,
    wall_height: float,
    k_levels: int,
    kinetic: str = "relativistic",
) -> EigenSpectrum:
    """Lowest ``k_levels`` eigenpairs of the discretized Hamiltonian.

    Energies below V0 are bound-state candidates.  The even and odd blocks
    A +- B of H' are solved apart and merged by a stable sort, so a level
    both blocks share lists the even one first.
    """
    if not 1 <= k_levels <= grid.count:
        raise ValueError("k_levels must lie in 1..count")
    import scipy.linalg

    h = build_hamiltonian(grid, model, wall_height, kinetic)
    half = grid.count // 2
    upper = h[:half, :half]
    mirrored = h[:half, half:][:, ::-1]
    per_block = min(k_levels, half)
    try:
        (even_vals, even_vecs), (odd_vals, odd_vecs) = (
            scipy.linalg.eigh(upper + sign * mirrored, subset_by_index=(0, per_block - 1))
            for sign in (1.0, -1.0)
        )
    except scipy.linalg.LinAlgError as exc:
        raise EigensolverError(f"dense eigensolver failed: {exc}") from exc

    vals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(vals, kind="stable")[:k_levels]
    top = np.concatenate([even_vecs, odd_vecs], axis=1)[:, order]
    parity = np.where(order < per_block, 1.0, -1.0)

    # embed u as [u; +-J u] / sqrt(2) with the dp weight and undo D relative to
    # the largest component of u, which thus comes out exactly real and positive.
    # Its mirror matches its modulus only to rounding; the lead takes the larger
    # of the two, so it stays the first maximum of |v|.
    theta = grid.nodes * (0.5 * model.well_width / model.hbar)
    cols = np.arange(k_levels)
    lead = np.argmax(np.abs(top), axis=0)
    scale = np.sign(top[lead, cols]) / math.sqrt(2.0 * grid.spacing)
    vecs = np.concatenate([top, top[::-1] * parity], axis=0) * scale
    vecs = vecs * np.exp(-1j * (theta[:, None] - theta[lead]))
    vecs[lead, cols] = np.abs(vecs).max(axis=0)

    return EigenSpectrum(
        levels=vals[order],
        vectors=vecs,
        grid=grid,
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
