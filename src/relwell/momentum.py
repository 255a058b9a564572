"""Momentum-space eigensolver for the finite square well.

Discretizes the bound-state integral equation on a uniform momentum grid and
diagonalizes the resulting Hermitian matrix.  The delta-singular part of the
step potential's Fourier transform is folded into a uniform +V0 diagonal
shift (complement decomposition V = V0 * (1 - window)), which stays well
conditioned at large V0; only the smooth well-window transform is sampled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EigensolverError, HermiticityError
from .grids import write_table
from .model import WellModel, energy

HERMITICITY_TOL = 1e-13  # relative to the largest matrix entry

DEFAULT_GRID_SIZE = 2048
DEFAULT_WALL_HEIGHT_FACTOR = 1.0e3


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum nodes on [-p_max, p_max], symmetric about zero.

    ``count`` must be even, which places no node exactly at p = 0.
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
        return np.linspace(-self.p_max, self.p_max, self.count)

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


def well_window_transform(q, well_width: float, hbar: float = 1.0) -> complex | np.ndarray:
    """(1/sqrt(2*pi*hbar)) * integral_0^L exp(-i q x / hbar) dx.

    Equals i*hbar*(exp(-i q L / hbar) - 1)/(q*sqrt(2*pi*hbar)) away from q = 0
    and L/sqrt(2*pi*hbar) in the limit, with conjugate symmetry
    f(-q) = conj(f(q)).
    """
    scalar = np.isscalar(q)
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.empty(qs.shape, dtype=np.complex128)
    small = np.abs(qs) * well_width < 1e-12 * hbar
    reg = ~small
    out[reg] = 1j * hbar * (np.exp(-1j * qs[reg] * well_width / hbar) - 1.0) / qs[reg]
    out[small] = well_width
    out /= math.sqrt(2.0 * math.pi * hbar)
    return complex(out[0]) if scalar else out


@dataclass(frozen=True)
class PotentialTransform:
    """Fourier transform of V0*[theta(-x) + theta(x-L)] split into a singular
    and a sampled part.

    The delta(q) piece is never sampled; it acts as the uniform diagonal
    shift ``diagonal_shift`` (= V0).  The full transform is
    sqrt(2*pi*hbar)*V0*delta(q) minus ``window``.
    """

    diagonal_shift: float
    window: np.ndarray


def potential_fourier(q, wall_height: float, well_width: float, hbar: float = 1.0) -> PotentialTransform:
    window = wall_height * np.atleast_1d(well_window_transform(q, well_width, hbar))
    return PotentialTransform(diagonal_shift=wall_height, window=window)


def build_hamiltonian(
    grid: MomentumGrid,
    model: WellModel,
    wall_height: float,
    kinetic: str = "relativistic",
) -> np.ndarray:
    """Dense Hermitian H_ij = [E(p_i) + V0] delta_ij - (V0 dp / 2 pi hbar) W(p_i - p_j).

    W is the well-window integral over [0, L].  The matrix is symmetrized
    after assembly; an asymmetry beyond tolerance aborts construction.
    """
    p = grid.nodes
    if kinetic == "relativistic":
        diag_kinetic = np.hypot(model.energy_scale, p * model.light_speed)
    elif kinetic == "nonrelativistic":
        diag_kinetic = model.energy_scale + p**2 / (2.0 * model.mass)
    else:
        raise ValueError(f"unknown kinetic form {kinetic!r}")

    q = p[:, None] - p[None, :]
    window = math.sqrt(2.0 * math.pi * model.hbar) * well_window_transform(
        q, model.well_width, model.hbar
    )
    h = -wall_height * grid.spacing / (2.0 * math.pi * model.hbar) * window
    idx = np.arange(grid.count)
    h[idx, idx] += diag_kinetic + wall_height

    scale = float(np.abs(h).max())
    asymmetry = float(np.abs(h - h.conj().T).max())
    if scale > 0 and asymmetry > HERMITICITY_TOL * scale:
        raise HermiticityError(
            f"assembled matrix asymmetry {asymmetry:.3e} exceeds tolerance"
        )
    return 0.5 * (h + h.conj().T)


@dataclass
class EigenSpectrum:
    """Ascending bound-level energies with their momentum-space eigenvectors.

    Eigenvectors are columns of ``vectors`` (one per level), orthonormal under
    the dp-weighted inner product, with the largest-modulus component of each
    rotated to the positive real axis.
    """

    levels: np.ndarray
    vectors: np.ndarray
    grid: MomentumGrid
    metadata: dict = field(default_factory=dict)

    def eigenfunction(self, n: int) -> np.ndarray:
        """Discretized phi_n(p) for 1-based level n."""
        return self.vectors[:, n - 1]


def solve(
    grid: MomentumGrid,
    model: WellModel,
    wall_height: float,
    k_levels: int,
    kinetic: str = "relativistic",
) -> EigenSpectrum:
    """Lowest ``k_levels`` eigenpairs of the discretized Hamiltonian.

    Energies below V0 are bound-state candidates.  Deterministic up to the
    eigenvector phase, which is fixed by the positive-real gauge.
    """
    if not 1 <= k_levels <= grid.count:
        raise ValueError("k_levels must lie in 1..count")
    import scipy.linalg

    h = build_hamiltonian(grid, model, wall_height, kinetic)
    try:
        vals, vecs = scipy.linalg.eigh(h, subset_by_index=(0, k_levels - 1))
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolverError(f"dense eigensolver failed: {exc}") from exc

    # dp-weighted normalization and the positive-real phase gauge
    vecs = vecs / math.sqrt(grid.spacing)
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        lead = col[np.argmax(np.abs(col))]
        if lead != 0:
            vecs[:, j] = col * (abs(lead) / lead)

    return EigenSpectrum(
        levels=vals,
        vectors=vecs,
        grid=grid,
        metadata={
            "wall_height": wall_height,
            "p_max": grid.p_max,
            "count": grid.count,
            "kinetic": kinetic,
        },
    )


def _convolve_valid(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Entries of the linear convolution kernel * signal that see all of
    ``signal`` (len(kernel) - len(signal) + 1 of them), by zero-padded FFTs."""
    from scipy.fft import fft, ifft, next_fast_len

    size = next_fast_len(kernel.size + signal.size - 1)
    full = ifft(fft(kernel, size) * fft(signal, size))
    return full[signal.size - 1 : kernel.size]


def residual_integral_equation(model: WellModel, n: int, grid: MomentumGrid) -> float:
    """Relative L2 residual of the hard-wall momentum integral equation
    phi(p) = (1/2 pi i) * integral dp' (1 - exp(-i L (p-p')/hbar))/(p-p') phi(p')
    for the analytic eigenfunction of level n.

    The coincidence limit of the kernel bracket is i L / hbar.  The quadrature
    uses uniform weights; the grid must resolve the kernel oscillation of
    period 2*pi*hbar/L.
    """
    from .model import eigenfunction_momentum

    p = grid.nodes
    dp = grid.spacing
    L = model.well_width
    hbar = model.hbar

    phi = eigenfunction_momentum(model, n, p)

    # kernel over all lags of the uniform grid; Toeplitz-apply via FFT convolution
    lags = dp * np.arange(-(grid.count - 1), grid.count)
    kernel = np.empty(lags.shape, dtype=np.complex128)
    small = np.abs(lags) * L < 1e-12 * hbar
    reg = ~small
    kernel[reg] = (1.0 - np.exp(-1j * L * lags[reg] / hbar)) / lags[reg]
    kernel[small] = 1j * L / hbar

    conv = _convolve_valid(kernel, phi)  # length count
    integral = dp / (2.0j * math.pi) * conv
    residual = phi - integral
    return math.sqrt(np.sum(np.abs(residual) ** 2) / np.sum(np.abs(phi) ** 2))


def write_spectrum_csv(spectrum: EigenSpectrum, model: WellModel, path) -> None:
    """CSV comparing numeric levels with the closed-form spectrum."""
    n = np.arange(1, spectrum.levels.size + 1)
    analytic = energy(model, n)
    abs_err = np.abs(spectrum.levels - analytic)
    header = ("n", "e_numeric", "e_analytic", "abs_error", "rel_error")
    write_table(path, header, (n, spectrum.levels, analytic, abs_err, abs_err / analytic))
