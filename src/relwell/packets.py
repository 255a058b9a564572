"""Gaussian initial states and their decomposition in the box eigenbasis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import SimulationError
from .grids import GridState, SpatialGrid, sine_transform, sine_workspace, write_table
from .model import WellModel

# auto-truncation: cut once |a_n|^2 stays below this for TAIL_RUN consecutive levels
TAIL_THRESHOLD = 1e-14
TAIL_RUN = 10

MIN_POINTS_PER_SIGMA = 8


def min_intervals(spec: WavepacketSpec, model: WellModel) -> int:
    """The fewest grid intervals that put MIN_POINTS_PER_SIGMA points in a
    sigma; ValueError where that count is infinite."""
    needed = MIN_POINTS_PER_SIGMA * model.well_width / spec.sigma
    if not math.isfinite(needed):
        raise ValueError(f"the packet needs {needed:.3g} grid intervals, beyond any array")
    return math.ceil(needed)


def auto_intervals(spec: WavepacketSpec, model: WellModel) -> int:
    """The grid intervals of a run that names none: the smallest power of two
    >= max(1024, 16 L/sigma, 4 k_top L/pi), k_top = |p0| + 4/sigma; ValueError past 2^61."""
    L, sigma = model.well_width, spec.sigma
    k_top = abs(spec.p0) + 4.0 / sigma
    needed = max(1024.0, 16.0 * L / sigma, 4.0 * k_top * L / math.pi)
    if not needed <= 2**61:
        raise ValueError(f"the packet needs {needed:.3g} grid intervals, beyond any array")
    return 1 << max(10, math.ceil(math.log2(needed)))


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian packet exp(-(x-x0)^2/(4 sigma^2) + i p0 x), in natural units:
    x0 and sigma in reduced Compton wavelengths hbar/(m c), p0 in m c.

    ``sigma`` is the position uncertainty of the state (the density has
    standard deviation sigma).
    """

    x0: float
    sigma: float
    p0: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def validate_against(self, model: WellModel) -> None:
        L = model.well_width
        if not 0.0 < self.x0 < L:
            raise ValueError("packet center must lie strictly inside the box")
        if self.sigma >= L / 2.0:
            raise ValueError("sigma must be below L/2 for wall tails to be negligible")


@dataclass
class CoefficientVector:
    """Eigenbasis amplitudes a_n, n = 1..n_max, with bookkeeping metadata.

    ``coefficients[i]`` holds a_{i+1}.  ``metadata`` records the Parseval
    defect of the truncation, the relative tail weight and, for grid-built
    packets, the Gaussian mass discarded outside the box.
    """

    coefficients: np.ndarray
    model: WellModel
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=np.complex128)
        if self.coefficients.ndim != 1 or self.coefficients.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D array")

    @property
    def n_max(self) -> int:
        return self.coefficients.size

    @property
    def levels(self) -> np.ndarray:
        return np.arange(1, self.n_max + 1)

    def weights(self) -> np.ndarray:
        return np.abs(self.coefficients) ** 2


def gaussian_state(spec: WavepacketSpec, grid: SpatialGrid, model: WellModel) -> GridState:
    """Sample the Gaussian packet on the grid, zero it outside [0, L] and
    normalize to unit discrete norm sum |psi_i|^2 dx = 1.

    The mass the pure Gaussian carries beyond the walls (discarded by the
    zeroing) is recorded in ``metadata['discarded_mass']`` from the closed-form
    tail integral.
    """
    spec.validate_against(model)
    if grid.well_width != model.well_width:
        raise ValueError("grid and model disagree on the well width")
    needed = min_intervals(spec, model)
    if grid.intervals < needed:
        raise ValueError(
            f"grid too coarse for sigma={spec.sigma:g}: need at least "
            f"{needed} intervals, got {grid.intervals}"
        )
    x = grid.points
    # sigma * sigma, not sigma**2: Python's float power raises past double range
    psi = np.exp(-((x - spec.x0) ** 2) / (4.0 * (spec.sigma * spec.sigma)) + 1j * spec.p0 * x)
    psi[0] = 0.0
    psi[-1] = 0.0

    # tail mass of the unit-norm free Gaussian outside [0, L]
    s = spec.sigma * math.sqrt(2.0)
    discarded = 0.5 * (math.erfc(spec.x0 / s) + math.erfc((model.well_width - spec.x0) / s))

    state = GridState(psi, grid, 0.0, {"discarded_mass": float(discarded)})
    state.values /= math.sqrt(state.norm_squared())
    return state


def _sine_coefficients(values: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """a_n = sum_i phi_n(x_i) psi(x_i) dx for n = 1..nyquist via a DST-I of each part."""
    interior = values[1:-1]
    workspace = sine_workspace(grid.nyquist_level)
    re = sine_transform(interior.real, workspace)
    im = sine_transform(interior.imag, workspace)
    del workspace  # free its two buffers before the complex sum
    coefficients = re + 1j * im
    coefficients *= math.sqrt(2.0 / grid.well_width) * grid.spacing * 0.5
    return coefficients


def decompose(state: GridState, model: WellModel, n_max: int | None = None) -> CoefficientVector:
    """Project a grid state onto the sine eigenbasis by grid quadrature.

    With ``n_max=None`` the truncation level is chosen automatically: the
    smallest n past which |a_n|^2 stays below 1e-14 for 10 consecutive levels,
    capped at the grid's sine-basis size.  The Parseval defect
    1 - sum |a_n|^2 is reported in metadata.  The n_max amplitudes are a copy,
    so the grid-length transform they are cut from is freed on return.
    """
    grid = state.grid
    if not isinstance(grid, SpatialGrid):
        raise ValueError("decompose expects a state on the well grid")
    nyquist = grid.nyquist_level
    if n_max is not None:
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        if n_max > nyquist:
            raise ValueError(f"n_max={n_max} exceeds the grid Nyquist level {nyquist}")

    coeffs_full = _sine_coefficients(state.values, grid)
    if n_max is None:
        weights = np.abs(coeffs_full) ** 2
        # scan past the weight peak, so packets boosted to high levels keep
        # their (empty) low-n head instead of being truncated to nothing
        start = int(np.argmax(weights))
        # one byte per level from the peak on, 1 where it is quiet: the first
        # quiet run is the first match of TAIL_RUN ones
        quiet = (weights[start:] < TAIL_THRESHOLD).tobytes()
        opens = quiet.find(b"\x01" * TAIL_RUN)
        n_max = nyquist if opens < 0 else start + opens + 1
    coeffs = coeffs_full[:n_max].copy()

    weights = np.abs(coeffs) ** 2
    peak = float(weights.max()) if weights.size else 0.0
    meta = dict(state.metadata)
    meta.update(
        {
            "parseval_defect": float(1.0 - weights.sum()),
            "truncation_tail_ratio": float(weights[-1] / peak) if peak > 0 else 0.0,
        }
    )
    return CoefficientVector(coeffs, model, meta)


def dominant_level(coeffs: CoefficientVector) -> int:
    """Level with the largest population |a_n|^2; ties break toward smaller n."""
    weights = coeffs.weights()
    if float(weights.sum()) == 0.0:
        raise SimulationError("all coefficients vanish")
    return int(np.argmax(weights)) + 1  # argmax returns the first (smallest) maximizer


def write_coefficients_csv(coeffs: CoefficientVector, path) -> None:
    """CSV with columns n, Re(a_n), Im(a_n), |a_n|^2."""
    a = coeffs.coefficients
    # scalar |a| ** 2 (C pow), not array squaring, which rounds some weights differently
    weight = [m**2 for m in np.hypot(a.real, a.imag).tolist()]
    columns = (np.arange(1, a.size + 1), a.real, a.imag, np.asarray(weight, dtype=float))
    write_table(path, ("n", "re_a", "im_a", "weight"), columns)
