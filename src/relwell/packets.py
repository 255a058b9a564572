"""Gaussian initial states and their decomposition in the box eigenbasis."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SimulationError
from .grids import GridState, SpatialGrid, sine_transform, write_table
from .model import SCALE_FIELDS, WellModel

# auto-truncation: cut once |a_n|^2 stays below this for TAIL_RUN consecutive levels
TAIL_THRESHOLD = 1e-14
TAIL_RUN = 10

MIN_POINTS_PER_SIGMA = 8


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian packet exp(-(x-x0)^2/(4 sigma^2) + i p0 x / hbar).

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
    time_tag: float = 0.0
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

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.coefficients) ** 2))

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
    if grid.spacing > spec.sigma / MIN_POINTS_PER_SIGMA:
        needed = math.ceil(MIN_POINTS_PER_SIGMA * model.well_width / spec.sigma)
        raise ValueError(
            f"grid too coarse for sigma={spec.sigma:g}: need at least "
            f"{needed} intervals, got {grid.intervals}"
        )
    x = grid.points
    psi = np.exp(
        -((x - spec.x0) ** 2) / (4.0 * spec.sigma**2) + 1j * spec.p0 * x / model.hbar
    )
    psi[0] = 0.0
    psi[-1] = 0.0

    # tail mass of the unit-norm free Gaussian outside [0, L]
    s = spec.sigma * math.sqrt(2.0)
    discarded = 0.5 * (math.erfc(spec.x0 / s) + math.erfc((model.well_width - spec.x0) / s))

    norm = math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.spacing))
    # a NaN or infinite sample makes the norm NaN or infinite too
    if not 0.0 < norm < math.inf:
        raise SimulationError(
            f"the packet of sigma={spec.sigma:g} samples to a state of norm {norm}; "
            f"sigma**2 leaves double range at these scales: bring {SCALE_FIELDS} closer to 1"
        )
    state = GridState(psi / norm, grid, 0.0, {"discarded_mass": float(discarded)})
    return state


def _sine_coefficients(values: np.ndarray, grid: SpatialGrid, n_levels: int) -> np.ndarray:
    """a_n = sum_i phi_n(x_i) psi(x_i) dx for n = 1..n_levels via a DST-I."""
    scale = math.sqrt(2.0 / grid.well_width) * grid.spacing * 0.5
    return (scale * sine_transform(values[1:-1]))[:n_levels]


def decompose(state: GridState, model: WellModel, n_max: int | None = None) -> CoefficientVector:
    """Project a grid state onto the sine eigenbasis by grid quadrature.

    With ``n_max=None`` the truncation level is chosen automatically: the
    smallest n past which |a_n|^2 stays below 1e-14 for 10 consecutive levels,
    capped at the grid's sine-basis size.  The Parseval defect
    1 - sum |a_n|^2 is reported in metadata.
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

    coeffs_full = _sine_coefficients(state.values, grid, nyquist)
    if n_max is None:
        weights = np.abs(coeffs_full) ** 2
        below = weights < TAIL_THRESHOLD
        # scan past the weight peak, so packets boosted to high levels keep
        # their (empty) low-n head instead of being truncated to nothing
        start = int(np.argmax(weights))
        n_max = nyquist
        run = 0
        for i in range(start, nyquist):
            run = run + 1 if below[i] else 0
            if run == TAIL_RUN:
                n_max = i - TAIL_RUN + 1 + 1  # index of first level of the quiet run
                break
        n_max = max(1, min(n_max, nyquist))
    coeffs = coeffs_full[:n_max]

    weights = np.abs(coeffs) ** 2
    peak = float(weights.max()) if weights.size else 0.0
    meta = dict(state.metadata)
    meta.update(
        {
            "parseval_defect": float(1.0 - weights.sum()),
            "truncation_tail_ratio": float(weights[-1] / peak) if peak > 0 else 0.0,
            "n_max": int(n_max),
        }
    )
    return CoefficientVector(coeffs, model, state.time_tag, meta)


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
