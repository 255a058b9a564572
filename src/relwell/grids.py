"""Spatial grids, the sampled wavefunction container, the sine transform and
the CSV table writer."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SimulationError

_BLOCK_LINES = 2048  # lines formatted per write: bounds the text held at once


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid over the well [0, L], endpoints included.

    ``intervals`` is the number of spacings; the grid has ``intervals + 1``
    points with x[0] = 0 and x[-1] = L.  Sine-basis operations address the
    ``intervals - 1`` interior points.
    """

    well_width: float
    intervals: int

    def __post_init__(self):
        if self.well_width <= 0:
            raise ValueError("well_width must be positive")
        if self.intervals < 2:
            raise ValueError("need at least 2 intervals")

    @property
    def spacing(self) -> float:
        return self.well_width / self.intervals

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.well_width, self.intervals + 1)

    @property
    def nyquist_level(self) -> int:
        """Highest sine-basis index the grid represents without aliasing."""
        return self.intervals - 1


@dataclass(frozen=True)
class BoxGrid:
    """Periodic grid over [x_min, x_max) used by the split-operator engine.

    The right endpoint is identified with the left one and not stored.
    """

    x_min: float
    x_max: float
    size: int

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.size < 2:
            raise ValueError("need at least 2 points")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def spacing(self) -> float:
        return self.length / self.size

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.spacing * np.arange(self.size)

    def momenta(self, hbar: float) -> np.ndarray:
        """FFT-ordered momentum samples conjugate to the grid."""
        return 2.0 * np.pi * hbar * np.fft.fftfreq(self.size, d=self.spacing)


@dataclass
class GridState:
    """Complex wavefunction samples on a grid, tagged with the time they refer to."""

    values: np.ndarray
    grid: SpatialGrid | BoxGrid
    time_tag: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != self.grid.points.shape:
            raise ValueError("sample count does not match the grid")

    @property
    def spacing(self) -> float:
        return self.grid.spacing

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.spacing)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def sine_transform(values: np.ndarray) -> np.ndarray:
    """Unnormalized DST-I of a complex vector.

    A real vector x of length n is odd-extended to [0, x, 0, -x reversed] and
    its DST-I is -Im of the extension's real FFT at 1..n.  That is the route,
    length-2(n+1) plan and all, of pocketfft's own DST-I, so the bits match
    it.  The real and imaginary parts go through separate real transforms: a
    complex DST rounds differently and can turn zero parts into -0.
    """
    n = values.size
    extension = np.zeros(2 * (n + 1))

    def real_dst(part: np.ndarray) -> np.ndarray:
        extension[1 : n + 1] = part
        np.negative(part[::-1], out=extension[n + 2 :])
        return -np.fft.rfft(extension).imag[1 : n + 1]

    return real_dst(values.real) + 1j * real_dst(values.imag)


def require_finite(path, name: str, values) -> None:
    """Refuse, before anything is written, to put non-finite ``values`` in ``path``."""
    if not np.isfinite(values).all():
        raise SimulationError(f"refusing to write non-finite {name} to {path}")


def write_table(path, header, columns) -> None:
    """CSV: a header line, then line k holds element k (C order) of each
    equal-shaped column: floats as ``.17g``, integers in decimal, text as is.
    Float columns must be finite, which is checked before the file is opened."""
    columns = [np.asarray(column) for column in columns]
    kinds = [column.dtype.kind for column in columns]
    for name, column, kind in zip(header, columns, kinds):
        if kind == "f":
            require_finite(path, name, column)
    line = ",".join({"f": "%.17g", "i": "%d", "u": "%d"}.get(k, "%s") for k in kinds) + "\n"
    size = columns[0].size
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, size, _BLOCK_LINES):
            stop = min(start + _BLOCK_LINES, size)
            cells = np.empty((stop - start, len(columns)), dtype=object)
            for j, column in enumerate(columns):
                cells[:, j] = column.flat[start:stop]
            # one % call fills the repeated line template from the row-major cells
            fh.write((line * len(cells)) % tuple(cells.ravel().tolist()))
