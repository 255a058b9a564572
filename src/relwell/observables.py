"""Derived quantities: autocorrelation, level extraction, carpets, light-cone
diagnostics and level-spacing statistics."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grids import GridState, SpatialGrid, require_finite, write_table
from .model import WellModel, energy, level_velocity
from .packets import CoefficientVector, WavepacketSpec
from .spectral import _TWO_PI, density_rows, reconstruct_at
from .splitop import PropagationConfig, propagate

PEAK_THRESHOLD = 1e-4  # local maxima below this fraction of the tallest peak are noise

_CARPET_MAGIC = b"CRPT"
_CARPET_VERSION = 1
_CARPET_HEADER = struct.Struct("<4sIQQdddd")


@dataclass
class AutocorrelationSeries:
    """A(t) = <psi(0)|psi(t)> sampled on a set of times."""

    times: np.ndarray
    values: np.ndarray
    uniform: bool

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")


def autocorrelation(coeffs: CoefficientVector, times) -> AutocorrelationSeries:
    """A(t) = sum_n |a_n|^2 exp(-i E_n t / hbar).

    Phases are accumulated in extended precision so revivals survive at the
    very large t where they happen.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    model = coeffs.model
    weights = coeffs.weights()
    energies = energy(model, coeffs.levels).astype(np.longdouble) / np.longdouble(model.hbar)
    values = np.zeros(ts.shape, dtype=np.complex128)
    ts_ld = ts.astype(np.longdouble)
    for w, e in zip(weights, energies):
        theta = np.mod(e * ts_ld, _TWO_PI).astype(np.float64)
        values += w * np.exp(-1j * theta)
    uniform = ts.size < 3 or bool(
        np.allclose(np.diff(ts), ts[1] - ts[0], rtol=1e-9, atol=0.0)
    )
    return AutocorrelationSeries(ts, values, uniform)


@dataclass
class LevelEstimates:
    """Energies and weights recovered from an autocorrelation record.

    ``resolution`` is the Fourier limit 2*pi*hbar/T_total of the record; the
    Hann window applied before the transform widens each peak's main lobe to
    roughly twice that, which is the price paid for suppressed leakage.
    """

    energies: np.ndarray
    weights: np.ndarray
    resolution: float
    window: str = "hann"


def extract_levels(series: AutocorrelationSeries, hbar: float = 1.0) -> LevelEstimates:
    """Locate populated levels as peaks of the windowed Fourier transform.

    Peaks are local maxima of the spectral modulus above 1e-4 of the global
    maximum, refined by three-point quadratic interpolation; energies are
    hbar*omega_peak, weights approximate |a_n|^2.
    """
    if not series.uniform:
        raise ValueError("level extraction requires uniform sampling")
    n = series.times.size
    if n < 8:
        raise ValueError("record too short")
    dt = float(series.times[1] - series.times[0])
    t_total = n * dt

    window = np.hanning(n)
    gain = window.sum()
    # G_k = sum_j w_j A_j exp(+i omega_k t_j), omega_k = 2 pi k / (n dt)
    spectrum = n * np.fft.ifft(window * series.values)
    mag = np.abs(spectrum)

    peak_floor = PEAK_THRESHOLD * mag.max()
    energies, weights = [], []
    for k in range(1, n - 1):
        if mag[k] >= mag[k - 1] and mag[k] > mag[k + 1] and mag[k] > peak_floor:
            denom = mag[k - 1] - 2.0 * mag[k] + mag[k + 1]
            shift = 0.0 if denom == 0 else 0.5 * (mag[k - 1] - mag[k + 1]) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
            height = mag[k] - 0.25 * (mag[k - 1] - mag[k + 1]) * shift
            omega = 2.0 * math.pi * (k + shift) / t_total
            energies.append(hbar * omega)
            weights.append(height / gain)
    return LevelEstimates(
        energies=np.asarray(energies),
        weights=np.asarray(weights),
        resolution=2.0 * math.pi * hbar / t_total,
    )


@dataclass
class CarpetGrid:
    """Space-time probability density: rows are times, columns positions."""

    density: np.ndarray
    times: np.ndarray
    positions: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.density = np.asarray(self.density, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.density.shape != (self.times.size, self.positions.size):
            raise ValueError("density shape must be (len(times), len(positions))")

    @property
    def spacing(self) -> float:
        return float(self.positions[1] - self.positions[0])

    def row_norms(self) -> np.ndarray:
        return self.density.sum(axis=1) * self.spacing


def carpet(
    coeffs: CoefficientVector,
    grid: SpatialGrid,
    times,
    engine: str = "exact-spectral",
    config: PropagationConfig | None = None,
    packet: WavepacketSpec | None = None,
    workers: int = 1,
) -> CarpetGrid:
    """Assemble the space-time density for the requested engine.

    The exact engine computes rows independently (and therefore in parallel);
    the split-operator engine necessarily walks through time sequentially.
    For the split engine the initial state is the eigenbasis reconstruction of
    ``coeffs`` sampled on the config box, so both engines start from the same
    wavefunction and the carpet covers the full box including the walls.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    meta = {
        "engine": engine,
        "model": coeffs.model,
        "packet": packet,
        "n_levels": coeffs.n_max,
    }
    if engine == "exact-spectral":
        rows = density_rows(coeffs, grid, ts, workers=workers)
        return CarpetGrid(rows, ts, grid.points, meta)
    if engine == "split-operator":
        if config is None:
            raise ValueError("split-operator carpets need a PropagationConfig")
        x = config.grid.points
        psi0 = reconstruct_at(coeffs, x)
        norm = math.sqrt(float(np.sum(np.abs(psi0) ** 2) * config.grid.spacing))
        state0 = GridState(psi0 / norm, config.grid)
        t_final = float(ts.max())
        samples = propagate(state0, config, t_final, sample_times=ts)
        rows = np.stack([s.density() for s in samples])
        actual = np.asarray([s.time_tag for s in samples])
        meta["dt"] = config.dt
        return CarpetGrid(rows, actual, x, meta)
    raise ValueError(f"unknown engine {engine!r}")


@dataclass
class LightconeReport:
    """Per-row probability mass found outside the light cone |x - x0| <= c t + 3 sigma."""

    times: np.ndarray
    fractions: np.ndarray
    max_fraction: float


def lightcone_leakage(carpet_grid: CarpetGrid, x0: float) -> LightconeReport:
    """Mass beyond the light cone emanating from x0, for rows before the
    first wall reflection (t < min(x0, L - x0)/c).

    The 3 sigma margin accounts for the initial packet width; sigma and the
    model are read from the carpet metadata.  The Salpeter evolution is
    non-local, so for packets holding both momentum signs (a resting packet,
    say) the figure includes the 1/x tails of the two chiral halves: about a
    tenth of the mass for a narrow resting Gaussian, with no wall involved.
    Only a chirally clean packet is confined to its own Gaussian tail.
    """
    model: WellModel = carpet_grid.metadata.get("model")
    packet: WavepacketSpec = carpet_grid.metadata.get("packet")
    if model is None or packet is None:
        raise ValueError("carpet metadata must carry the model and packet")
    c = model.light_speed
    horizon = min(x0, model.well_width - x0) / c
    mask = carpet_grid.times < horizon
    if not mask.any():
        raise DomainError("no carpet rows precede the first wall reflection")

    x = carpet_grid.positions
    dx = carpet_grid.spacing
    fractions = []
    for t, row in zip(carpet_grid.times[mask], carpet_grid.density[mask]):
        outside = np.abs(x - x0) > c * t + 3.0 * packet.sigma
        fractions.append(float(row[outside].sum() * dx))
    fractions = np.asarray(fractions)
    return LightconeReport(carpet_grid.times[mask], fractions, float(fractions.max()))


@dataclass
class SpacingStatistics:
    """Nearest-neighbor gaps s_n = E_{n+1} - E_n with per-level regime labels.

    ``asymptote_gap`` is the ultra-relativistic limit hbar*pi*c/L that the
    spacings saturate at once the dispersion turns linear.
    """

    spacings: np.ndarray
    labels: list[str]
    mean: float
    variance: float
    asymptote_gap: float


def level_spacing(model: WellModel, n_max: int) -> SpacingStatistics:
    """Spacings for n = 1..n_max-1, labelled non-relativistic (v/c < 0.1),
    intermediate, or ultra-relativistic (v/c > 0.9) by the lower level's
    velocity."""
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    levels = np.arange(1, n_max + 1)
    energies = energy(model, levels)
    spacings = np.diff(energies)
    beta = level_velocity(model, levels[:-1]) / model.light_speed
    labels = [
        "non-relativistic" if b < 0.1 else ("ultra-relativistic" if b > 0.9 else "intermediate")
        for b in beta
    ]
    return SpacingStatistics(
        spacings=spacings,
        labels=labels,
        mean=float(spacings.mean()),
        variance=float(spacings.var()),
        asymptote_gap=math.pi * model.hbar * model.light_speed / model.well_width,
    )


def write_carpet_csv(carpet_grid: CarpetGrid, path) -> None:
    """Long-format CSV with columns t, x, density.  Each time and each position
    is formatted once and repeated; only the densities are formatted per line."""
    require_finite(path, "t", carpet_grid.times)
    require_finite(path, "x", carpet_grid.positions)
    t, x = (
        np.array(["%.17g" % v for v in axis.tolist()], dtype=object)
        for axis in (carpet_grid.times, carpet_grid.positions)
    )
    shape = carpet_grid.density.shape
    columns = (np.broadcast_to(t[:, None], shape), np.broadcast_to(x, shape), carpet_grid.density)
    write_table(path, ("t", "x", "density"), columns)


def write_carpet_binary(carpet_grid: CarpetGrid, path) -> None:
    """Little-endian binary: magic 'CRPT', u32 version, u64 rows, u64 cols,
    f64 t0, f64 t1, f64 x0, f64 x1, then row-major f64 densities."""
    require_finite(path, "density", carpet_grid.density)
    rows, cols = carpet_grid.density.shape
    with open(path, "wb") as fh:
        fh.write(
            _CARPET_HEADER.pack(
                _CARPET_MAGIC,
                _CARPET_VERSION,
                rows,
                cols,
                float(carpet_grid.times[0]),
                float(carpet_grid.times[-1]),
                float(carpet_grid.positions[0]),
                float(carpet_grid.positions[-1]),
            )
        )
        fh.write(np.ascontiguousarray(carpet_grid.density, dtype="<f8").tobytes())


def read_carpet_binary(path) -> CarpetGrid:
    with open(path, "rb") as fh:
        magic, version, rows, cols, t0, t1, x0, x1 = _CARPET_HEADER.unpack(
            fh.read(_CARPET_HEADER.size)
        )
        if magic != _CARPET_MAGIC:
            raise ValueError("not a carpet file")
        if version != _CARPET_VERSION:
            raise ValueError(f"unsupported carpet version {version}")
        data = np.frombuffer(fh.read(8 * rows * cols), dtype="<f8")
    if data.size != rows * cols:
        raise ValueError("truncated carpet payload")
    return CarpetGrid(
        data.reshape(rows, cols),
        np.linspace(t0, t1, rows),
        np.linspace(x0, x1, cols),
    )


def write_carpet_pgm(carpet_grid: CarpetGrid, path) -> None:
    """16-bit binary PGM (P5, maxval 65535), normalized to the carpet maximum.

    Pixel rows are time samples, columns positions; samples are big-endian as
    the format requires.
    """
    density = carpet_grid.density
    require_finite(path, "density", density)
    peak = density.max()
    scaled = np.zeros_like(density) if peak <= 0 else density / peak
    pixels = np.round(scaled * 65535.0).astype(">u2")
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n65535\n".encode("ascii"))
        fh.write(pixels.tobytes())


def write_autocorrelation_csv(series: AutocorrelationSeries, path) -> None:
    a = series.values
    # hypot rounds |a| exactly as the scalar abs(a) does; np.abs does not
    modulus = np.hypot(a.real, a.imag)
    write_table(path, ("t", "re_a", "im_a", "abs_a"), (series.times, a.real, a.imag, modulus))


def write_levels_csv(estimates: LevelEstimates, path) -> None:
    write_table(path, ("energy", "weight"), (estimates.energies, estimates.weights))


def write_spacing_csv(stats: SpacingStatistics, path) -> None:
    n = np.arange(1, stats.spacings.size + 1)
    write_table(path, ("n", "spacing", "regime"), (n, stats.spacings, stats.labels))
