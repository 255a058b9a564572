"""Derived quantities: autocorrelation, level extraction, carpets, light-cone
diagnostics and level-spacing statistics."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .grids import GridState, SpatialGrid, require_finite, write_table
from .model import WellModel, energy, level_velocity
from .packets import CoefficientVector, WavepacketSpec
from .spectral import density_rows, phases, reconstruct_at
from .splitop import PropagationConfig, propagate

PEAK_THRESHOLD = 1e-4  # local maxima below this fraction of the tallest peak are noise

_BLOCK = 256  # autocorrelation samples per block of the two matrix products
_TAYLOR_LIMIT = 1e-3  # largest |E r / hbar| the residual series corrects
_WORKSPACE = 1 << 16  # complex entries per chunk of autocorrelation anchors

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

    The samples are cut into blocks of ``_BLOCK``; sample j of the block
    anchored at t_a sits at t_a + j dt + r, with a residual r of a few ulp
    of t on a uniform grid.  Then

        A = M T + sum_{m >= 1} (M diag((-i E / hbar)^m / m!)) T * r^m,

    with M[b, n] = |a_n|^2 exp(-i E_n t_a(b) / hbar) and
    T[n, j] = exp(-i E_n j dt / hbar): two complex matrix products, and
    n_max * (K / B + B) phases in place of n_max * K.  Correction terms are
    added until the next one is below 1e-17.  Where some |E r / hbar|
    exceeds ``_TAYLOR_LIMIT`` (non-uniform or inexact grids, K < 3) the
    block length is 1, so M is the whole sum and T is ones.  M is built in
    chunks of blocks, which bounds the workspace for every block length.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    model = coeffs.model
    energies = energy(model, coeffs.levels)
    rates = energies / model.hbar
    offsets, residuals, x = _blocks(ts, float(np.max(np.abs(rates))))
    order = 0
    while x ** (order + 1) / math.factorial(order + 1) >= 1e-17:
        order += 1

    weights = coeffs.weights()
    steps = np.exp(-1j * phases(energies[:, None], offsets, model.hbar))
    anchors = ts[:: offsets.size]
    values = np.empty(residuals.shape, dtype=np.complex128)
    rows = max(1, _WORKSPACE // energies.size)
    for start in range(0, anchors.size, rows):
        chunk = slice(start, start + rows)
        m_rows = weights * np.exp(-1j * phases(energies, anchors[chunk, None], model.hbar))
        values[chunk] = m_rows @ steps
        for m in range(1, order + 1):
            factor = (-1j * rates) ** m / math.factorial(m)
            values[chunk] += ((m_rows * factor) @ steps) * residuals[chunk] ** m
    uniform = ts.size < 3 or bool(
        np.allclose(np.diff(ts), ts[1] - ts[0], rtol=1e-9, atol=0.0)
    )
    return AutocorrelationSeries(ts, values.reshape(-1)[: ts.size], uniform)


def _blocks(ts: np.ndarray, rate: float):
    """In-block offsets j*dt (one per column), residuals r of shape
    (blocks, B) with t[b*B + j] = t[b*B] + j*dt + r[b, j], and the largest
    |rate * r|.

    Both subtractions in r = (t_k - t_a) - j*dt are exact (Sterbenz) on a
    uniform grid, so r holds what the offsets miss and nothing else.  The
    padding after the last sample has r = 0.  Where some |rate * r| exceeds
    ``_TAYLOR_LIMIT``, or K < 3, the block length is 1 and r = 0.
    """
    if ts.size >= 3:
        block = min(_BLOCK, ts.size)
        offsets = np.arange(block) * ((ts[-1] - ts[0]) / (ts.size - 1))
        padded = np.full(-(-ts.size // block) * block, ts[-1])
        padded[: ts.size] = ts
        grid = padded.reshape(-1, block)
        residuals = (grid - grid[:, :1]) - offsets
        residuals.reshape(-1)[ts.size :] = 0.0
        x = rate * float(np.max(np.abs(residuals)))
        if x <= _TAYLOR_LIMIT:
            return offsets, residuals, x
    return np.zeros(1), np.zeros((ts.size, 1)), 0.0


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

    def __post_init__(self):
        self.density = np.asarray(self.density, dtype=float)
        self.times = np.asarray(self.times, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.density.shape != (self.times.size, self.positions.size):
            raise ValueError("density shape must be (len(times), len(positions))")

    @property
    def spacing(self) -> float:
        return float(self.positions[1] - self.positions[0])


def carpet(
    coeffs: CoefficientVector,
    grid: SpatialGrid,
    times,
    config: PropagationConfig | None = None,
) -> CarpetGrid:
    """Space-time density by split-operator propagation when ``config`` is
    given, by the exact engine on ``grid`` otherwise.

    The exact engine computes rows independently; the split-operator engine
    necessarily walks through time sequentially.  For the split engine the
    initial state is the eigenbasis reconstruction of ``coeffs`` sampled on
    the config box, so both engines start from the same wavefunction and the
    carpet covers the full box including the walls.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if config is None:
        return CarpetGrid(density_rows(coeffs, grid, ts), ts, grid.points)
    x = config.grid.points
    psi0 = reconstruct_at(coeffs, x)
    norm = math.sqrt(float(np.sum(np.abs(psi0) ** 2) * config.grid.spacing))
    state0 = GridState(psi0 / norm, config.grid)
    samples = propagate(state0, config, float(ts.max()), sample_times=ts)
    rows = np.stack([s.density() for s in samples])
    return CarpetGrid(rows, [s.time_tag for s in samples], x)


@dataclass
class LightconeReport:
    """Per-row probability mass found outside the light cone |x - x0| <= c t + 3 sigma."""

    times: np.ndarray
    fractions: np.ndarray
    max_fraction: float


def lightcone_leakage(
    carpet_grid: CarpetGrid, packet: WavepacketSpec, model: WellModel
) -> LightconeReport:
    """Mass beyond the light cone emanating from the packet center x0, for
    rows before the first wall reflection (t < min(x0, L - x0)/c).

    The 3 sigma margin accounts for the initial packet width.  The Salpeter
    evolution is non-local, so for packets holding both momentum signs (a
    resting packet, say) the figure includes the 1/x tails of the two chiral
    halves: about a tenth of the mass for a narrow resting Gaussian, with no
    wall involved.  Only a chirally clean packet is confined to its own
    Gaussian tail.
    """
    c, x0 = model.light_speed, packet.x0
    horizon = min(x0, model.well_width - x0) / c
    mask = carpet_grid.times < horizon
    if not mask.any():
        raise ValueError("no carpet rows precede the first wall reflection")

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
    """Long-format CSV with columns t, x, density: one line per cell, times
    outer, every value exactly as Python's ``.17g``.  The time and position axes go
    to ``write_table`` as a column and a row that broadcast against the
    density, so each is formatted once and repeated by index."""
    times, positions = carpet_grid.times, carpet_grid.positions
    columns = (times.reshape(-1, 1), positions.reshape(1, -1), carpet_grid.density)
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
        # the array itself, not a bytes copy of it
        fh.write(np.ascontiguousarray(carpet_grid.density, dtype="<f8"))


def write_carpet_pgm(carpet_grid: CarpetGrid, path) -> None:
    """16-bit binary PGM (P5, maxval 65535), normalized to the carpet maximum.

    Pixel rows are time samples, columns positions; samples are big-endian as
    the format requires.  Each row is divided by the maximum, scaled and
    rounded in one reused float row, then cast into the pixels, so the writer
    holds the density, its 16-bit pixels and one float row.
    """
    density = carpet_grid.density
    require_finite(path, "density", density)
    peak = density.max()
    pixels = np.zeros(density.shape, dtype=">u2")
    if peak > 0:
        scaled = np.empty(density.shape[1])
        for source, target in zip(density, pixels):
            np.divide(source, peak, out=scaled)
            scaled *= 65535.0
            np.round(scaled, out=scaled)
            target[:] = scaled
    rows, cols = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n65535\n".encode("ascii"))
        fh.write(pixels)


def write_autocorrelation_csv(series: AutocorrelationSeries, path) -> None:
    a = series.values
    # hypot rounds |a| exactly as the scalar abs(a) does; np.abs does not
    modulus = np.hypot(a.real, a.imag)
    write_table(path, ("t", "re_a", "im_a", "abs_a"), (series.times, a.real, a.imag, modulus))


def write_spacing_csv(stats: SpacingStatistics, path) -> None:
    n = np.arange(1, stats.spacings.size + 1)
    write_table(path, ("n", "spacing", "regime"), (n, stats.spacings, stats.labels))
