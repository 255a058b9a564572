"""Independent references for the benchmark's output checks.

Nothing here imports ``relwell``.  Every reference is computed from the job's
input document with closed forms (Gaussian overlaps, the sine-box spectrum
E_n = mc^2 sqrt(1 + (n pi hbar / L m c)^2) and its derivatives), mpmath phase
reductions, or dense ``eigh`` of a grid Hamiltonian built here.  Units are the
program's natural ones: hbar = m = c = 1, so a box of w Compton wavelengths
has L = 2 pi w.

Each ``check_*`` function takes the job's output directory and returns a list
of failure messages; an empty list means the outputs are correct.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np
import scipy.linalg

mpmath.mp.dps = 40
_MP_TWO_PI = 2 * mpmath.pi


# -- closed forms -----------------------------------------------------------


def box_width(width_in_compton: float) -> float:
    return width_in_compton * (2.0 * math.pi)


def sine_box_energy_mp(L: float, n: int):
    return mpmath.sqrt(1 + (n * mpmath.pi / mpmath.mpf(L)) ** 2)


def sine_box_energies(L: float, levels) -> np.ndarray:
    return np.array([float(sine_box_energy_mp(L, int(n))) for n in levels])


def overlap_coefficients(L: float, x0: float, sigma: float, p0: float, n_max: int) -> np.ndarray:
    """a_n = <phi_n|g> for the whole-line Gaussian g of density width sigma,
    in closed form: exact whenever the walls sit many sigma away from x0."""
    k = np.arange(1, n_max + 1) * (math.pi / L)
    amp = (2.0 * math.pi * sigma**2) ** -0.25 * math.sqrt(2.0 / L) * sigma * math.sqrt(math.pi)
    plus = np.exp(1j * (p0 + k) * x0 - (p0 + k) ** 2 * sigma**2)
    minus = np.exp(1j * (p0 - k) * x0 - (p0 - k) ** 2 * sigma**2)
    return -1j * amp * (plus - minus)


def populated_levels(L: float, sigma: float, p0: float) -> int:
    """Highest level whose Gaussian envelope exp(-(k - p0)^2 sigma^2) can
    still exceed 1e-40."""
    k_top = abs(p0) + math.sqrt(40.0 * math.log(10.0)) / sigma
    return int(math.ceil(k_top * L / math.pi)) + 1


def reduced_phases(L: float, levels, t: float) -> np.ndarray:
    """E_n t mod 2 pi at 40 digits, returned as float64."""
    tm = mpmath.mpf(t)
    return np.array(
        [float(mpmath.fmod(sine_box_energy_mp(L, int(n)) * tm, _MP_TWO_PI)) for n in levels]
    )


def revival_times_mp(L: float, n: int) -> tuple[float, float, float]:
    """(T_cl, T_rev, T_super) from the closed-form level derivatives of
    E(n) = sqrt(1 + b^2 n^2), b = pi/L, evaluated at 40 digits."""
    b2 = (mpmath.pi / mpmath.mpf(L)) ** 2
    g2 = 1 + b2 * n * n
    d1 = b2 * n / mpmath.sqrt(g2)
    d2 = b2 / g2**1.5
    d3 = 3 * b2 * b2 * n / g2**2.5
    two_pi = 2 * mpmath.pi
    return float(two_pi / d1), float(two_pi / (d2 / 2)), float(two_pi / (d3 / 6))


def discrete_gaussian(x: np.ndarray, L: float, x0: float, sigma: float, p0: float) -> np.ndarray:
    """The packet sampled on x, zero outside the open box, unit discrete norm."""
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x)
    psi[(x <= 0.0) | (x >= L)] = 0.0
    dx = float(x[1] - x[0])
    return psi / math.sqrt(float(np.sum(np.abs(psi) ** 2)) * dx)


def grid_hamiltonian(x: np.ndarray, L: float, wall: float) -> np.ndarray:
    """Dense F^-1 K F + V on a periodic grid: K = sqrt(1 + p^2) on the FFT
    momenta, V = wall outside [0, L].  K is even in p, so the matrix is real
    symmetric (a circulant plus a diagonal)."""
    n = x.size
    dx = float(x[1] - x[0])
    p = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)
    column = np.fft.ifft(np.hypot(1.0, p)).real
    idx = np.arange(n)
    h = column[(idx[:, None] - idx[None, :]) % n]
    h[idx, idx] += np.where((x < 0.0) | (x > L), wall, 0.0)
    return h


# -- output readers ---------------------------------------------------------


def read_meta(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_carpet_csv(path: Path):
    """(times, positions, density[rows, cols]) from the long-format CSV."""
    table = read_csv(path)
    cols = int(np.count_nonzero(table[:, 0] == table[0, 0]))
    rows = table.shape[0] // cols
    if rows * cols != table.shape[0]:
        raise ValueError(f"{path.name}: {table.shape[0]} lines do not form a rectangle")
    grid = table.reshape(rows, cols, 3)
    return grid[:, 0, 0], grid[0, :, 1], grid[:, :, 2]


def read_pgm(path: Path):
    raw = path.read_bytes()
    parts = raw.split(b"\n", 3)
    magic, size, maxval, payload = parts
    cols, rows = (int(v) for v in size.split())
    return magic, cols, rows, int(maxval), np.frombuffer(payload, dtype=">u2")


def nonfinite_files(outdir: Path) -> list[str]:
    """Files in outdir holding a NaN or infinite number."""
    bad = []
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".csv":
            text = path.read_text().lower()
            if "nan" in text or "inf" in text:
                bad.append(path.name)
        elif path.suffix == ".json":
            text = path.read_text()
            if "NaN" in text or "Infinity" in text:
                bad.append(path.name)
    return bad


# -- checks -----------------------------------------------------------------

# Tolerances.  Each is a few times the gap measured between the program and the
# reference at the benchmark's inputs; bench/README.md gives the measurements.
CARPET_ROW0_TOL = 1e-7        # row 0 vs the sampled Gaussian, relative to the peak
CARPET_SAMPLE_TOL = 1e-7      # sampled later rows vs the mpmath sine sum, rel. to peak
NORM_TOL = 1e-12              # added to the recorded Parseval defect
SPLIT_L1_TOL = 1e-6           # max over rows of the L1 density gap to the eigh propagator
SPLIT_NORM_TOL = 1e-10
DIAG_REL_TOL_10 = 1e-3        # lowest 10 levels vs the position-space eigh
DIAG_REL_TOL_100 = 5e-3       # lowest 100 levels
REVIVAL_REL_TOL = 1e-11
COEFF_TOL = 1e-12             # absolute, added to the wall-truncation bound
AUTOCORR_TOL = 1e-9
PEAK_MATCH = 2.0              # Hann main-lobe half-width, in Fourier resolutions


def _close(name: str, got, want, tol: float, errors: list) -> None:
    gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not gap <= tol:
        errors.append(f"{name}: gap {gap:.3e} exceeds {tol:.1e}")


def check_exact_carpet_csv(outdir: Path, basename: str, doc: dict, rng, sample_rows=6, sample_cols=24) -> list:
    errors: list[str] = []
    meta = read_meta(outdir / f"{basename}_carpet.meta.json")
    times, x, rho = read_carpet_csv(outdir / f"{basename}_carpet.csv")
    L = box_width(doc["model"]["well_width_in_compton"])
    packet = doc["packet"]
    x0, sigma, p0 = packet["x0_over_L"] * L, packet["sigma_over_L"] * L, packet["p0_in_hbar_over_L"] / L
    dx = L / (x.size - 1)
    _close("positions", x, np.linspace(0.0, L, x.size), 1e-12 * L, errors)

    # the time axis: t_max in revivals of the dominant closed-form level
    n_ref = populated_levels(L, sigma, p0)
    coeffs = overlap_coefficients(L, x0, sigma, p0, n_ref)
    n0 = int(np.argmax(np.abs(coeffs) ** 2)) + 1
    if meta["n0"] != n0:
        errors.append(f"dominant level {meta['n0']} != closed-form {n0}")
    t_rev = revival_times_mp(L, n0)[1]
    t_axis = np.linspace(0.0, doc["times"]["t_max"] * t_rev, doc["times"]["samples"])
    _close("times", times / t_rev, t_axis / t_rev, 1e-12, errors)

    peak = float(rho[0].max())
    g = np.abs(discrete_gaussian(x, L, x0, sigma, p0)) ** 2
    _close("row 0 vs discrete Gaussian", rho[0] / peak, g / peak, CARPET_ROW0_TOL, errors)

    norms = rho.sum(axis=1) * dx
    defect = abs(float(meta["parseval_defect"]))
    _close("row norms", norms, 1.0, defect + NORM_TOL, errors)

    pgm = outdir / f"{basename}_carpet.pgm"
    if pgm.exists():
        # the image is the same carpet scaled to its maximum, at 16 bits
        _, cols, nrows, _, pixels = read_pgm(pgm)
        if (nrows, cols) != rho.shape:
            errors.append(f"PGM is {nrows}x{cols}, the CSV carpet {rho.shape[0]}x{rho.shape[1]}")
        else:
            want = np.round(rho / rho.max() * 65535.0).ravel()
            _close("PGM vs CSV carpet (16-bit counts)", pixels.astype(float), want, 1.0, errors)

    rows = np.sort(rng.sample(range(1, times.size), min(sample_rows, times.size - 1)))
    cols = np.sort(rng.sample(range(1, x.size - 1), sample_cols))
    levels = np.arange(1, n_ref + 1)
    basis = math.sqrt(2.0 / L) * np.sin(np.outer(x[cols], levels * (math.pi / L)))
    for r in rows:
        psi = basis @ (coeffs * np.exp(-1j * reduced_phases(L, levels, float(times[r]))))
        _close(f"row {r} sampled columns", rho[r, cols] / peak, np.abs(psi) ** 2 / peak, CARPET_SAMPLE_TOL, errors)
    return errors


def check_sidecar_config(outdir: Path, doc: dict) -> list:
    """The run document the CLI resolved must be the one the job meant."""
    (meta,) = outdir.glob("*.meta.json")
    resolved = read_meta(meta)["config"]
    return [] if resolved == doc else [f"resolved config {resolved} differs from the job's {doc}"]


def check_exact_carpet_pgm(outdir: Path, basename: str, doc: dict) -> list:
    errors: list[str] = []
    magic, cols, rows, maxval, pixels = read_pgm(outdir / f"{basename}_carpet.pgm")
    intervals = doc["engine"]["grid_intervals"]
    if (magic, cols, rows, maxval) != (b"P5", intervals + 1, doc["times"]["samples"], 65535):
        errors.append(f"PGM header {magic!r} {cols}x{rows} max {maxval}")
        return errors
    if pixels.size != rows * cols:
        errors.append(f"PGM payload holds {pixels.size} samples, expected {rows * cols}")
        return errors
    L = box_width(doc["model"]["well_width_in_compton"])
    packet = doc["packet"]
    x = np.linspace(0.0, L, cols)
    g = np.abs(discrete_gaussian(x, L, packet["x0_over_L"] * L, packet["sigma_over_L"] * L,
                                 packet["p0_in_hbar_over_L"] / L)) ** 2
    want = np.round(g / g.max() * 65535.0)
    _close("PGM row 0 (16-bit counts)", pixels[:cols].astype(float), want, 1.0, errors)
    return errors


class SplitReference:
    """Dense eigendecomposition of a split job's own grid Hamiltonian."""

    def __init__(self, doc: dict):
        engine = doc["engine"]
        self.L = L = box_width(doc["model"]["well_width_in_compton"])
        margin = engine["wall_margin_over_L"] * L
        n = engine["grid_size"]
        self.x = -margin + (L + 2.0 * margin) / n * np.arange(n)
        wall = engine["wall_height_in_mc2"]
        self.energies, self.vectors = np.linalg.eigh(grid_hamiltonian(self.x, L, wall))
        # rows land on whole steps; no step is longer than the wall-phase cap pi/(8 V0)
        self.requested = np.linspace(0.0, doc["times"]["t_max"], doc["times"]["samples"])
        self.max_step = math.pi / (8.0 * wall)
        packet = doc["packet"]
        psi0 = discrete_gaussian(self.x, L, packet["x0_over_L"] * L, packet["sigma_over_L"] * L,
                                 packet["p0_in_hbar_over_L"] / L)
        self.c0 = self.vectors.T @ psi0

    def densities(self, times: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * np.outer(times, self.energies))
        return np.abs((phases * self.c0) @ self.vectors.T) ** 2


def check_split_carpet(outdir: Path, basename: str, reference: SplitReference) -> list:
    errors: list[str] = []
    times, x, rho = read_carpet_csv(outdir / f"{basename}_carpet.csv")
    dx = float(reference.x[1] - reference.x[0])
    _close("positions", x, reference.x, 1e-12 * reference.L, errors)
    if times.size != reference.requested.size:
        errors.append(f"{times.size} rows, expected {reference.requested.size}")
    if errors:
        return errors
    _close("row times vs requested", times, reference.requested, reference.max_step, errors)
    gap = np.abs(rho - reference.densities(times)).sum(axis=1) * dx
    _close("L1 gap to the eigh propagator", gap, 0.0, SPLIT_L1_TOL, errors)
    _close("norm", rho.sum(axis=1) * dx, 1.0, SPLIT_NORM_TOL, errors)
    return errors


class DiagReference:
    """Lowest levels of the finite well from a position-space dense eigh.

    The periodic box is three well widths long with the well in the middle;
    the grid Hamiltonian is the same operator the momentum-space solver
    discretizes, sampled in position instead of momentum.
    """

    points = 2048

    def __init__(self, doc: dict, wall: float, levels: int):
        self.L = L = box_width(doc["model"]["well_width_in_compton"])
        self.wall = wall
        x = -L + 3.0 * L / self.points * np.arange(self.points)
        self.levels = scipy.linalg.eigh(
            grid_hamiltonian(x, L, self.wall), eigvals_only=True, subset_by_index=(0, levels - 1)
        )


def check_diag_spectrum(outdir: Path, basename: str, doc: dict, reference: DiagReference) -> list:
    errors: list[str] = []
    closed = read_csv(outdir / f"{basename}_spectrum.csv")
    diag = read_csv(outdir / f"{basename}_spectrum_diag.csv")
    n_max = doc["levels"]["n_max"]
    box = sine_box_energies(reference.L, range(1, n_max + 1))
    _close("closed-form spectrum", closed[:, 1] / box, 1.0, 1e-14, errors)
    solver = read_meta(outdir / f"{basename}_spectrum.meta.json")["diag_metadata"]
    if solver["wall_height"] != reference.wall:
        errors.append(f"diag solver ran with V0={solver['wall_height']}, the reference with {reference.wall}")
    numeric = diag[:, 1]
    if numeric.size != n_max:
        return errors + [f"{numeric.size} diag levels, expected {n_max}"]
    _close("e_analytic column", diag[:, 2] / box, 1.0, 1e-14, errors)
    if not np.all(np.diff(numeric) > 0):
        errors.append("diag levels are not ascending")
    if not np.all(numeric < reference.wall + 1.0):
        errors.append("a diag level lies above V0 + mc^2")
    if not np.all(numeric < box):
        errors.append("a diag level lies above the sine-box level")
    rel = np.abs(numeric / reference.levels[:n_max] - 1.0)
    _close("lowest 10 levels vs position-space eigh", rel[:10], 0.0, DIAG_REL_TOL_10, errors)
    _close("lowest 100 levels vs position-space eigh", rel[:100], 0.0, DIAG_REL_TOL_100, errors)
    return errors


def check_revivals(outdir: Path, basename: str, doc: dict) -> list:
    errors: list[str] = []
    table = read_csv(outdir / f"{basename}_revivals.csv")
    L = box_width(doc["model"]["well_width_in_compton"])
    n_min, n_max = doc["levels"]["n_min"], doc["levels"]["n_max"]
    if not np.array_equal(table[:, 0], np.arange(n_min, n_max + 1)):
        return [f"revival table does not list levels {n_min}..{n_max}"]
    want = np.array([revival_times_mp(L, int(n)) for n in table[:, 0]])
    _close("revival times", table[:, 1:] / want, 1.0, REVIVAL_REL_TOL, errors)
    return errors


def check_spacing(outdir: Path, basename: str, doc: dict) -> list:
    errors: list[str] = []
    path = outdir / f"{basename}_spacing.csv"
    lines = path.read_text().splitlines()[1:]
    L = box_width(doc["model"]["well_width_in_compton"])
    n_max = doc["levels"]["n_max"]
    if len(lines) != n_max - 1:
        return [f"{len(lines)} spacings, expected {n_max - 1}"]
    worst = 0.0
    for line in lines:
        n_text, s_text, label = line.split(",")
        n = int(n_text)
        upper, lower = sine_box_energy_mp(L, n + 1), sine_box_energy_mp(L, n)
        # float64 spacing of two O(1) energies: a few ulp of E_{n+1} in absolute terms
        worst = max(worst, abs(float(s_text) - float(upper - lower)) / float(upper))
        beta = float((n * mpmath.pi / L) / lower)
        want = "non-relativistic" if beta < 0.1 else ("ultra-relativistic" if beta > 0.9 else "intermediate")
        if label != want:
            errors.append(f"level {n}: regime {label!r}, expected {want!r}")
            break
    if not worst <= 4 * np.finfo(float).eps:
        errors.append(f"spacings: gap {worst:.3e} exceeds 4 ulp of E_(n+1)")
    return errors


def check_coeffs(outdir: Path, basename: str, doc: dict) -> list:
    errors: list[str] = []
    table = read_csv(outdir / f"{basename}_coeffs.csv")
    L = box_width(doc["model"]["well_width_in_compton"])
    packet = doc["packet"]
    x0, sigma = packet["x0_over_L"] * L, packet["sigma_over_L"] * L
    want = overlap_coefficients(L, x0, sigma, packet["p0_in_hbar_over_L"] / L, table.shape[0])
    # the program expands the Gaussian cut at the walls and renormalized; that
    # state lies within sqrt(m) + m of the whole-line one in L2, m the mass
    # beyond the walls, and no coefficient can move further (Bessel)
    s = sigma * math.sqrt(2.0)
    outside = 0.5 * (math.erfc(x0 / s) + math.erfc((L - x0) / s))
    tol = math.sqrt(outside) + outside + COEFF_TOL
    _close("coefficients", table[:, 1] + 1j * table[:, 2], want, tol, errors)
    _close("weights", table[:, 3], np.abs(want) ** 2, 2.0 * tol, errors)
    if packet["x0_over_L"] == 0.5:
        # a centred packet is even about L/2, and every even level is odd there
        extinct = table[1::2, 3]
        if not np.all(extinct <= 1e-24):
            errors.append(f"even levels are not extinct (max weight {extinct.max():.2e})")
    return errors


def check_autocorr(outdir: Path, basename: str, doc: dict, rng, samples=5) -> list:
    errors: list[str] = []
    series = read_csv(outdir / f"{basename}_autocorr.csv")
    found = read_csv(outdir / f"{basename}_levels.csv")
    meta = read_meta(outdir / f"{basename}_autocorr.meta.json")
    L = box_width(doc["model"]["well_width_in_compton"])
    packet = doc["packet"]
    sigma, p0 = packet["sigma_over_L"] * L, packet["p0_in_hbar_over_L"] / L
    n_ref = populated_levels(L, sigma, p0)
    weights = np.abs(overlap_coefficients(L, packet["x0_over_L"] * L, sigma, p0, n_ref)) ** 2
    levels = np.arange(1, n_ref + 1)
    keep = weights > 1e-32
    levels, weights = levels[keep], weights[keep]

    times, values = series[:, 0], series[:, 1] + 1j * series[:, 2]
    if times.size != doc["times"]["samples"]:
        return [f"{times.size} samples, expected {doc['times']['samples']}"]
    _close("A(0) vs sum |a_n|^2", values[0], weights.sum(), AUTOCORR_TOL, errors)
    for j in sorted(rng.sample(range(1, times.size), samples)):
        want = np.sum(weights * np.exp(-1j * reduced_phases(L, levels, float(times[j]))))
        _close(f"A(t_{j}) vs 40-digit sum", values[j], want, AUTOCORR_TOL, errors)
    _close("|A|", series[:, 3], np.abs(values), 1e-15, errors)

    # the record is sampled far below the energies, so peaks sit at E_n mod 2 pi/dt
    dt = float(times[1] - times[0])
    alias = 2.0 * math.pi / dt
    resolution = float(meta["fourier_resolution"])
    energies = np.mod(sine_box_energies(L, levels), alias)

    def circular(a, b):
        d = np.abs(a[:, None] - b[None, :]) % alias
        return np.minimum(d, alias - d)

    radius = PEAK_MATCH * resolution
    strong = energies[weights >= 1e-2 * weights.max()]
    missing = circular(strong, np.mod(found[:, 0], alias)).min(axis=1) > radius
    if missing.any():
        errors.append(f"{int(missing.sum())} strongly populated levels have no extracted peak")
    stray = circular(np.mod(found[:, 0], alias), energies).min(axis=1) > radius
    if stray.any():
        errors.append(f"{int(stray.sum())} extracted peaks match no populated level")
    return errors


def check_malformed(outdir: Path, returncode: int, stderr: str) -> list:
    """The outcome the input contract asks for: exit 2, a one-line error, and
    no non-finite value written."""
    errors = []
    if returncode != 2:
        errors.append(f"exit {returncode}, expected 2")
    lines = stderr.strip().splitlines()
    if len(lines) != 1 or not lines[0].startswith("error:"):
        errors.append(f"stderr has {len(lines)} lines, expected one 'error:' line")
    bad = nonfinite_files(outdir) if outdir.is_dir() else []
    if bad:
        errors.append(f"non-finite values written to {bad}")
    return errors
