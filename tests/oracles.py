"""Closed forms of the Salpeter box that the tests check the engines against.

The hard-wall eigenfunctions in position and momentum space, the momentum
integral equation they solve, the complex momentum-space Hamiltonian of the
finite well, the Gaussian overlap coefficients and a reader for the carpet
binary layout documented in the README.  None of these runs in
the CLI; each is an independent oracle for something that does.
"""

import math
import struct

import numpy as np

from relwell import CoefficientVector, DomainError, MomentumGrid, WavepacketSpec, WellModel
from relwell.observables import CarpetGrid

# relative half-width of the Taylor window around the removable poles of the
# momentum-space eigenfunction, in units of hbar/L
_POLE_WINDOW = 1e-6


def eigenfunction_position(model: WellModel, n: int, x) -> float | np.ndarray:
    """Real-space eigenfunction sqrt(2/L) * sin(n*pi*x/L) on [0, L].

    Raises DomainError for coordinates outside the box; the state is
    identically zero there and asking for it usually indicates a grid bug.
    """
    scalar = np.isscalar(x)
    xs = np.asarray(x, dtype=float)
    L = model.well_width
    if np.any(xs < 0.0) or np.any(xs > L):
        raise DomainError("position outside the box [0, L]")
    amp = math.sqrt(2.0 / L) * np.sin(n * np.pi * xs / L)
    return float(amp) if scalar else amp


def eigenfunction_momentum(model: WellModel, n: int, p) -> complex | np.ndarray:
    """Momentum-space eigenfunction, normalized as the unitary Fourier
    transform of ``eigenfunction_position`` so that its |.|^2 integrates to 1.

    The closed form is

        phi_n(p) = sqrt(2/L) / sqrt(2*pi*hbar) * k_n
                   * ((-1)^n * exp(-i p L / hbar) - 1) / ((p/hbar)^2 - k_n^2)

    with removable singularities at p = +/- hbar*k_n; inside a small window
    around the poles the numerator is replaced by its second-order Taylor
    expansion to avoid catastrophic cancellation.
    """
    scalar = np.isscalar(p)
    ps = np.atleast_1d(np.asarray(p, dtype=float))
    L = model.well_width
    hbar = model.hbar
    k = n * np.pi / L
    q = ps / hbar
    sign = -1.0 if n % 2 else 1.0
    prefac = math.sqrt(2.0 / L) / math.sqrt(2.0 * np.pi * hbar) * k

    out = np.empty(ps.shape, dtype=np.complex128)
    window = _POLE_WINDOW / L
    near_pos = np.abs(q - k) < window
    near_neg = np.abs(q + k) < window
    regular = ~(near_pos | near_neg)

    qr = q[regular]
    out[regular] = (sign * np.exp(-1j * L * qr) - 1.0) / (qr * qr - k * k)

    # Taylor-expanded numerator about each pole; exact denominator factor kept.
    # About q = +k:  N(q) ~ -iL u - L^2 u^2 / 2,  u = q - k
    u = q[near_pos] - k
    out[near_pos] = (-1j * L - 0.5 * L * L * u) / (u + 2.0 * k)
    # About q = -k:  same expansion with u = q + k
    u = q[near_neg] + k
    out[near_neg] = (-1j * L - 0.5 * L * L * u) / (u - 2.0 * k)

    out *= prefac
    return complex(out[0]) if scalar else out


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


def complex_hamiltonian(grid: MomentumGrid, model: WellModel, wall_height: float) -> np.ndarray:
    """Dense Hermitian H_ij = [E(p_i) + V0] delta_ij - (V0 dp / 2 pi hbar) W(p_i - p_j)
    with the relativistic E(p), assembled from the complex window transform
    over every node difference, without the phase conjugation or the parity
    split that ``build_hamiltonian`` and ``solve`` use."""
    p = grid.nodes
    window = math.sqrt(2.0 * math.pi * model.hbar) * well_window_transform(
        p[:, None] - p[None, :], model.well_width, model.hbar
    )
    h = -wall_height * grid.spacing / (2.0 * math.pi * model.hbar) * window
    idx = np.arange(grid.count)
    h[idx, idx] += np.hypot(model.energy_scale, p * model.light_speed) + wall_height
    return 0.5 * (h + h.conj().T)


def hard_wall_kernel(model: WellModel, grid: MomentumGrid) -> np.ndarray:
    """(1 - exp(-i L q / hbar)) / q over every lag q of the grid; the
    coincidence limit is i L / hbar."""
    L, hbar = model.well_width, model.hbar
    lags = grid.spacing * np.arange(-(grid.count - 1), grid.count)
    kernel = np.empty(lags.shape, complex)
    small = np.abs(lags) * L < 1e-12 * hbar
    kernel[~small] = (1.0 - np.exp(-1j * L * lags[~small] / hbar)) / lags[~small]
    kernel[small] = 1j * L / hbar
    return kernel


def convolve_valid(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
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

    The quadrature uses uniform weights; the grid must resolve the kernel
    oscillation of period 2*pi*hbar/L.
    """
    phi = eigenfunction_momentum(model, n, grid.nodes)
    conv = convolve_valid(hard_wall_kernel(model, grid), phi)  # length count
    residual = phi - grid.spacing / (2.0j * math.pi) * conv
    return math.sqrt(np.sum(np.abs(residual) ** 2) / np.sum(np.abs(phi) ** 2))


def gaussian_overlap_coefficients(
    spec: WavepacketSpec, model: WellModel, n_max: int
) -> CoefficientVector:
    """Closed-form a_n under the tail-negligible approximation.

    Treats the Gaussian as extending over the whole line (valid when the walls
    sit many sigma away from x0), independently of the grid quadrature that
    ``decompose`` runs.
    """
    spec.validate_against(model)
    L = model.well_width
    n = np.arange(1, n_max + 1)
    k = n * np.pi / L
    q0 = spec.p0 / model.hbar
    amp = (2.0 * np.pi * spec.sigma**2) ** -0.25
    prefac = amp * math.sqrt(2.0 / L) * spec.sigma * math.sqrt(np.pi)
    plus = np.exp(1j * (q0 + k) * spec.x0 - (q0 + k) ** 2 * spec.sigma**2)
    minus = np.exp(1j * (q0 - k) * spec.x0 - (q0 - k) ** 2 * spec.sigma**2)
    return CoefficientVector(prefac * (plus - minus) / 1j, model)


# README "Carpet binary": magic CRPT, u32 version, u64 rows, u64 cols,
# f64 t0, t1, x0, x1, all little-endian, then row-major f64 densities
_CARPET_LAYOUT = "<4sIQQ4d"


def read_carpet_binary(path) -> CarpetGrid:
    """Parse a carpet binary file from its documented layout."""
    with open(path, "rb") as fh:
        header = fh.read(struct.calcsize(_CARPET_LAYOUT))
        magic, version, rows, cols, t0, t1, x0, x1 = struct.unpack(_CARPET_LAYOUT, header)
        if magic != b"CRPT":
            raise ValueError("not a carpet file")
        if version != 1:
            raise ValueError(f"unsupported carpet version {version}")
        data = np.frombuffer(fh.read(8 * rows * cols), dtype="<f8")
    if data.size != rows * cols:
        raise ValueError("truncated carpet payload")
    return CarpetGrid(
        data.reshape(rows, cols),
        np.linspace(t0, t1, rows),
        np.linspace(x0, x1, cols),
    )
