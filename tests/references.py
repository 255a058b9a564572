"""Independent references for the Salpeter box, each defined once.

Closed forms, dense references and extended-precision sums that the tests
check relwell's engines against.  Every function takes plain floats and
arrays in natural units, hbar = m = c = 1 (the width L, the packet's x0,
sigma and p0, the wall height V0, node arrays), and the module imports no
relwell module, so no reference can share a defect with the code it checks.
"""

import math

import mpmath as mp
import numpy as np

# relative half-width of the Taylor window around the removable poles of the
# momentum-space eigenfunction, in units of 1/L
_POLE_WINDOW = 1e-6


def eigenfunction_position(L: float, n: int, x) -> float | np.ndarray:
    """Real-space eigenfunction sqrt(2/L) * sin(n*pi*x/L) on [0, L].

    Raises ValueError for coordinates outside the box; the state is
    identically zero there and asking for it usually indicates a grid bug.
    """
    scalar = np.isscalar(x)
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0) or np.any(xs > L):
        raise ValueError("position outside the box [0, L]")
    amp = math.sqrt(2.0 / L) * np.sin(n * np.pi * xs / L)
    return float(amp) if scalar else amp


def eigenfunction_momentum(L: float, n: int, p) -> complex | np.ndarray:
    """Momentum-space eigenfunction, normalized as the unitary Fourier
    transform of ``eigenfunction_position`` so that its |.|^2 integrates to 1.

    The closed form is

        phi_n(p) = sqrt(2/L) / sqrt(2*pi) * k_n
                   * ((-1)^n * exp(-i p L) - 1) / (p^2 - k_n^2)

    with removable singularities at p = +/- k_n; inside a small window
    around the poles the numerator is replaced by its second-order Taylor
    expansion to avoid catastrophic cancellation.
    """
    scalar = np.isscalar(p)
    q = np.atleast_1d(np.asarray(p, dtype=float))
    k = n * np.pi / L
    sign = -1.0 if n % 2 else 1.0
    prefac = math.sqrt(2.0 / L) / math.sqrt(2.0 * np.pi) * k

    out = np.empty(q.shape, dtype=np.complex128)
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


def well_window_transform(q, L: float) -> complex | np.ndarray:
    """(1/sqrt(2*pi)) * integral_0^L exp(-i q x) dx.

    Equals i*(exp(-i q L) - 1)/(q*sqrt(2*pi)) away from q = 0 and
    L/sqrt(2*pi) in the limit, with conjugate symmetry f(-q) = conj(f(q)).
    """
    scalar = np.isscalar(q)
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    out = np.empty(qs.shape, dtype=np.complex128)
    small = np.abs(qs) * L < 1e-12
    reg = ~small
    out[reg] = 1j * (np.exp(-1j * qs[reg] * L) - 1.0) / qs[reg]
    out[small] = L
    out /= math.sqrt(2.0 * math.pi)
    return complex(out[0]) if scalar else out


def complex_hamiltonian(nodes: np.ndarray, spacing: float, L: float, V0: float) -> np.ndarray:
    """Dense Hermitian H_ij = [E(p_i) + V0] delta_ij - (V0 dp / 2 pi) W(p_i - p_j)
    on the momentum ``nodes`` of step ``spacing``, with the relativistic
    E(p), assembled from the complex window transform over every node
    difference, without a phase conjugation or a parity split."""
    window = math.sqrt(2.0 * math.pi) * well_window_transform(nodes[:, None] - nodes[None, :], L)
    h = -V0 * spacing / (2.0 * math.pi) * window
    idx = np.arange(nodes.size)
    h[idx, idx] += np.hypot(1.0, nodes) + V0
    return 0.5 * (h + h.conj().T)


def hard_wall_kernel(L: float, spacing: float, count: int) -> np.ndarray:
    """(1 - exp(-i L q)) / q over every lag q of ``count`` nodes of step
    ``spacing``; the coincidence limit is i L."""
    lags = spacing * np.arange(-(count - 1), count)
    kernel = np.empty(lags.shape, complex)
    small = np.abs(lags) * L < 1e-12
    kernel[~small] = (1.0 - np.exp(-1j * L * lags[~small])) / lags[~small]
    kernel[small] = 1j * L
    return kernel


def convolve_valid(kernel: np.ndarray, signal: np.ndarray) -> np.ndarray:
    """Entries of the linear convolution kernel * signal that see all of
    ``signal`` (len(kernel) - len(signal) + 1 of them), by zero-padded FFTs."""
    from scipy.fft import fft, ifft, next_fast_len

    size = next_fast_len(kernel.size + signal.size - 1)
    full = ifft(fft(kernel, size) * fft(signal, size))
    return full[signal.size - 1 : kernel.size]


def residual_integral_equation(L: float, n: int, nodes: np.ndarray, spacing: float) -> float:
    """Relative L2 residual of the hard-wall momentum integral equation
    phi(p) = (1/2 pi i) * integral dp' (1 - exp(-i L (p-p')))/(p-p') phi(p')
    for the analytic eigenfunction of level n on the momentum ``nodes``.

    The quadrature uses uniform weights; the nodes must resolve the kernel
    oscillation of period 2*pi/L.
    """
    phi = eigenfunction_momentum(L, n, nodes)
    conv = convolve_valid(hard_wall_kernel(L, spacing, nodes.size), phi)  # one per node
    residual = phi - spacing / (2.0j * math.pi) * conv
    return math.sqrt(np.sum(np.abs(residual) ** 2) / np.sum(np.abs(phi) ** 2))


def gaussian_overlap_coefficients(L: float, x0: float, sigma: float, p0: float, n_max: int) -> np.ndarray:
    """Closed-form a_1 .. a_n_max under the tail-negligible approximation.

    Treats the Gaussian as extending over the whole line (valid when the walls
    sit many sigma away from x0), independently of any grid quadrature.
    """
    k = np.arange(1, n_max + 1) * np.pi / L
    prefac = (2.0 * np.pi * sigma**2) ** -0.25 * math.sqrt(2.0 / L) * sigma * math.sqrt(np.pi)
    plus = np.exp(1j * (p0 + k) * x0 - (p0 + k) ** 2 * sigma**2)
    minus = np.exp(1j * (p0 - k) * x0 - (p0 - k) ** 2 * sigma**2)
    return prefac * (plus - minus) / 1j


def grid_hamiltonian_propagator(x: np.ndarray, spacing: float, L: float, V0: float):
    """Exact propagator of the periodic grid Hamiltonian F^-1 K F + V.

    ``x`` holds the nodes of a periodic grid of step ``spacing``.  K is the
    dispersion sqrt(1 + p^2) at the grid's FFT momenta, so F^-1 K F is the
    circulant matrix with first column ifft(K); V is V0 outside [0, L].  A
    dense eigendecomposition evolves any grid state to any time without a
    time step.
    """
    n = x.size
    dispersion = np.hypot(1.0, 2.0 * np.pi * np.fft.fftfreq(n, d=spacing))
    lags = np.subtract.outer(np.arange(n), np.arange(n)) % n
    potential = np.where((x < 0.0) | (x > L), V0, 0.0)
    hamiltonian = np.fft.ifft(dispersion)[lags] + np.diag(potential)
    levels, vectors = np.linalg.eigh(hamiltonian)

    def evolve_to(psi0, t):
        return vectors @ (np.exp(-1j * levels * t) * (vectors.conj().T @ psi0))

    return evolve_to


def free_line_leakage(x0: float, sigma: float, p0: float, spacing: float, width: float, times):
    """Out-of-cone mass of the Gaussian evolved on an open line.

    The packet is sampled at ``spacing`` on a periodic line of length
    ``width`` centred on x0, with no walls and no sine basis, and propagated
    by exp(-i sqrt(1 + p^2) t) applied with numpy's FFT.
    Returns the mass beyond |x - x0| = t + 3 sigma for each time.
    """
    n = 2 * int(math.ceil(width / (2.0 * spacing)))
    x = x0 + spacing * (np.arange(n) - n // 2)
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma**2) + 1j * p0 * x)
    psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2) * spacing))
    dispersion = np.hypot(1.0, 2.0 * np.pi * np.fft.fftfreq(n, d=spacing))
    amplitudes = np.fft.fft(psi)
    fractions = []
    for t in times:
        density = np.abs(np.fft.ifft(np.exp(-1j * dispersion * t) * amplitudes)) ** 2
        outside = np.abs(x - x0) > t + 3.0 * sigma
        fractions.append(float(density[outside].sum() * spacing))
    return np.asarray(fractions)


def fd_energy_derivative(L: float, n0, order: int, h=1e-4) -> float:
    """Central finite differences of the closed-form energy
    E(n) = sqrt(1 + (n pi / L)^2) at 50-digit precision."""
    with mp.workdps(50):
        ratio = mp.pi / mp.mpf(L)

        def e(n):
            return mp.sqrt(1 + (ratio * n) ** 2)

        n0, h = mp.mpf(n0), mp.mpf(h)
        stencils = {
            1: ((-1, -0.5), (1, 0.5)),
            2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
            3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
            4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
        }
        total = mp.mpf(0)
        for offset, coeff in stencils[order]:
            total += mp.mpf(coeff) * e(n0 + offset * h)
        return float(total / h**order)


def reduced_phase(e: float, t: float):
    """E t mod 2 pi of two doubles, reduced at 40 digits, as an mpf."""
    with mp.workdps(40):
        return mp.fmod(mp.mpf(float(e)) * mp.mpf(float(t)), 2 * mp.pi)


def phase_factor(e: float, t: float) -> complex:
    """exp(-i E t) from ``reduced_phase``."""
    with mp.workdps(40):
        theta = reduced_phase(e, t)
        return complex(mp.cos(theta), -mp.sin(theta))
