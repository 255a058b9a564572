"""Closed forms of the Salpeter box that the tests check the engines against.

The hard-wall eigenfunctions in position and momentum space, the momentum
integral equation they solve, the complex momentum-space Hamiltonian of the
finite well and its eigenpairs, the Gaussian overlap coefficients, the
grid wavefunction of a coefficient vector, finite differences of the
closed-form energy, the autocorrelation summed level by level, the
split-operator engine's plain Strang step loop and a reader for the carpet
binary layout documented in the README.  None of these runs in the CLI; each
is an independent oracle for something that does.
"""

import math
import struct
from dataclasses import replace

import mpmath as mp
import numpy as np

from relwell import (
    CoefficientVector,
    GridState,
    MomentumGrid,
    SimulationError,
    SpatialGrid,
    WavepacketSpec,
    WellModel,
    build_hamiltonian,
    energy,
    kinetic_phase,
)
from relwell.grids import sine_transform, sine_workspace
from relwell.observables import CarpetGrid
from relwell.spectral import phases

# relative half-width of the Taylor window around the removable poles of the
# momentum-space eigenfunction, in units of hbar/L
_POLE_WINDOW = 1e-6


def eigenfunction_position(model: WellModel, n: int, x) -> float | np.ndarray:
    """Real-space eigenfunction sqrt(2/L) * sin(n*pi*x/L) on [0, L].

    Raises ValueError for coordinates outside the box; the state is
    identically zero there and asking for it usually indicates a grid bug.
    """
    scalar = np.isscalar(x)
    xs = np.asarray(x, dtype=float)
    L = model.well_width
    if np.any(xs < 0.0) or np.any(xs > L):
        raise ValueError("position outside the box [0, L]")
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


def momentum_eigenpairs(
    grid: MomentumGrid,
    model: WellModel,
    wall_height: float,
    k_levels: int,
    kinetic: str = "relativistic",
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``k_levels`` levels and eigenvectors of the discretized
    Hamiltonian, from ``eigh`` with vectors on the two real parity blocks.

    A block eigenvector u becomes [u; +-J u] / sqrt(2 dp), J the reversal,
    and D = diag(exp(-i p L / 2 hbar)) is undone, so the columns are
    eigenvectors of the complex H, orthonormal under the dp-weighted inner
    product, up to one phase each.  Levels are merged by a stable sort: a
    level both blocks share lists the even one first.
    """
    import scipy.linalg

    h = build_hamiltonian(grid, model, wall_height, kinetic)
    half = grid.count // 2
    upper = h[:half, :half]
    mirrored = h[:half, half:][:, ::-1]
    per_block = min(k_levels, half)
    (even_vals, even_vecs), (odd_vals, odd_vecs) = (
        scipy.linalg.eigh(upper + sign * mirrored, subset_by_index=(0, per_block - 1))
        for sign in (1.0, -1.0)
    )
    vals = np.concatenate([even_vals, odd_vals])
    order = np.argsort(vals, kind="stable")[:k_levels]
    top = np.concatenate([even_vecs, odd_vecs], axis=1)[:, order]
    parity = np.where(order < per_block, 1.0, -1.0)
    vecs = np.concatenate([top, top[::-1] * parity], axis=0) / math.sqrt(2.0 * grid.spacing)
    theta = grid.nodes * (0.5 * model.well_width / model.hbar)
    return vals[order], vecs * np.exp(-1j * theta)[:, None]


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


def reconstruct(coeffs: CoefficientVector, grid: SpatialGrid) -> GridState:
    """psi(x_i) = sum_n a_n sqrt(2/L) sin(n pi x_i / L) at every grid point,
    zero on the walls, by one inverse DST-I of each part: the synthesis that
    ``density_rows`` runs for each of its rows."""
    if grid.well_width != coeffs.model.well_width:
        raise ValueError("grid and model disagree on the well width")
    if coeffs.n_max > grid.nyquist_level:
        raise ValueError(f"grid with {grid.intervals} intervals cannot represent level {coeffs.n_max}")
    scale = 0.5 * math.sqrt(2.0 / grid.well_width)
    a = coeffs.coefficients
    workspace = sine_workspace(grid.nyquist_level)
    values = np.zeros(grid.size, dtype=np.complex128)
    sine_transform(a.real, workspace, scale, out=values.real[1:-1])
    sine_transform(a.imag, workspace, scale, out=values.imag[1:-1])
    return GridState(values, grid, coeffs.time_tag)


# README "Carpet binary": magic CRPT, u32 version, u64 rows, u64 cols,
# f64 t0, t1, x0, x1, all little-endian, then row-major f64 densities
_CARPET_LAYOUT = "<4sIQQ4d"


def autocorrelation_direct(coeffs: CoefficientVector, times) -> np.ndarray:
    """A(t) = sum_n |a_n|^2 exp(-i E_n t / hbar), one phase per level and
    sample, levels added one at a time in order."""
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    values = np.zeros(ts.shape, dtype=np.complex128)
    for w, e in zip(coeffs.weights(), energy(coeffs.model, coeffs.levels)):
        values += w * np.exp(-1j * phases(e, ts, coeffs.model.hbar))
    return values


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


def fd_energy_derivative(model: WellModel, n0, order: int, h=1e-4) -> float:
    """Central finite differences of the closed-form energy at 50-digit
    precision; the independent oracle for the derivative formula."""
    with mp.workdps(50):
        ratio = mp.pi / mp.mpf(model.width_natural)
        scale = mp.mpf(model.energy_scale)

        def e(n):
            return scale * mp.sqrt(1 + (ratio * n) ** 2)

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


def strang_steps(
    state: GridState, config, t_final: float, sample_times=None, callback=None
) -> list[GridState]:
    """``propagate`` as one Strang step after another, every gap stepped.

    The split engine's step loop before it could power the one-step unitary
    or fuse half-kicks, kept as it was, on scipy.fft: a route independent of
    ``propagate``'s in-place numpy.fft loop.  The stepping path must agree
    with it to about eps per step, and the powered path to rounding.
    """
    from scipy.fft import fft, ifft

    if state.values.shape != (config.grid_size,):
        raise ValueError(
            f"state has {state.values.size} samples, not the {config.grid_size} of the "
            f"config grid on [{config.x_min:g}, {config.x_max:g})"
        )
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    steps_total = config.steps(t_final)
    dt_used = t_final / steps_total if steps_total else config.dt
    adjusted = not math.isclose(dt_used, config.dt, rel_tol=1e-12)
    run_config = replace(config, dt=dt_used) if adjusted else config

    if sample_times is None:
        sample_steps = [steps_total]
    else:
        requested = np.atleast_1d(np.asarray(sample_times, dtype=float))
        if np.any(requested < 0.0) or np.any(requested > t_final * (1 + 1e-12)):
            raise ValueError("sample times must lie inside [0, t_final]")
        sample_steps = sorted(round(t / dt_used) for t in requested.tolist())

    model = run_config.model
    half_v = np.exp(-0.5j * run_config.potential() * run_config.dt / model.hbar)
    kin = kinetic_phase(model, run_config.grid.momenta(model.hbar), run_config.dt)
    psi = state.values.copy()
    samples: list[GridState] = []
    steps_before = int(state.metadata.get("steps_taken", 0))

    def emit(step_index: int):
        if not np.all(np.isfinite(psi.view(float))):
            raise SimulationError(
                f"non-finite amplitudes during propagation (step {steps_before + step_index})"
            )
        meta = dict(state.metadata)
        meta["steps_taken"] = steps_before + step_index
        if adjusted:
            meta["dt_adjusted"] = dt_used
        snap = GridState(psi.copy(), state.grid, state.time_tag + step_index * dt_used, meta)
        samples.append(snap)
        if callback is not None:
            callback(snap)

    cursor = 0
    for target in sample_steps:
        for _ in range(target - cursor):
            # one Strang step exp(-iV dt/2) F^-1 K F exp(-iV dt/2)
            psi = half_v * psi
            psi = ifft(kin * fft(psi))
            psi *= half_v
        cursor = target
        emit(cursor)
    return samples
