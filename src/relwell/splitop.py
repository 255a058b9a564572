"""Split-operator propagation of the Salpeter equation on a periodic box.

The engine solves the finite-wall well: walls of height V0 inside a periodic
computational domain.  This is a different problem from the sine-mode box of
the spectral engine, and stays different as V0 grows: the square-root kinetic
operator keeps the finite walls soft on the Compton scale, so the high-wall
limit is the restricted Salpeter operator on the interval, whose spectrum
differs from the sine-mode one.  The relativistic kinetic phase
exp(-i sqrt(m^2 c^4 + p^2 c^2) dt / hbar) is applied exactly in momentum
space, so the only time-step error against the finite-wall grid Hamiltonian
is the second-order Strang splitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import SimulationError
from .grids import BoxGrid, GridState
from .model import WellModel, revival_times

DEFAULT_WALL_HEIGHT_FACTOR = 1.0e4   # V0 in units of m c^2
DEFAULT_MARGIN_FRACTION = 1.0 / 8.0  # wall margin delta in units of L
MIN_GRID_SIZE = 256
WALL_PHASE_CAP = math.pi / 8.0       # upper bound on V0 * dt / hbar
MOMENTUM_CUTOFF_FACTOR = 8.0         # max |p| >= this * (p0 + hbar/sigma)
# Byte budget of the powered path, which holds at most three N x N complex
# matrices: N <= 1024 (48 MiB) may power, N = 2048 (192 MiB) always steps.
POWERED_WORKSPACE = 64 << 20


@dataclass(frozen=True)
class PropagationConfig:
    """Discretization of one split-operator run.

    The periodic box must contain [-wall_margin, L + wall_margin]; the grid
    size must be a power of two of at least 256 so the transforms stay cheap
    and the momentum grid symmetric.
    """

    model: WellModel
    x_min: float
    x_max: float
    grid_size: int
    dt: float
    wall_height: float
    wall_margin: float

    def __post_init__(self):
        L = self.model.well_width
        if self.wall_margin <= 0:
            raise ValueError("wall_margin must be positive")
        if self.x_min > -self.wall_margin or self.x_max < L + self.wall_margin:
            raise ValueError("box must contain [-wall_margin, L + wall_margin]")
        if self.grid_size < MIN_GRID_SIZE or self.grid_size & (self.grid_size - 1):
            raise ValueError(f"grid_size must be a power of two >= {MIN_GRID_SIZE}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.wall_height < 0:
            raise ValueError("wall_height must be nonnegative")

    def steps(self, t: float) -> int:
        """Strang steps that reach time t >= 0: none at t = 0, otherwise the
        nearest whole number of dt, and at least one."""
        ratio = t / self.dt
        if not math.isfinite(ratio):
            raise ValueError(f"time {t!r} is beyond any step count at dt = {self.dt!r}")
        return max(1, round(ratio)) if t else 0

    def step_dt(self, t: float) -> float:
        """The dt that steps(t) Strang steps take to reach t exactly: t over
        the step count, and dt itself at t = 0."""
        steps = self.steps(t)
        return t / steps if steps else self.dt

    @property
    def grid(self) -> BoxGrid:
        return BoxGrid(self.x_min, self.x_max, self.grid_size)

    def potential(self) -> np.ndarray:
        x = self.grid.points
        L = self.model.well_width
        return np.where((x < 0.0) | (x > L), self.wall_height, 0.0)


def default_config(
    model: WellModel,
    n0: int = 1,
    p0: float = 0.0,
    sigma: float | None = None,
    dt: float | None = None,
    grid_size: int | None = None,
    wall_height: float | None = None,
    wall_margin: float | None = None,
) -> PropagationConfig:
    """Build a config from the packet it will carry.

    dt defaults to min(hbar*pi/(8 V0), T_cl(n0)/1000) so both the wall phase
    per step and the fastest populated level stay resolved; the grid is sized
    so the momentum range covers 8 * (p0 + hbar/sigma), which bounds aliasing
    of the slowly decaying relativistic dispersion below 1e-10.
    """
    L = model.well_width
    V0 = DEFAULT_WALL_HEIGHT_FACTOR * model.energy_scale if wall_height is None else wall_height
    delta = DEFAULT_MARGIN_FRACTION * L if wall_margin is None else wall_margin
    x_min, x_max = -delta, L + delta

    if dt is None:
        dt = revival_times(model, n0).t_classical / 1000.0
    if V0 > 0:
        dt = min(dt, WALL_PHASE_CAP * model.hbar / V0)

    if grid_size is None:
        if sigma is None:
            sigma = L / 8.0
        p_needed = MOMENTUM_CUTOFF_FACTOR * (abs(p0) + model.hbar / sigma)
        box_len = x_max - x_min
        n_needed = int(math.ceil(p_needed * box_len / (math.pi * model.hbar)))
        grid_size = MIN_GRID_SIZE
        while grid_size < n_needed:
            grid_size *= 2

    return PropagationConfig(model, x_min, x_max, grid_size, dt, V0, delta)


def kinetic_phase(model: WellModel, p, dt: float) -> complex | np.ndarray:
    """exp(-i sqrt(m^2 c^4 + p^2 c^2) dt / hbar), the exact one-step kinetic
    factor; unit modulus for any momentum."""
    scalar = np.isscalar(p)
    ps = np.asarray(p, dtype=float)
    disp = np.hypot(model.energy_scale, ps * model.light_speed)
    phase = np.exp(-1j * disp * dt / model.hbar)
    return complex(phase) if scalar else phase


def power_plan(grid_size: int, gaps) -> int | None:
    """The power h of the Strang step that crosses the sample gaps, or None
    if the run only steps.

    The Strang step U does not change in time, so one power U^h, built once
    by repeated squaring, crosses a gap of g steps as g // h matrix-vector
    products and g % h Strang steps.  h is the smallest positive gap, and
    the run powers only if that is cheaper than stepping every gap, pricing
    every operation in Strang steps of the same N.  A pure function of its
    arguments, so a config always takes the same path.  The powered path
    holds at most three N x N complex matrices; a grid whose three exceed
    POWERED_WORKSPACE always steps.

    Single-thread costs on a 2-vCPU AVX-512 host, in fused in-place
    numpy.fft Strang steps of the same N (6.5, 9.2, 13.8 and 24.4 us):

        N      zgemm   zgemv
        256      197     1.7
        512     1059     4.7
        1024    5386    12.7
        2048   24500    67

    A product is priced at N^2/128 steps, and a matrix-vector product or
    building U at N^2/2^15; both lie above the table at every N the workspace
    admits.
    """
    if 3 * 16 * grid_size**2 > POWERED_WORKSPACE:
        return None
    positive = [int(gap) for gap in gaps if gap > 0]
    if not positive:
        return None
    power = min(positive)
    product, matvec = grid_size**2 / 128, grid_size**2 / 2**15
    products = power.bit_length() + power.bit_count() - 2
    crossings = sum(gap // power * matvec + gap % power for gap in positive)
    return power if products * product + matvec + crossings < sum(positive) else None


def _strang_power(half_v: np.ndarray, kin: np.ndarray, exponent: int) -> np.ndarray:
    """U^exponent for the Strang step U = diag(half_v) F^-1 diag(kin) F diag(half_v),
    with kin carrying the 1/N of F^-1.

    U is the step applied to each column of the identity; its power is
    reached by repeated squaring in three N x N matrices.
    """
    base = np.diag(half_v)
    np.fft.fft(base, axis=0, out=base)
    base *= kin[:, None]
    np.fft.ifft(base, axis=0, norm="forward", out=base)
    base *= half_v[:, None]
    scratch = np.empty_like(base)
    result = None
    while True:
        if exponent & 1:
            if result is None:
                result = base.copy()
            else:
                np.matmul(result, base, out=scratch)
                result, scratch = scratch, result
        exponent >>= 1
        if not exponent:
            return result
        np.matmul(base, base, out=scratch)
        base, scratch = scratch, base


def propagate(
    state: GridState,
    config: PropagationConfig,
    t_final: float,
    sample_times=None,
    callback=None,
) -> list[GridState]:
    """Run repeated Strang steps to t_final, sampling at requested times.

    t_final must be an integer number of steps; otherwise dt is adjusted to
    the nearest commensurate value and the adjustment reported in each
    sampled state's metadata.  Each requested time gets one snapshot, at
    its nearest step, in time order; times outside [0, t_final] are
    rejected.  Where ``power_plan`` finds it cheaper, a gap between samples
    is crossed by a power of the one-step unitary instead of step by step:
    the same discretization, whose rounding grows by about eps per step
    crossed (2.5e-11 in amplitude at 10^6 steps, where stepping's partly
    cancels).
    Deterministic for a fixed config; a powered run at a fixed BLAS thread
    count.  Raises SimulationError, naming the same step count as the
    metadata, if a sampled state stops being finite.
    """
    if state.values.shape != (config.grid_size,):
        raise ValueError(
            f"state has {state.values.size} samples, not the {config.grid_size} of the "
            f"config grid on [{config.x_min:g}, {config.x_max:g})"
        )
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    steps_total = config.steps(t_final)
    dt_used = config.step_dt(t_final)
    adjusted = not math.isclose(dt_used, config.dt, rel_tol=1e-12)
    run_config = replace(config, dt=dt_used) if adjusted else config

    if sample_times is None:
        sample_steps = [steps_total]
    else:
        requested = np.atleast_1d(np.asarray(sample_times, dtype=float))
        if np.any(requested < 0.0) or np.any(requested > t_final * (1 + 1e-12)):
            raise ValueError("sample times must lie inside [0, t_final]")
        sample_steps = sorted(round(t / dt_used) for t in requested.tolist())
    gaps = [b - a for a, b in zip([0, *sample_steps], sample_steps)]
    power = power_plan(config.grid_size, gaps)

    model = run_config.model
    half_v = np.exp(-0.5j * run_config.potential() * run_config.dt / model.hbar)
    # the 1/N of the inverse transform rides on the kinetic phase
    kin = kinetic_phase(model, run_config.grid.momenta(model.hbar), run_config.dt)
    kin /= config.grid_size
    full_v = half_v * half_v
    psi = np.array(state.values, dtype=complex)
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

    held = None
    for target, gap in zip(sample_steps, gaps):
        reuses, steps = divmod(gap, power) if power else (0, gap)
        if reuses and held is None:
            held = _strang_power(half_v, kin, power)
        for _ in range(reuses):
            psi = held @ psi
        if steps:
            # Strang steps exp(-iV dt/2) F^-1 K F exp(-iV dt/2) in place, the
            # half-kicks between two steps of the gap fused into one full kick
            psi *= half_v
            for remaining in range(steps - 1, -1, -1):
                np.fft.fft(psi, out=psi)
                psi *= kin
                np.fft.ifft(psi, norm="forward", out=psi)
                psi *= full_v if remaining else half_v
        emit(target)
    return samples
