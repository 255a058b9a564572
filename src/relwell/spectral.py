"""Exact time evolution in the analytic eigenbasis.

Evolution is a pure phase rotation of the eigenbasis coefficients, so this
engine has no time-step error at all; the only approximations live in the
initial decomposition and in the grid used for reconstruction.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import SpatialGrid, _two_product, sine_transform, sine_workspace
from .model import energy
from .packets import CoefficientVector


# 2*pi as a double-double: float64(2*pi) and the remainder of the true value
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)


def _integer_period(nu):
    """The smallest power of two whose products with ``nu`` are whole turns:
    nu = m * 2^(k - 53) with an integer m, so any multiple of 2^(53 - k) drops
    out of frac(nu * t), and nu * fmod(t, 2^(53 - k)) stays below 2^53.  The
    period overflows to inf, where fmod leaves t alone, only for nu < 2^-970."""
    with np.errstate(over="ignore"):
        return np.ldexp(1.0, 53 - np.frexp(nu)[1])


def _frequencies(energies, hbar: float):
    """nu = E / (2 pi hbar) as a double-double (nu_hi, nu_lo): (E / hbar) and
    then its quotient by 2 pi by double-double division, each remainder taken
    from a product within a factor of two of its dividend (Sterbenz)."""
    e = np.asarray(energies, dtype=float)
    hbar = float(hbar)  # a config's integer hbar may exceed int64
    q = e / hbar
    p, p_err = _two_product(q, hbar)
    q_lo = ((e - p) - p_err) / hbar
    nu_hi = q / _TWO_PI[0]
    p, p_err = _two_product(nu_hi, _TWO_PI[0])
    nu_lo = (((q - p) - p_err) + q_lo - nu_hi * _TWO_PI[1]) / _TWO_PI[0]
    return nu_hi, nu_lo


def _reduced_phases(frequencies, times) -> np.ndarray:
    """2 pi frac(nu * t) for a double-double nu from ``_frequencies``."""
    nu_hi, nu_lo = frequencies
    t = np.asarray(times, dtype=float)
    whole, part = _two_product(nu_hi, np.fmod(t, _integer_period(nu_hi)))
    low = nu_lo * np.fmod(t, _integer_period(nu_lo))
    turns = (whole - np.rint(whole)) + part + (low - np.rint(low))
    turns -= np.floor(turns)
    # a tiny negative fraction rounds up to a whole turn
    return _TWO_PI[0] * np.where(turns >= 1.0, 0.0, turns)


def phases(energies, times, hbar: float) -> np.ndarray:
    """(E_n / hbar) * t reduced mod 2*pi, in [0, 2*pi), as float64.

    ``energies`` and ``times`` broadcast against each other.  Revival times
    grow like L^2 (and worse for super-revivals), so the raw phase can reach
    1e12..1e15 radians where float64 products lose the fractional part that
    carries the physics.  The frequency nu = E / (2 pi hbar) is therefore held
    as a double-double nu_hi + nu_lo (Dekker 1971) and the phase is reduced in
    turns: nu_hi * t = P + e exactly, so frac(nu * t) is
    (P - rint(P)) + e + frac(nu_lo * t), within a few ulp of one turn while
    nu * t stays below about 1e16 turns, on every platform.  Each t is first
    reduced by whole periods of its factor, which leaves the fraction alone
    and keeps every product finite wherever E / hbar is.
    """
    return _reduced_phases(_frequencies(energies, hbar), times)


def _rotated(coefficients, frequencies, t: float) -> np.ndarray:
    """Each coefficient times exp(-i E_n t / hbar)."""
    return coefficients * np.exp(-1j * _reduced_phases(frequencies, t))


def evolve(coeffs: CoefficientVector, t: float) -> CoefficientVector:
    """Rotate each coefficient by exp(-i E_n t / hbar); negative t reverses time."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    model = coeffs.model
    frequencies = _frequencies(energy(model, coeffs.levels), model.hbar)
    rotated = _rotated(coeffs.coefficients, frequencies, t)
    return CoefficientVector(rotated, model, coeffs.time_tag + t, dict(coeffs.metadata))


def reconstruct_at(coeffs: CoefficientVector, x) -> np.ndarray:
    """Direct sine summation at arbitrary positions inside [0, L].

    O(n_max * len(x)); used for oracle checks and for seeding other engines
    whose grids are not commensurate with the well grid.
    """
    model = coeffs.model
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    L = model.well_width
    k = coeffs.levels * (np.pi / L)
    basis = math.sqrt(2.0 / L) * np.sin(np.outer(xs, k))
    values = basis @ coeffs.coefficients
    values[(xs <= 0.0) | (xs >= L)] = 0.0
    return values


def density_rows(coeffs: CoefficientVector, grid: SpatialGrid, times) -> np.ndarray:
    """Stack of |psi(x, t)|^2 rows, one per requested time, where
    psi(x_i) = sum_n a_n(t) sqrt(2/L) sin(n pi x_i / L), zero on the walls.

    Each row is evolved as ``evolve`` does, from frequencies computed once
    per carpet, and synthesized on its own, by one inverse DST-I of each
    part, through one transform workspace that the whole carpet reuses; its
    density is written straight into its output row.  A carpet thus holds its
    output, two complex rows and a few per-level arrays.
    """
    if grid.well_width != coeffs.model.well_width:
        raise ValueError("grid and model disagree on the well width")
    if coeffs.n_max > grid.nyquist_level:
        raise ValueError(f"grid with {grid.intervals} intervals cannot represent level {coeffs.n_max}")
    # the unnormalized DST-I sums 2 a_n sin(n pi i / N)
    scale = 0.5 * math.sqrt(2.0 / grid.well_width)
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("time must be finite")
    rows = np.zeros((times.size, grid.size))
    workspace = sine_workspace(grid.nyquist_level)
    # after the large buffers: computed before them, the frequencies'
    # temporaries left fig3 16 MB more resident through the row loop
    model = coeffs.model
    frequencies = _frequencies(energy(model, coeffs.levels), model.hbar)
    # slots 1..n of the spectrum, where each transform leaves its result
    psi = workspace[1][1 : grid.intervals]
    for row, t in zip(rows, times.tolist()):
        a = _rotated(coeffs.coefficients, frequencies, t)
        interior = row[1:-1]
        # the real part waits in the output row while the imaginary part's
        # transform overwrites the spectrum with its own result
        sine_transform(a.real, workspace, scale, out=interior)
        sine_transform(a.imag, workspace, scale, out=psi.imag)
        psi.real = interior
        # the complex abs, which rounds differently from np.hypot of the parts
        np.abs(psi, out=interior)
        np.square(interior, out=interior)
    return rows
