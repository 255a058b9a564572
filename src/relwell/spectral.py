"""Exact time evolution in the analytic eigenbasis.

Evolution is a pure phase rotation of the eigenbasis coefficients, so this
engine has no time-step error at all; the only approximations live in the
initial decomposition and in the grid used for reconstruction.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .grids import SpatialGrid, _two_product, sine_transform, sine_workspace
from .grids import _sine_transform_ii, _sine_workspace_ii
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


def _frequencies(energies):
    """nu = E / (2 pi) as a double-double (nu_hi, nu_lo), by double-double
    division, the remainder taken from a product within a factor of two of
    its dividend (Sterbenz)."""
    e = np.asarray(energies, dtype=float)
    nu_hi = e / _TWO_PI[0]
    p, p_err = _two_product(nu_hi, _TWO_PI[0])
    nu_lo = (((e - p) - p_err) - nu_hi * _TWO_PI[1]) / _TWO_PI[0]
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


def phases(energies, times) -> np.ndarray:
    """E_n * t reduced mod 2*pi, in [0, 2*pi), as float64.

    ``energies`` and ``times`` broadcast against each other.  Revival times
    grow like L^2 (and worse for super-revivals), so the raw phase can reach
    1e12..1e15 radians where float64 products lose the fractional part that
    carries the physics.  The frequency nu = E / (2 pi) is therefore held
    as a double-double nu_hi + nu_lo (Dekker 1971) and the phase is reduced in
    turns: nu_hi * t = P + e exactly, so frac(nu * t) is
    (P - rint(P)) + e + frac(nu_lo * t), within a few ulp of one turn while
    nu * t stays below about 1e16 turns, on every platform.  Each t is first
    reduced by whole periods of its factor, which leaves the fraction alone
    and keeps every product finite wherever E is.
    """
    return _reduced_phases(_frequencies(energies), times)


def _rotated(coefficients, frequencies, t: float) -> np.ndarray:
    """Each coefficient times exp(-i E_n t)."""
    return coefficients * np.exp(-1j * _reduced_phases(frequencies, t))


def evolve(coeffs: CoefficientVector, t: float) -> CoefficientVector:
    """Rotate each coefficient by exp(-i E_n t); negative t reverses time."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    model = coeffs.model
    frequencies = _frequencies(energy(model, coeffs.levels))
    rotated = _rotated(coeffs.coefficients, frequencies, t)
    return CoefficientVector(rotated, model, dict(coeffs.metadata))


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


def _synthesized(coeffs: CoefficientVector, grid: SpatialGrid, times: list):
    """Yield the density at each time in one reused row whose walls hold zeros.

    Each row is evolved as ``evolve`` does, from frequencies computed once,
    and synthesized by one inverse transform of each part, through one
    transform workspace that every row reuses; its density is written
    straight into the row.  A packet whose even levels are all exactly zero
    is even about L/2, and so is each odd level's sine mode: on a grid of 4k
    intervals its odd levels fix x_1..x_{N/2} through one DST-II of N/2
    points, and the rest of the row is their mirror image.  Every other
    packet takes one DST-I over the whole interior.
    """
    row = np.zeros(grid.size)
    n, amplitudes = grid.intervals, coeffs.coefficients
    mirrored = n % 4 == 0 and not amplitudes[1::2].any()
    if mirrored:
        amplitudes = amplitudes[0::2]
        # the DST-II sums a_n sin(n pi i / N) over the odd n, with no factor 2
        scale, transform = math.sqrt(2.0 / grid.well_width), _sine_transform_ii
        workspace = _sine_workspace_ii(n // 2)
        interior = row[1 : n // 2 + 1]
        psi = np.empty(n // 2, dtype=np.complex128)
    else:
        # the unnormalized DST-I sums 2 a_n sin(n pi i / N)
        scale, transform = 0.5 * math.sqrt(2.0 / grid.well_width), sine_transform
        workspace = sine_workspace(grid.nyquist_level)
        interior = row[1:-1]
        # slots 1..n of the spectrum, where each transform leaves its result
        psi = workspace[1][1:n]
    # after the large buffers: computed before them, the frequencies'
    # temporaries left fig3 16 MB more resident through the row loop
    frequencies = _frequencies(energy(coeffs.model, coeffs.levels[:: 2 if mirrored else 1]))
    for t in times:
        a = _rotated(amplitudes, frequencies, t)
        # the real part waits in the row while the imaginary part's
        # transform writes its own result; in the DST-I workspace that
        # overwrites the spectrum
        transform(a.real, workspace, scale, out=interior)
        transform(a.imag, workspace, scale, out=psi.imag)
        psi.real = interior
        # the complex abs, which rounds differently from np.hypot of the parts
        np.abs(psi, out=interior)
        np.square(interior, out=interior)
        if mirrored:
            row[n // 2 + 1 : n] = row[n // 2 - 1 : 0 : -1]
        yield row


def density_stream(coeffs: CoefficientVector, grid: SpatialGrid, times) -> Iterator[np.ndarray]:
    """|psi(x, t)|^2 at each of ``times``, yielded in time order through one
    reused row: each is valid until the next is drawn.  Here
    psi(x_i) = sum_n a_n(t) sqrt(2/L) sin(n pi x_i / L), zero on the walls.
    The arguments are checked on the call.  The stream holds one float row,
    a transform workspace and a few per-level arrays.  The DST-I's workspace
    is two complex rows.  A parity-even packet's, on 4k intervals, is a
    complex half row, the DST-II's reordered half row, its half spectrum
    and twiddles, together 1.25 complex rows, and its per-level arrays hold
    the odd levels alone."""
    if grid.well_width != coeffs.model.well_width:
        raise ValueError("grid and model disagree on the well width")
    if coeffs.n_max > grid.nyquist_level:
        raise ValueError(f"grid with {grid.intervals} intervals cannot represent level {coeffs.n_max}")
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError("time must be finite")
    return _synthesized(coeffs, grid, times.tolist())


def density_rows(coeffs: CoefficientVector, grid: SpatialGrid, times) -> np.ndarray:
    """The rows of ``density_stream``, one per requested time, stacked: a
    carpet holds its output besides the stream's buffers."""
    stream = density_stream(coeffs, grid, times)
    rows = np.empty((np.size(times), grid.size))
    for row, streamed in zip(rows, stream):
        row[:] = streamed
    return rows
