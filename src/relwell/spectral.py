"""Exact time evolution in the analytic eigenbasis.

Evolution is a pure phase rotation of the eigenbasis coefficients, so this
engine has no time-step error at all; the only approximations live in the
initial decomposition and in the grid used for reconstruction.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import SpatialGrid, sine_transform, sine_workspace
from .model import energy
from .packets import CoefficientVector


# 2*pi as a double-double: float64(2*pi) and the remainder of the true value
_TWO_PI = (6.283185307179586, 2.4492935982947064e-16)
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's constant for float64


def _split(m):
    """Veltkamp's split of m into a 26-bit head and the exact remainder."""
    c = _SPLITTER * m
    head = c - (c - m)
    return head, m - head


def _two_product(a, b):
    """(p, e) with p + e = a * b exactly (Dekker 1971).

    Veltkamp's split multiplies by 2^27 + 1, which overflows above about
    1.3e300, so it acts on the mantissas in [0.5, 1) and the exponents are
    restored by exact powers of two.  The error term of a product in the
    subnormal range loses its last bits.
    """
    ma, ea = np.frexp(a)
    mb, eb = np.frexp(b)
    (ah, al), (bh, bl) = _split(ma), _split(mb)
    p = ma * mb
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    scale = ea + eb
    return np.ldexp(p, scale), np.ldexp(e, scale)


def _integer_period(nu):
    """The smallest power of two whose products with ``nu`` are whole turns:
    nu = m * 2^(k - 53) with an integer m, so any multiple of 2^(53 - k) drops
    out of frac(nu * t), and nu * fmod(t, 2^(53 - k)) stays below 2^53.  The
    period overflows to inf, where fmod leaves t alone, only for nu < 2^-970."""
    with np.errstate(over="ignore"):
        return np.ldexp(1.0, 53 - np.frexp(nu)[1])


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
    e = np.asarray(energies, dtype=float)
    t = np.asarray(times, dtype=float)
    hbar = float(hbar)  # a config's integer hbar may exceed int64
    # nu = (E / hbar) / (2 pi) by double-double division; each remainder is
    # taken from a product within a factor of two of its dividend (Sterbenz)
    q = e / hbar
    p, p_err = _two_product(q, hbar)
    q_lo = ((e - p) - p_err) / hbar
    nu_hi = q / _TWO_PI[0]
    p, p_err = _two_product(nu_hi, _TWO_PI[0])
    nu_lo = (((q - p) - p_err) + q_lo - nu_hi * _TWO_PI[1]) / _TWO_PI[0]

    whole, part = _two_product(nu_hi, np.fmod(t, _integer_period(nu_hi)))
    low = nu_lo * np.fmod(t, _integer_period(nu_lo))
    turns = (whole - np.rint(whole)) + part + (low - np.rint(low))
    turns -= np.floor(turns)
    # a tiny negative fraction rounds up to a whole turn
    return _TWO_PI[0] * np.where(turns >= 1.0, 0.0, turns)


def evolve(coeffs: CoefficientVector, t: float) -> CoefficientVector:
    """Rotate each coefficient by exp(-i E_n t / hbar); negative t reverses time."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    model = coeffs.model
    energies = energy(model, coeffs.levels)
    rotated = coeffs.coefficients * np.exp(-1j * phases(energies, t, model.hbar))
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

    Each row is evolved and synthesized on its own, by one inverse DST-I of
    each part, through one transform workspace that the whole carpet reuses,
    and its density is written straight into its output row.  A carpet thus
    holds its output, two complex rows and the per-level arrays of one
    ``evolve``.
    """
    if grid.well_width != coeffs.model.well_width:
        raise ValueError("grid and model disagree on the well width")
    if coeffs.n_max > grid.nyquist_level:
        raise ValueError(f"grid with {grid.intervals} intervals cannot represent level {coeffs.n_max}")
    # the unnormalized DST-I sums 2 a_n sin(n pi i / N)
    scale = 0.5 * math.sqrt(2.0 / grid.well_width)
    times = np.asarray(times, dtype=float)
    rows = np.zeros((times.size, grid.size))
    workspace = sine_workspace(grid.nyquist_level)
    # slots 1..n of the spectrum, where each transform leaves its result
    psi = workspace[1][1 : grid.intervals]
    for row, t in zip(rows, times.tolist()):
        a = evolve(coeffs, t).coefficients
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
