"""Closed-form physics of a spinless Salpeter particle in a hard-wall box.

The kinetic operator is sqrt(m^2 c^4 + p^2 c^2).  For a box of width L the
eigenfunctions coincide with the familiar non-relativistic sine modes while
the spectrum follows the relativistic dispersion evaluated at k_n = n*pi/L.
Everything here is in natural units, hbar = c = m = 1: lengths in reduced
Compton wavelengths hbar/(m c), momenta in m c, energies in m c^2 and times
in hbar/(m c^2).  The command line converts a document's units into these
once, and its outputs back once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_DERIVATIVE_ORDER = 6


@dataclass(frozen=True)
class WellModel:
    """A box of width ``well_width`` in reduced Compton wavelengths hbar/(m c).

    The width in Compton wavelengths 2*pi*hbar/(m c) separates the
    non-relativistic (much larger) from the ultra-relativistic (much smaller)
    regime.  It is the model's one parameter: m, c and hbar only choose the
    units.
    """

    well_width: float = 1.0

    def __post_init__(self):
        if self.well_width <= 0:
            raise ValueError("well_width must be positive")


def _momentum_ratio(model: WellModel, n) -> np.ndarray:
    """p_n / (m c), the dimensionless knob that selects the regime."""
    return np.pi * np.asarray(n, dtype=float) / model.well_width


def _check_level(n) -> np.ndarray:
    arr = np.asarray(n, dtype=float)
    if np.any(arr < 1):
        raise ValueError("level index must satisfy n >= 1")
    return arr


def energy(model: WellModel, n) -> np.floating | np.ndarray:
    """Bound-state energy sqrt(1 + p_n^2) for level n >= 1, p_n = n pi / L.

    Accepts a scalar (returning a numpy scalar) or an array of levels.
    Strictly increasing in n and never below the rest energy.
    """
    return np.hypot(1.0, _momentum_ratio(model, _check_level(n)))


def level_velocity(model: WellModel, n) -> np.floating | np.ndarray:
    """Relativistic group velocity v_n = p_n / E_n, always below c = 1."""
    x = _momentum_ratio(model, _check_level(n))
    return x / np.hypot(1.0, x)


@lru_cache(maxsize=None)
def _sum_coefficients(order: int) -> tuple:
    """Exact rational coefficients of the derivative formula's k-sum,
    reorganized in powers of u = 1/x^2.

    The tabulated sum runs over (gamma/(2x))^(2k) = ((1 + u)/4)^k with terms

        c_k = [prod_{r=0}^{2k-1} (N - r)] / (k! * prod_{q=1}^{k} (1/2 - N + q)).

    Expanding the binomials gives sum = sum_j A_j u^j.  A_0 vanishes
    identically for N >= 2 (the sum must die like gamma^-2 in the
    ultra-relativistic limit), which is exactly the cancellation that destroys
    a floating-point evaluation in the original ordering; dropping it
    analytically makes the formula stable at any gamma.
    """
    kmax = order // 2
    c = []
    for k in range(kmax + 1):
        num = Fraction(1)
        for r in range(2 * k):
            num *= order - r
        den = Fraction(math.factorial(k))
        for q in range(1, k + 1):
            den *= Fraction(1, 2) - order + q
        c.append(num / den)
    coeffs = []
    for j in range(kmax + 1):
        a_j = sum(
            c[k] * Fraction(1, 4) ** k * math.comb(k, j) for k in range(j, kmax + 1)
        )
        coeffs.append(a_j)
    if order >= 2:
        assert coeffs[0] == 0
    return tuple(float(a) for a in coeffs)


def energy_derivative(model: WellModel, n0: float, order: int) -> float:
    """N-th derivative of E(n) with respect to the (continuous) level index.

    Supported orders are 1..6.  Order 1 reduces to (pi/L) * p_n/gamma and
    order 2 to (pi/L)^2 / gamma^3.  In general, for the dispersion
    sqrt(1 + (b n)^2), the product/sum closed form is

        pref * prod_{j=0}^{N-1} (1/2 - j)
             * sum_{k=0}^{floor(N/2)} [N! / (N-2k)!]
               / (k! * prod_{q=1}^{k} (1/2 - N + q)) * (gamma / (2 x))^{2k}

    with b = pi/L, x = b*n0, gamma = sqrt(1 + x^2) and
    pref = (2 b x)^N / gamma^(2N-1).  The k-sum is evaluated through its
    exact-rational reorganization in powers of 1/x^2 (see _sum_coefficients).
    NaN where a power of pref, or 1/x^2, leaves double range.
    """
    if not isinstance(order, int) or not 1 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"derivative order must be an integer in 1..{MAX_DERIVATIVE_ORDER}, got {order!r}"
        )
    if n0 <= 0:
        raise ValueError("n0 must be positive")
    b = math.pi / model.well_width
    x = b * float(n0)
    g = math.hypot(1.0, x)
    try:
        pref = (2.0 * b * x) ** order / g ** (2 * order - 1)
        u = 1.0 / (x * x)
    except (OverflowError, ZeroDivisionError):
        return math.nan
    for j in range(order):
        pref *= 0.5 - j
    coeffs = _sum_coefficients(order)
    total = 0.0
    start = 0 if order == 1 else 1
    for j in range(len(coeffs) - 1, start - 1, -1):
        total = total * u + coeffs[j]
    total *= u**start
    return pref * total


@dataclass(frozen=True)
class RevivalTimes:
    """The hierarchy of timescales attached to a dominant level n0.

    t_classical is the bounce period 2L/v of the corresponding classical
    relativistic particle; t_revival and t_super are the quadratic and cubic
    dephasing times of a packet concentrated around n0; gamma is E_n0 / m c^2.
    """

    t_classical: float
    t_revival: float
    t_super: float
    gamma: float


def revival_times(model: WellModel, n0: int) -> RevivalTimes:
    """Classical period, revival time and super-revival time at level n0.

    t_classical = 2*pi / |E'|,  t_revival = 2*pi / (|E''|/2),
    t_super = 2*pi / (|E'''|/6), with the derivatives taken with respect
    to the level index at n0.  A time that leaves double range raises
    ArithmeticError.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    two_pi = 2.0 * math.pi
    d1 = energy_derivative(model, n0, 1)
    d2 = energy_derivative(model, n0, 2)
    d3 = energy_derivative(model, n0, 3)
    rates = {"t_classical": abs(d1), "t_revival": abs(d2) / 2.0, "t_super": abs(d3) / 6.0}
    # a rate of 0 gives an infinite time
    times = {name: two_pi / rate if rate else math.inf for name, rate in rates.items()}
    # 0, an infinity, or NaN where a derivative's own terms overflowed
    for name, t in times.items():
        if not 0 < t < math.inf:
            raise ArithmeticError(f"the {name} of level {n0} leaves double range")
    return RevivalTimes(**times, gamma=energy(model, n0))
