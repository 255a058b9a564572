"""Closed-form physics of a spinless Salpeter particle in a hard-wall box.

The kinetic operator is sqrt(m^2 c^4 + p^2 c^2).  For a box of width L the
eigenfunctions coincide with the familiar non-relativistic sine modes while
the spectrum follows the relativistic dispersion evaluated at k_n = n*pi/L.
All internal arithmetic is done in natural units (hbar = c = m = 1, lengths
in reduced Compton wavelengths); user units enter and leave at the API
boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

MAX_DERIVATIVE_ORDER = 6


def _finite(scale: float, name: str) -> float:
    """``scale``, or OverflowError naming it where it left double range."""
    if math.isinf(scale):
        raise OverflowError(f"{name} overflows")
    return scale


@dataclass(frozen=True)
class WellModel:
    """Particle and box parameters with their derived natural scales.

    The Compton wavelength 2*pi*hbar/(m*c) is the physical length scale that
    separates the non-relativistic (L much larger) from the ultra-relativistic
    (L much smaller) regime; it is always recomputed, never stored.
    """

    mass: float = 1.0
    light_speed: float = 1.0
    hbar: float = 1.0
    well_width: float = 1.0

    def __post_init__(self):
        for name in ("mass", "light_speed", "hbar", "well_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # each scale raises OverflowError past double range
    @property
    def momentum_scale(self) -> float:
        return _finite(self.mass * self.light_speed, "the momentum scale m c")

    @property
    def compton_wavelength(self) -> float:
        return _finite(2.0 * math.pi * self.hbar / self.momentum_scale,
                       "the Compton wavelength 2 pi hbar/(m c)")

    @property
    def energy_scale(self) -> float:
        """Rest energy m c^2, the internal unit of energy."""
        try:
            c_squared = self.light_speed**2
        except OverflowError:  # Python's float power raises past double range
            c_squared = math.inf
        return _finite(self.mass * c_squared, "the rest energy m c^2")

    @property
    def width_natural(self) -> float:
        """Box width in reduced Compton wavelengths hbar/(m c), the internal
        unit of length."""
        return self.well_width / (self.hbar / self.momentum_scale)


def _momentum_ratio(model: WellModel, n) -> np.ndarray:
    """p_n / (m c), the dimensionless knob that selects the regime."""
    return np.pi * np.asarray(n, dtype=float) / model.width_natural


def _check_level(n) -> np.ndarray:
    arr = np.asarray(n, dtype=float)
    if np.any(arr < 1):
        raise ValueError("level index must satisfy n >= 1")
    return arr


def energy(model: WellModel, n) -> np.floating | np.ndarray:
    """Bound-state energy m c^2 * sqrt(1 + (p_n / m c)^2) for level n >= 1.

    Accepts a scalar (returning a numpy scalar) or an array of levels.
    Strictly increasing in n and never below the rest energy.
    """
    x = _momentum_ratio(model, _check_level(n))
    return model.energy_scale * np.hypot(1.0, x)


def lorentz_gamma(model: WellModel, n) -> np.floating | np.ndarray:
    """gamma_n = E_n / m c^2."""
    return np.hypot(1.0, _momentum_ratio(model, _check_level(n)))


def level_velocity(model: WellModel, n) -> np.floating | np.ndarray:
    """Relativistic group velocity v_n = p_n c^2 / E_n, always below c."""
    x = _momentum_ratio(model, _check_level(n))
    return model.light_speed * x / np.hypot(1.0, x)


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


def _derivative_natural(width_natural: float, n0: float, order: int) -> float:
    """d^N E / dn^N in rest-energy units for the dispersion sqrt(1 + (b n)^2).

    Product/sum closed form for derivatives of (1 + a x^2)^(1/2):

        pref * prod_{j=0}^{N-1} (1/2 - j)
             * sum_{k=0}^{floor(N/2)} [N! / (N-2k)!]
               / (k! * prod_{q=1}^{k} (1/2 - N + q)) * (gamma / (2 x))^{2k}

    with b = pi/L, x = b*n0, gamma = sqrt(1 + x^2) and
    pref = (2 b x)^N / gamma^(2N-1).  The k-sum is evaluated through its
    exact-rational reorganization in powers of 1/x^2 (see _sum_coefficients).
    NaN where a power of pref leaves double range.
    """
    b = math.pi / width_natural
    x = b * n0
    g = math.hypot(1.0, x)
    try:
        pref = (2.0 * b * x) ** order / g ** (2 * order - 1)
    except OverflowError:
        return math.nan
    for j in range(order):
        pref *= 0.5 - j
    coeffs = _sum_coefficients(order)
    u = 1.0 / (x * x)
    total = 0.0
    start = 0 if order == 1 else 1
    for j in range(len(coeffs) - 1, start - 1, -1):
        total = total * u + coeffs[j]
    total *= u**start
    return pref * total


def energy_derivative(model: WellModel, n0: float, order: int) -> float:
    """N-th derivative of E(n) with respect to the (continuous) level index.

    Supported orders are 1..6.  Order 1 reduces to (hbar*pi/L) * p_n/(gamma*m)
    and order 2 to (hbar*pi/L)^2 / (gamma^3 * m).  Where the closed form's
    powers leave double range the derivative is NaN.
    """
    if not isinstance(order, int) or not 1 <= order <= MAX_DERIVATIVE_ORDER:
        raise ValueError(
            f"derivative order must be an integer in 1..{MAX_DERIVATIVE_ORDER}, got {order!r}"
        )
    if n0 <= 0:
        raise ValueError("n0 must be positive")
    return model.energy_scale * _derivative_natural(model.width_natural, float(n0), order)


@dataclass(frozen=True)
class RevivalTimes:
    """The hierarchy of timescales attached to a dominant level n0.

    t_classical is the bounce period 2L/v of the corresponding classical
    relativistic particle; t_revival and t_super are the quadratic and cubic
    dephasing times of a packet concentrated around n0.
    """

    t_classical: float
    t_revival: float
    t_super: float
    gamma: float

    def __post_init__(self):
        if not (self.t_classical > 0 and self.t_revival > 0 and self.t_super > 0):
            raise ValueError("revival times must be positive")
        if self.gamma < 1.0:
            raise ValueError("gamma must be >= 1")


def revival_times(model: WellModel, n0: int) -> RevivalTimes:
    """Classical period, revival time and super-revival time at level n0.

    t_classical = 2*pi*hbar / |E'|,  t_revival = 2*pi*hbar / (|E''|/2),
    t_super = 2*pi*hbar / (|E'''|/6), with the derivatives taken with respect
    to the level index at n0.  A time that leaves double range raises
    ArithmeticError.
    """
    if n0 < 1:
        raise ValueError("n0 must be >= 1")
    two_pi_hbar = 2.0 * math.pi * model.hbar
    d1 = energy_derivative(model, n0, 1)
    d2 = energy_derivative(model, n0, 2)
    d3 = energy_derivative(model, n0, 3)
    times = {
        "t_classical": two_pi_hbar / abs(d1),
        "t_revival": two_pi_hbar / (abs(d2) / 2.0),
        "t_super": two_pi_hbar / (abs(d3) / 6.0),
    }
    # 0, an infinity, or NaN where a derivative's own terms overflowed
    for name, t in times.items():
        if not 0 < t < math.inf:
            raise ArithmeticError(f"the {name} of level {n0} leaves double range")
    return RevivalTimes(**times, gamma=lorentz_gamma(model, n0))
