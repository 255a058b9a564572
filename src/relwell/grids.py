"""Spatial grids, the sampled wavefunction container, the sine transform,
Dekker's exact product and the CSV table writer."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import SimulationError


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid over the well [0, L], endpoints included.

    ``intervals`` is the number of spacings; the grid has ``intervals + 1``
    points with x[0] = 0 and x[-1] = L.  Sine-basis operations address the
    ``intervals - 1`` interior points.
    """

    well_width: float
    intervals: int

    def __post_init__(self):
        if self.well_width <= 0:
            raise ValueError("well_width must be positive")
        if self.intervals < 2:
            raise ValueError("need at least 2 intervals")

    @property
    def spacing(self) -> float:
        return self.well_width / self.intervals

    @property
    def size(self) -> int:
        """Number of grid points, the walls included."""
        return self.intervals + 1

    @property
    def points(self) -> np.ndarray:
        return np.linspace(0.0, self.well_width, self.size)

    @property
    def nyquist_level(self) -> int:
        """Highest sine-basis index the grid represents without aliasing."""
        return self.intervals - 1


@dataclass(frozen=True)
class BoxGrid:
    """Periodic grid over [x_min, x_max) used by the split-operator engine.

    The right endpoint is identified with the left one and not stored.
    """

    x_min: float
    x_max: float
    size: int

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.size < 2:
            raise ValueError("need at least 2 points")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def spacing(self) -> float:
        return self.length / self.size

    @property
    def points(self) -> np.ndarray:
        return self.x_min + self.spacing * np.arange(self.size)

    def momenta(self) -> np.ndarray:
        """FFT-ordered momentum samples conjugate to the grid."""
        return 2.0 * np.pi * np.fft.fftfreq(self.size, d=self.spacing)


@dataclass
class GridState:
    """Complex wavefunction samples on a grid, tagged with the time they refer to."""

    values: np.ndarray
    grid: SpatialGrid | BoxGrid
    time_tag: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.size,):
            raise ValueError("sample count does not match the grid")

    @property
    def spacing(self) -> float:
        return self.grid.spacing

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.spacing)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def sine_workspace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The buffers of a length-n DST-I: the odd extension, 2(n + 1) doubles,
    and its real FFT, n + 2 complex values.  ``sine_transform`` refills both
    on every call, so one workspace serves any number of transforms."""
    return np.zeros(2 * (n + 1)), np.empty(n + 2, dtype=np.complex128)


def sine_transform(part: np.ndarray, workspace, scale: float = 1.0, out=None) -> np.ndarray:
    """``scale`` times the unnormalized DST-I of the real vector ``part``,
    zero-padded to the length n of ``workspace``, written to ``out`` or to a
    new array.

    x is odd-extended to [0, x, 0, -x reversed] and its DST-I is -Im of the
    extension's real FFT at 1..n.  That is the route, length-2(n+1) plan and
    all, of pocketfft's own DST-I, so at scale 1 the bits match it, zero signs
    included.  A complex vector goes through as its real and imaginary parts:
    a complex DST rounds differently and can turn zero parts into -0.
    """
    extension, spectrum = workspace
    n, k = spectrum.size - 2, part.size
    if k > n:
        raise ValueError(f"a DST-I of length {n} cannot take {k} values")
    extension[1 : k + 1] = part
    extension[k + 1 : n + 2] = 0.0
    extension[n + 2 : 2 * n + 2 - k] = -0.0
    np.negative(part[::-1], out=extension[2 * n + 2 - k :])
    np.fft.rfft(extension, out=spectrum)
    return np.multiply(spectrum.imag[1 : n + 1], -scale, out=out)


def _sine_workspace_ii(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The buffers of a length-m DST-II, m even: the reordered vector, m
    doubles, its real FFT, m/2 + 1 complex values, and the twiddles
    exp(-i pi k / 2m), k = 0..m/2.  ``_sine_transform_ii`` refills the first
    two on every call."""
    twiddles = np.exp(np.arange(m // 2 + 1) * (-0.5j * np.pi / m))
    return np.empty(m), np.empty(m // 2 + 1, dtype=np.complex128), twiddles


def _sine_transform_ii(part: np.ndarray, workspace, scale: float, out: np.ndarray) -> np.ndarray:
    """``scale`` times the DST-II of the real vector ``part``, zero-padded to
    the length m of ``workspace``: X_k = sum_j x_j sin(pi (2j + 1)(k + 1) / 2m),
    k = 0..m-1, written to ``out``.

    Makhoul's route (IEEE TASSP 28(1), 1980): X_k is the DCT-II of
    (-1)^j x_j at m-1-k, and that DCT-II is one m-point real FFT V of the
    even entries followed by the odd ones reversed, turned by the twiddles:
    with Z_k = exp(-i pi k / 2m) V_k, X_{m-1-k} = Re Z_k and X_{k-1} = -Im Z_k.
    """
    reordered, spectrum, twiddles = workspace
    m, half = reordered.size, reordered.size // 2
    even, odd = part[0::2], part[1::2]
    reordered[: even.size] = even
    reordered[even.size : m - odd.size] = 0.0
    np.negative(odd[::-1], out=reordered[m - odd.size :])
    np.fft.rfft(reordered, out=spectrum)
    spectrum *= twiddles
    np.multiply(spectrum.imag[1:], -scale, out=out[:half])
    np.multiply(spectrum.real[half - 1 :: -1], scale, out=out[half:])
    return out


_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's constant for float64


def _split(m):
    """Veltkamp's split of m into a 26-bit head and the exact remainder."""
    c = _SPLITTER * m
    head = c - (c - m)
    return head, m - head


def _mantissa_product(ma, mb):
    """``_two_product`` for |ma|, |mb| < 1, where the split cannot overflow."""
    (ah, al), (bh, bl) = _split(ma), _split(mb)
    p = ma * mb
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _two_product(a, b):
    """(p, e) with p + e = a * b exactly (Dekker 1971).

    Veltkamp's split multiplies by 2^27 + 1, which overflows above about
    1.3e300, so it acts on the mantissas in [0.5, 1) and the exponents are
    restored by exact powers of two.  The error term of a product in the
    subnormal range loses its last bits.
    """
    ma, ea = np.frexp(a)
    mb, eb = np.frexp(b)
    p, e = _mantissa_product(ma, mb)
    scale = ea + eb
    return np.ldexp(p, scale), np.ldexp(e, scale)


def all_finite(values) -> bool:
    """Whether every entry is finite: NaN propagates through both extremes and
    an infinity is one of them, so two reductions decide it, with no mask."""
    values = np.asarray(values)
    return not values.size or bool(np.isfinite(values.min()) and np.isfinite(values.max()))


def require_finite(path, name: str, values) -> None:
    """Refuse, before anything is written, to put non-finite ``values`` in ``path``."""
    if not all_finite(values):
        raise SimulationError(f"refusing to write non-finite {name} to {path}")


# -- exact .17g over arrays ---------------------------------------------------
#
# A float v != 0 prints as its 17 significant digits D = round-half-even(|v| *
# 10^(16 - X)), an integer in [10^16, 10^17), where X is its decimal exponent,
# laid out as C's %g: fixed notation for -4 <= X < 17, otherwise d.ddd with an
# exponent of at least two digits, and trailing fraction zeros dropped.  Every
# cell goes into a fixed-width slot of bytes, NUL wherever it has no character,
# so a block of lines is a byte matrix that drops its NULs on the way out.

_POWERS = range(-293, 342)  # 10^k for k = 16 - X, X in [-324, 308], one to spare
_NEAR_TIE = 2.0**-30  # the scaled product is good to about 2^-47 of a unit
_ZERO = 1000  # the exponent class of 0 and -0
_FLOAT_SLOT = 28  # sign; body of up to 22 bytes; exponent of up to 5
_GROUP = 10**4  # decimal digits come four at a time from a table
_BLOCK_BYTES = 1 << 20  # line text formatted per write: bounds the temporaries


@functools.cache
def _decimal_tables():
    """The formatter's read-only tables, built on first use from exact integers.

    For each k in ``_POWERS``, 10^k = (head + tail) * 2^exponent with head in
    [0.5, 1) correctly rounded and tail the rounded remainder, about 2^-107 of
    10^k.  ``groups`` holds the 4-byte ASCII groups 0000..9999 twice over:
    as they are, and with trailing zeros as NUL.
    """
    heads, tails, exponents = [], [], []
    for k in _POWERS:
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        e = num.bit_length() - den.bit_length() + 1
        if e > 0:
            den <<= e
        else:
            num <<= -e
        if 2 * num < den:  # num / den in [0.25, 1): take it to [0.5, 1)
            num <<= 1
            e -= 1
        head = num / den
        h_num, h_den = head.as_integer_ratio()
        heads.append(head)
        tails.append((num * h_den - h_num * den) / (den * h_den))
        exponents.append(e)
    digits = np.arange(_GROUP)[:, None] // np.array([1000, 100, 10, 1]) % 10
    plain = (digits + ord("0")).astype(np.uint8)
    zeros = digits == 0
    trailing = np.where(np.logical_and.accumulate(zeros[:, ::-1], axis=1)[:, ::-1], 0, plain)
    groups = np.concatenate([plain, trailing])
    groups = groups.view("<u4")[:, 0]
    tables = np.array(heads), np.array(tails), np.array(exponents), groups
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a, x):
    """|a| * 10^(16 - x) as an unevaluated sum hi + lo; hi is a whole number
    when the product is at least 2^53."""
    heads, tails, exponents, _ = _decimal_tables()
    k = 16 - _POWERS.start - x
    mantissa, e = np.frexp(a)
    p, err = _mantissa_product(mantissa, heads[k])
    scale = e + exponents[k]
    return np.ldexp(p, scale), np.ldexp(err + mantissa * tails[k], scale)


def _significands(a):
    """(D, X, near_tie) for positive finite ``a``: the 17 significant digits
    as an int64 in [10^16, 10^17), the decimal exponent, and where the scaled
    value lies too close to a half for its rounding to be trusted."""
    # log10 is within one of the exponent; the scaled value is at least 1.6e-3
    # from 10^16 and 10^17 unless it equals one, so the pair's sign decides
    x = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, x)
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    fix = np.flatnonzero(below | above)
    if fix.size:
        x[fix] += np.where(above[fix], 1, -1)
        hi[fix], lo[fix] = _scaled(a[fix], x[fix])
    whole = np.floor(lo)
    fraction = lo - whole
    digits = hi.astype(np.int64) + whole.astype(np.int64) + (fraction > 0.5)
    carry = digits == 10**17  # rounded up to the next power of ten
    digits[carry] = 10**16
    x[carry] += 1
    return digits, x, np.abs(fraction - 0.5) < _NEAR_TIE


def _rows(matrix):
    """The rows of a 2-D uint8 array whose rows are contiguous, as void items:
    numpy copies and gathers those as one item each."""
    return matrix.view(f"V{matrix.shape[1]}")[:, 0]


def _float_slots(values, out) -> None:
    """Write each finite float64 v, exactly as Python's ``.17g`` format
    writes it, into its row of ``out``, _FLOAT_SLOT bytes wide, NUL-padded.

    The cells are sorted by exponent, stably, so each layout is applied once
    to a run of cells.  A cell within ``_NEAR_TIE`` of a rounding half is
    written by Python's ``%``.
    """
    groups = _decimal_tables()[3]
    n = values.size
    a = np.abs(values)
    zero = a == 0
    a[zero] = 1.0
    digits, exponent, near_tie = _significands(a)
    exponent[zero] = _ZERO
    order = np.argsort(exponent.astype(np.int16), kind="stable")
    exponent, digits = exponent[order], digits[order]
    # D = d0 then four groups of four digits
    high = digits // 10**8
    low = digits - high * 10**8
    first = high // 10**8
    high -= first * 10**8
    index = np.empty((4, n), np.intp)
    np.floor_divide(high, _GROUP, out=index[0])
    np.subtract(high, index[0] * _GROUP, out=index[1])
    np.floor_divide(low, _GROUP, out=index[2])
    np.subtract(low, index[2] * _GROUP, out=index[3])
    # a group followed by zero groups only takes the copy whose trailing zeros are NUL
    tail = np.ones(n, dtype=bool)
    for group in index[::-1]:
        zeros = group == 0
        group += _GROUP * tail
        tail &= zeros
    fraction = np.take(groups, index.T).view(np.uint8)  # the 16 digits after d0
    first = (first + 0x30).astype(np.uint8)
    body = np.zeros((n, _FLOAT_SLOT - 1), dtype=np.uint8)
    bounds = (np.flatnonzero(np.diff(exponent)) + 1).tolist()
    for start, stop in zip([0, *bounds], [*bounds, n]):
        x = int(exponent[start])
        b, f = body[start:stop], fraction[start:stop]
        if x == _ZERO:
            b[:, 0] = ord("0")
        elif -4 <= x < 0:
            b[:, : 1 - x] = np.frombuffer(b"0.000"[: 1 - x], np.uint8)
            b[:, 1 - x] = first[start:stop]
            _rows(b[:, 2 - x : 18 - x])[:] = _rows(f)
        else:
            point = x if 0 <= x < 17 else 0  # digits before the point, after d0
            b[:, 0] = first[start:stop]
            # zeros before the point are digits, whatever the trailing-NUL copy says
            np.bitwise_or(f[:, :point], ord("0"), out=b[:, 1 : point + 1])
            if point < 16:
                b[:, point + 1] = (f[:, point] != 0) * np.uint8(ord("."))
                _rows(b[:, point + 2 : 18])[:] = _rows(f[:, point:])
            if not 0 <= x < 17:
                suffix = b"e%+03d" % x
                b[:, 18 : 18 + len(suffix)] = np.frombuffer(suffix, np.uint8)
    _rows(out[:, 1:])[order] = _rows(body)
    out[:, 0] = np.signbit(values) * np.uint8(ord("-"))
    for i in np.flatnonzero(near_tie).tolist():
        text = b"%.17g" % values[i]
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, np.uint8)


def _slots(values):
    """All of a column's cells as the rows of a NUL-padded byte matrix:
    floats a block at a time, any other cell as its str, UTF-8 encoded."""
    values = values.reshape(-1)
    if values.dtype.kind != "f":
        text = np.array([str(v).encode() for v in values.tolist()], dtype=bytes)
        return text.view(np.uint8).reshape(text.size, text.itemsize)
    out = np.empty((values.size, _FLOAT_SLOT), dtype=np.uint8)
    block = _BLOCK_BYTES // _FLOAT_SLOT
    for start in range(0, values.size, block):
        part = values[start : start + block].astype(np.float64, copy=False)
        _float_slots(part, out[start : start + block])
    return out


def write_table(path, header, columns) -> None:
    """CSV: a header line, then one line per element of the columns broadcast
    against one another, in C order.  Floats are formatted in bulk, exactly
    as Python's ``.17g`` format writes them; every other cell, integers
    included, is written as its str.

    Float columns must be finite, which is checked before the file is opened.
    A float column of the full broadcast size is formatted a block of lines
    at a time, straight into the block's byte matrix.  Any other column is
    formatted once at its own size and its slots are repeated by index, so a
    carpet can pass t[:, None], x[None, :] and its density.
    """
    columns = [np.atleast_1d(np.asarray(column)) for column in columns]
    for name, column in zip(header, columns):
        if column.dtype.kind == "f":
            require_finite(path, name, column)
    shape = np.broadcast_shapes(*(column.shape for column in columns))
    size = math.prod(shape)
    fields, width = [], 0
    for column in columns:
        own = (1,) * (len(shape) - column.ndim) + column.shape
        if column.size == size and column.dtype.kind == "f":
            values, slots, span = column.reshape(-1), None, _FLOAT_SLOT
        else:
            values, slots = None, _slots(column)
            span = slots.shape[1]
        fields.append((values, slots, own, width, span))
        width += span + 1
    block = max(1, min(size, _BLOCK_BYTES // width))
    lines = np.zeros((block, width), dtype=np.uint8)
    lines[:, [offset + span for *_, offset, span in fields]] = ord(",")
    lines[:, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, size, block):
            stop = min(start + block, size)
            text = lines[: stop - start]
            where = None
            for values, slots, own, offset, span in fields:
                target = text[:, offset : offset + span]
                if slots is None:
                    _float_slots(values[start:stop].astype(np.float64, copy=False), target)
                    continue
                if where is None:
                    where = np.unravel_index(np.arange(start, stop), shape)
                index = np.ravel_multi_index([w if n > 1 else 0 for w, n in zip(where, own)], own)
                _rows(target)[:] = np.take(_rows(slots), index)
            fh.write(text[text != 0])
