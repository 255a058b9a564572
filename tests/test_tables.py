"""The one CSV table writer: bytes against the per-cell ``.17g`` formula,
refusal of non-finite output, and the writers built on it."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relwell.grids as grids
from relwell import CarpetGrid, CoefficientVector, SimulationError, WellModel
from relwell.grids import require_finite, write_table
from relwell.observables import (
    AutocorrelationSeries,
    write_autocorrelation_csv,
    write_carpet_binary,
    write_carpet_csv,
    write_carpet_pgm,
)
from relwell.packets import write_coefficients_csv

EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308]

SPACING_LABELS = ["non-relativistic", "intermediate", "ultra-relativistic"]

rows = st.lists(
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.one_of(
            st.sampled_from(SPACING_LABELS),
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", max_size=20),
        ),
    ),
    max_size=40,
)


def per_cell_csv(header, rows):
    """The formula the hand-written writers used: one f-string per line."""
    lines = [",".join(header)] + [f"{f:.17g},{i},{s}" for f, i, s in rows]
    return "\n".join(lines) + "\n"


class TestWriteTable:
    @settings(deadline=None)
    @given(rows=rows, block_bytes=st.integers(min_value=1, max_value=1000))
    def test_bytes_match_per_cell_formula(self, tmp_path_factory, rows, block_bytes):
        # blocks of one to about twenty lines, so lines cross block boundaries
        rows = [(v, i, f"edge{i}") for i, v in enumerate(EDGE_FLOATS)] + rows
        floats, ints, text = zip(*rows)
        path = tmp_path_factory.mktemp("table") / "t.csv"
        columns = (np.array(floats), np.array(ints, dtype=np.int64), list(text))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grids, "_BLOCK_BYTES", block_bytes)
            write_table(path, ("f", "i", "s"), columns)
        assert path.read_bytes() == per_cell_csv(("f", "i", "s"), rows).encode()

    def test_rows_across_block_boundaries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(grids, "_BLOCK_BYTES", 4096)  # 80 lines a block
        rng = np.random.default_rng(7)
        values = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
        path = tmp_path / "t.csv"
        write_table(path, ("n", "v"), (np.arange(values.size), values))
        expected = "n,v\n" + "".join(f"{n},{v:.17g}\n" for n, v in enumerate(values))
        assert path.read_text() == expected

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_float_column_refused_without_file(self, tmp_path, bad):
        path = tmp_path / "t.csv"
        with pytest.raises(SimulationError, match="non-finite v2") as info:
            write_table(path, ("n", "v1", "v2"), ([1, 2], [0.5, 1.5], [2.0, bad]))
        assert isinstance(info.value, SimulationError)
        assert str(path) in str(info.value) and "\n" not in str(info.value)
        assert not path.exists()

    def test_empty_columns_write_the_header(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("n", "v"), (np.arange(0), np.zeros(0)))
        assert path.read_text() == "n,v\n"

    def test_finiteness_check_allocates_no_mask(self):
        # min and max carry NaN and the infinities, with no boolean array
        values = np.random.default_rng(8).random((64, 1 << 16))
        tracemalloc.start()
        try:
            require_finite("t.csv", "v", values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * values.nbytes


def one_column_csv(values):
    return "v\n" + "".join(f"{v:.17g}\n" for v in values.tolist())


def written(tmp_path_factory, header, columns):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    write_table(path, header, columns)
    return path.read_text()


# 17 significant digits round up to the next power of ten: each double lies
# below 10^k and prints as it
CARRIES = [1e-305, 1e-243, 1e-176, 1e-175, 1e-174, 1e-79, 1e-78, 1e-73, 1e-70, 1e-14,
           1e98, 1e129, 1e153, 1e220]
# the last values of one notation and the first of the other
SWITCHES = [1e-5, 9.9999999999999991e-05, 1e-4, 1e16, 1e17]


class TestFloatFormat:
    """Exactly Python's per-cell ``.17g``, whatever the double."""

    @settings(deadline=None)
    @given(bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=60))
    def test_random_bit_patterns(self, tmp_path_factory, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assert written(tmp_path_factory, ("v",), (values,)) == one_column_csv(values)

    @settings(deadline=None)
    @given(
        fractions=st.lists(st.integers(min_value=0, max_value=2**52 - 1), max_size=60),
        signs=st.lists(st.booleans(), min_size=60, max_size=60),
    )
    def test_subnormals_and_signed_zeros(self, tmp_path_factory, fractions, signs):
        # a zero exponent field: subnormal, or zero when the fraction is 0
        bits = [f | (s << 63) for f, s in zip(fractions + [0, 0], signs + [True, False])]
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert written(tmp_path_factory, ("v",), (values,)) == one_column_csv(values)

    def test_notation_switches(self, tmp_path_factory):
        edges = np.array(SWITCHES)
        values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        values = np.concatenate([values, -values])
        assert written(tmp_path_factory, ("v",), (values,)) == one_column_csv(values)

    def test_rounding_that_carries_to_the_next_power(self, tmp_path_factory):
        for v in CARRIES:
            k = round(np.log10(v))
            assert Fraction(v) < Fraction(10) ** k and f"{v:.17g}" == f"{10.0**k:g}"
        values = np.array(CARRIES)
        assert written(tmp_path_factory, ("v",), (values,)) == one_column_csv(values)

    def test_every_power_of_ten_and_its_neighbours(self, tmp_path_factory):
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        values = values[np.isfinite(values)]
        assert written(tmp_path_factory, ("v",), (values,)) == one_column_csv(values)

    def test_exact_tie_falls_back_to_python(self, tmp_path_factory):
        # ...130.75 is a half at the 17th digit; half-to-even makes it ...130.8
        v = -2091755748717130.75
        assert grids._significands(np.array([-v]))[2].all()
        assert written(tmp_path_factory, ("v",), (np.array([v]),)) == "v\n-2091755748717130.8\n"


class TestIntegerColumns:
    def test_64_bit_extremes(self, tmp_path_factory):
        signed = np.array([-(2**63), -(2**63) + 1, -1, 0, 1, 9999, 10**4, 10**16, 2**63 - 1])
        unsigned = np.array([0, 1, 10**19, 2**63, 2**64 - 1], dtype=np.uint64)
        narrow = [
            np.array([-128, -127, -1, 0, 1, 10, 127], dtype=np.int8),
            np.array([-(2**31), -1, 0, 9999, 10**4, 2**31 - 1], dtype=np.int32),
            np.array([0, 1, 10, 255], dtype=np.uint8),
            np.array([0, 1, 10**4, 2**31, 2**32 - 1], dtype=np.uint32),
        ]
        for column in (signed, unsigned, *narrow):
            expected = "n\n" + "".join(f"{n}\n" for n in column.tolist())
            assert written(tmp_path_factory, ("n",), (column,)) == expected


def old_carpet_csv(grid):
    """The nested loop the carpet CSV used to be written with."""
    lines = ["t,x,density\n"]
    for t, row in zip(grid.times, grid.density):
        for x, d in zip(grid.positions, row):
            lines.append(f"{t:.17g},{x:.17g},{d:.17g}\n")
    return "".join(lines)


class TestCarpetWriters:
    def small_carpet(self, cols=5):
        density = np.linspace(0.0, 2.0, 3 * cols).reshape(3, cols) ** 3
        density[0, :4] = [-0.0, 5e-324, 2.2250738585072014e-308, 1e-310]
        return CarpetGrid(density, [0.0, 0.125, 1e5 / 3.0], np.linspace(-0.0, np.pi, cols))

    @pytest.mark.parametrize("cols", [5, 2100])
    def test_carpet_csv_matches_nested_loop(self, tmp_path, monkeypatch, cols):
        monkeypatch.setattr(grids, "_BLOCK_BYTES", 50_000)  # blocks that split rows
        grid = self.small_carpet(cols)
        path = tmp_path / "c.csv"
        write_carpet_csv(grid, path)
        assert path.read_text() == old_carpet_csv(grid)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("zero", [False, True])
    def test_carpet_pgm_pixels(self, tmp_path, order, zero):
        # scaled and rounded in place, the pixels are those of
        # round(density / max * 65535), written in C order
        density = np.zeros((3, 7)) if zero else self.small_carpet(7).density
        grid = CarpetGrid(np.asarray(density, order=order), [0.0, 1.0, 2.0], np.arange(7.0))
        path = tmp_path / "c.pgm"
        write_carpet_pgm(grid, path)
        peak = density.max()
        scaled = np.zeros_like(density) if peak <= 0 else density / peak
        want = np.round(scaled * 65535.0).astype(">u2").tobytes()
        assert path.read_bytes() == b"P5\n7 3\n65535\n" + want

    @staticmethod
    def traced_peak(writer, grid, path):
        tracemalloc.start()
        try:
            writer(grid, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_carpet_pgm_workspace(self, tmp_path):
        # the 16-bit pixels and one float row
        rng = np.random.default_rng(5)
        grid = CarpetGrid(rng.random((64, 1 << 16)), np.arange(64.0), np.arange(65536.0))
        assert self.traced_peak(write_carpet_pgm, grid, tmp_path / "c.pgm") <= 0.5 * grid.density.nbytes

    def test_carpet_csv_workspace(self, tmp_path):
        # block temporaries, not the 54 MB of text the carpet becomes
        rng = np.random.default_rng(9)
        density = rng.random((512, 2049)) * 10.0 ** rng.integers(-20, 3, (512, 2049))
        grid = CarpetGrid(density, np.linspace(0.0, 3.0, 512), np.linspace(0.0, 2.0, 2049))
        path = tmp_path / "c.csv"
        bound = 4 * grids._BLOCK_BYTES
        assert self.traced_peak(write_carpet_csv, grid, path) <= bound
        assert path.stat().st_size > 5 * bound

    def test_carpet_binary_writes_the_density_uncopied(self, tmp_path):
        rng = np.random.default_rng(6)
        grid = CarpetGrid(rng.random((64, 1 << 16)), np.arange(64.0), np.arange(65536.0))
        path = tmp_path / "c.bin"
        assert self.traced_peak(write_carpet_binary, grid, path) <= 0.2 * grid.density.nbytes
        assert path.read_bytes()[-grid.density.nbytes :] == grid.density.astype("<f8").tobytes()

    @pytest.mark.parametrize("writer", [write_carpet_csv, write_carpet_binary, write_carpet_pgm])
    def test_nan_density_refused_without_file(self, tmp_path, writer):
        grid = self.small_carpet()
        grid.density[1, 2] = np.nan
        path = tmp_path / "c.out"
        with pytest.raises(SimulationError, match="density"):
            writer(grid, path)
        assert not path.exists()


class TestModulusColumns:
    """Complex records: |a| must round as the scalar abs(a) did, which
    numpy's vectorized abs does not in about a third of the cells."""

    def record(self):
        rng = np.random.default_rng(4242)
        return rng.standard_normal(4096) + 1j * rng.standard_normal(4096)

    def test_autocorrelation_abs_column(self, tmp_path):
        values = self.record()
        series = AutocorrelationSeries(np.arange(values.size) * 0.5, values, True)
        path = tmp_path / "a.csv"
        write_autocorrelation_csv(series, path)
        cells = [line.split(",")[3] for line in path.read_text().splitlines()[1:]]
        assert cells == [f"{abs(a):.17g}" for a in values]

    def test_coefficient_weight_column(self, tmp_path):
        values = self.record()
        path = tmp_path / "c.csv"
        write_coefficients_csv(CoefficientVector(values, WellModel()), path)
        expected = ["n,re_a,im_a,weight"] + [
            f"{i},{a.real:.17g},{a.imag:.17g},{abs(a) ** 2:.17g}"
            for i, a in enumerate(values, start=1)
        ]
        assert path.read_text().splitlines() == expected
