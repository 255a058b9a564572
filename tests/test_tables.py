"""The one CSV table writer: bytes against the per-cell ``.17g`` formula,
refusal of non-finite output, and the writers built on it."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relwell import CarpetGrid, CoefficientVector, SimulationError, WellModel
from relwell.grids import write_table
from relwell.observables import (
    AutocorrelationSeries,
    write_autocorrelation_csv,
    write_carpet_binary,
    write_carpet_csv,
    write_carpet_pgm,
)
from relwell.packets import write_coefficients_csv

EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308]

rows = st.lists(
    st.tuples(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz-", max_size=20),
    ),
    max_size=40,
)


def per_cell_csv(header, rows):
    """The formula the hand-written writers used: one f-string per line."""
    lines = [",".join(header)] + [f"{f:.17g},{i},{s}" for f, i, s in rows]
    return "\n".join(lines) + "\n"


class TestWriteTable:
    @settings(deadline=None)
    @given(rows=rows)
    def test_bytes_match_per_cell_formula(self, tmp_path_factory, rows):
        rows = [(v, i, f"edge{i}") for i, v in enumerate(EDGE_FLOATS)] + rows
        floats, ints, text = zip(*rows)
        path = tmp_path_factory.mktemp("table") / "t.csv"
        columns = (np.array(floats), np.array(ints, dtype=np.int64), list(text))
        write_table(path, ("f", "i", "s"), columns)
        assert path.read_bytes() == per_cell_csv(("f", "i", "s"), rows).encode()

    def test_rows_across_block_boundaries(self, tmp_path):
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
    def test_carpet_csv_matches_nested_loop(self, tmp_path, cols):
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

    def test_carpet_pgm_workspace(self, tmp_path):
        # one float copy of the density and its 16-bit pixels
        rng = np.random.default_rng(5)
        grid = CarpetGrid(rng.random((64, 1 << 16)), np.arange(64.0), np.arange(65536.0))
        path = tmp_path / "c.pgm"
        tracemalloc.start()
        try:
            write_carpet_pgm(grid, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * grid.density.nbytes

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
