"""Momentum-space diagonalization and the integral-equation residual."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from relwell import (
    MomentumGrid,
    SimulationError,
    WellModel,
    build_hamiltonian,
    default_grid,
    energy,
    solve,
)
from relwell.momentum import write_spectrum_csv
from oracles import momentum_eigenpairs
from references import (
    complex_hamiltonian,
    convolve_valid,
    eigenfunction_momentum,
    hard_wall_kernel,
    residual_integral_equation,
    well_window_transform,
)


def aligned_l2(v, w, dp):
    """L2 distance of two discretized states up to a global phase."""
    overlap = np.vdot(v, w)
    phase = overlap / abs(overlap) if overlap != 0 else 1.0
    return math.sqrt(float(np.sum(np.abs(w - phase * v) ** 2) * dp))


def conjugation(grid, model):
    """Diagonal of D = diag(exp(-i p L / 2)), which makes H real."""
    return np.exp(-0.5j * grid.nodes * model.well_width)


def block_levels(grid, model, wall_height):
    """Every level of the even and of the odd block A +- B of H'."""
    h = build_hamiltonian(grid, model, wall_height)
    half = grid.count // 2
    upper, mirrored = h[:half, :half], h[:half, half:][:, ::-1]
    return np.linalg.eigvalsh(upper + mirrored), np.linalg.eigvalsh(upper - mirrored)


class TestWellWindowTransform:
    def test_zero_momentum_limit(self):
        L = 3.7
        assert well_window_transform(0.0, L) == pytest.approx(L / math.sqrt(2 * math.pi), rel=1e-12)
        tiny = well_window_transform(1e-14, L)
        assert tiny == pytest.approx(L / math.sqrt(2 * math.pi), rel=1e-9)

    def test_conjugate_symmetry(self):
        q = np.linspace(0.05, 30.0, 200)
        plus = well_window_transform(q, 2.0)
        minus = well_window_transform(-q, 2.0)
        assert np.max(np.abs(minus - np.conj(plus))) < 1e-14


class TestBuildHamiltonian:
    def test_diagonal_entries(self):
        model = WellModel(well_width=5.0)
        grid = MomentumGrid(10.0, 64)
        v0 = 40.0
        h = build_hamiltonian(grid, model, v0)
        p = grid.nodes
        expected = (
            np.hypot(1.0, p)
            + v0
            - v0 * grid.spacing * model.well_width / (2 * math.pi)
        )
        assert np.max(np.abs(np.diag(h) - expected)) < 1e-12

    def test_zero_wall_height(self):
        # no wall: no diagonal shift and no window coupling, only the dispersion
        model = WellModel(well_width=2.0)
        grid = MomentumGrid(5.0, 64)
        h = build_hamiltonian(grid, model, 0.0)
        assert np.all(h - np.diag(np.diag(h)) == 0.0)
        dispersion = np.hypot(1.0, grid.nodes)
        assert np.array_equal(np.diag(h), dispersion)

    def test_hermitian(self):
        model = WellModel(well_width=5.0)
        h = build_hamiltonian(MomentumGrid(10.0, 128), model, 100.0)
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_empty_well_limit(self):
        # L -> 0: the off-diagonal coupling vanishes and the spectrum is the
        # free dispersion shifted by V0
        model = WellModel(well_width=1e-12)
        grid = MomentumGrid(10.0, 64)
        v0 = 25.0
        h = build_hamiltonian(grid, model, v0)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) < 1e-10
        free = np.sort(np.hypot(1.0, grid.nodes) + v0)
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(h)) - free)) < 1e-9


class TestSolve:
    def test_levels_approach_closed_form(self):
        # wide box: the finite-wall levels land on the hard-wall spectrum
        model = WellModel(well_width=120.0)
        spectrum = solve(MomentumGrid(6.0, 1024), model, 1e3, k_levels=8)
        exact = energy(model, np.arange(1, 9))
        rel = np.abs(spectrum - exact) / exact
        assert rel.max() < 1e-3

    def test_doubling_wall_height_improves(self):
        model = WellModel(well_width=120.0)
        grid = MomentumGrid(6.0, 1024)
        exact = energy(model, np.arange(1, 9))
        first = np.abs(solve(grid, model, 1e3, k_levels=8) - exact)
        second = np.abs(solve(grid, model, 2e3, k_levels=8) - exact)
        assert np.all(second < first)

    def test_compton_scale_box_softness_documented(self):
        # at L comparable to the Compton wavelength the finite wall stays soft
        # at any feasible V0: levels sit percent-level BELOW the hard-wall
        # formula (confirmed independently by split-operator spectroscopy)
        model = WellModel(well_width=10.0)
        spectrum = solve(MomentumGrid(20.0, 1024), model, 1e3, k_levels=10)
        exact = energy(model, np.arange(1, 11))
        shifts = (spectrum - exact) / exact
        assert np.all(shifts < 0)
        assert 1e-3 < np.max(np.abs(shifts)) < 3e-2

    def test_bound_levels_below_wall_height(self):
        model = WellModel(well_width=10.0)
        v0 = 50.0
        spectrum = solve(MomentumGrid(20.0, 512), model, v0, k_levels=6)
        assert np.all(spectrum < v0)

    def test_orthonormal_under_dp_weight(self):
        model = WellModel(well_width=10.0)
        grid = MomentumGrid(20.0, 512)
        _, vectors = momentum_eigenpairs(grid, model, 1e3, k_levels=6)
        gram = vectors.conj().T @ vectors * grid.spacing
        assert np.max(np.abs(gram - np.eye(6))) < 1e-8

    def test_rayleigh_quotient_consistency(self):
        model = WellModel(well_width=10.0)
        grid = MomentumGrid(20.0, 512)
        levels, vectors = momentum_eigenpairs(grid, model, 1e3, k_levels=4)
        h = complex_hamiltonian(grid.nodes, grid.spacing, model.well_width, 1e3)
        for j in range(4):
            v = vectors[:, j] * math.sqrt(grid.spacing)
            quotient = float(np.real(v.conj() @ h @ v))
            assert abs(quotient - levels[j]) < 1e-10 * max(1.0, abs(levels[j]))

    def test_ground_state_matches_analytic_modulus(self):
        model = WellModel(well_width=120.0)
        grid = MomentumGrid(6.0, 2048)
        _, vectors = momentum_eigenpairs(grid, model, 1e3, k_levels=1)
        phi = eigenfunction_momentum(model.well_width, 1, grid.nodes)
        phi /= math.sqrt(float(np.sum(np.abs(phi) ** 2) * grid.spacing))
        err = math.sqrt(float(np.sum((np.abs(vectors[:, 0]) - np.abs(phi)) ** 2) * grid.spacing))
        assert err < 1e-2

    def test_kinetic_form_independence(self):
        # towards the hard-wall limit the eigenvectors forget the dispersion
        model = WellModel(well_width=120.0)
        grid = MomentumGrid(6.0, 2048)
        relativistic = momentum_eigenpairs(grid, model, 1e4, k_levels=3)
        galilean = momentum_eigenpairs(grid, model, 1e4, k_levels=3, galilean=True)
        for n in (1, 2, 3):
            err = aligned_l2(relativistic[1][:, n - 1], galilean[1][:, n - 1], grid.spacing)
            assert err < 1e-2
        assert np.max(np.abs(relativistic[0] - galilean[0])) > 1e-6

    def test_level_count_grows_with_width(self):
        v0 = 8.0
        counts = []
        for L in (5.0, 10.0, 20.0):
            model = WellModel(well_width=L)
            spectrum = solve(MomentumGrid(20.0, 512), model, v0, k_levels=80)
            counts.append(int(np.sum(spectrum < v0)))
        assert counts[0] < counts[1] < counts[2]

    def test_nonrelativistic_finite_well_oracle(self):
        # independent validation of the discretized integral equation against
        # the transcendental bound-state equations of the Schroedinger well
        L, v0 = 10.0, 50.0

        def even_eq(e):
            k = math.sqrt(2 * e)
            return k * math.tan(k * L / 2) - math.sqrt(2 * (v0 - e))

        def odd_eq(e):
            k = math.sqrt(2 * e)
            return k / math.tan(k * L / 2) + math.sqrt(2 * (v0 - e))

        roots = []
        scan = np.linspace(1e-9, v0 - 1e-9, 200_000)
        for eq in (even_eq, odd_eq):
            vals = np.array([eq(e) for e in scan])
            sign_change = np.where(np.diff(np.sign(vals)) != 0)[0]
            for i in sign_change:
                root = brentq(eq, scan[i], scan[i + 1], xtol=1e-13)
                if abs(eq(root)) < 1e-6:
                    roots.append(root)
        exact = np.sort(roots)[:6]

        model = WellModel(well_width=L)
        levels, _ = momentum_eigenpairs(MomentumGrid(20.0, 2048), model, v0, k_levels=6, galilean=True)
        numeric = levels - 1.0  # drop the rest energy
        assert np.max(np.abs(numeric - exact) / exact) < 1e-3

    def test_lapack_failure_raises_eigensolver_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(SimulationError, match="did not converge"):
            solve(MomentumGrid(5.0, 16), WellModel(), 1.0, k_levels=2)

    def test_k_levels_validated(self):
        with pytest.raises(ValueError):
            solve(MomentumGrid(5.0, 16), WellModel(), 1.0, k_levels=17)

    def test_default_grid_covers_target(self):
        model = WellModel(well_width=3.0)
        grid = default_grid(model, n_target=12, count=64)
        assert grid.p_max >= 4.0 * 12 * math.pi / model.well_width
        assert grid.count == 64


class TestComplexOracle:
    """The real parity-split route against the complex assembly it replaced."""

    MODEL = WellModel(well_width=10.0)
    GRID = MomentumGrid(20.0, 512)
    V0 = 1e3
    K = 24

    def reference(self):
        import scipy.linalg

        h = complex_hamiltonian(self.GRID.nodes, self.GRID.spacing, self.MODEL.well_width, self.V0)
        return h, scipy.linalg.eigh(h, subset_by_index=(0, self.K - 1))

    def test_hamiltonian_is_phase_conjugate(self):
        h, _ = self.reference()
        d = conjugation(self.GRID, self.MODEL)
        conjugated = d.conj()[:, None] * h * d[None, :]
        real = build_hamiltonian(self.GRID, self.MODEL, self.V0)
        assert real.dtype == np.float64
        assert np.max(np.abs(real - conjugated)) <= 1e-13 * np.max(np.abs(h))

    def test_levels_match_complex_eigh(self):
        _, (levels, _) = self.reference()
        spectrum = solve(self.GRID, self.MODEL, self.V0, k_levels=self.K)
        assert np.max(np.abs(spectrum - levels) / np.abs(levels)) <= 1e-10

    def test_vectors_match_complex_eigh(self):
        _, (_, vectors) = self.reference()
        _, split = momentum_eigenpairs(self.GRID, self.MODEL, self.V0, k_levels=self.K)
        overlaps = np.abs(np.sum(vectors.conj() * split, axis=0))
        overlaps *= math.sqrt(self.GRID.spacing)
        assert np.min(overlaps) >= 1.0 - 1e-12


class TestParityMerge:
    MODEL = WellModel(well_width=10.0)
    GRID = MomentumGrid(20.0, 128)
    V0 = 50.0

    def full_levels(self, grid, model, wall_height):
        return np.linalg.eigvalsh(build_hamiltonian(grid, model, wall_height))

    def test_single_level(self):
        spectrum = solve(self.GRID, self.MODEL, self.V0, k_levels=1)
        want = self.full_levels(self.GRID, self.MODEL, self.V0)[0]
        assert spectrum.shape == (1,)
        assert abs(spectrum[0] - want) <= 1e-12 * abs(want)

    def test_odd_level_count(self):
        # 7 levels take 4 from the even block and 3 from the odd one
        seven = solve(self.GRID, self.MODEL, self.V0, k_levels=7)
        eight = solve(self.GRID, self.MODEL, self.V0, k_levels=8)
        want = self.full_levels(self.GRID, self.MODEL, self.V0)[:7]
        assert np.max(np.abs(seven - want) / np.abs(want)) <= 1e-12
        assert np.max(np.abs(seven - eight[:7]) / np.abs(want)) <= 1e-12
        even, odd = block_levels(self.GRID, self.MODEL, self.V0)
        assert np.max(np.abs(seven[0::2] - even[:4]) / np.abs(even[:4])) <= 1e-12
        assert np.max(np.abs(seven[1::2] - odd[:3]) / np.abs(odd[:3])) <= 1e-12

    @pytest.mark.parametrize("count", [4, 16, 128])
    def test_every_level(self, count):
        # k = count takes every level of both blocks
        grid = MomentumGrid(20.0, count)
        spectrum = solve(grid, self.MODEL, self.V0, k_levels=count)
        want = self.full_levels(grid, self.MODEL, self.V0)
        assert np.max(np.abs(spectrum - want)) <= 1e-12 * np.max(np.abs(want))
        merged = np.sort(np.concatenate(block_levels(grid, self.MODEL, self.V0)))
        assert np.max(np.abs(spectrum - merged)) <= 1e-12 * np.max(np.abs(want))

    def test_blocks_cross(self):
        # above V0 the even and odd ladders no longer alternate: two
        # consecutive levels come from the same block
        model, grid, v0 = WellModel(well_width=5.0), MomentumGrid(10.0, 64), 3.0
        spectrum = solve(grid, model, v0, k_levels=64)
        even, odd = block_levels(grid, model, v0)
        signs = np.concatenate([np.ones(32), -np.ones(32)])[np.argsort(np.concatenate([even, odd]))]
        assert np.any(signs[1:] == signs[:-1])
        assert np.max(np.abs(spectrum[signs > 0] - even)) <= 1e-12 * np.max(even)
        assert np.max(np.abs(spectrum[signs < 0] - odd)) <= 1e-12 * np.max(odd)
        want = self.full_levels(grid, model, v0)
        assert np.max(np.abs(spectrum - want)) <= 1e-12 * np.max(want)

    def test_tied_levels_listed_twice(self):
        # without a wall H' is the even dispersion: both blocks hold the same
        # levels and the merge lists each one twice
        spectrum = solve(self.GRID, self.MODEL, 0.0, k_levels=9)
        even, odd = block_levels(self.GRID, self.MODEL, 0.0)
        assert np.array_equal(even, odd)
        assert np.array_equal(spectrum[0:8:2], spectrum[1:9:2])
        assert np.max(np.abs(spectrum[0::2] - even[:5]) / even[:5]) <= 1e-15


class TestLevelsOnly:
    """``solve``'s eigenvalue-only levels against the eigenpair route of
    ``oracles.momentum_eigenpairs``, whose levels the CLI wrote before."""

    MODEL = WellModel(well_width=10.0)

    @pytest.mark.parametrize("wall_height", [50.0, 1e3])
    @pytest.mark.parametrize("count, k_levels", [(4, 1), (16, 1), (16, 7), (128, 7), (128, 63)])
    def test_agree_while_blocks_are_solved_in_part(self, count, k_levels, wall_height):
        # below count / 2 the oracle solves part of each block and ``solve``
        # all of it; measured at most 7.1e-14 of the largest level
        grid = MomentumGrid(20.0, count)
        levels, _ = momentum_eigenpairs(grid, self.MODEL, wall_height, k_levels)
        got = solve(grid, self.MODEL, wall_height, k_levels)
        assert np.max(np.abs(got - levels)) <= 1e-12 * np.max(np.abs(levels))

    @pytest.mark.parametrize("count", [4, 16, 128])
    def test_tied_levels_bit_identical(self, count):
        # V0 = 0: diagonal blocks, so every level is tied, and both routes
        # return the diagonal itself however many levels are asked for
        grid = MomentumGrid(20.0, count)
        for k_levels in (1, count // 2 - 1, count // 2 + 1, count):
            levels, _ = momentum_eigenpairs(grid, self.MODEL, 0.0, k_levels)
            assert np.array_equal(solve(grid, self.MODEL, 0.0, k_levels), levels)

    @pytest.mark.parametrize("count", [4, 16, 128])
    def test_full_blocks_agree_to_rounding(self, count):
        # from count / 2 levels on, each block is solved in full, where LAPACK
        # finds levels alone by QL iteration and levels with vectors by MRRR:
        # both backward stable, equal to a few units in the last place
        grid = MomentumGrid(20.0, count)
        for k_levels in (count // 2, count - 1, count):
            levels, _ = momentum_eigenpairs(grid, self.MODEL, 50.0, k_levels)
            got = solve(grid, self.MODEL, 50.0, k_levels)
            assert np.max(np.abs(got - levels)) <= 64 * np.finfo(float).eps * np.max(np.abs(levels))


class TestResidual:
    L = math.pi
    GRID = MomentumGrid(100.0, 4096)

    def residual(self, n, grid):
        return residual_integral_equation(self.L, n, grid.nodes, grid.spacing)

    def kernel(self):
        return hard_wall_kernel(self.L, self.GRID.spacing, self.GRID.count)

    def test_analytic_eigenfunctions(self):
        for n in range(1, 6):
            assert self.residual(n, self.GRID) < 1e-3

    def test_non_solution_has_large_residual(self):
        # a smooth normalized packet that is not an eigenfunction
        import scipy.signal

        p = self.GRID.nodes
        phi = np.exp(-((p - 1.3) ** 2) / 2.0).astype(complex)
        conv = scipy.signal.fftconvolve(self.kernel(), phi, mode="valid")
        res = phi - self.GRID.spacing / (2j * math.pi) * conv
        rel = math.sqrt(float(np.sum(np.abs(res) ** 2) / np.sum(np.abs(phi) ** 2)))
        assert rel > 0.1

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_convolution_matches_fftconvolve(self, n):
        import scipy.signal

        phi = eigenfunction_momentum(self.L, n, self.GRID.nodes)
        kernel = self.kernel()
        want = scipy.signal.fftconvolve(kernel, phi, mode="valid")
        got = convolve_valid(kernel, phi)
        assert got.shape == want.shape == (self.GRID.count,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_residual_decreases_with_resolution(self):
        coarse = MomentumGrid(40.0, 1024)
        fine = MomentumGrid(200.0, 4096)
        for n in (1, 3, 5):
            assert self.residual(n, fine) < self.residual(n, coarse)


class TestExports:
    def test_spectrum_csv(self, tmp_path):
        model = WellModel(well_width=120.0)
        spectrum = solve(MomentumGrid(6.0, 512), model, 1e3, k_levels=3)
        path = tmp_path / "spectrum.csv"
        analytic = energy(model, np.arange(1, spectrum.size + 1))
        error = np.abs(spectrum - analytic)
        write_spectrum_csv((spectrum, analytic, error, error / analytic), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,e_numeric,e_analytic,abs_error,rel_error"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[4]) < 1e-2


class TestMomentumGrid:
    def test_symmetric_nodes(self):
        grid = MomentumGrid(7.0, 64)
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        assert 0.0 not in grid.nodes

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            MomentumGrid(5.0, 65)
