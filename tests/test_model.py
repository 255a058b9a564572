"""Closed-form physics: spectrum, eigenfunctions, derivatives, revival times."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from relwell import (
    WellModel,
    energy,
    energy_derivative,
    level_velocity,
    revival_times,
)
from references import eigenfunction_momentum, eigenfunction_position, fd_energy_derivative


class TestEnergy:
    def test_ground_state_compton_box(self):
        model = WellModel(well_width=math.pi)
        assert energy(model, 1) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_linear_asymptote(self):
        model = WellModel(well_width=3.7)
        slope = math.pi / model.well_width
        for n in (10**4, 10**6):
            assert energy(model, n) / n == pytest.approx(slope, rel=1e-6)

    def test_quadratic_regime_ratio(self):
        # deep non-relativistic box: kinetic energies scale as n^2
        model = WellModel(well_width=800.0 * 2.0 * math.pi)
        e50 = energy(model, 50) - 1.0
        e1 = energy(model, 1) - 1.0
        assert e50 / e1 == pytest.approx(2500.0, rel=1e-2)
        # oracle: the non-relativistic formula hbar^2 k^2 / 2m
        k50 = 50 * math.pi / model.well_width
        nonrel = k50**2 / 2.0
        assert abs(e50 - nonrel) / nonrel < 1e-2

    def test_monotone_increasing(self):
        model = WellModel(well_width=5.0)
        levels = energy(model, np.arange(1, 100001))
        assert np.all(np.diff(levels) > 0)

    def test_at_least_rest_energy(self):
        # 11 lengths at m = 2.5, c = 3 and hbar = 0.7, in hbar/(m c)
        model = WellModel(well_width=11.0 / (0.7 / (2.5 * 3.0)))
        assert energy(model, 1) >= 1.0

    def test_rejects_bad_level(self):
        model = WellModel()
        with pytest.raises(ValueError):
            energy(model, 0)

    def test_nonrelativistic_limit(self):
        # n * lambda_C / (2L) < 1e-3 across several models
        model = WellModel(well_width=1e4)
        n = np.arange(1, 100)  # momentum ratio up to 3.1e-2... keep < 1e-3
        n = n[np.pi * n / model.well_width < 1e-3]
        kinetic = energy(model, n) - 1.0
        nonrel = (n * np.pi / model.well_width) ** 2 / 2
        assert np.max(np.abs(kinetic - nonrel) / nonrel) < 1e-5

    def test_ultrarelativistic_limit(self):
        model = WellModel(well_width=1e-3)
        n = np.array([1, 3, 10, 100])
        assert np.all(np.pi * n / model.well_width > 1e3)
        photon = n * np.pi / model.well_width
        e = energy(model, n)
        assert np.max(np.abs(e - photon) / e) < 1e-6


class TestWellModel:
    def test_width_is_the_one_field(self):
        # m, c and hbar only choose the units, which the CLI converts
        assert [field.name for field in dataclasses.fields(WellModel)] == ["well_width"]
        assert WellModel(well_width=3.0) == WellModel(3.0)

    @pytest.mark.parametrize("field", ["well_width"])
    def test_positivity(self, field):
        with pytest.raises(ValueError):
            WellModel(**{field: -1.0})


class TestEigenfunctionPosition:
    def test_antinode(self):
        assert eigenfunction_position(2.0, 1, 1.0) == pytest.approx(math.sqrt(2.0 / 2.0), rel=1e-15)

    def test_node(self):
        assert eigenfunction_position(2.0, 2, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_unit_norm_by_quadrature(self):
        for n in range(1, 11):
            norm, _ = quad(lambda x: eigenfunction_position(3.3, n, x) ** 2, 0, 3.3, limit=200)
            assert norm == pytest.approx(1.0, abs=1e-10)

    def test_zero_at_walls(self):
        assert eigenfunction_position(1.7, 3, 0.0) == 0.0
        assert abs(eigenfunction_position(1.7, 3, 1.7)) < 1e-14

    def test_outside_box_rejected(self):
        with pytest.raises(ValueError):
            eigenfunction_position(1.0, 1, 1.2)


class TestEigenfunctionMomentum:
    def test_finite_at_pole(self):
        L = math.pi
        n = 3
        k = n * math.pi / L
        at_pole = eigenfunction_momentum(L, n, k)
        # analytic limit of the regular expression as p -> hbar k_n
        limit = (
            math.sqrt(2.0 / L)
            / math.sqrt(2 * math.pi)
            * k
            * (-1j * L / (2 * k))
        )
        assert at_pole == pytest.approx(limit, rel=1e-9)
        near = eigenfunction_momentum(L, n, k * (1 + 1e-9))
        assert near == pytest.approx(at_pole, rel=1e-6)

    def test_modulus_parity(self):
        p = np.linspace(0.1, 40.0, 500)
        for n in (1, 2, 5):
            plus = np.abs(eigenfunction_momentum(2.6, n, p))
            minus = np.abs(eigenfunction_momentum(2.6, n, -p))
            assert np.max(np.abs(plus - minus)) < 1e-14

    def test_inverse_fourier_transform(self):
        # FFT quadrature of phi_n(p) must reproduce the sine mode in the box
        # and nothing outside it
        n = 2
        L = math.pi
        m_grid = 1 << 19
        p_max = 16384.0
        dp = 2 * p_max / m_grid
        j = np.arange(m_grid)
        p = -p_max + dp * j
        phi = eigenfunction_momentum(L, n, p)
        # psi(x_k) = (dp/sqrt(2 pi)) sum_j phi_j exp(i p_j x_k) on the
        # conjugate grid x_k = x0 + k*dx with dx = 2 pi/(M dp)
        dx = 2 * math.pi / (m_grid * dp)
        x0 = -0.5 * m_grid * dx
        x = x0 + dx * j
        psi = (
            (dp / math.sqrt(2 * math.pi))
            * m_grid
            * np.fft.ifft(phi * np.exp(1j * j * dp * x0))
        )
        psi *= np.exp(-1j * p_max * x)
        inside = (x > 0) & (x < L)
        target = np.sqrt(2.0 / L) * np.sin(n * np.pi * x[inside] / L)
        err_in = np.sqrt(np.sum(np.abs(psi[inside] - target) ** 2) * dx)
        outside = (x < -1e-3) | (x > L + 1e-3)
        err_out = np.sqrt(np.sum(np.abs(psi[outside]) ** 2) * dx)
        assert err_in < 1e-6
        assert err_out < 1e-6


class TestEnergyDerivative:
    def test_first_order_closed_form(self):
        for L, n0 in [(math.pi, 1.0), (40.0, 7.0), (0.3, 2.5)]:
            model = WellModel(well_width=L)
            p = n0 * math.pi / L
            gamma = math.hypot(1.0, p)
            expected = (math.pi / L) * p / gamma
            assert energy_derivative(model, n0, 1) == pytest.approx(expected, rel=1e-12)

    def test_second_order_closed_form(self):
        for L, n0 in [(math.pi, 1.0), (40.0, 7.0), (0.3, 2.5)]:
            model = WellModel(well_width=L)
            p = n0 * math.pi / L
            gamma = math.hypot(1.0, p)
            expected = (math.pi / L) ** 2 / gamma**3
            assert energy_derivative(model, n0, 2) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("order", [3, 4])
    def test_high_orders_against_finite_differences(self, order):
        model = WellModel(well_width=math.pi)
        got = energy_derivative(model, 3.0, order)
        want = fd_energy_derivative(model.well_width, 3.0, order, h=1e-4)
        assert abs(got - want) / abs(want) < 1e-6

    def test_all_orders_across_regimes(self):
        # v/c from 0.01 to 0.999 on a wide box
        model = WellModel(well_width=100.0 * math.pi)
        betas = np.linspace(0.01, 0.999, 12)
        for beta in betas:
            p = beta / math.sqrt(1 - beta**2)
            n0 = p * model.well_width / math.pi
            for order in (1, 2, 3, 4):
                got = energy_derivative(model, n0, order)
                want = fd_energy_derivative(model.well_width, n0, order)
                assert abs(got - want) / abs(want) < 1e-6

    @pytest.mark.parametrize("order", [0, 7, -1])
    def test_unsupported_order(self, order):
        with pytest.raises(ValueError):
            energy_derivative(WellModel(), 1.0, order)


class TestRevivalTimes:
    def test_classical_period_is_bounce_time(self):
        # 2*pi*hbar/|E'| == 2L/v_n exactly, for any regime
        for L in (0.2, math.pi, 300.0):
            model = WellModel(well_width=L)
            for n0 in (1, 4, 50):
                rt = revival_times(model, n0)
                assert rt.t_classical == pytest.approx(
                    2 * L / level_velocity(model, n0), rel=1e-12
                )

    def test_classical_period_limit(self):
        model = WellModel(well_width=math.pi)
        bound = 2 * model.well_width
        previous = None
        for n0 in (10, 100, 1000, 10000):
            t_cl = revival_times(model, n0).t_classical
            assert t_cl > bound
            if previous is not None:
                assert t_cl < previous
            previous = t_cl
        assert previous == pytest.approx(bound, rel=1e-6)

    def test_compton_box_ground_level(self):
        # frozen values, cross-checked against the finite-difference oracle
        model = WellModel(well_width=math.pi)
        rt = revival_times(model, 1)
        assert rt.t_classical == pytest.approx(2 * math.pi * math.sqrt(2.0), rel=1e-12)
        assert rt.t_revival == pytest.approx(4 * math.pi * 2**1.5, rel=1e-12)
        d2 = fd_energy_derivative(model.well_width, 1.0, 2)
        assert rt.t_revival == pytest.approx(4 * math.pi / abs(d2), rel=1e-8)

    def test_revival_ratio_identity(self):
        for L in (0.5, 10.0, 5000.0):
            model = WellModel(well_width=L)
            for n0 in (1, 3, 17, 400):
                rt = revival_times(model, n0)
                assert abs(rt.t_revival / rt.t_classical - 2 * n0 * rt.gamma**2) < (
                    1e-10 * 2 * n0 * rt.gamma**2
                )

    def test_super_revival_ratio_identity(self):
        for L in (0.5, 10.0, 5000.0):
            model = WellModel(well_width=L)
            for n0 in (1, 3, 17, 400):
                rt = revival_times(model, n0)
                expected = n0 / level_velocity(model, n0) ** 2
                assert abs(rt.t_super / rt.t_revival - expected) < 1e-6 * expected

    def test_revival_time_diverges_past_knee(self):
        # T_rev grows without bound once the velocity saturates
        model = WellModel(well_width=math.pi)
        t_rev = np.array([revival_times(model, n).t_revival for n in (10, 100, 1000, 10000)])
        assert np.all(np.diff(t_rev) > 0)
        assert t_rev[-1] / t_rev[0] > 1e4

    def test_super_revival_diverges_in_both_regimes(self):
        # documented check: T_super has an interior minimum between the
        # non-relativistic (v -> 0) and ultra-relativistic (v -> c) regimes
        model = WellModel(well_width=250.0 * 2 * math.pi)
        ns = np.unique(np.geomspace(1, 200000, 80).astype(int))
        t_super = np.array([revival_times(model, int(n)).t_super for n in ns])
        i_min = int(np.argmin(t_super))
        assert 0 < i_min < len(ns) - 1
        assert t_super[0] / t_super[i_min] > 50
        assert t_super[-1] / t_super[i_min] > 1e4
        beta_at_min = level_velocity(model, int(ns[i_min]))
        assert 0.1 < beta_at_min < 0.99

    def test_gamma_cubed_relation_documented(self):
        # relative to the non-relativistic revival time 4 m L^2 / (pi hbar),
        # the relativistic one carries gamma^3 (not gamma); consequence of
        # E'' = (hbar pi / L)^2 / (gamma^3 m)
        model = WellModel(well_width=12.0)
        nonrel = 4 * model.well_width**2 / math.pi
        for n0 in (2, 9, 31):
            rt = revival_times(model, n0)
            assert rt.t_revival == pytest.approx(nonrel * rt.gamma**3, rel=1e-12)
            if rt.gamma > 1.1:
                assert abs(rt.t_revival - nonrel * rt.gamma) > 0.01 * rt.t_revival

    def test_velocity_below_light_speed(self):
        model = WellModel(well_width=1.0)
        rt = revival_times(model, 10**6)  # gamma ~ 3e6: 1 - v/c still representable
        assert 0 < level_velocity(model, 10**6) < 1.0
        assert rt.gamma >= 1.0
        # past gamma ~ 1e8 the gap 1 - v/c falls below float64 resolution and
        # the velocity rounds to c; everything else must stay finite
        extreme_model = WellModel(well_width=1e-4)
        extreme = revival_times(extreme_model, 10**6)
        velocity = level_velocity(extreme_model, 10**6)
        assert 0 < velocity <= extreme.gamma and velocity <= 1.0
        assert extreme.t_super > extreme.t_revival > extreme.t_classical > 0


class TestReferences:
    def test_import_loads_no_relwell_module(self):
        # a reference that shares relwell's code can share the defect it is
        # there to catch; relwell is importable here, so only sys.modules tells
        tests = Path(__file__).parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        code = "import sys, references; print([m for m in sys.modules if m.split('.')[0] == 'relwell'])"
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["[]"]
