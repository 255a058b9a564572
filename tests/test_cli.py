"""Command-line interface: validation, outputs, determinism, presets."""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relwell
import relwell.cli as cli
from relwell import WellModel, energy
from relwell.cli import DEFAULT_CONFIG, PRESETS, load_config, main
from oracles import read_carpet_binary


def run(tmp_path, command, config=None, preset=None):
    args = [command, "--out", str(tmp_path)]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        args += ["--config", str(path)]
    if preset is not None:
        args += ["--preset", preset]
    return main(args)


# a sample count no host can allocate: numpy refuses it without touching memory
TOO_LARGE = 10**13


def small_config(**overrides):
    base = {
        "model": {"well_width_in_compton": 2.0},
        "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.0625, "p0_in_hbar_over_L": 0.0},
        "engine": {"kind": "exact", "grid_intervals": 512},
        "times": {"t_max": 0.25, "samples": 4, "unit": "classical"},
        "levels": {"n_min": 1, "n_max": 12},
        "output": {"basename": "t", "formats": ["csv", "bin", "pgm"]},
    }
    for key, value in overrides.items():
        base[key] = value
    return base


def run_refused(tmp_path, capsys, command, text):
    """Run ``command`` on the config ``text``; return the exit code and the
    stderr lines, after checking that --out was left without files."""
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert not out.exists() or list(out.iterdir()) == []
    return code, capsys.readouterr().err.strip().splitlines()


# model values whose arithmetic overflows or underflows, with the commands
# that reach it
EXTREME_SCALES = [
    (key, value, command)
    for (key, value), commands in {
        ("mass", 1e-300): ("coeffs", "revivals", "autocorr"),
        ("mass", 1e300): ("coeffs", "revivals", "autocorr", "carpet"),
        ("light_speed", 1e-300): ("coeffs", "revivals", "autocorr"),
        ("light_speed", 1e300): ("spacing", "coeffs", "revivals", "autocorr", "spectrum"),
        ("hbar", 1e300): ("coeffs", "revivals", "autocorr"),
        ("well_width_in_compton", 1e-150): ("coeffs", "revivals", "autocorr"),
        ("well_width_in_compton", 1e-300): ("coeffs", "revivals", "autocorr"),
        ("well_width_in_compton", 1e150): ("coeffs", "revivals", "autocorr"),
        ("well_width_in_compton", 1e300): ("coeffs", "revivals", "autocorr"),
    }.items()
    for command in commands
]


class TestValidation:
    def test_invalid_width_exits_2_without_files(self, tmp_path):
        config = small_config(model={"well_width_in_compton": -3.0})
        assert run(tmp_path, "spectrum", config) == 2
        assert list(tmp_path.glob("t_*")) == []

    def test_unknown_key_rejected(self, tmp_path):
        config = small_config()
        config["packet"]["velocity"] = 1.0
        assert run(tmp_path, "carpet", config) == 2

    def test_unknown_block_rejected(self, tmp_path):
        config = small_config()
        config["physics"] = {}
        assert run(tmp_path, "spectrum", config) == 2

    def test_bad_engine_kind(self, tmp_path):
        config = small_config(engine={"kind": "quantum"})
        assert run(tmp_path, "spectrum", config) == 2

    def test_preset_and_config_conflict(self, tmp_path):
        assert run(tmp_path, "spectrum", small_config(), preset="fig1") == 2

    def test_unknown_preset(self, tmp_path):
        assert run(tmp_path, "spectrum", preset="fig99") == 2

    def test_under_resolved_carpet_refused_with_hint(self, tmp_path, capsys):
        config = small_config()
        config["engine"]["grid_intervals"] = 64
        config["packet"]["sigma_over_L"] = 0.01
        assert run(tmp_path, "carpet", config) == 2
        assert "at least" in capsys.readouterr().err

    def test_diag_engine_rejected_for_carpet(self, tmp_path):
        config = small_config(engine={"kind": "diag"})
        assert run(tmp_path, "carpet", config) == 2

    @pytest.mark.parametrize(
        "block, key, value",
        [
            ("times", "t_max", "1"),
            ("times", "t_max", math.inf),
            ("times", "t_max", math.nan),
            ("model", "mass", math.nan),
            ("model", "mass", True),
            ("packet", "x0_over_L", "a"),
            ("output", "formats", "csv"),
            ("times", "samples", TOO_LARGE),
            ("output", "basename", "../x"),
            ("output", "basename", "a/b"),
            ("output", "basename", "a\\b"),
            ("output", "basename", "a\0b"),
            ("output", "basename", ".."),
            ("output", "basename", ""),
            ("output", "basename", math.nan),
            ("output", "basename", [1, 2]),
        ],
    )
    def test_malformed_value_exits_2_without_files(self, tmp_path, capsys, block, key, value):
        config = small_config()
        config.setdefault(block, {})[key] = value
        assert run(tmp_path, "carpet", config) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        err = capsys.readouterr().err.strip().splitlines()
        # a config too large to allocate is reported by numpy's message
        reason = "Unable to allocate" if value == TOO_LARGE else f"{block}.{key}"
        assert len(err) == 1 and err[0].startswith("error:") and reason in err[0]

    @pytest.mark.parametrize(
        "text",
        ["[" * 200_000, '{"output": {"formats": ' + "[" * 600 + "]" * 600 + "}}"],
        ids=["past-the-parser", "past-the-merge"],
    )
    def test_config_nested_too_deeply_exits_2_without_files(self, tmp_path, capsys, text):
        code, err = run_refused(tmp_path, capsys, "spacing", text)
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("key, value, command", EXTREME_SCALES)
    def test_arithmetic_overflow_exits_3_without_files(
        self, tmp_path, capsys, key, value, command
    ):
        code, err = run_refused(tmp_path, capsys, command, json.dumps({"model": {key: value}}))
        assert code == 3
        assert len(err) == 1 and err[0].startswith("numerical error:")
        assert "model." in err[0]

    def test_one_stderr_line_in_a_fresh_interpreter(self, tmp_path):
        # pytest records numpy's warnings itself, so only a fresh interpreter
        # shows the stderr a user gets: here an overflow warns on its way
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"mass": 1e-300}}))
        env = dict(os.environ, PYTHONPATH=str(Path(relwell.__file__).parents[1]))
        argv = ["coeffs", "--config", str(config), "--out", str(tmp_path / "out")]
        job = subprocess.run(
            [sys.executable, "-m", "relwell.cli", *argv], env=env, capture_output=True, text=True
        )
        assert job.returncode == 3
        assert len(job.stderr.splitlines()) == 1 and job.stderr.startswith("numerical error:")

    @pytest.mark.parametrize(
        "key, value", [("mass", 1e300), ("light_speed", 1e150), ("well_width_in_compton", 1e-300)]
    )
    def test_non_finite_sidecar_exits_3_without_files(self, tmp_path, capsys, key, value):
        # the spacing table is finite, but its mean spacing is not
        code, err = run_refused(tmp_path, capsys, "spacing", json.dumps({"model": {key: value}}))
        assert code == 3
        assert len(err) == 1 and err[0].startswith("numerical error:")
        assert "run_spacing.meta.json" in err[0]

    @pytest.mark.parametrize(
        "command, engine, fields",
        [
            ("spectrum", {"kind": "diag", "momentum_points": 5}, ()),
            ("spectrum", {"kind": "diag", "p_max_in_mc": -1.0}, ()),
            ("spectrum", {"kind": "diag", "wall_height_in_mc2": -5.0}, ()),
            # the default levels.n_max of 100 asks for more levels than 64 points hold
            (
                "spectrum",
                {"kind": "diag", "momentum_points": 64},
                ("levels.n_max", "engine.momentum_points"),
            ),
            ("revivals", {"kind": "exact", "grid_intervals": 16}, ()),
            ("revivals", {"kind": "exact", "n_max": 5000}, ()),
            ("carpet", {"kind": "split", "grid_size": 256, "dt": 1e-320}, ()),
        ],
        ids=[
            "diag-points", "diag-p_max", "diag-wall", "diag-levels",
            "intervals", "n_max", "split-dt",
        ],
    )
    def test_input_the_engine_rejects_exits_2_without_files(
        self, tmp_path, capsys, command, engine, fields
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"engine": engine}))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert list(out.iterdir()) == []
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert all(field in err[0] for field in fields)


class TestSpectrum:
    def test_default_levels_match_closed_form(self, tmp_path):
        assert run(tmp_path, "spectrum") == 0
        lines = (tmp_path / "run_spectrum.csv").read_text().splitlines()
        assert lines[0] == "n,energy"
        assert len(lines) == 101
        model = WellModel(well_width=10.0 * 2.0 * math.pi)
        for line in (lines[1], lines[50], lines[100]):
            n, e = line.split(",")
            assert float(e) == pytest.approx(energy(model, int(n)), rel=1e-15)

    def test_eigensolver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        config = small_config(engine={"kind": "diag", "momentum_points": 64, "p_max_in_mc": 6.0})
        assert run(tmp_path, "spectrum", config) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error:")
        assert not (tmp_path / "t_spectrum_diag.csv").exists()

    def test_diag_engine_comparison(self, tmp_path):
        config = small_config(
            model={"well_width_in_compton": 120.0 / (2.0 * math.pi)},
            engine={"kind": "diag", "momentum_points": 1024, "p_max_in_mc": 6.0},
            levels={"n_min": 1, "n_max": 8},
        )
        assert run(tmp_path, "spectrum", config) == 0
        lines = (tmp_path / "t_spectrum_diag.csv").read_text().splitlines()
        assert lines[0] == "n,e_numeric,e_analytic,abs_error,rel_error"
        rel_errors = [float(line.split(",")[4]) for line in lines[1:]]
        assert max(rel_errors) < 1e-3


class TestCarpet:
    def test_outputs_and_sidecar(self, tmp_path):
        assert run(tmp_path, "carpet", small_config()) == 0
        for suffix in ("carpet.csv", "carpet.bin", "carpet.pgm", "carpet.meta.json"):
            assert (tmp_path / f"t_{suffix}").exists()
        meta = json.loads((tmp_path / "t_carpet.meta.json").read_text())
        assert meta["command"] == "carpet"
        assert meta["n0"] >= 1
        assert meta["t_classical"] > 0
        assert meta["t_revival"] > meta["t_classical"]
        assert meta["t_super"] > 0
        assert meta["config"]["packet"]["x0_over_L"] == 0.5

    def test_zero_time_single_row(self, tmp_path):
        config = small_config()
        config["times"] = {"t_max": 0.0, "samples": 1, "unit": "natural"}
        config["output"]["formats"] = ["bin"]
        assert run(tmp_path, "carpet", config) == 0
        result = read_carpet_binary(tmp_path / "t_carpet.bin")
        assert result.density.shape[0] == 1
        # single row is the initial probability density, unit normalized
        assert result.density[0].sum() * result.spacing == pytest.approx(1.0, abs=1e-9)

    def test_integer_t_max_beyond_int64(self, tmp_path):
        # JSON integers keep their size: 2^64 natural units must resolve as a float
        config = small_config()
        config["times"] = {"t_max": 2**64, "samples": 2, "unit": "natural"}
        config["output"]["formats"] = ["bin"]
        assert run(tmp_path, "carpet", config) == 0
        assert read_carpet_binary(tmp_path / "t_carpet.bin").times[-1] == 2.0**64

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config()
        first = tmp_path / "a"
        second = tmp_path / "b"
        first.mkdir()
        second.mkdir()
        assert run(first, "carpet", config) == 0
        assert run(second, "carpet", config) == 0
        for name in ("t_carpet.csv", "t_carpet.bin", "t_carpet.pgm"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_split_engine_smoke(self, tmp_path):
        config = small_config(
            engine={"kind": "split", "grid_size": 256, "dt": 2e-4},
        )
        config["times"] = {"t_max": 0.05, "samples": 3, "unit": "natural"}
        config["output"]["formats"] = ["bin"]
        assert run(tmp_path, "carpet", config) == 0
        meta = json.loads((tmp_path / "t_carpet.meta.json").read_text())
        assert meta["engine"] == "split"
        assert meta["split_grid_size"] == 256

    def test_split_sidecar_records_the_stepped_dt(self, tmp_path):
        # the wall-phase cap lowers dt = 2e-4 to 3.927e-5, and the run steps
        # t_max over the nearest whole number of those
        config = small_config(engine={"kind": "split", "grid_size": 256, "dt": 2e-4})
        config["times"] = {"t_max": 0.05, "samples": 16, "unit": "natural"}
        config["output"]["formats"] = ["bin"]
        assert run(tmp_path, "carpet", config) == 0
        meta = json.loads((tmp_path / "t_carpet.meta.json").read_text())
        assert meta["strang_steps"] == 1273
        assert meta["dt"] == 0.05 / 1273

    def test_split_carpet_keeps_every_requested_row(self, tmp_path):
        # 16 samples within 3 Strang steps: many share their nearest step
        config = {
            "engine": {"kind": "split", "grid_size": 256},
            "times": {"t_max": 1e-4, "samples": 16, "unit": "natural"},
            "output": {"basename": "t", "formats": ["csv", "bin"]},
        }
        assert run(tmp_path, "carpet", config) == 0
        meta = json.loads((tmp_path / "t_carpet.meta.json").read_text())
        assert meta["rows"] == 16
        assert read_carpet_binary(tmp_path / "t_carpet.bin").density.shape == (16, 256)
        rows = (tmp_path / "t_carpet.csv").read_text().splitlines()[1:]
        assert len(rows) == 16 * 256

    def test_non_finite_carpet_exits_3_without_files(self, tmp_path, monkeypatch, capsys):
        real_carpet = cli.carpet

        def poisoned(*args, **kwargs):
            result = real_carpet(*args, **kwargs)
            result.density[-1, 1] = np.nan
            return result

        monkeypatch.setattr(cli, "carpet", poisoned)
        for formats in (["csv"], ["bin"], ["pgm"]):
            config = small_config(output={"basename": "t", "formats": formats})
            assert run(tmp_path, "carpet", config) == 3
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("numerical error:")
            assert "density" in err[0]
            assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_over_budget_split_run_refused_before_stepping(self, tmp_path, monkeypatch, capsys):
        import relwell.observables

        def refuse(*args, **kwargs):
            raise AssertionError("propagate must not be called for an over-budget run")

        monkeypatch.setattr(relwell.observables, "propagate", refuse)
        code = main(["carpet", "--preset", "fig2c", "--engine", "split", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "steps on 256 points" in err[0] and "times.t_max" in err[0]
        assert list(tmp_path.iterdir()) == []


class TestRevivals:
    def test_identity_column_check(self, tmp_path):
        config = small_config(levels={"n_min": 1, "n_max": 40})
        assert run(tmp_path, "revivals", config) == 0
        model = WellModel(well_width=2.0 * 2.0 * math.pi)
        lines = (tmp_path / "t_revivals.csv").read_text().splitlines()
        assert lines[0] == "n,t_classical,t_revival,t_super"
        from relwell import lorentz_gamma

        for line in lines[1:]:
            n, t_cl, t_rev, _ = line.split(",")
            n = int(n)
            gamma = lorentz_gamma(model, n)
            assert float(t_rev) / float(t_cl) == pytest.approx(2 * n * gamma**2, rel=1e-10)

    def test_fig1_preset_plateau(self, tmp_path):
        assert run(tmp_path, "revivals", preset="fig1") == 0
        rows = (tmp_path / "fig1_revivals.csv").read_text().splitlines()[1:]
        assert len(rows) == 1000
        model = WellModel(well_width=800.0 * 2.0 * math.pi)
        bound = 2.0 * model.well_width / model.light_speed
        t_cl = np.array([float(r.split(",")[1]) for r in rows])
        # classical period decreases toward (and stays above) 2L/c
        assert np.all(np.diff(t_cl) < 0)
        assert np.all(t_cl > bound)
        assert t_cl[-1] / bound < 2.0
        # deep non-relativistic ground level: the classic revival time
        t_rev_1 = float(rows[0].split(",")[2])
        classic = 4.0 * model.mass * model.well_width**2 / (math.pi * model.hbar)
        assert t_rev_1 == pytest.approx(classic, rel=1e-4)


class TestAutocorrAndSpacing:
    def test_autocorr_first_row_and_levels(self, tmp_path):
        config = small_config()
        config["times"] = {"t_max": 60.0, "samples": 2048, "unit": "classical"}
        assert run(tmp_path, "autocorr", config) == 0
        lines = (tmp_path / "t_autocorr.csv").read_text().splitlines()
        assert lines[0] == "t,re_a,im_a,abs_a"
        t0, re0, im0, _ = lines[1].split(",")
        assert t0 == "0"
        assert float(re0) == pytest.approx(1.0, abs=1e-12)
        assert float(im0) == 0.0
        meta = json.loads((tmp_path / "t_autocorr.meta.json").read_text())
        resolution = meta["fourier_resolution"]
        model = WellModel(well_width=2.0 * 2.0 * math.pi)
        levels = (tmp_path / "t_levels.csv").read_text().splitlines()
        assert levels[0] == "energy,weight"
        found = np.array([float(r.split(",")[0]) for r in levels[1:]])
        for n in (1, 3, 5):
            e_true = energy(model, n)
            assert np.min(np.abs(found - e_true)) < resolution

    def test_zero_duration_record_skips_levels(self, tmp_path):
        config = small_config()
        config["times"] = {"t_max": 0.0, "samples": 16, "unit": "classical"}
        assert run(tmp_path, "autocorr", config) == 0
        rows = (tmp_path / "t_autocorr.csv").read_text().splitlines()[1:]
        assert len(rows) == 16 and all(row.startswith("0,") for row in rows)
        assert not (tmp_path / "t_levels.csv").exists()
        meta = json.loads((tmp_path / "t_autocorr.meta.json").read_text())
        assert meta["files"] == ["t_autocorr.csv"]

    @pytest.mark.parametrize("t_max", [1e-310, 1e-320])
    def test_subnormal_duration_exits_2_without_files(self, tmp_path, capsys, t_max):
        # 1e-310 gives an infinite Fourier resolution, 1e-320 unequal steps
        config = small_config()
        config["times"] = {"t_max": t_max, "samples": 16, "unit": "natural"}
        assert run(tmp_path, "autocorr", config) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["autocorr", "carpet"])
    @pytest.mark.parametrize("t_max", [1e302, 1e308])
    def test_times_near_the_float_limit_exit_0(self, tmp_path, command, t_max):
        # the phase kernel's two-product must not overflow on its way to a
        # finite phase, or the writers refuse a non-finite column (exit 3)
        config = small_config()
        config["times"] = {"t_max": t_max, "samples": 16, "unit": "natural"}
        assert run(tmp_path, command, config) == 0

    def test_spacing_tail(self, tmp_path):
        config = small_config(levels={"n_min": 1, "n_max": 400})
        assert run(tmp_path, "spacing", config) == 0
        lines = (tmp_path / "t_spacing.csv").read_text().splitlines()
        model = WellModel(well_width=2.0 * 2.0 * math.pi)
        gap = math.pi * model.hbar * model.light_speed / model.well_width
        last = float(lines[-1].split(",")[1])
        assert last == pytest.approx(gap, rel=1e-3)
        meta = json.loads((tmp_path / "t_spacing.meta.json").read_text())
        assert meta["asymptote_gap"] == pytest.approx(gap, rel=1e-12)


class TestCoeffs:
    @pytest.mark.parametrize(
        "preset,step,offset",
        [("fig5b", 2, 1), ("fig5a", 3, 2)],
    )
    def test_extinction_presets(self, tmp_path, preset, step, offset):
        assert run(tmp_path, "coeffs", preset=preset) == 0
        lines = (tmp_path / f"{preset}_coeffs.csv").read_text().splitlines()[1:]
        weights = np.array([float(r.split(",")[3]) for r in lines])
        assert weights[offset::step].max() < 1e-10 * weights.max()


class TestConfigPlumbing:
    def test_every_preset_loads(self):
        for name in PRESETS:
            document = load_config(name, None)
            assert "model" in document and "engine" in document

    def test_engine_override(self, tmp_path):
        config = small_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = main(
            [
                "spectrum",
                "--config",
                str(path),
                "--out",
                str(tmp_path),
                "--engine",
                "exact",
            ]
        )
        assert code == 0

    def test_engine_override_keeps_preset_engine_keys(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._COMMANDS, "carpet", lambda resolved, *_: seen.append(resolved))
        assert main(["carpet", "--preset", "fig3", "--engine", "exact", "--out", str(tmp_path)]) == 0
        assert seen[0].spatial_grid().intervals == 1 << 20
        # keys the overriding engine does not take are dropped, not rejected
        assert main(["carpet", "--preset", "fig3", "--engine", "split", "--out", str(tmp_path)]) == 0
        assert seen[1].engine == {"kind": "split"}


class TestBlasThreads:
    # 20000 Strang steps in 32 rows: the split engine powers the one-step unitary
    POWERED = {
        "model": {"well_width_in_compton": 2.0},
        "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.0625, "p0_in_hbar_over_L": 0.0},
        "engine": {"kind": "split", "grid_size": 256},
        "times": {"t_max": 0.7853981633974483, "samples": 32, "unit": "natural"},
        "output": {"basename": "p", "formats": ["csv", "bin"]},
    }

    def test_powered_carpet_is_byte_identical_at_a_fixed_thread_count(self, tmp_path):
        from relwell.splitop import power_plan

        sample_steps = [round(t) for t in np.linspace(0.0, 20_000, 32).tolist()]
        assert power_plan(256, np.diff(sample_steps, prepend=0).tolist()) is not None
        config = tmp_path / "config.json"
        config.write_text(json.dumps(self.POWERED))
        outputs = []
        for name, threads in (("one", "1"), ("again", "1"), ("two", "2")):
            env = dict(os.environ, PYTHONPATH=str(Path(relwell.__file__).parents[1]),
                       OPENBLAS_NUM_THREADS=threads)
            argv = ["carpet", "--config", str(config), "--out", str(tmp_path / name)]
            job = subprocess.run(
                [sys.executable, "-m", "relwell.cli", *argv],
                env=env,
                capture_output=True,
                text=True,
            )
            assert job.returncode == 0, job.stderr
            outputs.append(tmp_path / name / "p_carpet")
        one, again, two = outputs
        for suffix in (".csv", ".bin"):
            assert one.with_suffix(suffix).read_bytes() == again.with_suffix(suffix).read_bytes()
        rho_one = read_carpet_binary(one.with_suffix(".bin")).density
        rho_two = read_carpet_binary(two.with_suffix(".bin")).density
        assert rho_one.shape == (32, 256)
        assert np.max(np.abs(rho_one - rho_two)) <= 1e-12 * np.max(rho_one)


# split carpets at N = 256 of the snapshot tool's shapes: 1273 Strang steps
# in 16 rows, which steps, and 20000 in 32 rows, which powers the step
SPLIT_STEPPED = small_config(
    engine={"kind": "split", "grid_size": 256, "dt": 2e-4},
    times={"t_max": 0.05, "samples": 16, "unit": "natural"},
)
SPLIT_POWERED = small_config(
    engine={"kind": "split", "grid_size": 256},
    times={"t_max": math.pi / 4, "samples": 32, "unit": "natural"},
)


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        # relwell's runtime is numpy alone: importing the CLI loads no scipy
        env = dict(os.environ, PYTHONPATH=str(Path(relwell.__file__).parents[1]))
        code = (
            "import relwell.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize(
        "args, config",
        [
            (["spectrum", "--engine", "diag", "--preset", "default"], None),
            (["carpet"], SPLIT_STEPPED),
            (["carpet"], SPLIT_POWERED),
            (["carpet", "--preset", "default"], None),
            (["autocorr", "--preset", "default"], None),
            (["spacing", "--preset", "default"], None),
            (["coeffs", "--preset", "default"], None),
            (["revivals", "--preset", "default"], None),
        ],
        ids=["diag", "split-stepped", "split-powered", "exact", "autocorr", "spacing",
             "coeffs", "revivals"],
    )
    def test_commands_run_without_scipy(self, args, config, tmp_path):
        # every engine runs on numpy alone: with scipy made unimportable, a
        # scipy import anywhere on the command's path would fail the run
        env = dict(os.environ, PYTHONPATH=str(Path(relwell.__file__).parents[1]))
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            args = [*args, "--config", "config.json"]
        code = (
            "import sys; sys.modules['scipy'] = None; import relwell.cli; "
            f"sys.exit(relwell.cli.main({[*args, '--out', '.']!r}))"
        )
        job = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True, text=True
        )
        assert job.returncode == 0, job.stderr


class TestReadme:
    def test_library_sketch_runs(self, tmp_path):
        # the README's one python block is the documented library workflow;
        # it runs against the source tree in a fresh interpreter
        root = Path(__file__).parents[1]
        (sketch,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        job = subprocess.run(
            [sys.executable, "-c", sketch], env=env, cwd=tmp_path, capture_output=True, text=True
        )
        assert job.returncode == 0, job.stderr


# Per engine kind, the changes to DEFAULT_CONFIG that keep an example quick:
# 64 momentum points for diag, about a hundred Strang steps at N = 256 for split.
ENGINE_BASES = {
    "exact": {},
    "diag": {"engine": {"kind": "diag", "momentum_points": 64}, "levels": {"n_max": 16}},
    "split": {
        "engine": {"kind": "split", "grid_size": 256},
        "times": {"t_max": 4e-3, "samples": 16, "unit": "natural"},
    },
}
# The property test lowers the CLI's SPLIT_WORK_LIMIT (Strang steps x grid
# points) to this: a drawn t_max or wall height can ask for an hour of
# stepping that the real limit of 1e11 still lets run.
FUZZ_SPLIT_WORK_LIMIT = 1e6


def config_fields(kind):
    """Leaves the property test may replace: those of DEFAULT_CONFIG and the
    engine keys of the example's kind."""
    leaves = [(block, key) for block, fields in DEFAULT_CONFIG.items() for key in fields]
    return leaves + [("engine", key) for key in sorted(set(cli._ENGINE_KEYS[kind]) - {"kind"})]


# Arbitrary JSON, except that finite floats are a few harmless values and the
# extremes of the double range, and integers are either small or far beyond
# any allocation: mid-size integers and moderately small packet widths would
# really allocate gigabytes.
json_scalars = st.one_of(
    st.text(max_size=8),
    st.booleans(),
    st.none(),
    st.sampled_from(
        [math.inf, -math.inf, math.nan, 0.0, -1.0, 0.5]
        + [1e-300, 1e300, 5e-324, 1.7976931348623157e308]
    ),
    st.integers(min_value=-(2**10), max_value=2**10),
    st.integers(min_value=2**62),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def assert_written_values_finite(path: Path) -> None:
    """Every number in a CSV, and every value a sidecar computed (its echo of
    the config aside), is finite."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        del payload["config"]
        json.dumps(payload, allow_nan=False)  # raises ValueError on NaN or an infinity
        return
    for line in path.read_text().splitlines()[1:]:
        for cell in line.split(","):
            try:
                value = float(cell)
            except ValueError:
                continue  # a text cell
            assert math.isfinite(value), f"{path.name}: {line}"


class TestInputContract:
    @settings(deadline=None, max_examples=1000)
    @given(kind=st.sampled_from(sorted(ENGINE_BASES)), data=st.data())
    def test_any_json_ends_in_a_documented_exit_code(self, kind, data):
        config = cli._merge(DEFAULT_CONFIG, ENGINE_BASES[kind])
        leaves = st.sampled_from(config_fields(kind))
        fields = data.draw(st.lists(leaves, min_size=1, max_size=2, unique=True), label="fields")
        for block, key in fields:
            config[block][key] = data.draw(json_values, label=f"{block}.{key}")
        for command in ("spacing", "coeffs", "revivals", "carpet", "autocorr", "spectrum"):
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "config.json"
                path.write_text(json.dumps(config))
                out = Path(tmp) / "out"
                with mock.patch.object(cli, "SPLIT_WORK_LIMIT", FUZZ_SPLIT_WORK_LIMIT):
                    code = main([command, "--config", str(path), "--out", str(out)])
                assert code in (0, 2, 3, 4)
                if code == 0:
                    for written in out.iterdir():
                        assert_written_values_finite(written)
                if code == 2:
                    assert not out.exists() or list(out.iterdir()) == []


class TestTracedBenchmark:
    def test_traced_job_wraps_every_name(self, tmp_path):
        # bench/traced_job.py resolves each function it wraps before the job
        # runs, so a renamed or deleted function fails here, not only in the bench
        root = Path(__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        spans = tmp_path / "spans.json"
        argv = ["spacing", "--preset", "default", "--out", str(tmp_path)]
        job = subprocess.run(
            [sys.executable, str(root / "bench" / "traced_job.py"), str(spans), "--", *argv],
            env=env,
            capture_output=True,
            text=True,
        )
        assert job.returncode == 0, job.stderr
        names = {span["name"] for span in json.loads(spans.read_text())["spans"]}
        assert "cli.command" in names
