"""Command-line interface: validation, outputs, determinism, presets."""

import contextlib
import ctypes
import errno
import importlib.util
import io
import json
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relwell
import relwell.cli as cli
from relwell import SpatialGrid, WavepacketSpec, WellModel, energy, gaussian_state
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


def run_in(out, config_path, config, command="carpet"):
    """Run ``command`` on ``config``, kept at ``config_path``, into ``out``."""
    config_path.write_text(json.dumps(config))
    return main([command, "--config", str(config_path), "--out", str(out)])


def run_refused(tmp_path, capsys, command, text):
    """Run ``command`` on the config ``text``; return the exit code and the
    stderr lines, after checking that --out was left without files."""
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert not out.exists() or list(out.iterdir()) == []
    return code, capsys.readouterr().err.strip().splitlines()


def snapshot_tool():
    """tools/snapshot_outputs.py, loaded as a module."""
    tool = Path(__file__).parents[1] / "tools" / "snapshot_outputs.py"
    spec = importlib.util.spec_from_file_location("snapshot_outputs", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the tool's table of error-path cases, each a job with the exit code and the
# stderr line it must end in
TOOL = snapshot_tool()
CASES = {job.name: job for job in TOOL.CASES}

# each section of the table, as job name -> id, run by the test and under the
# ids Tier-1 has reported its cases by; the cases no section names run by name
EXTREME_IDS = {
    f"{key}_{value:g}_{command}": f"{key}-{value:g}-{command}-{line}"
    for (key, value), lines in TOOL.EXTREME_MODELS.items()
    for command, line in lines.items()
}
SCALE_IDS = {
    "_".join(f"{key}_{value:g}" for key, value in model.items()) + f"_{command}":
        f"{command}-{label}"
    for label, (model, lines) in TOOL.SCALES_PAST_RANGE.items()
    for command in lines
}
PAST_IDS = {
    f"past_range_{name}_{command}": f"{name.replace('_', '-')}-{command}"
    for name, (document, lines) in TOOL.PAST_RANGE.items()
    for command in lines
}
# documents where a Python float power once raised OverflowError: sigma = L / 20
# near 3e300 in absolute units, c**2, and the powers in E(n)'s derivatives
POWER_IDS = {
    f"{stem}_{command}": f"{label}-{command}"
    for label, stem, commands in (
        ("sigma", "hbar_1e+300", TOOL.REVIVAL_COMMANDS),
        ("light-speed", "light_speed_1e+300", ("spacing", "revivals", "spectrum")),
        ("derivative", "well_width_in_compton_1e-150", TOOL.REVIVAL_COMMANDS),
    )
    for command in commands
}
SIDECAR_IDS = {
    f"infinite_sidecar_{key}_{value:g}_spacing": f"{key}-{value:g}-{line}"
    for (key, value), line in TOOL.INFINITE_SIDECARS.items()
}
NESTED_IDS = {"deep_parse_spacing": "past-the-parser", "deep_formats_spacing": "past-the-merge"}
SECTIONS = (EXTREME_IDS, SCALE_IDS, PAST_IDS, POWER_IDS, SIDECAR_IDS, NESTED_IDS)
OTHER_IDS = {name: name for name in CASES if not any(name in ids for ids in SECTIONS)}


def case_test(ids):
    """A test that runs each case ``ids`` names in-process and holds it to its entry."""

    @pytest.mark.parametrize("name", [pytest.param(name, id=id) for name, id in ids.items()])
    def test(self, tmp_path, monkeypatch, capsys, name):
        job = CASES[name]
        monkeypatch.chdir(tmp_path)
        code = main(TOOL.arguments(job, tmp_path))
        assert TOOL.breaches(tmp_path, job, code, capsys.readouterr().err) == []

    return test


def assert_ends_in(tmp_path, capsys, command, document, line):
    """Run ``command`` on ``document``: it exits 3 with that one stderr line
    and no file."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert (code, capsys.readouterr().err.strip().splitlines()) == (3, [line])
    assert not out.exists() or list(out.iterdir()) == []


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

    def test_cli_and_packet_share_one_grid_minimum(self, tmp_path, capsys):
        # 8 L / sigma rounds to 4544 here; when the CLI tested that integer and
        # gaussian_state the grid spacing, the CLI took a grid the packet refused
        fraction = 0.00176056338028169
        document = {
            "model": {"well_width_in_compton": 10.0},
            "packet": {"sigma_over_L": fraction},
            "engine": {"kind": "exact", "grid_intervals": 4544},
        }
        assert run(tmp_path, "coeffs", document) == 0
        width = 2.0 * math.pi * 10.0
        model, spec = WellModel(width), WavepacketSpec(x0=0.5 * width, sigma=fraction * width)
        assert cli.min_intervals(spec, model) == 4544
        document["engine"]["grid_intervals"] = 4543
        assert run(tmp_path, "coeffs", document) == 2
        assert capsys.readouterr().err == (
            "error: engine.grid_intervals=4543 under-resolves the packet; "
            "need at least 4544 intervals\n"
        )
        with pytest.raises(ValueError, match=r"need at least 4544 intervals, got 4543$"):
            gaussian_state(spec, SpatialGrid(width, 4543), model)

    def test_an_infinite_grid_minimum_is_refused(self, tmp_path, capsys):
        # 8 L / sigma is infinite below sigma_over_L ~ 1e-308: one line
        # whether the document names the grid or not
        for engine in ({"kind": "exact", "grid_intervals": 1024}, {}):
            document = {"packet": {"sigma_over_L": 1e-310}, "engine": engine}
            assert run(tmp_path, "coeffs", document) == 2
            err = capsys.readouterr().err
            assert err == "error: the packet needs inf grid intervals, beyond any array\n"

    def test_diag_engine_rejected_for_carpet(self, tmp_path):
        config = small_config(engine={"kind": "diag"})
        assert run(tmp_path, "carpet", config) == 2

    def test_command_rules_bind_their_command_only(self, tmp_path):
        # carpet refuses the diag engine and autocorr wants the exact one;
        # coeffs takes a document of any engine
        config = {"engine": {"kind": "diag", "momentum_points": 64}}
        assert run(tmp_path, "coeffs", config) == 0

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

    # the tool's table of error-path cases, one test per section
    test_extreme_scales_end_in_their_line = case_test(EXTREME_IDS)
    test_scales_past_double_range_end_in_their_line = case_test(SCALE_IDS)
    test_packet_and_revival_times_past_double_range_end_in_their_line = case_test(PAST_IDS)
    test_powers_past_double_range_name_their_quantity = case_test(POWER_IDS)
    test_non_finite_sidecar_exits_3_without_files = case_test(SIDECAR_IDS)
    test_config_nested_too_deeply_exits_2_without_files = case_test(NESTED_IDS)
    test_each_case_ends_in_its_line = case_test(OTHER_IDS)

    @pytest.mark.parametrize(
        "document, command",
        [
            # a subnormal width: a positive fraction of it underflows to 0
            ({"model": {"well_width_in_compton": 1e-320}, "packet": {"x0_over_L": 1e-5}}, "x0"),
            ({"model": {"well_width_in_compton": 1e-320}, "packet": {"sigma_over_L": 1e-5}}, "sigma"),
        ],
        ids=["x0", "sigma"],
    )
    def test_packet_length_underflow_names_the_width(self, tmp_path, capsys, document, command):
        line = (
            f"numerical error: the packet's {command} underflows to 0; "
            f"raise packet.{command}_over_L or bring model.well_width_in_compton closer to 1"
        )
        assert_ends_in(tmp_path, capsys, "spectrum", document, line)

    def test_natural_width_past_double_range_exits_3(self, tmp_path, capsys):
        line = (
            "numerical error: the natural well width 2 pi well_width_in_compton overflows; "
            "bring model.well_width_in_compton closer to 1"
        )
        assert_ends_in(tmp_path, capsys, "spectrum", {"model": {"well_width_in_compton": 1e308}}, line)

    @pytest.mark.parametrize("key", ["t_max", "dt"])
    def test_dimensioned_input_past_double_range_exits_3(self, tmp_path, capsys, key):
        # 1e300 times m c^2 / hbar = 2^900 overflows on the way in
        document = {
            "model": {"mass": 2.0**900},
            "engine": {"kind": "split", "grid_size": 256, "dt": 1e300 if key == "dt" else 1e-3},
            "times": {"t_max": 1e300 if key == "t_max" else 0.05, "unit": "natural"},
        }
        block = "times" if key == "t_max" else "engine"
        assert_ends_in(tmp_path, capsys, "carpet", document, TOOL.unit_error(f"{block}.{key}"))

    def test_one_stderr_line_in_a_fresh_interpreter(self, tmp_path):
        # pytest records numpy's warnings itself, so only a fresh interpreter
        # shows the stderr a user gets: here the packet's samples overflow on
        # the way to a revival time past double range
        job = CASES["well_width_in_compton_1e+300_coeffs"]
        env = dict(os.environ, PYTHONPATH=str(Path(relwell.__file__).parents[1]))
        assert TOOL.run(job, tmp_path, env) == (3, [])

    def test_sidecar_value_json_lacks_exits_3_without_files(self, tmp_path, monkeypatch, capsys):
        # an int64 is no int: written as its str, it would read back as a string
        real_summary = cli._revival_summary

        def with_int64(*args):
            return {**real_summary(*args), "n0": np.int64(3)}

        monkeypatch.setattr(cli, "_revival_summary", with_int64)
        code, err = run_refused(tmp_path, capsys, "coeffs", json.dumps(small_config()))
        assert code == 3
        assert len(err) == 1 and err[0].startswith("numerical error:")
        assert "t_coeffs.meta.json" in err[0] and "int64" in err[0]

    def test_diag_levels_are_checked_before_the_units(self, tmp_path, capsys):
        # the diag grid is refused in natural units, before any output converts
        document = {
            "model": {"light_speed": 1e300}, "engine": {"kind": "diag", "momentum_points": 64}
        }
        code, err = run_refused(tmp_path, capsys, "spectrum", json.dumps(document))
        assert (code, err) == (2, ["error: levels.n_max=100 exceeds engine.momentum_points=64"])

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

    @pytest.mark.parametrize(
        "config, out",
        [("missing.json", "out"), (".", "out"), (None, "file"), (None, "file/out")],
        ids=["config-missing", "config-directory", "out-a-file", "out-below-a-file"],
    )
    def test_unreadable_config_or_out_exits_4_without_files(
        self, tmp_path, capsys, config, out
    ):
        (tmp_path / "file").write_text("kept\n")
        before = sorted(tmp_path.rglob("*"))
        argv = ["spacing", "--out", str(tmp_path / out)]
        if config is not None:
            argv += ["--config", str(tmp_path / config)]
        assert main(argv) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file").read_text() == "kept\n"

    def test_config_is_read_as_utf8_in_a_c_locale(self, tmp_path):
        # JSON is UTF-8 (RFC 8259), whatever encoding the locale names
        config = tmp_path / "config.json"
        document = {"output": {"basename": "run", "café": 1}}
        config.write_text(json.dumps(document, ensure_ascii=False), encoding="utf-8")
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(relwell.__file__).parents[1]),
            LC_ALL="C",
            LANG="C",
            PYTHONUTF8="0",
            PYTHONCOERCECLOCALE="0",
        )
        argv = ["spacing", "--config", str(config), "--out", str(tmp_path / "out")]
        job = subprocess.run(
            [sys.executable, "-m", "relwell.cli", *argv], env=env, capture_output=True
        )
        # an ASCII stderr writes the key's non-ASCII letter as an escape
        err = job.stderr.decode("utf-8", "backslashreplace").splitlines()
        assert job.returncode == 2
        assert len(err) == 1 and err[0].startswith("error: unknown keys in output: ")
        assert "'café'" in err[0] or "'caf\\xe9'" in err[0]
        assert not (tmp_path / "out").exists()


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
        # the wall and grid the solver ran with, in units where m = c = 1
        sidecar = json.loads((tmp_path / "t_spectrum.meta.json").read_text())
        assert sidecar["diag_metadata"] == {"wall_height": 1000.0, "p_max": 6.0, "count": 1024}


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

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        def no_such_name(name):
            raise ValueError("unrecognized configuration name")

        def no_library(name):
            raise OSError("no libc to load")

        # a rerun, then hosts where the CLI cannot set glibc's malloc thresholds
        hosts = {
            "first": None,
            "again": None,
            "no-confstr-name": (os, "confstr", no_such_name),
            "other-libc": (os, "confstr", lambda name: None),
            "no-mallopt": (ctypes, "CDLL", lambda name: object()),
            "no-cdll": (ctypes, "CDLL", no_library),
        }
        for host, patch in hosts.items():
            (tmp_path / host).mkdir()
            with monkeypatch.context() as patched:
                if patch is not None:
                    patched.setattr(*patch)
                assert run(tmp_path / host, "carpet", small_config()) == 0
        for name in ("t_carpet.csv", "t_carpet.bin", "t_carpet.pgm"):
            first = (tmp_path / "first" / name).read_bytes()
            assert all((tmp_path / host / name).read_bytes() == first for host in hosts)

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

    # a resting packet, tallest in row 0, and a boosted one, tallest in row 4
    # of 8 after it meets a wall, whose first four rows are quantized again
    @pytest.mark.parametrize(
        "packet, peak_row",
        [
            ({"x0_over_L": 0.5, "sigma_over_L": 0.0625, "p0_in_hbar_over_L": 0.0}, 0),
            ({"x0_over_L": 0.5, "sigma_over_L": 0.0625, "p0_in_hbar_over_L": 8.0 * math.pi}, 4),
        ],
        ids=["resting", "boosted"],
    )
    def test_pgm_only_carpet_matches_the_stored_one(self, tmp_path, packet, peak_row):
        # the image alone is quantized row by row from the stream; beside a
        # csv, from the stored carpet: the bytes are the same
        config = small_config(packet=packet)
        config["times"] = {"t_max": 0.5, "samples": 8, "unit": "classical"}
        images = {}
        for formats in (["pgm"], ["csv", "pgm"]):
            config["output"] = {"basename": "t", "formats": formats}
            out = tmp_path / "-".join(formats)
            out.mkdir()
            assert run(out, "carpet", config) == 0
            images[len(formats)] = (out / "t_carpet.pgm").read_bytes()
            meta = json.loads((out / "t_carpet.meta.json").read_text())
            assert (meta["rows"], meta["columns"]) == (8, 513)
        assert images[1] == images[2]
        header = b"P5\n513 8\n65535\n"
        pixels = np.frombuffer(images[1][len(header):], dtype=">u2").reshape(8, 513)
        assert images[1].startswith(header)
        assert pixels.max(axis=1).argmax() == peak_row

    def test_pgm_only_carpet_holds_no_float_density(self, tmp_path):
        # 64 rows on 2^16 intervals: 33.6 MB of float density, 8.4 MB of pixels
        config = small_config(output={"basename": "t", "formats": ["pgm"]})
        config["engine"]["grid_intervals"] = 1 << 16
        config["times"]["samples"] = 64
        (tmp_path / "warm").mkdir()
        assert run(tmp_path / "warm", "carpet", config) == 0  # load the FFT before tracing
        tracemalloc.start()
        try:
            assert run(tmp_path, "carpet", config) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * ((1 << 16) + 1) * 8
        # and no pixel matrix: the rows go to the file one at a time
        assert peak < 64 * ((1 << 16) + 1) * 2

    def test_non_finite_carpet_exits_3_without_files(self, tmp_path, monkeypatch, capsys):
        real_carpet, real_stream = cli.carpet, cli.density_stream

        def poisoned(*args, **kwargs):
            result = real_carpet(*args, **kwargs)
            result.density[-1, 1] = np.nan
            return result

        def poisoned_stream(coeffs, grid, times):
            # a PGM-only carpet takes its rows from the stream, not a carpet
            for i, row in enumerate(real_stream(coeffs, grid, times)):
                if i == len(times) - 1:
                    row[1] = np.nan
                yield row

        monkeypatch.setattr(cli, "carpet", poisoned)
        monkeypatch.setattr(cli, "density_stream", poisoned_stream)
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


class TestAllOrNothing:
    """A run's files appear complete and together, or the run leaves the
    directory as it found it, less the sidecar it would have replaced."""

    def test_file_size_limit_keeps_the_earlier_run(self, tmp_path):
        resource = pytest.importorskip("resource")
        out = tmp_path / "out"
        earlier = small_config(output={"basename": "t", "formats": ["csv", "pgm"]})
        assert run_in(out, tmp_path / "earlier.json", earlier) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == ["t_carpet.csv", "t_carpet.meta.json", "t_carpet.pgm"]

        # twice the rows: a CSV of about 200 kB against a 64 KiB file-size
        # limit, set in the child alone
        later = dict(earlier, times={"t_max": 0.5, "samples": 8, "unit": "classical"})
        config = tmp_path / "later.json"
        config.write_text(json.dumps(later))
        limit = 1 << 16
        env = dict(os.environ, PYTHONPATH=str(Path(relwell.__file__).parents[1]))
        job = subprocess.run(
            [sys.executable, "-m", "relwell.cli", "carpet", "--config", str(config),
             "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit)),
        )
        assert job.returncode == 4
        err = job.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error:")
        after = {path.name: path.read_bytes() for path in out.iterdir()}
        # the earlier products or nothing; no sidecar vouches for them, and
        # no temporary is left
        assert set(after) <= {"t_carpet.csv", "t_carpet.pgm"}
        assert all(after[name] == before[name] for name in after)

    def test_nan_row_in_a_streamed_pgm_leaves_only_the_config(
        self, tmp_path, monkeypatch, capsys
    ):
        real_stream = cli.density_stream

        def poisoned_stream(coeffs, grid, times):
            # a middle row: the rows before it are already in the file
            for i, row in enumerate(real_stream(coeffs, grid, times)):
                if i == 2:
                    row[5] = np.nan
                yield row

        monkeypatch.setattr(cli, "density_stream", poisoned_stream)
        config = small_config(output={"basename": "t", "formats": ["pgm"]})
        config["times"]["samples"] = 8
        assert run(tmp_path, "carpet", config) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error:")
        assert err[0].endswith("to " + str(tmp_path / "t_carpet.pgm"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_an_error_at_a_temporary_names_the_file(self, tmp_path, monkeypatch, capsys):
        def full_disk(stats, path):
            open(path, "wb").close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), os.fspath(path))

        monkeypatch.setattr(cli, "write_spacing_csv", full_disk)
        out = tmp_path / "out"
        assert run_in(out, tmp_path / "config.json", small_config(), "spacing") == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"i/o error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: "
                       f"{str(out / 't_spacing.csv')!r}"]
        assert list(out.iterdir()) == []

    def test_a_name_at_the_limit_is_staged(self, tmp_path, capsys):
        # the sidecar's name fills the file system's limit; its temporary's
        # name has a fixed length, so it fits too
        out = tmp_path / "out"
        out.mkdir()
        limit = os.pathconf(out, "PC_NAME_MAX")
        basename = "b" * (limit - len("_spacing.meta.json"))
        config = {"output": {"basename": basename}}
        assert run_in(out, tmp_path / "config.json", config, "spacing") == 0
        assert capsys.readouterr().err == ""
        names = sorted(path.name for path in out.iterdir())
        assert names == [f"{basename}_spacing.csv", f"{basename}_spacing.meta.json"]
        assert len(os.fsencode(names[1])) == limit

    def test_snapshot_tool_names_jobs_that_break_the_contract(self, tmp_path):
        job = TOOL.Job("t", ["carpet"], "{}", 3, "numerical error: x")
        (tmp_path / "config.json").write_text("{}")
        assert TOOL.breaches(tmp_path, job, 3, "numerical error: x\n") == []
        # another line than the entry's, even one both trees would print
        assert TOOL.breaches(tmp_path, job, 3, "numerical error: y\n") == [
            "exited 3 with 'numerical error: y', not 3 with 'numerical error: x'"
        ]
        (tmp_path / "t_carpet.pgm").write_bytes(b"P5")
        (tmp_path / ".t_carpet.csv.tmp").write_bytes(b"")
        assert TOOL.breaches(tmp_path, job._replace(code=0, line=None), 0, "") == [
            "left the temporary .t_carpet.csv.tmp"
        ]
        assert TOOL.breaches(tmp_path, job._replace(code=4), 4, "a\nb\n") == [
            "left the temporary .t_carpet.csv.tmp",
            "exited 4 and left .t_carpet.csv.tmp, t_carpet.pgm",
            "exited 4 with 'a\\nb', not 4 with 'numerical error: x'",
        ]

    def test_every_job_has_one_name_and_its_entry(self):
        # a name twice would crash the tool at its directory; a case without its
        # code and line, or outside every in-process section, would go unchecked
        names = [job.name for job in TOOL.JOBS]
        assert len(set(names)) == len(names)
        prefixes = {0: None, 2: "error: ", 3: "numerical error: ", 4: "i/o error: "}
        for job in TOOL.JOBS:
            prefix = prefixes[job.code]
            assert job.line is None if prefix is None else job.line.startswith(prefix), job.name
        assert all((job.code, job.line) == (0, None) for job in TOOL.OUTPUTS)
        assert set().union(*SECTIONS, OTHER_IDS) == set(CASES)

    def test_snapshot_comparison_names_each_difference(self, tmp_path):
        base, head = tmp_path / "base", tmp_path / "head"

        def job(root, name, files):
            (root / name).mkdir(parents=True)
            for file, data in files.items():
                (root / name / file).write_bytes(data)

        header = struct.pack("<4sIQQdddd", b"CRPT", 1, 1, 2, 0.0, 0.0, 0.0, 1.0)
        for root, cell, density, code in ((base, b"0.25", 2.0, b"0\n"), (head, b"0.5", 2.5, b"3\n")):
            job(root, "same", {"exit_code.txt": b"0\n", "t.csv": b"n,x\n1,0.5\n"})
            job(root, "cell", {"t.csv": b"n,x\n1," + cell + b"\n2,1\n"})
            job(root, "bin", {"t.bin": header + struct.pack("<2d", 1.0, density)})
            job(root, "code", {"exit_code.txt": code})
        assert TOOL.compare(base, head) == [
            "bin/t.bin: 1 values; largest deviation 0.5 absolute, 0.25 relative",
            "cell/t.csv: 1 values; largest deviation 0.25 absolute, 1 relative",
            "code/exit_code.txt: '0' -> '3'",
        ]
        (head / "code" / "stderr.txt").write_text("numerical error: x\n")
        assert TOOL.compare(base, head)[-1] == "code/stderr.txt: only in head"
        assert TOOL.compare(base, base) == []

    def test_snapshot_jobs_run_at_one_thread_whatever_the_caller_set(self, tmp_path, monkeypatch):
        # the powered carpets' bits depend on the BLAS thread count
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.setenv("MKL_NUM_THREADS", "4")
        envs = []

        def run(job, out, env):
            envs.append(env)
            return 0, []

        monkeypatch.setattr(TOOL, "JOBS", TOOL.JOBS[:2])
        monkeypatch.setattr(TOOL, "run", run)
        assert TOOL.snapshot(tmp_path / "src", tmp_path / "out") == []
        pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        assert [[env[name] for name in pins] for env in envs] == [["1", "1", "1"]] * 2


class TestRevivals:
    def test_identity_column_check(self, tmp_path):
        config = small_config(levels={"n_min": 1, "n_max": 40})
        assert run(tmp_path, "revivals", config) == 0
        model = WellModel(well_width=2.0 * 2.0 * math.pi)
        lines = (tmp_path / "t_revivals.csv").read_text().splitlines()
        assert lines[0] == "n,t_classical,t_revival,t_super"
        for line in lines[1:]:
            n, t_cl, t_rev, _ = line.split(",")
            n = int(n)
            gamma = energy(model, n)  # the Lorentz factor, in natural units
            assert float(t_rev) / float(t_cl) == pytest.approx(2 * n * gamma**2, rel=1e-10)

    def test_fig1_preset_plateau(self, tmp_path):
        assert run(tmp_path, "revivals", preset="fig1") == 0
        rows = (tmp_path / "fig1_revivals.csv").read_text().splitlines()[1:]
        assert len(rows) == 1000
        model = WellModel(well_width=800.0 * 2.0 * math.pi)
        bound = 2.0 * model.well_width  # 2 L / c
        t_cl = np.array([float(r.split(",")[1]) for r in rows])
        # classical period decreases toward (and stays above) 2L/c
        assert np.all(np.diff(t_cl) < 0)
        assert np.all(t_cl > bound)
        assert t_cl[-1] / bound < 2.0
        # deep non-relativistic ground level: the classic revival time
        t_rev_1 = float(rows[0].split(",")[2])
        classic = 4.0 * model.well_width**2 / math.pi  # 4 m L^2 / (pi hbar)
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
        gap = math.pi / model.well_width  # pi hbar c / L
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

    def test_unset_thread_count_runs_one_thread(self, tmp_path):
        # the CLI pins BLAS to one thread where the environment leaves it
        # unset, so a diag spectrum does not depend on the host's core count
        pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        unset = {k: v for k, v in os.environ.items() if k not in pins}
        spectra = []
        for name, pin in (("unset", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            env = dict(unset, PYTHONPATH=str(Path(relwell.__file__).parents[1]), **pin)
            argv = ["spectrum", "--engine", "diag", "--preset", "default"]
            job = subprocess.run(
                [sys.executable, "-m", "relwell.cli", *argv, "--out", str(tmp_path / name)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert job.returncode == 0, job.stderr
            spectra.append((tmp_path / name / "run_spectrum_diag.csv").read_bytes())
        assert spectra[0] == spectra[1]


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


# the names `from relwell import ...` offered when the package imported every
# module eagerly; the lazy package must offer the same
PACKAGE_EXPORTS = [
    "SimulationError", "BoxGrid", "GridState", "SpatialGrid", "RevivalTimes", "WellModel",
    "energy", "energy_derivative", "level_velocity", "revival_times",
    "MomentumGrid", "build_hamiltonian", "default_grid", "solve",
    "AutocorrelationSeries", "CarpetGrid", "LevelEstimates", "LightconeReport",
    "SpacingStatistics", "autocorrelation", "carpet", "extract_levels", "level_spacing",
    "lightcone_leakage", "CoefficientVector", "WavepacketSpec", "decompose", "dominant_level",
    "gaussian_state", "density_rows", "evolve", "reconstruct_at", "PropagationConfig",
    "default_config", "kinetic_phase", "propagate",
]


def fresh_python(code, cwd=None):
    """Run ``code`` in a fresh interpreter on this source tree."""
    env = dict(os.environ, PYTHONPATH=str(Path(relwell.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
    )


# the tool's cases TestColdStart runs with numpy made unimportable, by id
COLD_CASES = {
    "refused_mass_carpet": "mass-negative", "refused_t_max_carpet": "t_max-negative",
    "refused_samples_carpet": "samples-zero", "refused_unit_carpet": "unit-unknown",
    "refused_levels_carpet": "levels-reversed", "refused_formats_carpet": "format-unknown",
    "refused_no_formats_carpet": "formats-empty", "refused_basename_carpet": "basename-path",
    "refused_diag_carpet": "carpet-diag", "refused_split_autocorr": "autocorr-split",
}


class TestColdStart:
    def test_cli_import_loads_no_scipy(self):
        # relwell's runtime is numpy alone, and numpy itself loads only when a
        # run needs it: importing the package or the CLI loads neither
        code = (
            "import sys; loaded = lambda: sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')); "
            "import relwell; print(loaded()); import relwell.cli; print(loaded())"
        )
        out = fresh_python(code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["[]", "[]"]

    def test_package_names_load_on_first_use(self):
        code = (
            "import json, relwell; names = relwell.__all__; from relwell import *; "
            "print(sorted(n for n in names if n not in globals())); print(json.dumps(names))\n"
            "try: relwell.no_such_name\n"
            "except AttributeError: print('AttributeError')"
        )
        out = fresh_python(code)
        assert out.returncode == 0, out.stderr
        unbound, names, missing = out.stdout.splitlines()
        assert unbound == "[]"
        assert sorted(json.loads(names)) == sorted(PACKAGE_EXPORTS)
        assert missing == "AttributeError"

    @pytest.mark.parametrize(
        "args, text, line",
        [
            (["carpet"], json.dumps({"times": {"t_max": "1"}}), None),
            (["carpet"], json.dumps({"times": {"t_max": math.inf}}), None),
            (["carpet"], json.dumps({"model": {"mas": 1.0}}), None),
            (["carpet"], json.dumps({"engine": {"kind": "quantum"}}), None),
            (["carpet", "--preset", "fig9"], None, None),
            (["carpet"], '{"times": ', None),
            (["carpet", "--threads", "2"], None, None),
            # the tool's cases refused for one value or for their engine
            *((CASES[name].args, CASES[name].config, CASES[name].line) for name in COLD_CASES),
            (["spacing"], json.dumps({"levels": {"n_max": 1}}),
             "error: spacing needs levels.n_max >= 2"),
        ],
        ids=["t_max-string", "t_max-inf", "unknown-key", "unknown-kind", "unknown-preset",
             "unparsed-json", "threads-flag", *COLD_CASES.values(), "spacing-one-level"],
    )
    def test_malformed_input_exits_2_before_numpy(self, tmp_path, args, text, line):
        # a run refused for its command line or its document alone never
        # loads numpy: with numpy made unimportable it still exits 2
        if text is not None:
            (tmp_path / "config.json").write_text(text)
            args = [*args, "--config", "config.json"]
        code = (
            "import runpy, sys; sys.modules['numpy'] = None; "
            f"sys.argv = ['relwell', *{[*args, '--out', 'out']!r}]; "
            "runpy.run_module('relwell.cli', run_name='__main__', alter_sys=True)"
        )
        job = fresh_python(code, cwd=tmp_path)
        assert job.returncode == 2, job.stderr
        assert not (tmp_path / "out").exists()
        err = job.stderr.splitlines()
        if "--threads" in args:
            assert "unrecognized arguments: --threads" in err[-1]
        else:
            assert len(err) == 1 and err[0].startswith("error:"), job.stderr
        if line is not None:
            assert err == [line]

    def test_resolved_config_loads_its_numerics(self):
        # a library caller builds a ResolvedConfig with no prior main call
        code = (
            "import relwell.cli as cli; "
            "print(cli.ResolvedConfig(cli.load_config('fig3', None)).spatial_grid().intervals)"
        )
        out = fresh_python(code)
        assert out.returncode == 0, out.stderr
        assert int(out.stdout) == 1 << 20

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
        if config is not None:
            (tmp_path / "config.json").write_text(json.dumps(config))
            args = [*args, "--config", "config.json"]
        code = (
            "import sys; sys.modules['scipy'] = None; import relwell.cli; "
            f"sys.exit(relwell.cli.main({[*args, '--out', '.']!r}))"
        )
        job = fresh_python(code, cwd=tmp_path)
        assert job.returncode == 0, job.stderr


class TestScratchMemory:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the CLI tunes glibc alone")
    def test_large_transforms_keep_their_scratch_resident(self, tmp_path):
        # a 2^21-point rfft allocates and frees 32 MiB of scratch; after a CLI
        # run, the next transforms find it resident instead of faulting its
        # 8160 pages in again on every call
        config = {
            "model": {"well_width_in_compton": 1.0},
            "packet": {"x0_over_L": 0.5, "sigma_over_L": 1e-5, "p0_in_hbar_over_L": 0.0},
            "engine": {"kind": "exact", "grid_intervals": 1 << 20},
            "times": {"t_max": 1.0, "samples": 2, "unit": "natural"},
            "output": {"basename": "f", "formats": ["pgm"]},
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        code = (
            "import resource, numpy as np, relwell.cli\n"
            "from relwell.grids import sine_transform, sine_workspace\n"
            "assert relwell.cli.main(['carpet', '--config', 'config.json', '--out', '.']) == 0\n"
            "n = (1 << 20) - 1\n"
            "workspace, part, out = sine_workspace(n), np.ones(n), np.empty(n)\n"
            # the new buffers take the heap's free top: one transform grows it back
            "sine_transform(part, workspace, out=out)\n"
            "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "before = faults()\n"
            "for _ in range(3): sine_transform(part, workspace, out=out)\n"
            "print((faults() - before) / 3)"
        )
        job = fresh_python(code, cwd=tmp_path)
        assert job.returncode == 0, job.stderr
        assert float(job.stdout) < 1000


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

    def test_units_lists_are_the_cli_table(self):
        # the "Units" section lists each output's dimensioned numbers, with
        # their units, and its dimensionless ones: relwell.cli.DIMENSIONS
        units = {
            "mc²": "energy", "ħ/(mc²)": "time", "ħ/(mc)": "length", "mc": "momentum",
            "mc/ħ": "density", "(mc²)²": "energy^2",
        }
        text = (Path(__file__).parents[1] / "README.md").read_text()
        listed = {}
        headings = {"Dimensioned outputs, with their units:": True,
                    "Dimensionless outputs, equal in any units:": False}
        for heading, dimensioned in headings.items():
            block = text.split(f"\n{heading}\n", 1)[1].split("\n\n", 1)[0]
            for bullet in block.replace("\n  ", " ").splitlines():
                owner, rest = bullet.removeprefix("- ").split(": ", 1)
                entry = listed.setdefault(owner.strip("`"), {})
                for part in rest.split("; "):
                    names, unit = part.rsplit(" in ", 1) if dimensioned else (part, None)
                    for name in re.findall(r"`(\w+)`", names):
                        assert name not in entry, (owner, name)
                        entry[name] = units[unit] if dimensioned else None
        assert listed == cli.DIMENSIONS


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


# each documented exit code and the prefix of the one stderr line it prints
EXIT_PREFIXES = {0: None, 2: "error: ", 3: "numerical error: ", 4: "i/o error: "}


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
                stderr = io.StringIO()
                with mock.patch.object(cli, "SPLIT_WORK_LIMIT", FUZZ_SPLIT_WORK_LIMIT):
                    with contextlib.redirect_stderr(stderr):
                        code = main([command, "--config", str(path), "--out", str(out)])
                assert code in EXIT_PREFIXES
                lines = stderr.getvalue().splitlines()
                if code == 0:
                    assert lines == []
                    for written in out.iterdir():
                        assert_written_values_finite(written)
                else:
                    assert len(lines) == 1 and lines[0].startswith(EXIT_PREFIXES[code])
                if code == 2:
                    assert not out.exists() or list(out.iterdir()) == []


class TestTracedBenchmark:
    @pytest.mark.parametrize(
        "command, config, spans",
        [
            ("coeffs", None, ["packets.gaussian_state", "packets.decompose",
                              "packets.write_coefficients_csv", "model.revival_times"]),
            ("revivals", None, ["model.revival_times"]),
            ("spectrum",
             {"engine": {"kind": "diag", "momentum_points": 64}, "levels": {"n_max": 16}},
             ["momentum.solve", "momentum.build_hamiltonian", "momentum.write_spectrum_csv"]),
            ("carpet", small_config(output={"basename": "t", "formats": ["csv", "pgm"]}),
             ["observables.carpet", "spectral.density_rows", "observables.write_carpet_csv",
              "observables.write_carpet_pgm"]),
            ("carpet", SPLIT_STEPPED, ["splitop.propagate"]),
            ("autocorr", None, ["observables.autocorrelation", "observables.extract_levels",
                                "observables.write_autocorrelation_csv"]),
            ("spacing", None, ["observables.write_spacing_csv"]),
        ],
        ids=["coeffs", "revivals", "diag", "exact-carpet", "split-carpet", "autocorr", "spacing"],
    )
    def test_traced_job_wraps_every_name(self, tmp_path, command, config, spans):
        # bench/traced_job.py resolves each function it wraps before the job
        # runs, so a renamed or deleted function fails here, not only in the
        # bench; and the bench reads a span that never ran as 0 s, so each
        # job must record its own spans
        root = Path(__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        argv = [command, "--out", str(tmp_path / "out")]
        if config is None:
            argv += ["--preset", "default"]
        else:
            (tmp_path / "config.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "config.json")]
        spans_path = tmp_path / "spans.json"
        job = subprocess.run(
            [sys.executable, str(root / "bench" / "traced_job.py"), str(spans_path), "--", *argv],
            env=env,
            capture_output=True,
            text=True,
        )
        assert job.returncode == 0, job.stderr
        names = {span["name"] for span in json.loads(spans_path.read_text())["spans"]}
        # the writers were wrapped on relwell.cli before the CLI bound its
        # numerics, and the command called the wrappers
        assert {"cli.resolve", "cli.command", *spans} <= names
