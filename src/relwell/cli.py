"""Command-line front end: config parsing, experiment orchestration, file output.

A run is described by a single JSON document with ``model``, ``packet``,
``engine``, ``times``, ``levels`` and ``output`` blocks; named presets cover
the standard figure-class workloads.  Exit codes: 0 success, 2 validation,
3 numerical, 4 I/O.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    AliasingError,
    ResolutionError,
    SimulationError,
)
from .grids import SpatialGrid, write_table
from .model import WellModel, energy, revival_times
from .momentum import (
    DEFAULT_GRID_SIZE,
    DEFAULT_WALL_HEIGHT_FACTOR,
    MomentumGrid,
    default_grid,
    solve,
    write_spectrum_csv,
)
from .observables import (
    autocorrelation,
    carpet,
    extract_levels,
    level_spacing,
    write_autocorrelation_csv,
    write_carpet_binary,
    write_carpet_csv,
    write_carpet_pgm,
    write_levels_csv,
    write_spacing_csv,
)
from .packets import (
    MIN_POINTS_PER_SIGMA,
    WavepacketSpec,
    decompose,
    dominant_level,
    gaussian_state,
    write_coefficients_csv,
)
from .splitop import default_config


class ConfigError(ValueError):
    """A configuration document failed validation."""


_MODEL_KEYS = {"mass", "light_speed", "hbar", "well_width_in_compton"}
_PACKET_KEYS = {"x0_over_L", "sigma_over_L", "p0_in_hbar_over_L"}
_TIMES_KEYS = {"t_max", "samples", "unit"}
_LEVELS_KEYS = {"n_min", "n_max"}
_OUTPUT_KEYS = {"basename", "formats"}
_ENGINE_KEYS = {
    "exact": {"kind", "grid_intervals", "n_max"},
    "split": {"kind", "grid_size", "dt", "wall_height_in_mc2", "wall_margin_over_L"},
    "diag": {"kind", "momentum_points", "p_max_in_mc", "wall_height_in_mc2"},
}
_ENGINE_INTEGERS = {"grid_intervals", "n_max", "grid_size", "momentum_points"}
_BLOCK_KEYS = {"model", "packet", "engine", "times", "levels", "output"}
# Strang steps x grid points above which a split carpet is refused before it
# starts: one to three hours at 0.03-0.1 us per point and step (N = 2048 to 256)
SPLIT_WORK_LIMIT = 1e11

DEFAULT_CONFIG = {
    "model": {"mass": 1.0, "light_speed": 1.0, "hbar": 1.0, "well_width_in_compton": 10.0},
    "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.05, "p0_in_hbar_over_L": 0.0},
    "engine": {"kind": "exact"},
    "times": {"t_max": 1.0, "samples": 64, "unit": "classical"},
    "levels": {"n_min": 1, "n_max": 100},
    "output": {"basename": "run", "formats": ["csv"]},
}

PRESETS: dict[str, dict] = {
    "default": {},
    "fig1": {
        "model": {"well_width_in_compton": 800.0},
        "levels": {"n_min": 1, "n_max": 1000},
        "output": {"basename": "fig1"},
    },
    "fig2a": {
        "model": {"well_width_in_compton": 125.0},
        "packet": {"x0_over_L": 0.39, "sigma_over_L": 0.05, "p0_in_hbar_over_L": 0.0},
        "times": {"t_max": 1.05, "samples": 256, "unit": "revival"},
        "output": {"basename": "fig2a"},
    },
    "fig2b": {
        "model": {"well_width_in_compton": 125.0},
        "packet": {"x0_over_L": 2.0 / 3.0, "sigma_over_L": 0.05, "p0_in_hbar_over_L": 0.0},
        "times": {"t_max": 1.05, "samples": 256, "unit": "revival"},
        "output": {"basename": "fig2b"},
    },
    "fig2c": {
        "model": {"well_width_in_compton": 125.0},
        "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.05, "p0_in_hbar_over_L": 0.0},
        "times": {"t_max": 1.05, "samples": 256, "unit": "revival"},
        "output": {"basename": "fig2c"},
    },
    "fig3": {
        "model": {"well_width_in_compton": 1.0},
        "packet": {"x0_over_L": 0.5, "sigma_over_L": 1.0e-5, "p0_in_hbar_over_L": 0.0},
        "engine": {"kind": "exact", "grid_intervals": 1 << 20},
        "times": {"t_max": 2.827, "samples": 10, "unit": "natural"},
        # the million-column grid makes CSV impractical; the image is the product
        "output": {"basename": "fig3", "formats": ["pgm"]},
    },
    # intermediate regime: dominant level near 270 at v/c = 0.8, T_rev/T_cl near 1500
    "fig4": {
        "model": {"well_width_in_compton": 101.25},
        "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.04, "p0_in_hbar_over_L": 270.0 * math.pi},
        "times": {"t_max": 1.0, "samples": 512, "unit": "revival"},
        "output": {"basename": "fig4", "formats": ["csv", "pgm"]},
    },
    "fig5a": {
        "model": {"well_width_in_compton": 125.0},
        "packet": {"x0_over_L": 2.0 / 3.0, "sigma_over_L": 0.05, "p0_in_hbar_over_L": 0.0},
        "output": {"basename": "fig5a"},
    },
    "fig5b": {
        "model": {"well_width_in_compton": 125.0},
        "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.05, "p0_in_hbar_over_L": 0.0},
        "output": {"basename": "fig5b"},
    },
}


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _is_integer(value) -> bool:
    """An int below 2^62 in magnitude, so that it and its successor can size
    or index a numpy array; bools are not."""
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) < 2**62


def _is_real(value) -> bool:
    """A finite int or float; bools, strings, None, NaN and infinities are not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(preset: str | None, config_path: str | None) -> dict:
    if preset is not None and config_path is not None:
        raise ConfigError("give either --preset or --config, not both")
    if config_path is not None:
        with open(config_path) as fh:
            document = json.load(fh)
        if not isinstance(document, dict):
            raise ConfigError("config document must be a JSON object")
        return _merge(DEFAULT_CONFIG, document)
    name = preset or "default"
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return _merge(DEFAULT_CONFIG, PRESETS[name])


class ResolvedConfig:
    """Validated configuration with all quantities in absolute units."""

    def __init__(self, document: dict):
        _reject_unknown(document, _BLOCK_KEYS, "config")
        self.document = document

        model_block = document["model"]
        _reject_unknown(model_block, _MODEL_KEYS, "model")
        for key in sorted(_MODEL_KEYS):
            value = model_block.get(key)
            if not _is_real(value) or value <= 0:
                raise ConfigError(f"model.{key} must be a positive finite number")
        mass, light_speed = model_block["mass"], model_block["light_speed"]
        scale = 2.0 * math.pi * model_block["hbar"] / (mass * light_speed)
        self.model = WellModel(
            mass=mass,
            light_speed=light_speed,
            hbar=model_block["hbar"],
            well_width=model_block["well_width_in_compton"] * scale,
        )

        packet_block = document["packet"]
        _reject_unknown(packet_block, _PACKET_KEYS, "packet")
        for key in sorted(_PACKET_KEYS):
            if not _is_real(packet_block.get(key)):
                raise ConfigError(f"packet.{key} must be a finite number")
        L = self.model.well_width
        self.packet = WavepacketSpec(
            x0=packet_block["x0_over_L"] * L,
            sigma=packet_block["sigma_over_L"] * L,
            p0=packet_block["p0_in_hbar_over_L"] * self.model.hbar / L,
        )
        self.packet.validate_against(self.model)

        engine_block = document["engine"]
        if not isinstance(engine_block, dict):
            raise ConfigError("engine must be a JSON object")
        kind = engine_block.get("kind")
        if not isinstance(kind, str) or kind not in _ENGINE_KEYS:
            raise ConfigError(f"engine.kind must be one of {sorted(_ENGINE_KEYS)}")
        _reject_unknown(engine_block, _ENGINE_KEYS[kind], f"engine ({kind})")
        for key, value in engine_block.items():
            if key in _ENGINE_INTEGERS and not _is_integer(value):
                raise ConfigError(f"engine.{key} must be an integer below 2^62")
            if key != "kind" and not _is_real(value):
                raise ConfigError(f"engine.{key} must be a finite number")
        self.engine = dict(engine_block)

        times_block = document["times"]
        _reject_unknown(times_block, _TIMES_KEYS, "times")
        t_max = times_block.get("t_max")
        if not _is_real(t_max) or t_max < 0:
            raise ConfigError("times.t_max must be a finite nonnegative number")
        samples = times_block.get("samples")
        if not _is_integer(samples) or samples < 1:
            raise ConfigError("times.samples must be a positive integer below 2^62")
        if times_block["unit"] not in ("natural", "classical", "revival"):
            raise ConfigError("times.unit must be natural, classical or revival")
        self.times_block = times_block

        levels_block = document["levels"]
        _reject_unknown(levels_block, _LEVELS_KEYS, "levels")
        n_min, n_max = levels_block["n_min"], levels_block["n_max"]
        if not (_is_integer(n_min) and _is_integer(n_max) and 1 <= n_min <= n_max):
            raise ConfigError("levels.n_min/n_max must be integers with 1 <= n_min <= n_max < 2^62")
        self.levels = (n_min, n_max)

        output_block = document["output"]
        _reject_unknown(output_block, _OUTPUT_KEYS, "output")
        formats = output_block["formats"]
        if not isinstance(formats, list) or not all(isinstance(f, str) for f in formats):
            raise ConfigError("output.formats must be a list of format names")
        bad = set(formats) - {"csv", "bin", "pgm"}
        if bad:
            raise ConfigError(f"unknown output formats: {sorted(bad)}")
        basename = output_block["basename"]
        if (
            not isinstance(basename, str)
            or basename in ("", ".", "..")
            or any(c in basename for c in "/\\\0")
        ):
            raise ConfigError("output.basename must be a non-empty file name without a path")
        self.basename = basename
        self.formats = list(formats)

    # -- derived helpers ---------------------------------------------------

    def spatial_grid(self) -> SpatialGrid:
        L = self.model.well_width
        sigma = self.packet.sigma
        intervals = self.engine.get("grid_intervals")
        if intervals is None:
            k_top = abs(self.packet.p0) / self.model.hbar + 4.0 / sigma
            needed = max(1024.0, 16.0 * L / sigma, 4.0 * k_top * L / math.pi)
            if not needed <= 2**61:
                raise ConfigError(f"the packet needs {needed:.3g} grid intervals, beyond any array")
            intervals = 1 << max(10, math.ceil(math.log2(needed)))
        else:
            minimum = math.ceil(MIN_POINTS_PER_SIGMA * L / sigma)
            if intervals < minimum:
                raise ResolutionError(
                    f"engine.grid_intervals={intervals} under-resolves the packet; "
                    f"need at least {minimum} intervals"
                )
        return SpatialGrid(L, int(intervals))

    def coefficients(self):
        grid = self.spatial_grid()
        state = gaussian_state(self.packet, grid, self.model)
        coeffs = decompose(state, self.model, self.engine.get("n_max"))
        return coeffs, grid

    def resolve_times(self, n0: int) -> np.ndarray:
        block = self.times_block
        unit = block["unit"]
        if unit == "natural":
            t_max = block["t_max"]
        else:
            rt = revival_times(self.model, n0)
            t_max = block["t_max"] * (rt.t_classical if unit == "classical" else rt.t_revival)
            if not math.isfinite(t_max):
                raise ConfigError(f"times.t_max of {block['t_max']!r} {unit} periods overflows")
        return np.linspace(0.0, t_max, block["samples"])


def _write_sidecar(path: Path, resolved: ResolvedConfig, command: str, extra: dict) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "config": resolved.document,
        "well_width": resolved.model.well_width,
        "compton_wavelength": resolved.model.compton_wavelength,
    }
    payload.update(extra)
    text = json.dumps(payload, indent=2, sort_keys=True, default=str, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _revival_summary(resolved: ResolvedConfig, coeffs) -> dict:
    n0 = dominant_level(coeffs)
    rt = revival_times(resolved.model, n0)
    weights = coeffs.weights()
    expectation = float(np.dot(coeffs.levels, weights) / float(weights.sum()))
    return {
        "n0": n0,
        "expectation_level": int(round(expectation)),
        "t_classical": rt.t_classical,
        "t_revival": rt.t_revival,
        "t_super": rt.t_super,
        "gamma": rt.gamma,
        "parseval_defect": coeffs.metadata.get("parseval_defect"),
    }


# -- commands ---------------------------------------------------------------


def cmd_spectrum(resolved: ResolvedConfig, outdir: Path, threads: int) -> None:
    n_min, n_max = resolved.levels
    levels = np.arange(n_min, n_max + 1)
    energies = energy(resolved.model, levels)
    path = outdir / f"{resolved.basename}_spectrum.csv"
    write_table(path, ("n", "energy"), (levels, energies))
    extra: dict = {"files": [path.name]}

    if resolved.engine["kind"] == "diag":
        model = resolved.model
        count = resolved.engine.get("momentum_points", DEFAULT_GRID_SIZE)
        p_max = resolved.engine.get("p_max_in_mc")
        grid = (
            default_grid(model, n_max, count)
            if p_max is None
            else MomentumGrid(p_max * model.momentum_scale, count)
        )
        wall_factor = resolved.engine.get("wall_height_in_mc2", DEFAULT_WALL_HEIGHT_FACTOR)
        wall = wall_factor * model.energy_scale
        spectrum = solve(grid, model, wall, k_levels=n_max)
        diag_path = outdir / f"{resolved.basename}_spectrum_diag.csv"
        write_spectrum_csv(spectrum, model, diag_path)
        extra["files"].append(diag_path.name)
        extra["diag_metadata"] = spectrum.metadata

    _write_sidecar(outdir / f"{resolved.basename}_spectrum.meta.json", resolved, "spectrum", extra)


def cmd_carpet(resolved: ResolvedConfig, outdir: Path, threads: int) -> None:
    kind = resolved.engine["kind"]
    if kind == "diag":
        raise ConfigError("carpet supports the exact and split engines only")
    coeffs, grid = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    times = resolved.resolve_times(summary["n0"])

    if kind == "exact":
        result = carpet(
            coeffs, grid, times, engine="exact-spectral", packet=resolved.packet, workers=threads
        )
    else:
        engine, model = resolved.engine, resolved.model
        wall, margin = engine.get("wall_height_in_mc2"), engine.get("wall_margin_over_L")
        config = default_config(
            model,
            n0=summary["n0"],
            p0=resolved.packet.p0,
            sigma=resolved.packet.sigma,
            dt=engine.get("dt"),
            grid_size=engine.get("grid_size"),
            wall_height=None if wall is None else wall * model.energy_scale,
            wall_margin=None if margin is None else margin * model.well_width,
        )
        steps = round(float(times.max()) / config.dt)
        if steps * config.grid_size > SPLIT_WORK_LIMIT:
            raise ConfigError(
                f"the split engine would take {steps:.3g} steps on {config.grid_size} points; "
                "lower times.t_max or use the exact engine"
            )
        result = carpet(
            coeffs, grid, times, engine="split-operator", config=config, packet=resolved.packet
        )
        summary["dt"] = config.dt
        summary["split_grid_size"] = config.grid_size
        summary["wall_height"] = config.wall_height

    files = []
    writers = {"csv": write_carpet_csv, "bin": write_carpet_binary, "pgm": write_carpet_pgm}
    for suffix, write in writers.items():
        if suffix in resolved.formats:
            path = outdir / f"{resolved.basename}_carpet.{suffix}"
            write(result, path)
            files.append(path.name)

    summary["engine"] = kind
    summary["files"] = files
    summary["rows"] = int(result.times.size)
    summary["columns"] = int(result.positions.size)
    _write_sidecar(outdir / f"{resolved.basename}_carpet.meta.json", resolved, "carpet", summary)


def cmd_revivals(resolved: ResolvedConfig, outdir: Path, threads: int) -> None:
    n_min, n_max = resolved.levels
    path = outdir / f"{resolved.basename}_revivals.csv"
    levels = np.arange(n_min, n_max + 1)
    header = ("n", "t_classical", "t_revival", "t_super")
    rts = [revival_times(resolved.model, n) for n in levels.tolist()]
    write_table(path, header, (levels, *([getattr(rt, h) for rt in rts] for h in header[1:])))
    coeffs, _ = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    summary["files"] = [path.name]
    _write_sidecar(outdir / f"{resolved.basename}_revivals.meta.json", resolved, "revivals", summary)


def cmd_autocorr(resolved: ResolvedConfig, outdir: Path, threads: int) -> None:
    if resolved.engine["kind"] != "exact":
        raise ConfigError("autocorr uses the exact engine")
    coeffs, _ = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    times = resolved.resolve_times(summary["n0"])
    series = autocorrelation(coeffs, times)
    # level extraction is settled before a file is opened, so a record too
    # short to resolve levels leaves nothing behind
    estimates = None
    if times.size >= 8 and times[-1] > 0:
        estimates = extract_levels(series, hbar=resolved.model.hbar)
        if not (math.isfinite(estimates.resolution) and np.isfinite(estimates.energies).all()):
            raise ConfigError(
                f"times.t_max of {times[-1]!r} is too short for a finite Fourier resolution"
            )
    path = outdir / f"{resolved.basename}_autocorr.csv"
    write_autocorrelation_csv(series, path)
    files = [path.name]

    if estimates is not None:
        levels_path = outdir / f"{resolved.basename}_levels.csv"
        write_levels_csv(estimates, levels_path)
        files.append(levels_path.name)
        summary["fourier_resolution"] = estimates.resolution

    summary["files"] = files
    _write_sidecar(outdir / f"{resolved.basename}_autocorr.meta.json", resolved, "autocorr", summary)


def cmd_spacing(resolved: ResolvedConfig, outdir: Path, threads: int) -> None:
    _, n_max = resolved.levels
    stats = level_spacing(resolved.model, n_max)
    path = outdir / f"{resolved.basename}_spacing.csv"
    write_spacing_csv(stats, path)
    summary = {key: getattr(stats, key) for key in ("mean", "variance", "asymptote_gap")}
    summary["files"] = [path.name]
    _write_sidecar(outdir / f"{resolved.basename}_spacing.meta.json", resolved, "spacing", summary)


def cmd_coeffs(resolved: ResolvedConfig, outdir: Path, threads: int) -> None:
    coeffs, _ = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    path = outdir / f"{resolved.basename}_coeffs.csv"
    write_coefficients_csv(coeffs, path)
    summary["files"] = [path.name]
    _write_sidecar(outdir / f"{resolved.basename}_coeffs.meta.json", resolved, "coeffs", summary)


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "carpet": cmd_carpet,
    "revivals": cmd_revivals,
    "autocorr": cmd_autocorr,
    "spacing": cmd_spacing,
    "coeffs": cmd_coeffs,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relwell",
        description="Salpeter particle in a box: spectra, revivals, quantum carpets.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--preset", help="named built-in workload (e.g. fig2c)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--engine", choices=["exact", "split", "diag"], help="engine override")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for carpet rows")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        document = load_config(args.preset, args.config)
        if args.engine is not None:
            # keep the preset's settings that the overriding engine understands
            engine = document["engine"] if isinstance(document["engine"], dict) else {}
            allowed = _ENGINE_KEYS[args.engine]
            document["engine"] = {k: v for k, v in engine.items() if k in allowed}
            document["engine"]["kind"] = args.engine
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        resolved = ResolvedConfig(document)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    try:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](resolved, outdir, args.threads)
    except (ConfigError, ResolutionError, AliasingError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
