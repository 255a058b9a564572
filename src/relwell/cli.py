"""Command-line front end: config parsing, experiment orchestration, file output.

A run is described by a single JSON document with ``model``, ``packet``,
``engine``, ``times``, ``levels`` and ``output`` blocks; named presets cover
the standard figure-class workloads.  Exit codes: 0 success, 2 validation,
3 numerical, 4 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import SimulationError
from .grids import SpatialGrid, write_table
from .model import SCALE_FIELDS, WellModel, energy, revival_times
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


# the type of each key an engine kind takes besides kind: these keys have no
# defaults, so DEFAULT_CONFIG cannot give their types
_ENGINE_KEYS = {
    "exact": {"grid_intervals": int, "n_max": int},
    "split": {
        "grid_size": int, "dt": float, "wall_height_in_mc2": float, "wall_margin_over_L": float
    },
    "diag": {"momentum_points": int, "p_max_in_mc": float, "wall_height_in_mc2": float},
}
# Strang steps x grid points above which a split carpet is refused before it
# starts: about 20 to 50 minutes of stepping at 0.012-0.03 us per point and
# step (N = 2048 to 256, one thread of a 2-vCPU AMD EPYC host).  A run that
# splitop.power_plan powers counts the same steps, though it may take far
# less time.
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


def _is_real(value) -> bool:
    """A finite int or float; bools, strings, None, NaN and infinities are not."""
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        return False


# field type -> (the JSON values it accepts, how an error names it); an integer
# stays below 2^62 so that it and its successor can size or index an array
_FIELD_TYPES = {
    float: (_is_real, "a finite number"),
    int: (lambda v: type(v) is int and abs(v) < 2**62, "an integer below 2^62"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v), "a list of names"),
    dict: (lambda v: isinstance(v, dict), "a JSON object"),
}


def _check_block(block, types: dict, name: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{name} must be a JSON object")
    unknown = set(block).difference(types)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}; known: {sorted(types)}")
    for key, value in block.items():
        accepts, description = _FIELD_TYPES[types[key]]
        if not accepts(value):
            raise ConfigError(f"{name}.{key} must be {description}")


def _check_fields(document) -> None:
    """Each block is a JSON object with only known keys, each holding a value
    of its key's type: DEFAULT_CONFIG's values give the types, and
    _ENGINE_KEYS those of the engine keys other than kind."""
    _check_block(document, dict.fromkeys(DEFAULT_CONFIG, dict), "config")
    for name, defaults in DEFAULT_CONFIG.items():
        types = {key: type(value) for key, value in defaults.items()}
        if name == "engine":
            kind = document[name].get("kind")
            if not isinstance(kind, str) or kind not in _ENGINE_KEYS:
                raise ConfigError(f"engine.kind must be one of {sorted(_ENGINE_KEYS)}")
            types.update(_ENGINE_KEYS[kind])
        _check_block(document[name], types, name)


def _merge(base: dict, override: dict) -> dict:
    """The config's two levels: each block of ``override`` updates a copy of
    the same block of ``base``, and anything else replaces what it names."""
    merged = {name: dict(block) for name, block in base.items()}
    for name, block in override.items():
        if isinstance(block, dict) and name in merged:
            merged[name].update(block)
        else:
            merged[name] = block
    return merged


def load_config(preset: str | None, config_path: str | None) -> dict:
    if preset is not None and config_path is not None:
        raise ConfigError("give either --preset or --config, not both")
    if config_path is not None:
        with open(config_path) as fh:
            try:
                document = json.load(fh)
            except RecursionError:
                raise ConfigError(f"{config_path} is nested too deeply to parse") from None
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
        _check_fields(document)
        self.document = document

        model_block = document["model"]
        for key in sorted(model_block):
            if model_block[key] <= 0:
                raise ConfigError(f"model.{key} must be positive")
        mass, light_speed = model_block["mass"], model_block["light_speed"]
        scale = 2.0 * math.pi * model_block["hbar"] / (mass * light_speed)
        self.model = WellModel(
            mass=mass,
            light_speed=light_speed,
            hbar=model_block["hbar"],
            well_width=model_block["well_width_in_compton"] * scale,
        )

        packet_block = document["packet"]
        L = self.model.well_width
        self.packet = WavepacketSpec(
            x0=packet_block["x0_over_L"] * L,
            sigma=packet_block["sigma_over_L"] * L,
            p0=packet_block["p0_in_hbar_over_L"] * self.model.hbar / L,
        )
        self.packet.validate_against(self.model)
        self.engine = dict(document["engine"])

        times_block = document["times"]
        if times_block["t_max"] < 0:
            raise ConfigError("times.t_max must be nonnegative")
        if times_block["samples"] < 1:
            raise ConfigError("times.samples must be positive")
        if times_block["unit"] not in ("natural", "classical", "revival"):
            raise ConfigError("times.unit must be natural, classical or revival")
        self.times_block = times_block

        n_min, n_max = document["levels"]["n_min"], document["levels"]["n_max"]
        if not 1 <= n_min <= n_max:
            raise ConfigError("levels.n_min/n_max must satisfy 1 <= n_min <= n_max")
        self.levels = (n_min, n_max)

        formats, basename = document["output"]["formats"], document["output"]["basename"]
        bad = set(formats) - {"csv", "bin", "pgm"}
        if bad:
            raise ConfigError(f"unknown output formats: {sorted(bad)}")
        if basename in ("", ".", "..") or any(c in basename for c in "/\\\0"):
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
                raise ConfigError(
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
            t_max = float(block["t_max"])  # an int beyond int64 would make linspace fail
        else:
            rt = revival_times(self.model, n0)
            t_max = block["t_max"] * (rt.t_classical if unit == "classical" else rt.t_revival)
            if not math.isfinite(t_max):
                raise ConfigError(f"times.t_max of {block['t_max']!r} {unit} periods overflows")
        return np.linspace(0.0, t_max, block["samples"])


def _write_outputs(
    outdir: Path, resolved: ResolvedConfig, command: str, summary: dict, products: dict
) -> None:
    """Write each product to ``<basename>_<suffix>``, one at a time, and then
    the sidecar ``<basename>_<command>.meta.json`` holding ``summary``.

    ``products`` maps a file suffix to the writer that takes that file's
    path.  The sidecar is serialized before the first file is opened, so a
    value it cannot hold ends the run with nothing written.
    """
    paths = {suffix: outdir / f"{resolved.basename}_{suffix}" for suffix in products}
    sidecar = outdir / f"{resolved.basename}_{command}.meta.json"
    payload = {
        "command": command,
        "version": __version__,
        "config": resolved.document,
        "well_width": resolved.model.well_width,
        "compton_wavelength": resolved.model.compton_wavelength,
        "files": [path.name for path in paths.values()],
        **summary,
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, default=str, allow_nan=False)
    except ValueError as exc:
        raise SimulationError(f"refusing to write {sidecar}: {exc}") from None
    for suffix, write in products.items():
        write(paths[suffix])
    with open(sidecar, "w") as fh:
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


def cmd_spectrum(resolved: ResolvedConfig, outdir: Path) -> None:
    model = resolved.model
    n_min, n_max = resolved.levels
    levels = np.arange(n_min, n_max + 1)
    energies = energy(model, levels)
    products = {"spectrum.csv": lambda path: write_table(path, ("n", "energy"), (levels, energies))}
    summary = {}
    if resolved.engine["kind"] == "diag":
        count = resolved.engine.get("momentum_points", DEFAULT_GRID_SIZE)
        p_max = resolved.engine.get("p_max_in_mc")
        grid = (
            default_grid(model, n_max, count)
            if p_max is None
            else MomentumGrid(p_max * model.momentum_scale, count)
        )
        wall_factor = resolved.engine.get("wall_height_in_mc2", DEFAULT_WALL_HEIGHT_FACTOR)
        wall = wall_factor * model.energy_scale
        if n_max > grid.count:
            raise ConfigError(f"levels.n_max={n_max} exceeds engine.momentum_points={grid.count}")
        spectrum = solve(grid, model, wall, k_levels=n_max)
        products["spectrum_diag.csv"] = partial(write_spectrum_csv, spectrum, model)
        summary["diag_metadata"] = spectrum.metadata
    _write_outputs(outdir, resolved, "spectrum", summary, products)


def cmd_carpet(resolved: ResolvedConfig, outdir: Path) -> None:
    kind = resolved.engine["kind"]
    if kind == "diag":
        raise ConfigError("carpet supports the exact and split engines only")
    coeffs, grid = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    times = resolved.resolve_times(summary["n0"])

    config = None
    if kind == "split":
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
        t_max = float(times.max())
        steps = config.steps(t_max)
        if steps * config.grid_size > SPLIT_WORK_LIMIT:
            raise ConfigError(
                f"the split engine would take {steps:.3g} steps on {config.grid_size} points; "
                "lower times.t_max or use the exact engine"
            )
        summary["dt"] = config.step_dt(t_max)
        summary["strang_steps"] = steps
        summary["split_grid_size"] = config.grid_size
        summary["wall_height"] = config.wall_height
    result = carpet(coeffs, grid, times, config=config)

    writers = {"csv": write_carpet_csv, "bin": write_carpet_binary, "pgm": write_carpet_pgm}
    products = {
        f"carpet.{suffix}": partial(write, result)
        for suffix, write in writers.items()
        if suffix in resolved.formats
    }
    summary["engine"] = kind
    summary["rows"] = int(result.times.size)
    summary["columns"] = int(result.positions.size)
    _write_outputs(outdir, resolved, "carpet", summary, products)


def cmd_revivals(resolved: ResolvedConfig, outdir: Path) -> None:
    n_min, n_max = resolved.levels
    levels = np.arange(n_min, n_max + 1)
    header = ("n", "t_classical", "t_revival", "t_super")
    rts = [revival_times(resolved.model, n) for n in levels.tolist()]
    coeffs, _ = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)

    def write(path):
        write_table(path, header, (levels, *([getattr(rt, h) for rt in rts] for h in header[1:])))

    _write_outputs(outdir, resolved, "revivals", summary, {"revivals.csv": write})


def cmd_autocorr(resolved: ResolvedConfig, outdir: Path) -> None:
    if resolved.engine["kind"] != "exact":
        raise ConfigError("autocorr uses the exact engine")
    coeffs, _ = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    times = resolved.resolve_times(summary["n0"])
    series = autocorrelation(coeffs, times)
    products = {"autocorr.csv": partial(write_autocorrelation_csv, series)}
    if times.size >= 8 and times[-1] > 0:
        estimates = extract_levels(series, hbar=resolved.model.hbar)
        if not (math.isfinite(estimates.resolution) and np.isfinite(estimates.energies).all()):
            raise ConfigError(
                f"times.t_max of {times[-1]!r} is too short for a finite Fourier resolution"
            )
        products["levels.csv"] = lambda path: write_table(
            path, ("energy", "weight"), (estimates.energies, estimates.weights)
        )
        summary["fourier_resolution"] = estimates.resolution
    _write_outputs(outdir, resolved, "autocorr", summary, products)


def cmd_spacing(resolved: ResolvedConfig, outdir: Path) -> None:
    _, n_max = resolved.levels
    stats = level_spacing(resolved.model, n_max)
    summary = {key: getattr(stats, key) for key in ("mean", "variance", "asymptote_gap")}
    products = {"spacing.csv": partial(write_spacing_csv, stats)}
    _write_outputs(outdir, resolved, "spacing", summary, products)


def cmd_coeffs(resolved: ResolvedConfig, outdir: Path) -> None:
    coeffs, _ = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    products = {"coeffs.csv": partial(write_coefficients_csv, coeffs)}
    _write_outputs(outdir, resolved, "coeffs", summary, products)


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
    return parser


# numpy's warnings on the way to a non-finite value would add lines to stderr;
# the value is reported once, by the check or the error it ends in
@np.errstate(all="ignore")
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
        resolved = ResolvedConfig(document)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](resolved, outdir)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical error: {exc}; bring {SCALE_FIELDS} closer to 1", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
