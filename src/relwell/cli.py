"""Command-line front end: config parsing, experiment orchestration, file output.

A run is described by a single JSON document with ``model``, ``packet``,
``engine``, ``times``, ``levels`` and ``output`` blocks; named presets cover
the standard figure-class workloads.  Every engine computes in natural
units, hbar = c = m = 1: the document's units enter once, in ResolvedConfig,
and leave once, in _write_outputs, which converts by one table.  Exit
codes: 0 success, 2 validation, 3 numerical, 4 I/O.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

from . import SimulationError, __version__

# name -> the module that defines it.  These and numpy (as np) load only when
# a ResolvedConfig is built, or on first access from outside, so a document
# that _check_document refuses, or a bad command line, exits before numpy is
# imported.
_NUMERICS = {
    name: module
    for module, names in (
        ("grids", "SpatialGrid all_finite write_table"),
        ("model", "WellModel energy revival_times"),
        ("momentum", "DEFAULT_WALL_HEIGHT default_grid solve write_spectrum_csv"),
        ("observables", "MIN_RECORD autocorrelation carpet extract_levels level_spacing "
                        "write_autocorrelation_csv write_carpet_binary write_carpet_csv "
                        "write_carpet_pgm write_density_pgm write_spacing_csv"),
        ("packets", "WavepacketSpec auto_intervals decompose dominant_level gaussian_state "
                    "min_intervals write_coefficients_csv"),
        ("spectral", "density_stream"),
        ("splitop", "default_config"),
    )
    for name in names.split()
}


def _load_numerics() -> None:
    """Bind numpy and each name of _NUMERICS that is not bound yet.  A name
    already bound stays: a wrapper set on this module before the first run is
    the function the command calls."""
    namespace = globals()
    namespace.setdefault("np", importlib.import_module("numpy"))
    for name, module in _NUMERICS.items():
        if name not in namespace:
            namespace[name] = getattr(importlib.import_module(f".{module}", __package__), name)


def __getattr__(name):
    if name != "np" and name not in _NUMERICS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_numerics()
    return globals()[name]


# the unit of each dimension in the document's terms, as the powers of
# model.mass, model.light_speed and model.hbar whose product it is
UNITS = {
    "energy": (1, 2, 0),  # m c^2
    "time": (-1, -2, 1),  # hbar / (m c^2)
    "length": (-1, -1, 1),  # hbar / (m c)
    "momentum": (1, 1, 0),  # m c
    "density": (1, 1, -1),  # per length
    "energy^2": (2, 4, 0),  # of a variance of energies
    "per time": (1, 2, -1),  # m c^2 / hbar, which takes the document's times in
}
# the dimension of each number an output holds, by output and column or
# sidecar key (in nested objects too): a name of UNITS, or None.  A carpet's
# csv and bin hold the same arrays, listed once as "the carpet"; its PGM is
# normalized to its peak and has no unit.  Products convert in this order.
DIMENSIONS = {
    output: {name: dimension for dimension, names in entry.items() for name in names.split()}
    for output, entry in {
        "spectrum.csv": {"energy": "energy", None: "n"},
        "spectrum_diag.csv": {"energy": "e_numeric e_analytic abs_error", None: "n rel_error"},
        "the carpet": {"time": "t", "length": "x", "density": "density"},
        "revivals.csv": {"time": "t_classical t_revival t_super", None: "n"},
        "levels.csv": {"energy": "energy", None: "weight"},
        "autocorr.csv": {"time": "t", None: "re_a im_a abs_a"},
        "spacing.csv": {"energy": "spacing", None: "n"},
        "coeffs.csv": {None: "n re_a im_a weight"},
        "the sidecar": {
            "length": "well_width compton_wavelength",
            "time": "t_classical t_revival t_super dt",
            "energy": "wall_height fourier_resolution mean asymptote_gap",
            "momentum": "p_max",
            "energy^2": "variance",
            None: "n0 expectation_level gamma parseval_defect count rows columns "
                  "strang_steps split_grid_size",
        },
    }.items()
}


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
    # figure 2's three packets in the box of 125 Compton wavelengths
    **{
        f"fig2{tag}": {
            "model": {"well_width_in_compton": 125.0},
            "packet": {"x0_over_L": x0, "sigma_over_L": 0.05, "p0_in_hbar_over_L": 0.0},
            "times": {"t_max": 1.05, "samples": 256, "unit": "revival"},
            "output": {"basename": f"fig2{tag}"},
        }
        for tag, x0 in (("a", 0.39), ("b", 2.0 / 3.0), ("c", 0.5))
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
    # the coefficients of figure 2's packets b and c
    **{
        f"fig5{tag}": {
            "model": {"well_width_in_compton": 125.0},
            "packet": {"x0_over_L": x0, "sigma_over_L": 0.05, "p0_in_hbar_over_L": 0.0},
            "output": {"basename": f"fig5{tag}"},
        }
        for tag, x0 in (("a", 2.0 / 3.0), ("b", 0.5))
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
        raise ValueError(f"{name} must be a JSON object")
    unknown = set(block).difference(types)
    if unknown:
        raise ValueError(f"unknown keys in {name}: {sorted(unknown)}; known: {sorted(types)}")
    for key, value in block.items():
        accepts, description = _FIELD_TYPES[types[key]]
        if not accepts(value):
            raise ValueError(f"{name}.{key} must be {description}")


def _check_document(document, command: str) -> None:
    """Every rule the command line and the document decide alone.  Each block
    is a JSON object with only known keys, each holding a value of its key's
    type (DEFAULT_CONFIG's values give the types, and _ENGINE_KEYS those of
    the engine keys other than kind); each value lies in its range; and the
    engine is one the command runs."""
    _check_block(document, dict.fromkeys(DEFAULT_CONFIG, dict), "config")
    for name, defaults in DEFAULT_CONFIG.items():
        types = {key: type(value) for key, value in defaults.items()}
        if name == "engine":
            kind = document[name].get("kind")
            if not isinstance(kind, str) or kind not in _ENGINE_KEYS:
                raise ValueError(f"engine.kind must be one of {sorted(_ENGINE_KEYS)}")
            types.update(_ENGINE_KEYS[kind])
        _check_block(document[name], types, name)

    model = document["model"]
    for key in sorted(model):
        if model[key] <= 0:
            raise ValueError(f"model.{key} must be positive")
    times = document["times"]
    if times["t_max"] < 0:
        raise ValueError("times.t_max must be nonnegative")
    if times["samples"] < 1:
        raise ValueError("times.samples must be positive")
    if times["unit"] not in ("natural", "classical", "revival"):
        raise ValueError("times.unit must be natural, classical or revival")
    if not 1 <= document["levels"]["n_min"] <= document["levels"]["n_max"]:
        raise ValueError("levels.n_min/n_max must satisfy 1 <= n_min <= n_max")
    formats, basename = document["output"]["formats"], document["output"]["basename"]
    bad = set(formats) - {"csv", "bin", "pgm"}
    if bad:
        raise ValueError(f"unknown output formats: {sorted(bad)}")
    if basename in ("", ".", "..") or any(c in basename for c in "/\\\0"):
        raise ValueError("output.basename must be a non-empty file name without a path")

    kind = document["engine"]["kind"]
    if command == "carpet" and kind == "diag":
        raise ValueError("carpet supports the exact and split engines only")
    if command == "carpet" and not formats:
        raise ValueError("carpet needs at least one of output.formats")
    if command == "autocorr" and kind != "exact":
        raise ValueError("autocorr uses the exact engine")
    if command == "spacing" and document["levels"]["n_max"] < 2:
        raise ValueError("spacing needs levels.n_max >= 2")


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
        raise ValueError("give either --preset or --config, not both")
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            try:
                document = json.load(fh)
            except RecursionError:
                raise ValueError(f"{config_path} is nested too deeply to parse") from None
        if not isinstance(document, dict):
            raise ValueError("config document must be a JSON object")
        return _merge(DEFAULT_CONFIG, document)
    name = preset or "default"
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return _merge(DEFAULT_CONFIG, PRESETS[name])


def _unit(scales, powers) -> float:
    """The product of ``scales`` raised to ``powers``, correctly rounded: an
    infinity or 0 only where the product itself leaves double range."""
    from fractions import Fraction  # loaded with the model

    exact = math.prod(Fraction(scale) ** power for scale, power in zip(scales, powers))
    try:
        return float(exact)
    except OverflowError:
        return math.inf


def _in_units(values, factor: float, name: str):
    """``values`` times ``factor``: an array in place, a number as a float.
    SimulationError names ``name`` where a finite value leaves double range
    on the way: a nonzero one becomes 0, or any one an infinity or NaN."""
    array = values if isinstance(values, np.ndarray) else np.array(float(values))
    with np.errstate(all="ignore"):
        finite, nonzero = all_finite(array), np.count_nonzero(array)
        array *= factor
        if finite and not (all_finite(array) and np.count_nonzero(array) == nonzero):
            raise SimulationError(
                f"{name} leaves double range in the units that model.mass, "
                "model.light_speed, model.hbar set; bring them closer to 1"
            )
    return values if array is values else float(array)


class ResolvedConfig:
    """A document that has passed _check_document, as a problem in natural
    units; ``units`` holds the factor that takes each dimension of UNITS to
    the document's units.  Building one loads the numerics it calls."""

    def __init__(self, document: dict):
        _load_numerics()
        self.document = document

        scales = [document["model"][key] for key in ("mass", "light_speed", "hbar")]
        self.units = {name: _unit(scales, powers) for name, powers in UNITS.items()}
        width = 2.0 * math.pi * document["model"]["well_width_in_compton"]
        if math.isinf(width):
            raise ArithmeticError("the natural well width 2 pi well_width_in_compton overflows")
        self.model = WellModel(width)

        packet_block = document["packet"]
        lengths = {key: packet_block[f"{key}_over_L"] * width for key in ("x0", "sigma")}
        # a positive fraction of L below 1, as any packet the box takes has,
        # cannot overflow, but of a subnormal L it can underflow
        for key, value in lengths.items():
            if value == 0 and packet_block[f"{key}_over_L"] > 0:
                hint = f"raise packet.{key}_over_L or bring model.well_width_in_compton closer to 1"
                raise SimulationError(f"the packet's {key} underflows to 0; {hint}")
        self.packet = WavepacketSpec(**lengths, p0=packet_block["p0_in_hbar_over_L"] / width)
        self.packet.validate_against(self.model)
        self.engine = dict(document["engine"])
        if "dt" in self.engine:
            self.engine["dt"] = _in_units(self.engine["dt"], self.units["per time"], "engine.dt")
        self.levels = (document["levels"]["n_min"], document["levels"]["n_max"])
        self.basename = document["output"]["basename"]

    def spatial_grid(self) -> SpatialGrid:
        intervals = self.engine.get("grid_intervals")
        if intervals is None:
            intervals = auto_intervals(self.packet, self.model)
        minimum = min_intervals(self.packet, self.model)
        if intervals < minimum:
            raise ValueError(
                f"engine.grid_intervals={intervals} under-resolves the packet; "
                f"need at least {minimum} intervals"
            )
        return SpatialGrid(self.model.well_width, intervals)

    def coefficients(self):
        grid = self.spatial_grid()
        state = gaussian_state(self.packet, grid, self.model)
        coeffs = decompose(state, self.model, self.engine.get("n_max"))
        return coeffs, grid

    def resolve_times(self, summary: dict) -> np.ndarray:
        """Sample times in natural units; the period units read their period
        from a _revival_summary."""
        block = self.document["times"]
        unit = block["unit"]
        if unit == "natural":
            t_max = _in_units(block["t_max"], self.units["per time"], "times.t_max")
        else:
            t_max = block["t_max"] * summary[f"t_{unit}"]
            if not math.isfinite(t_max):
                raise ValueError(f"times.t_max of {block['t_max']!r} {unit} periods overflows")
        return np.linspace(0.0, t_max, block["samples"])


class _Staged(os.PathLike):
    """A file while a run writes it: it opens beside the file, on the same
    file system, as ``.<16 hex digits>.tmp``, the CRC-32 and Adler-32 of the
    file's name, so any name the file system takes can be staged and a rerun
    overwrites a killed run's temporary.  A message that formats it names
    the file itself."""

    def __init__(self, path: Path):
        import zlib  # numpy has loaded it; hashlib would load OpenSSL's libcrypto

        name = os.fsencode(path.name)
        self.path = path
        self.temporary = path.with_name(f".{zlib.crc32(name):08x}{zlib.adler32(name):08x}.tmp")

    def __fspath__(self) -> str:
        return os.fspath(self.temporary)

    def __str__(self) -> str:
        return str(self.path)


def _table(columns: dict) -> tuple:
    """The product of a CSV of ``columns``, each headed by its name."""
    return partial(write_table, header=tuple(columns), columns=tuple(columns.values())), columns


def _write_outputs(
    outdir: Path, resolved: ResolvedConfig, command: str, summary: dict, products: dict
) -> None:
    """Write each product to ``<basename>_<suffix>``, one at a time, and then
    the sidecar ``<basename>_<command>.meta.json`` holding ``summary``, in the
    document's units: all of them, or none.

    ``products`` maps a file suffix to its writer, which takes the file's
    path, and the natural-unit arrays it writes, by column.  Before any file
    is touched, each is converted in place, in DIMENSIONS' order, then each
    sidecar value in its own, and the sidecar is serialized: a value past
    range, or one JSON cannot hold, ends the run with nothing written.  Then
    the sidecar this run replaces is removed and each file is written under
    its temporary name, which it trades for its own, the sidecar last, once
    every one is complete.  On any failure the temporaries are removed.
    """
    # each array once, though a carpet's csv and bin share theirs
    units, converted = resolved.units, set()
    owners = {s: s if s in DIMENSIONS else f"the {s.partition('.')[0]}" for s in products}
    for suffix in sorted(products, key=lambda suffix: list(DIMENSIONS).index(owners[suffix])):
        for column, values in products[suffix][1].items():
            dimension = DIMENSIONS[owners[suffix]][column]
            if dimension is not None and id(values) not in converted:
                converted.add(id(values))
                _in_units(values, units[dimension], f"{owners[suffix]}'s {column}")

    def in_units(values: dict) -> dict:
        dimensions = DIMENSIONS["the sidecar"]
        for key, value in values.items():
            if isinstance(value, dict):
                values[key] = in_units(dict(value))
            elif isinstance(value, (int, float)) and dimensions[key] is not None:
                if not math.isfinite(value):
                    raise ArithmeticError(f"the sidecar's {key} leaves double range")
                values[key] = _in_units(value, units[dimensions[key]], f"the sidecar's {key}")
        return values

    paths = [outdir / f"{resolved.basename}_{suffix}" for suffix in products]
    sidecar = outdir / f"{resolved.basename}_{command}.meta.json"
    widths = {"well_width": resolved.model.well_width, "compton_wavelength": 2.0 * math.pi}
    payload = {
        "command": command,
        "version": __version__,
        "config": resolved.document,
        "files": [path.name for path in paths],
        **in_units({**widths, **summary}),
    }
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise SimulationError(f"refusing to write {sidecar}: {exc}") from None
    staged = [_Staged(path) for path in (*paths, sidecar)]
    sidecar.unlink(missing_ok=True)
    try:
        for (write, _), target in zip(products.values(), staged):
            write(target)
        with open(staged[-1], "w") as fh:
            fh.write(text + "\n")
        for target in staged:
            os.replace(target, target.path)
    except BaseException as exc:
        for target in staged:
            # one that was never made, or whose name the system refused
            with contextlib.suppress(OSError):
                target.temporary.unlink()
        if isinstance(exc, OSError):
            names = {os.fspath(target): str(target) for target in staged}
            exc.filename = names.get(exc.filename, exc.filename)
        raise


def _revival_summary(resolved: ResolvedConfig, coeffs) -> dict:
    n0 = dominant_level(coeffs)
    rt = revival_times(resolved.model, n0)
    weights = coeffs.weights()
    expectation = float(np.dot(coeffs.levels, weights) / float(weights.sum()))
    return {
        "n0": n0,
        "expectation_level": int(round(expectation)),
        **vars(rt),  # t_classical, t_revival, t_super and gamma
        "parseval_defect": coeffs.metadata.get("parseval_defect"),
    }


# -- commands ---------------------------------------------------------------


def cmd_spectrum(resolved: ResolvedConfig, outdir: Path) -> None:
    model, engine = resolved.model, resolved.engine
    n_min, n_max = resolved.levels
    levels = np.arange(n_min, n_max + 1)
    products = {"spectrum.csv": _table({"n": levels, "energy": energy(model, levels)})}
    summary = {}
    if engine["kind"] == "diag":
        grid = default_grid(model, n_max, engine.get("momentum_points"), engine.get("p_max_in_mc"))
        wall = float(engine.get("wall_height_in_mc2", DEFAULT_WALL_HEIGHT))
        if n_max > grid.count:
            raise ValueError(f"levels.n_max={n_max} exceeds engine.momentum_points={grid.count}")
        numeric = solve(grid, model, wall, k_levels=n_max)
        analytic = energy(model, np.arange(1, numeric.size + 1))
        error = np.abs(numeric - analytic)
        columns = (numeric, analytic, error, error / analytic)
        named = dict(zip(("e_numeric", "e_analytic", "abs_error", "rel_error"), columns))
        products["spectrum_diag.csv"] = (partial(write_spectrum_csv, columns), named)
        summary["diag_metadata"] = {"wall_height": wall, "p_max": grid.p_max, "count": grid.count}
    _write_outputs(outdir, resolved, "spectrum", summary, products)


def cmd_carpet(resolved: ResolvedConfig, outdir: Path) -> None:
    kind = resolved.engine["kind"]
    coeffs, grid = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    times = resolved.resolve_times(summary)

    config = None
    if kind == "split":
        engine, model = resolved.engine, resolved.model
        wall, margin = engine.get("wall_height_in_mc2"), engine.get("wall_margin_over_L")
        config = default_config(
            model, n0=summary["n0"], p0=resolved.packet.p0, sigma=resolved.packet.sigma,
            dt=engine.get("dt"), grid_size=engine.get("grid_size"),
            wall_height=None if wall is None else float(wall),
            wall_margin=None if margin is None else margin * model.well_width,
        )
        t_max = float(times.max())
        steps = config.steps(t_max)
        if steps * config.grid_size > SPLIT_WORK_LIMIT:
            raise ValueError(
                f"the split engine would take {steps:.3g} steps on {config.grid_size} points; "
                "lower times.t_max or use the exact engine"
            )
        summary.update(dt=config.step_dt(t_max), strang_steps=steps,
                       split_grid_size=config.grid_size, wall_height=config.wall_height)
    formats = resolved.document["output"]["formats"]
    if config is None and set(formats) == {"pgm"}:
        # the pixels alone: each row is quantized as it is synthesized, and
        # no float carpet is built
        shape = (times.size, grid.size)
        rows_at = lambda indices: density_stream(coeffs, grid, times[indices])
        products = {"carpet.pgm": (partial(write_density_pgm, rows_at, shape), {})}
    else:
        result = carpet(coeffs, grid, times, config=config)
        shape = result.density.shape
        arrays = {"t": result.times, "x": result.positions, "density": result.density}
        writers = {"csv": write_carpet_csv, "bin": write_carpet_binary, "pgm": write_carpet_pgm}
        products = {
            f"carpet.{suffix}": (partial(write, result), {} if suffix == "pgm" else arrays)
            for suffix, write in writers.items()
            if suffix in formats
        }
    summary["engine"] = kind
    summary["rows"], summary["columns"] = shape
    _write_outputs(outdir, resolved, "carpet", summary, products)


def cmd_revivals(resolved: ResolvedConfig, outdir: Path) -> None:
    n_min, n_max = resolved.levels
    levels = np.arange(n_min, n_max + 1)
    rts = [revival_times(resolved.model, n) for n in levels.tolist()]
    coeffs, _ = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    columns = {"n": levels}
    for name in ("t_classical", "t_revival", "t_super"):
        columns[name] = np.array([getattr(rt, name) for rt in rts])
    _write_outputs(outdir, resolved, "revivals", summary, {"revivals.csv": _table(columns)})


def cmd_autocorr(resolved: ResolvedConfig, outdir: Path) -> None:
    coeffs, _ = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    times = resolved.resolve_times(summary)
    series = autocorrelation(coeffs, times)
    products = {"autocorr.csv": (partial(write_autocorrelation_csv, series), {"t": series.times})}
    if times.size >= MIN_RECORD and times[-1] > 0:
        estimates = extract_levels(series)
        if not (math.isfinite(estimates.resolution) and np.isfinite(estimates.energies).all()):
            raise ValueError(
                f"times.t_max of {times[-1]!r} is too short for a finite Fourier resolution"
            )
        products["levels.csv"] = _table({"energy": estimates.energies, "weight": estimates.weights})
        summary["fourier_resolution"] = estimates.resolution
    _write_outputs(outdir, resolved, "autocorr", summary, products)


def cmd_spacing(resolved: ResolvedConfig, outdir: Path) -> None:
    _, n_max = resolved.levels
    stats = level_spacing(resolved.model, n_max)
    summary = {key: getattr(stats, key) for key in ("mean", "variance", "asymptote_gap")}
    products = {"spacing.csv": (partial(write_spacing_csv, stats), {"spacing": stats.spacings})}
    _write_outputs(outdir, resolved, "spacing", summary, products)


def cmd_coeffs(resolved: ResolvedConfig, outdir: Path) -> None:
    coeffs, _ = resolved.coefficients()
    summary = _revival_summary(resolved, coeffs)
    products = {"coeffs.csv": (partial(write_coefficients_csv, coeffs), {})}
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
    parser.add_argument("--engine", choices=list(_ENGINE_KEYS), help="engine override")
    return parser


def _keep_scratch_resident() -> None:
    """On glibc, serve blocks below 32 MiB from the heap and trim it only past
    40 MiB free.  A 2^21-point rfft allocates and frees 32 MiB of scratch;
    by default glibc hands it back and the next transform faults it in again."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        import ctypes
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ImportError, OSError, ValueError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: the 64-bit cap of glibc's dynamic one
    mallopt(-1, 40 << 20)  # M_TRIM_THRESHOLD: at 64 MiB, freed decompose temporaries stay


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
        _check_document(document, args.command)
        # one BLAS thread unless the caller chose: a diag spectrum's bits
        # depend on the thread count, and so would the host's core count
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(name, "1")
        _keep_scratch_resident()
        resolved = ResolvedConfig(document)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        # numpy's warnings on the way to a non-finite value would add lines to
        # stderr; the value is reported once, by the check or the error it ends in
        with np.errstate(all="ignore"):
            _COMMANDS[args.command](resolved, outdir)
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"numerical error: {exc}; bring model.well_width_in_compton closer to 1",
              file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
