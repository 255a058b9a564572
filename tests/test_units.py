"""Scale invariance: m, c and hbar only choose the units.

Every command runs on small documents that differ from a unit document
(m = c = hbar = 1) in their units alone.  Where the units are powers of two,
each file must equal the unit document's with each dimensioned value times
its unit, bit for bit, since scaling by a power of two is exact away from
overflow and underflow; where that scaling leaves double range, the run
must exit 3 with one line and no file.  For any units, the dimensionless
columns and sidecar values must equal the unit document's.
"""

import json
import math
import struct

import numpy as np
import pytest

from relwell.cli import DIMENSIONS, main

BASE = {
    "model": {"well_width_in_compton": 2.0},
    "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.0625, "p0_in_hbar_over_L": 3.0},
    "engine": {"kind": "exact", "grid_intervals": 512},
    "times": {"t_max": 0.25, "samples": 8, "unit": "classical"},
    "levels": {"n_min": 1, "n_max": 12},
    "output": {"basename": "t", "formats": ["csv", "bin", "pgm"]},
}
# each command on the base document, with the blocks that change it: the
# diag spectrum converts momenta and energies, the split carpet takes its dt
# and t_max in the document's time unit
RUNS = {
    "spectrum": ("spectrum", {"engine": {"kind": "diag", "momentum_points": 64}}),
    "carpet": ("carpet", {}),
    "split": (
        "carpet",
        {
            "engine": {"kind": "split", "grid_size": 256, "dt": 2e-3},
            "times": {"t_max": 0.05, "samples": 4, "unit": "natural"},
        },
    ),
    "revivals": ("revivals", {}),
    "autocorr": ("autocorr", {}),
    "spacing": ("spacing", {}),
    "coeffs": ("coeffs", {}),
}
# each unit as the powers of m, c and hbar whose product it is
UNITS = {
    "energy": (1, 2, 0),
    "time": (-1, -2, 1),
    "length": (-1, -1, 1),
    "momentum": (1, 1, 0),
    "density": (1, 1, -1),
    "energy^2": (2, 4, 0),
}
# the unit of each dimensioned CSV column and sidecar value, by name
COLUMNS = {
    **dict.fromkeys(("energy", "e_numeric", "e_analytic", "abs_error", "spacing"), "energy"),
    **dict.fromkeys(("t", "t_classical", "t_revival", "t_super"), "time"),
    "x": "length",
    "density": "density",
}
SIDECAR = {
    **dict.fromkeys(("well_width", "compton_wavelength"), "length"),
    **dict.fromkeys(("t_classical", "t_revival", "t_super", "dt"), "time"),
    **dict.fromkeys(("wall_height", "fourier_resolution", "mean", "asymptote_gap"), "energy"),
    "p_max": "momentum",
    "variance": "energy^2",
}
# the dimensionless columns and sidecar values, equal in any units
DIMENSIONLESS_COLUMNS = {"n", "re_a", "im_a", "weight", "abs_a", "rel_error", "regime"}
DIMENSIONLESS_SIDECAR = {"n0", "expectation_level", "gamma", "parseval_defect", "files"}


def document(run: str, model: dict) -> dict:
    """The run's document in the units of ``model``: the same physics, so
    its dt and natural t_max are in the model's time unit."""
    merged = {**BASE, **RUNS[run][1], "model": {**BASE["model"], **model}}
    time = factors_of(model)["time"]
    if "dt" in merged["engine"]:
        merged["engine"] = {**merged["engine"], "dt": merged["engine"]["dt"] * time}
    if merged["times"]["unit"] == "natural":
        merged["times"] = {**merged["times"], "t_max": merged["times"]["t_max"] * time}
    return merged


def outputs(tmp_path, run: str, model: dict) -> tuple[int, dict]:
    """Exit code and {file name: bytes} of ``run`` in the units of ``model``."""
    out = tmp_path / f"{run}-{len(list(tmp_path.iterdir()))}"
    config = out.with_suffix(".json")
    config.write_text(json.dumps(document(run, model)))
    code = main([RUNS[run][0], "--config", str(config), "--out", str(out)])
    return code, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def scaled(value: float, factor: float) -> float:
    """value * factor, or OverflowError where a nonzero value leaves double range."""
    result = value * factor
    if not math.isfinite(result) or (result == 0) != (value == 0):
        raise OverflowError
    return result


def expected_file(name: str, data: bytes, factors: dict) -> bytes:
    """The unit document's file ``name`` with each dimensioned value times its unit."""
    if name.endswith(".csv"):
        header, *rows = data.decode().splitlines()
        units = [COLUMNS.get(column) for column in header.split(",")]
        lines = [header]
        for row in rows:
            cells = [
                cell if unit is None else "%.17g" % scaled(float(cell), factors[unit])
                for cell, unit in zip(row.split(","), units)
            ]
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode()
    if name.endswith(".bin"):
        layout = struct.Struct("<4sIQQdddd")
        magic, version, rows, cols, t0, t1, x0, x1 = layout.unpack_from(data)
        time, length = factors["time"], factors["length"]
        header = layout.pack(
            magic, version, rows, cols,
            scaled(t0, time), scaled(t1, time), scaled(x0, length), scaled(x1, length),
        )
        density = np.frombuffer(data, "<f8", offset=layout.size)
        return header + bytes(np.array([scaled(v, factors["density"]) for v in density]))
    if name.endswith(".meta.json"):
        meta = json.loads(data)
        del meta["config"]
        for key, unit in SIDECAR.items():
            if key in meta:
                meta[key] = scaled(meta[key], factors[unit])
        if "diag_metadata" in meta:
            diag = meta["diag_metadata"]
            diag["wall_height"] = scaled(diag["wall_height"], factors["energy"])
            diag["p_max"] = scaled(diag["p_max"], factors["momentum"])
        return json.dumps(meta, sort_keys=True).encode()
    return data


def factors_of(model: dict) -> dict:
    """Each unit for a model whose mass, light_speed and hbar are powers of
    two: the power itself where it is a double, else 0 or an infinity."""
    exponents = [math.frexp(model.get(key, 1.0))[1] - 1 for key in ("mass", "light_speed", "hbar")]
    factors = {}
    for unit, powers in UNITS.items():
        exponent = sum(p * e for p, e in zip(powers, exponents))
        factors[unit] = math.ldexp(1.0, exponent) if exponent < 1024 else math.inf
    return factors


def normalized(name: str, data: bytes) -> bytes:
    """A sidecar without its config block, serialized as ``expected_file`` does."""
    if name.endswith(".meta.json"):
        meta = json.loads(data)
        del meta["config"]
        return json.dumps(meta, sort_keys=True).encode()
    return data


@pytest.fixture(scope="module")
def unit_outputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("unit")
    return {run: outputs(tmp_path, run, {})[1] for run in RUNS}


@pytest.mark.parametrize(
    "model",
    [
        {"mass": 2.0**-900},
        {"mass": 2.0**10, "light_speed": 2.0**-3, "hbar": 2.0**5},
        {"mass": 2.0**450, "light_speed": 2.0**-450},
        {"mass": 2.0**-450, "light_speed": 2.0**450, "hbar": 2.0**900},
        {"light_speed": 2.0**-300, "hbar": 2.0**-900},
        # an integer beyond any fixed-width type, as JSON may give it
        {"hbar": 2**64},
    ],
    ids=["m-900", "mixed-small", "m450-c-450", "hbar900", "c-300-hbar-900", "hbar-int-2^64"],
)
@pytest.mark.parametrize("run", RUNS)
def test_units_scale_each_dimensioned_value(tmp_path, capsys, unit_outputs, run, model):
    factors = factors_of(model)
    reference = unit_outputs[run]
    try:
        want = {name: expected_file(name, data, factors) for name, data in reference.items()}
    except OverflowError:
        want = None
    capsys.readouterr()
    code, got = outputs(tmp_path, run, model)
    err = capsys.readouterr().err.strip().splitlines()
    if want is None:
        # some output leaves double range: one line names it and the units
        assert code == 3 and got == {}
        assert len(err) == 1 and err[0].startswith("numerical error:")
        assert "model.mass, model.light_speed, model.hbar" in err[0]
    else:
        assert (code, err) == (0, [])
        assert sorted(got) == sorted(want)
        for name in want:
            assert normalized(name, got[name]) == want[name], name


def test_m_2_to_the_minus_900_runs_every_command_but_spacing(tmp_path, capsys):
    # (m c^2)^2 = 2^-1800 takes spacing's variance below double range
    for run in RUNS:
        code, _ = outputs(tmp_path, run, {"mass": 2.0**-900})
        err = capsys.readouterr().err.strip().splitlines()
        if run == "spacing":
            assert code == 3 and len(err) == 1 and "the sidecar's variance" in err[0]
        else:
            assert (code, err) == (0, [])


@pytest.mark.parametrize("run", RUNS)
def test_dimensionless_values_do_not_depend_on_the_units(tmp_path, unit_outputs, run):
    # m = 3 is no power of two: every dimensioned value rounds differently
    code, got = outputs(tmp_path, run, {"mass": 3.0})
    assert code == 0
    for name, data in unit_outputs[run].items():
        if name.endswith(".csv"):
            header, *rows = data.decode().splitlines()
            mine = got[name].decode().splitlines()
            keep = [i for i, column in enumerate(header.split(",")) if column in DIMENSIONLESS_COLUMNS]
            for row, other in zip(rows, mine[1:], strict=True):
                cells, others = row.split(","), other.split(",")
                assert [cells[i] for i in keep] == [others[i] for i in keep], name
        elif name.endswith(".meta.json"):
            meta, other = json.loads(data), json.loads(got[name])
            for key in DIMENSIONLESS_SIDECAR & set(meta):
                assert other[key] == meta[key], key


def numeric_keys(values: dict) -> set:
    """The keys of ``values``, in nested objects too, that hold a number."""
    keys = set()
    for key, value in values.items():
        if isinstance(value, dict):
            keys |= numeric_keys(value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            keys.add(key)
    return keys


def numeric_columns(data: bytes) -> set:
    """The columns of a CSV whose first row holds a number."""
    header, first = data.decode().splitlines()[:2]
    columns = set()
    for column, cell in zip(header.split(","), first.split(",")):
        try:
            float(cell)
        except ValueError:
            continue
        columns.add(column)
    return columns


@pytest.mark.parametrize("run", RUNS)
def test_every_number_written_has_an_entry_in_the_cli_table(unit_outputs, run):
    # each numeric column and sidecar value has a dimension, or None, in
    # relwell.cli.DIMENSIONS, and it is the one this module scales it by; a
    # carpet's csv and bin files share the entry "the carpet"
    for name, data in unit_outputs[run].items():
        suffix = name.partition("_")[2]
        if suffix.endswith(".meta.json"):
            meta = json.loads(data)
            del meta["config"]
            owner, names, units = "the sidecar", numeric_keys(meta), SIDECAR
        elif suffix.endswith(".pgm"):
            continue  # normalized to its peak: no unit
        else:
            owner = suffix if suffix in DIMENSIONS else f"the {suffix.partition('.')[0]}"
            is_csv = suffix.endswith(".csv")
            names = numeric_columns(data) if is_csv else {"t", "x", "density"}
            units = COLUMNS
        table = DIMENSIONS[owner]
        assert names <= set(table), (name, sorted(names - set(table)))
        assert {key: table[key] for key in names} == {key: units.get(key) for key in names}, name
