"""Run a fixed set of relwell CLI jobs against one source tree and save what
each leaves behind; or run them against two trees and compare.

    python tools/snapshot_outputs.py SRC OUT
    python tools/snapshot_outputs.py --against REV OUT

Each job runs ``python -m relwell.cli --out .`` in a fresh interpreter with
``PYTHONPATH=SRC``, inside its own directory ``OUT/<job>/``, which receives
the job's config as ``config.json`` if it has one, its output files, its
stderr as ``stderr.txt`` and its exit code as ``exit_code.txt``.  The jobs
run on as many workers as the CPU affinity grants, each a thread waiting on
one subprocess in the tool's own environment with the thread counts pinned
(below), and print in a fixed order.
OUTPUTS holds 67 jobs at m = c = hbar = 1: every preset under every command
and ``spectrum --engine diag`` on every preset, two split carpets at N = 256
(one that steps, one that powers the Strang step), one whose grid size the
engine picks, and fig4's carpet with the PGM image alone.  CASES is the
table of error-path cases, 111 jobs, each with the exit code and the one
stderr line it must end in, or None for a silent exit 0; Tier-1 runs each
in-process (``tests/test_cli.py``).  After the last job the tool exits
non-zero and names each job that ended in another exit code or stderr than
its entry, each error path that left an output file, and each job that left
a temporary ``.*.tmp``, the name the CLI writes a file under until the run
is complete.

Every job runs with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS set to 1, whatever the caller set: the powered carpets' bits
depend on the BLAS thread count.

``--against REV`` snapshots REV's ``src``, extracted into OUT, into
``OUT/base`` and this repository's into ``OUT/head``; it prints each file
that differs, an exit code or stderr with both texts and a CSV or bin file
with its largest absolute and relative deviation, and exits 1 on any
difference.  Only the head is held to the table: an output changed on
purpose differs from the base.  On two workers of a 2-vCPU Intel Xeon host
the 178 jobs take about 20 s and write about 165 MB; ``--against`` takes
44 s.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

# the repository this tool belongs to, whose src the --against mode runs
ROOT = Path(__file__).resolve().parents[1]

# what a job's directory holds besides the job's own outputs
JOB_FILES = {"config.json", "stderr.txt", "exit_code.txt"}
# each job's thread counts, whatever the caller's environment holds
THREAD_PINS = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")
# the name the CLI writes a file under until the run is complete
TEMPORARY = re.compile(r"\..+\.tmp")
# a bin carpet's header: magic, version, rows, columns, t0, t1, x0, x1
CARPET_HEADER = "<4sIQQdddd"

COMMANDS = ("spectrum", "carpet", "revivals", "autocorr", "spacing", "coeffs")
PRESETS = ("default", "fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5a", "fig5b")


class Job(NamedTuple):
    """One CLI run: its directory name, its arguments before --out, its
    config text, and the exit code and one stderr line it must end in, or
    None for a silent exit 0."""

    name: str
    args: list[str]
    config: str | None = None
    code: int = 0
    line: str | None = None


# the wall-phase cap pi/(8 V0) lowers dt to 3.9e-5: 1273 Strang steps with
# sample times about 85 steps apart, which the split engine steps
SPLIT_CARPET = {
    "model": {"well_width_in_compton": 2.0},
    "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.0625, "p0_in_hbar_over_L": 0.0},
    "engine": {"kind": "split", "grid_size": 256, "dt": 2e-4},
    "times": {"t_max": 0.05, "samples": 16, "unit": "natural"},
    "output": {"basename": "split16", "formats": ["csv", "bin", "pgm"]},
}
# 20000 Strang steps at the capped dt, with sample times 645 or 646 steps
# apart, which the split engine crosses by a power of the one-step unitary
SPLIT_POWERED_CARPET = {
    **SPLIT_CARPET,
    "engine": {"kind": "split", "grid_size": 256},
    "times": {"t_max": 0.7853981633974483, "samples": 32, "unit": "natural"},
    "output": {"basename": "split32", "formats": ["csv", "bin", "pgm"]},
}
# fig4's preset with the image alone: its peak comes in row 259 of 512, so the
# PGM writer quantizes the rows before it a second time
FIG4_PGM_CARPET = {
    "model": {"well_width_in_compton": 101.25},
    "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.04, "p0_in_hbar_over_L": 270.0 * math.pi},
    "times": {"t_max": 1.0, "samples": 512, "unit": "revival"},
    "output": {"basename": "fig4", "formats": ["pgm"]},
}
# a split carpet with no grid_size, on which default_config picks 512 points;
# its 64 default samples are about 10 000 Strang steps apart, so it powers
AUTO_SPLIT_CARPET = {
    "model": {"well_width_in_compton": 2.0},
    "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.02, "p0_in_hbar_over_L": 100.0},
    "engine": {"kind": "split"},
}

OUTPUTS = [
    *(Job(f"{preset}_{command}", [command, "--preset", preset])
      for preset in PRESETS for command in COMMANDS),
    *(Job(f"{preset}_spectrum_diag", ["spectrum", "--preset", preset, "--engine", "diag"])
      for preset in PRESETS),
    Job("split16_carpet", ["carpet"], json.dumps(SPLIT_CARPET)),
    Job("split32_carpet", ["carpet"], json.dumps(SPLIT_POWERED_CARPET)),
    Job("fig4_pgm_carpet", ["carpet"], json.dumps(FIG4_PGM_CARPET)),
    Job("auto_split_carpet", ["carpet"], json.dumps(AUTO_SPLIT_CARPET)),
]


def unit_error(name: str) -> str:
    """The line of a run whose conversion of ``name`` to the document's units
    leaves double range."""
    return (
        f"numerical error: {name} leaves double range in the units that "
        "model.mass, model.light_speed, model.hbar set; bring them closer to 1"
    )


def width_error(time: str) -> str:
    """The line of a run whose revival ``time`` at level 1 leaves double range."""
    return (
        f"numerical error: the {time} of level 1 leaves double range; "
        "bring model.well_width_in_compton closer to 1"
    )


# the carpet's formats, and the split engine, as cases of the carpet command:
# the blocks each adds to a document
CARPETS = {
    "carpet-csv": {"output": {"formats": ["csv"]}},
    "carpet-bin": {"output": {"formats": ["bin"]}},
    "carpet-bin-pgm": {"output": {"formats": ["bin", "pgm"]}},
    "carpet-pgm": {"output": {"formats": ["pgm"]}},
    "carpet-split": {
        "engine": {"kind": "split", "grid_size": 256}, "times": {"t_max": 0.05, "samples": 4}
    },
}
# the first conversion under each command, or carpet case, that leaves double
# range, where the units put each dimensioned output past it; a PGM has no
# unit, so an image alone fails first on the sidecar
UNIT_ERRORS = {
    "spectrum": unit_error("spectrum.csv's energy"),
    "carpet": unit_error("the carpet's t"),
    "revivals": unit_error("revivals.csv's t_classical"),
    "autocorr": unit_error("levels.csv's energy"),
    "spacing": unit_error("spacing.csv's spacing"),
    "coeffs": unit_error("the sidecar's t_classical"),
    **dict.fromkeys(("carpet-csv", "carpet-bin", "carpet-bin-pgm"), unit_error("the carpet's t")),
    "carpet-pgm": unit_error("the sidecar's t_classical"),
    "carpet-split": unit_error("the carpet's t"),
}
# the commands run at most extreme model values; each command's line where its
# outputs' units leave double range, and where the revival times do
REVIVAL_COMMANDS = ("coeffs", "revivals", "autocorr")
PAST_UNITS = {command: UNIT_ERRORS[command] for command in COMMANDS}
PAST_WIDTH = dict.fromkeys(COMMANDS, width_error("t_classical"))
SIDECAR_WIDTH = unit_error("the sidecar's well_width")

# In the tables below each document maps the commands, or carpet cases, run
# on it to the line each ends in with exit 3, or to None for a silent exit 0.

# model values at the edge of double range: in natural units an extreme mass
# or hbar leaves each output in range, an extreme light speed does not, and an
# extreme width puts a revival time past it
EXTREME_MODELS = {
    ("mass", 1e-300): dict.fromkeys(REVIVAL_COMMANDS),
    ("mass", 1e300): dict.fromkeys((*REVIVAL_COMMANDS, "carpet")),
    ("light_speed", 1e-300): {command: UNIT_ERRORS[command] for command in REVIVAL_COMMANDS},
    ("light_speed", 1e300): {
        command: UNIT_ERRORS[command]
        for command in ("spacing", "coeffs", "revivals", "autocorr", "spectrum", *CARPETS)
    },
    ("hbar", 1e300): dict.fromkeys(REVIVAL_COMMANDS),
    ("well_width_in_compton", 1e-150): dict.fromkeys(REVIVAL_COMMANDS, width_error("t_revival")),
    ("well_width_in_compton", 1e-300): dict.fromkeys(REVIVAL_COMMANDS, width_error("t_classical")),
    ("well_width_in_compton", 1e150): dict.fromkeys(REVIVAL_COMMANDS, width_error("t_revival")),
    ("well_width_in_compton", 1e300): dict.fromkeys(REVIVAL_COMMANDS, width_error("t_classical")),
}
# model scales past double range, under every command
SCALES_PAST_RANGE = {
    # m c^2 = 1e200 * (1e100)**2 overflows, and so does every output
    "rest-energy": ({"mass": 1e200, "light_speed": 1e100}, PAST_UNITS),
    # m c overflows; coeffs' first sidecar length is past range too
    "momentum-scale": (
        {"mass": 1e200, "light_speed": 1e200},
        {**PAST_UNITS, "coeffs": SIDECAR_WIDTH},
    ),
    # m c is subnormal, so the Compton wavelength 2 pi hbar/(m c) overflows
    "compton-wavelength": (
        {"mass": 1e-160, "light_speed": 1e-160},
        {**PAST_UNITS, "coeffs": SIDECAR_WIDTH},
    ),
    # the width in absolute units overflows, or underflows to 0: the natural
    # width puts the revival times past range first
    "width-over": (
        {"mass": 1e-20, "well_width_in_compton": 1e300},
        {**PAST_WIDTH, "spectrum": SIDECAR_WIDTH, "spacing": SIDECAR_WIDTH},
    ),
    "width-under": (
        {"mass": 1e100, "well_width_in_compton": 1e-300},
        {**PAST_WIDTH, "spectrum": UNIT_ERRORS["spectrum"], "spacing": UNIT_ERRORS["spacing"]},
    ),
}
# documents whose model scales once put the packet or the revival times past
# double range
PAST_RANGE = {
    # the derivatives of E(n) come out NaN, and so does each revival time
    "revival_hbar": (
        {"model": {"hbar": 3.03e83, "well_width_in_compton": 2.66e-311}},
        {"revivals": width_error("t_classical")},
    ),
    "revival_mass": (
        {"model": {"mass": 7.85e-114, "hbar": 2.82e-276, "well_width_in_compton": 6.20e154}},
        dict.fromkeys(("carpet", "revivals", "autocorr", "coeffs"), width_error("t_classical")),
    ),
    # sigma = L / 20 underflowed to 0 in absolute units; in natural ones the
    # width is past the revival times' range, and the light speed past that
    # of the outputs
    "sigma": (
        {"model": {"well_width_in_compton": 2.25e-186, "light_speed": 4.55e137}},
        {**PAST_WIDTH, "spectrum": UNIT_ERRORS["spectrum"], "spacing": UNIT_ERRORS["spacing"]},
    ),
    # so did x0 = L / 100, before sigma
    "x0": (
        {
            "model": {"well_width_in_compton": 2.25e-186, "light_speed": 4.55e137},
            "packet": {"x0_over_L": 0.01},
        },
        {"coeffs": width_error("t_classical")},
    ),
    # hbar / L overflowed in absolute units, and with it p0
    "p0": (
        {
            "model": {"mass": 1e300, "well_width_in_compton": 1e-10},
            "packet": {"p0_in_hbar_over_L": 1.0},
        },
        {"coeffs": None},
    ),
}
# documents in other units than m = c = hbar = 1: at m = 2^-900 every output
# but spacing's variance, in (m c^2)^2 = 2^-1800, stays in double range, and at
# m = 3 each dimensionless output equals the unit document's
OTHER_UNITS = {
    "mass_2^-900": (
        {"model": {"mass": 2.0**-900}},
        {**dict.fromkeys(COMMANDS), "spacing": unit_error("the sidecar's variance")},
    ),
    "mass_3": ({"model": {"mass": 3.0}}, dict.fromkeys(COMMANDS)),
}
# model values that give spacing's sidecar a value past double range: the
# variance in (m c^2)^2 for an extreme mass or light speed, and the natural
# mean spacing itself for a tiny width
INFINITE_SIDECARS = {
    ("mass", 1e300): unit_error("the sidecar's variance"),
    ("light_speed", 1e150): unit_error("the sidecar's variance"),
    ("well_width_in_compton", 1e-300): (
        "numerical error: the sidecar's variance leaves double range; "
        "bring model.well_width_in_compton closer to 1"
    ),
}
# documents whose values alone refuse a carpet, before numpy loads (exit 2)
REFUSED_VALUES = {
    "mass": ({"model": {"mass": -1.0}}, "model.mass must be positive"),
    "t_max": ({"times": {"t_max": -1.0}}, "times.t_max must be nonnegative"),
    "samples": ({"times": {"samples": 0}}, "times.samples must be positive"),
    "unit": ({"times": {"unit": "days"}}, "times.unit must be natural, classical or revival"),
    "levels": ({"levels": {"n_min": 5, "n_max": 2}},
               "levels.n_min/n_max must satisfy 1 <= n_min <= n_max"),
    "formats": ({"output": {"formats": ["svg"]}}, "unknown output formats: ['svg']"),
    "no_formats": ({"output": {"formats": []}}, "carpet needs at least one of output.formats"),
    "basename": ({"output": {"basename": "a/b"}},
                 "output.basename must be a non-empty file name without a path"),
}


def _cases(stem: str, document: dict, lines: dict) -> list[Job]:
    """A job of ``document`` for each command, or carpet case, of ``lines``."""
    return [
        Job(f"{stem}_{command}", [command.partition("-")[0]],
            json.dumps({**CARPETS.get(command, {}), **document}), 0 if line is None else 3, line)
        for command, line in lines.items()
    ]


CASES = [
    *(job for (key, value), lines in EXTREME_MODELS.items()
      for job in _cases(f"{key}_{value:g}", {"model": {key: value}}, lines)),
    *(job for model, lines in SCALES_PAST_RANGE.values()
      for job in _cases("_".join(f"{key}_{value:g}" for key, value in model.items()),
                        {"model": model}, lines)),
    *(job for name, (document, lines) in PAST_RANGE.items()
      for job in _cases(f"past_range_{name}", document, lines)),
    *(job for stem, (document, lines) in OTHER_UNITS.items()
      for job in _cases(stem, document, lines)),
    *(job for (key, value), line in INFINITE_SIDECARS.items()
      for job in _cases(f"infinite_sidecar_{key}_{value:g}", {"model": {key: value}},
                        {"spacing": line})),
    # configs nested too deeply for the parser, and for the merge
    Job("deep_parse_spacing", ["spacing"], "[" * 200_000, 2,
        "error: config.json is nested too deeply to parse"),
    Job("deep_formats_spacing", ["spacing"],
        '{"output": {"formats": ' + "[" * 600 + "]" * 600 + "}}", 2,
        "error: output.formats must be a list of names"),
    # the default levels.n_max of 100 is more than 64 momentum points hold
    Job("diag_levels_spectrum", ["spectrum"],
        json.dumps({"engine": {"kind": "diag", "momentum_points": 64}}), 2,
        "error: levels.n_max=100 exceeds engine.momentum_points=64"),
    # a --config the CLI cannot read: the i/o error names the relative path
    Job("missing_config_spacing", ["spacing", "--config", "missing.json"], None, 4,
        "i/o error: [Errno 2] No such file or directory: 'missing.json'"),
    Job("directory_config_spacing", ["spacing", "--config", "."], None, 4,
        "i/o error: [Errno 21] Is a directory: '.'"),
    *(Job(f"refused_{name}_carpet", ["carpet"], json.dumps(document), 2, f"error: {message}")
      for name, (document, message) in REFUSED_VALUES.items()),
    # an engine the command does not run
    Job("refused_diag_carpet", ["carpet", "--engine", "diag"], None, 2,
        "error: carpet supports the exact and split engines only"),
    Job("refused_split_autocorr", ["autocorr", "--engine", "split"], None, 2,
        "error: autocorr uses the exact engine"),
    # more split steps than the work limit allows
    Job("refused_split_budget_carpet", ["carpet", "--preset", "fig2c", "--engine", "split"],
        None, 2, "error: the split engine would take 2.1e+10 steps on 256 points; "
        "lower times.t_max or use the exact engine"),
    # t_max times the revival period overflows
    *(Job(f"overflowing_t_max_{command}", [command],
          json.dumps({"times": {"t_max": 1e308, "unit": "revival"}}), 2,
          "error: times.t_max of 1e+308 revival periods overflows")
      for command in ("carpet", "autocorr")),
]
JOBS = OUTPUTS + CASES


def breaches(jobdir: Path, job: Job, returncode: int, stderr: str) -> list[str]:
    """How a finished job breaks its entry: a temporary left behind, an error
    path that left an output file, or another exit code or stderr."""
    names = sorted(path.name for path in jobdir.iterdir())
    found = [f"left the temporary {name}" for name in names if TEMPORARY.fullmatch(name)]
    outputs = [name for name in names if name not in JOB_FILES]
    if returncode != 0 and outputs:
        found.append(f"exited {returncode} and left {', '.join(outputs)}")
    if (returncode, stderr.splitlines()) != (job.code, [] if job.line is None else [job.line]):
        found.append(
            f"exited {returncode} with {stderr.rstrip()!r}, not {job.code} with {job.line or ''!r}"
        )
    return found


def arguments(job: Job, jobdir: Path) -> list[str]:
    """Write ``job``'s config, if it has one, into ``jobdir``; return the CLI
    arguments that run the job there."""
    if job.config is None:
        return [*job.args, "--out", "."]
    (jobdir / "config.json").write_text(job.config)
    return [*job.args, "--config", "config.json", "--out", "."]


def run(job: Job, out: Path, env: dict) -> tuple[int, list[str]]:
    """Run ``job`` in its directory under ``out``; return its exit code and
    how it breaks its entry."""
    jobdir = out / job.name
    jobdir.mkdir()
    # run inside the job's directory, so that no message names OUT
    done = subprocess.run(
        [sys.executable, "-m", "relwell.cli", *arguments(job, jobdir)],
        cwd=jobdir, env=env, capture_output=True, text=True,
    )
    found = breaches(jobdir, job, done.returncode, done.stderr)
    (jobdir / "stderr.txt").write_text(done.stderr)
    (jobdir / "exit_code.txt").write_text(f"{done.returncode}\n")
    return done.returncode, found


def snapshot(src: Path, out: Path) -> list[str]:
    """Run every job against the relwell sources under ``src`` into ``out``,
    which must not exist; return how the jobs break their entries."""
    out.mkdir(parents=True, exist_ok=False)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), **THREAD_PINS)
    failed = []
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for job, (code, found) in zip(JOBS, pool.map(lambda job: run(job, out, env), JOBS)):
            print(f"{job.name}: exit {code}", flush=True)
            failed += [f"{job.name}: {breach}" for breach in found]
    return failed


def _numbers(path: Path) -> list:
    """A CSV's cells, each a float where it reads as one; a bin carpet's
    header fields and densities."""
    data = path.read_bytes()
    if path.suffix == ".bin":
        size = struct.calcsize(CARPET_HEADER)
        header = struct.unpack_from(CARPET_HEADER, data)
        densities = struct.unpack_from(f"<{(len(data) - size) // 8}d", data, size)
        return [*map(float, header[1:]), *densities]
    cells = [cell for line in data.decode().splitlines() for cell in line.split(",")]
    for i, cell in enumerate(cells):
        with contextlib.suppress(ValueError):
            cells[i] = float(cell)
    return cells


def _deviation(old: Path, new: Path) -> str:
    """The largest absolute and relative deviation between two CSV or bin
    files of the same shape, or why there is none to give."""
    a, b = _numbers(old), _numbers(new)
    if len(a) != len(b):
        return f"{len(a)} -> {len(b)} values"
    pairs = [(x, y) for x, y in zip(a, b) if x != y]
    if not all(isinstance(x, float) and isinstance(y, float) for x, y in pairs):
        return "cells that are not numbers differ"
    absolute = max(abs(x - y) for x, y in pairs)
    relative = max(abs(x - y) / abs(x) if x else math.inf for x, y in pairs)
    return f"{len(pairs)} values; largest deviation {absolute:.3g} absolute, {relative:.3g} relative"


def compare(base: Path, head: Path) -> list[str]:
    """One line for each file that differs between two snapshot directories
    or is in one only: an exit code or stderr with its two texts, a CSV or
    bin file with its largest deviation."""
    names = sorted(
        {path.relative_to(root) for root in (base, head) for path in root.rglob("*")
         if path.is_file()}
    )
    lines = []
    for name in names:
        old, new = base / name, head / name
        if not (old.is_file() and new.is_file()):
            lines.append(f"{name}: only in {'head' if new.is_file() else 'base'}")
        elif old.read_bytes() == new.read_bytes():
            continue
        elif name.name in ("exit_code.txt", "stderr.txt"):
            lines.append(f"{name}: {old.read_text().strip()!r} -> {new.read_text().strip()!r}")
        elif name.suffix in (".csv", ".bin"):
            lines.append(f"{name}: {_deviation(old, new)}")
        else:
            lines.append(f"{name}: differs")
    return lines


def main() -> None:
    if len(sys.argv) == 4 and sys.argv[1] == "--against":
        rev, out = sys.argv[2], Path(sys.argv[3])
        out.mkdir(parents=True, exist_ok=False)
        # the revision's sources beside the snapshots
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
        )
        subprocess.run(["tar", "-x", "-C", str(out)], input=archive.stdout, check=True)
        # the table describes the head: the base may differ on purpose
        snapshot(out / "src", out / "base")
        failed = snapshot(ROOT / "src", out / "head")
        differences = compare(out / "base", out / "head")
        print("\n".join([f"{len(differences)} files differ from {rev}", *differences]))
        if failed:
            raise SystemExit("\n".join(["jobs that break the contract:", *failed]))
        sys.exit(1 if differences else 0)
    if len(sys.argv) != 3:
        raise SystemExit("usage: snapshot_outputs.py SRC OUT | --against REV OUT")
    failed = snapshot(Path(sys.argv[1]), Path(sys.argv[2]))
    if failed:
        raise SystemExit("\n".join(["jobs that break the contract:", *failed]))


if __name__ == "__main__":
    main()
