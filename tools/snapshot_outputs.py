"""Run a fixed set of relwell CLI jobs against one source tree and save what
each leaves behind; or run them against two trees and compare.

    python tools/snapshot_outputs.py SRC OUT
    python tools/snapshot_outputs.py --against REV OUT

Each job runs ``python -m relwell.cli --out .`` in a fresh interpreter with
``PYTHONPATH=SRC``, inside its own directory ``OUT/<job>/``, which receives
the job's config as ``config.json`` if it has one, its output files, its
stderr as ``stderr.txt`` and its exit code as ``exit_code.txt``.  The first
67 jobs are every preset under every command, ``spectrum --engine diag`` on
every preset, two split-engine carpets at N = 256 in all three carpet
formats (a 16-row one that steps and a 32-row one that powers the Strang
step), a split carpet whose grid size ``default_config`` picks, and fig4's
carpet with the PGM image alone; all use m = c = hbar = 1.  The other 97
run documents at extreme scales or in other units, and the error paths.
Of those, 21 write outputs: ten at an extreme mass or hbar, whose outputs
stay in double range, and the documents with m = 2^-900 and m = 3 under
every command but m = 2^-900's ``spacing``.  The rest must end in one
stderr line and no output file: two configs nested too deeply (exit 2),
extreme scales whose revival times or unit conversions leave double range
(exit 3), ``spacing`` runs whose sidecar would hold a value past it (exit
3), a diag ``spectrum`` asking for more levels than it has momentum points
(exit 2), a ``--config`` that does not exist or is a directory (exit 4),
seven carpets refused for one value of their document, a carpet and an
autocorrelation asked of an engine they do not run, a split carpet over the
work limit, and a carpet and an autocorrelation whose ``t_max`` overflows in
revival periods (exit 2).
The tool holds every job to that contract: after the last job it exits
non-zero and names each error path that left an output file or printed
other than one stderr line, and each job that left behind a temporary
``.*.tmp``, the name the CLI writes a file under until the run is
complete.

``--against REV`` extracts REV's ``src`` with ``git archive`` into OUT,
snapshots it into ``OUT/base`` and this repository's ``src`` into
``OUT/head``, both at OPENBLAS_NUM_THREADS=1 (the powered carpets' bits
depend on the BLAS thread count), and prints each file that differs: an
exit code or stderr with both texts, a CSV or bin file with its largest
absolute and relative deviation.  It exits 1 on any difference.
All 164 jobs run one at a time in 41-44 s, with about 165 MB of output, on a
2-vCPU Intel Xeon host; ``--against`` takes twice that.
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
from pathlib import Path

# the repository this tool belongs to, whose src the --against mode runs
ROOT = Path(__file__).resolve().parents[1]

# what a job's directory holds besides the job's own outputs
JOB_FILES = {"config.json", "stderr.txt", "exit_code.txt"}
# the name the CLI writes a file under until the run is complete
TEMPORARY = re.compile(r"\..+\.tmp")
# a bin carpet's header: magic, version, rows, columns, t0, t1, x0, x1
CARPET_HEADER = "<4sIQQdddd"

COMMANDS = ("spectrum", "carpet", "revivals", "autocorr", "spacing", "coeffs")
PRESETS = ("default", "fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5a", "fig5b")

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
    "model": {"well_width_in_compton": 2.0},
    "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.0625, "p0_in_hbar_over_L": 0.0},
    "engine": {"kind": "split", "grid_size": 256},
    "times": {"t_max": 0.7853981633974483, "samples": 32, "unit": "natural"},
    "output": {"basename": "split32", "formats": ["csv", "bin", "pgm"]},
}


# model values at the edge of double range, and the commands run on them:
# an extreme mass or hbar leaves every output in range (exit 0); an extreme
# light speed takes a unit conversion past it, an extreme width a revival
# time (exit 3)
EXTREME_MODELS = {
    ("mass", 1e-300): ("coeffs", "revivals", "autocorr"),
    ("mass", 1e300): ("coeffs", "revivals", "autocorr", "carpet"),
    ("light_speed", 1e-300): ("coeffs", "revivals", "autocorr"),
    ("light_speed", 1e300): ("spacing", "coeffs", "revivals", "autocorr", "spectrum"),
    ("hbar", 1e300): ("coeffs", "revivals", "autocorr"),
    ("well_width_in_compton", 1e-150): ("coeffs", "revivals", "autocorr"),
    ("well_width_in_compton", 1e-300): ("coeffs", "revivals", "autocorr"),
    ("well_width_in_compton", 1e150): ("coeffs", "revivals", "autocorr"),
    ("well_width_in_compton", 1e300): ("coeffs", "revivals", "autocorr"),
}
# model scales past double range, run under every command: m c overflows, or
# is subnormal so that the Compton wavelength overflows, and a unit
# conversion leaves double range; or the width in absolute units overflows
# or underflows, and a unit conversion or a revival time does (exit 3)
SCALES_PAST_RANGE = (
    {"mass": 1e200, "light_speed": 1e200},
    {"mass": 1e-160, "light_speed": 1e-160},
    {"mass": 1e-20, "well_width_in_compton": 1e300},
    {"mass": 1e100, "well_width_in_compton": 1e-300},
)
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
# documents whose model scales once put the packet or the revival times past
# double range, with the commands run on them; each exits 3, at a revival
# time or a unit conversion past it
PAST_RANGE = {
    # the derivatives of E(n) come out NaN, and so does each revival time
    "revival_hbar": (
        {"model": {"hbar": 3.03e83, "well_width_in_compton": 2.66e-311}}, ("revivals",)
    ),
    "revival_mass": (
        {"model": {"mass": 7.85e-114, "hbar": 2.82e-276, "well_width_in_compton": 6.20e154}},
        ("carpet", "revivals", "autocorr", "coeffs"),
    ),
    # sigma = L / 20 underflowed to 0 in absolute units
    "sigma": (
        {"model": {"well_width_in_compton": 2.25e-186, "light_speed": 4.55e137}}, COMMANDS
    ),
}
# model values that give spacing's sidecar a value past double range: the
# variance in (m c^2)^2 for an extreme mass or light speed, and the natural
# mean spacing itself for a tiny width (exit 3)
INFINITE_SIDECARS = (("mass", 1e300), ("light_speed", 1e150), ("well_width_in_compton", 1e-300))
# documents in other units than m = c = hbar = 1, run under every command: at
# m = 2^-900 every output but spacing's variance, in (m c^2)^2 = 2^-1800,
# stays in double range, and at m = 3 each dimensionless output equals the
# unit document's
OTHER_UNITS = {"mass_2^-900": {"model": {"mass": 2.0**-900}}, "mass_3": {"model": {"mass": 3.0}}}
# documents whose values alone refuse a carpet, before numpy loads
REFUSED_VALUES = {
    "mass": {"model": {"mass": -1.0}},
    "t_max": {"times": {"t_max": -1.0}},
    "samples": {"times": {"samples": 0}},
    "unit": {"times": {"unit": "days"}},
    "levels": {"levels": {"n_min": 5, "n_max": 2}},
    "formats": {"output": {"formats": ["svg"]}},
    "basename": {"output": {"basename": "a/b"}},
}


def jobs() -> list[tuple[str, list[str], str | None]]:
    """(directory name, CLI arguments before --out, config text) for every job."""
    listed = [
        (f"{preset}_{command}", [command, "--preset", preset], None)
        for preset in PRESETS
        for command in COMMANDS
    ]
    listed += [
        (f"{preset}_spectrum_diag", ["spectrum", "--preset", preset, "--engine", "diag"], None)
        for preset in PRESETS
    ]
    listed.append(("split16_carpet", ["carpet"], json.dumps(SPLIT_CARPET)))
    listed.append(("split32_carpet", ["carpet"], json.dumps(SPLIT_POWERED_CARPET)))
    listed.append(("fig4_pgm_carpet", ["carpet"], json.dumps(FIG4_PGM_CARPET)))
    listed.append(("auto_split_carpet", ["carpet"], json.dumps(AUTO_SPLIT_CARPET)))
    listed.append(("deep_parse_spacing", ["spacing"], "[" * 200_000))
    formats = "[" * 600 + "]" * 600
    listed.append(("deep_formats_spacing", ["spacing"], f'{{"output": {{"formats": {formats}}}}}'))
    for (key, value), commands in EXTREME_MODELS.items():
        config = json.dumps({"model": {key: value}})
        listed += [(f"{key}_{value:g}_{command}", [command], config) for command in commands]
    for model in SCALES_PAST_RANGE:
        config = json.dumps({"model": model})
        stem = "_".join(f"{key}_{value:g}" for key, value in model.items())
        listed += [(f"{stem}_{command}", [command], config) for command in COMMANDS]
    for name, (document, commands) in PAST_RANGE.items():
        config = json.dumps(document)
        listed += [(f"past_range_{name}_{command}", [command], config) for command in commands]
    for stem, document in OTHER_UNITS.items():
        config = json.dumps(document)
        listed += [(f"{stem}_{command}", [command], config) for command in COMMANDS]
    for key, value in INFINITE_SIDECARS:
        config = json.dumps({"model": {key: value}})
        listed.append((f"infinite_sidecar_{key}_{value:g}_spacing", ["spacing"], config))
    # the default levels.n_max of 100 is more than 64 momentum points hold
    config = json.dumps({"engine": {"kind": "diag", "momentum_points": 64}})
    listed.append(("diag_levels_spectrum", ["spectrum"], config))
    # a --config the CLI cannot read: the i/o error names the relative path
    listed.append(("missing_config_spacing", ["spacing", "--config", "missing.json"], None))
    listed.append(("directory_config_spacing", ["spacing", "--config", "."], None))
    for name, document in REFUSED_VALUES.items():
        listed.append((f"refused_{name}_carpet", ["carpet"], json.dumps(document)))
    # an engine the command does not run
    listed.append(("refused_diag_carpet", ["carpet", "--engine", "diag"], None))
    listed.append(("refused_split_autocorr", ["autocorr", "--engine", "split"], None))
    # more split steps than the work limit allows
    args = ["carpet", "--preset", "fig2c", "--engine", "split"]
    listed.append(("refused_split_budget_carpet", args, None))
    # t_max times the revival period overflows
    config = json.dumps({"times": {"t_max": 1e308, "unit": "revival"}})
    for command in ("carpet", "autocorr"):
        listed.append((f"overflowing_t_max_{command}", [command], config))
    return listed


def breaches(jobdir: Path, returncode: int, stderr: str) -> list[str]:
    """How a finished job breaks the contract of the module docstring: a
    temporary left behind by any job, or an error path that left an output
    file or printed other than one stderr line."""
    names = sorted(path.name for path in jobdir.iterdir())
    found = [f"left the temporary {name}" for name in names if TEMPORARY.fullmatch(name)]
    if returncode != 0:
        outputs = [name for name in names if name not in JOB_FILES]
        if outputs:
            found.append(f"exited {returncode} and left {', '.join(outputs)}")
        lines = len(stderr.splitlines())
        if lines != 1:
            found.append(f"exited {returncode} with {lines} stderr lines")
    return found


def snapshot(src: Path, out: Path) -> list[str]:
    """Run every job against the relwell sources under ``src`` into ``out``,
    which must not exist; return how the jobs break the contract."""
    out.mkdir(parents=True, exist_ok=False)
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    failed = []
    for name, args, config in jobs():
        jobdir = out / name
        jobdir.mkdir()
        if config is not None:
            (jobdir / "config.json").write_text(config)
            args = [*args, "--config", "config.json"]
        # run inside the job's directory, so that no message names OUT
        job = subprocess.run(
            [sys.executable, "-m", "relwell.cli", *args, "--out", "."],
            cwd=jobdir,
            env=env,
            capture_output=True,
            text=True,
        )
        found = breaches(jobdir, job.returncode, job.stderr)
        (jobdir / "stderr.txt").write_text(job.stderr)
        (jobdir / "exit_code.txt").write_text(f"{job.returncode}\n")
        print(f"{name}: exit {job.returncode}", flush=True)
        failed += [f"{name}: {breach}" for breach in found]
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
        # the revision's sources beside the snapshots; both trees run at one
        # BLAS thread, on which the powered carpets' bits depend
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
        )
        subprocess.run(["tar", "-x", "-C", str(out)], input=archive.stdout, check=True)
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        failed = snapshot(out / "src", out / "base") + snapshot(ROOT / "src", out / "head")
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
