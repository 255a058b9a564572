"""Run a fixed set of relwell CLI jobs against one source tree and save what
each leaves behind, so two trees can be compared with ``diff -r``.

    python tools/snapshot_outputs.py SRC OUT
    python tools/snapshot_outputs.py parent/src snap_parent
    python tools/snapshot_outputs.py src snap_change
    diff -r snap_parent snap_change

Each job runs ``python -m relwell.cli --out .`` in a fresh interpreter with
``PYTHONPATH=SRC``, inside its own directory ``OUT/<job>/``, which receives
the job's config as ``config.json`` if it has one, its output files, its
stderr as ``stderr.txt`` and its exit code as ``exit_code.txt``.  The first
67 jobs are every preset under every command, ``spectrum --engine diag`` on
every preset, two split-engine carpets at N = 256 in all three carpet
formats (a 16-row one that steps and a 32-row one that powers the Strang
step), a split carpet whose grid size ``default_config`` picks, and fig4's
carpet with the PGM image alone.  The other 85 are error paths, each of
which must end in one stderr line and no output file: two configs nested
too deeply (exit 2), extreme model scales whose arithmetic overflows or
underflows (exit 3), four model scales past double range under all six
commands (exit 3), three documents whose packet or revival times leave
double range (exit 3), ``spacing`` runs whose sidecar would hold an
infinity (exit 3), a diag ``spectrum`` asking for more levels than it has
momentum points (exit 2), a ``--config`` that does not exist or is a
directory (exit 4), seven carpets refused for one value of their document,
a carpet and an autocorrelation asked of an engine they do not run, a split
carpet over the work limit, and a carpet and an autocorrelation whose
``t_max`` overflows in revival periods (exit 2).
The tool holds every job to that contract: after the last job it exits
non-zero and names each error path that left an output file or printed
other than one stderr line, and each job that left behind a temporary
``.<name>.tmp``, the name the CLI writes a file under until the run is
complete.
All 152 run one at a time in 35-39 s, with about 155 MB of output, on a
2-vCPU Intel Xeon host (112 of them took 11.6-12.4 s on a 2-vCPU AMD EPYC
host).  The powered carpets' bits depend on the BLAS thread
count, so compare two trees at the same OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

# what a job's directory holds besides the job's own outputs
JOB_FILES = {"config.json", "stderr.txt", "exit_code.txt"}
# the name the CLI writes a file under until the run is complete
TEMPORARY = re.compile(r"\..+\.tmp")

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


# model values whose arithmetic overflows or underflows, and the commands
# that reach it
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
# model scales past double range: m c overflows, m c is subnormal so that the
# Compton wavelength overflows, and the absolute width overflows or underflows
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
# documents whose model scales put the packet or the revival times past double
# range (exit 3), with the commands that reach them
PAST_RANGE = {
    # the derivatives of E(n) come out NaN, and so does each revival time
    "revival_hbar": (
        {"model": {"hbar": 3.03e83, "well_width_in_compton": 2.66e-311}}, ("revivals",)
    ),
    "revival_mass": (
        {"model": {"mass": 7.85e-114, "hbar": 2.82e-276, "well_width_in_compton": 6.20e154}},
        ("carpet", "revivals", "autocorr", "coeffs"),
    ),
    # sigma = L / 20 underflows to 0
    "sigma": (
        {"model": {"well_width_in_compton": 2.25e-186, "light_speed": 4.55e137}}, COMMANDS
    ),
}
# model values that give spacing's sidecar an infinity
INFINITE_SIDECARS = (("mass", 1e300), ("light_speed", 1e150), ("well_width_in_compton", 1e-300))
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


def main() -> None:
    if len(sys.argv) != 3:
        raise SystemExit("usage: snapshot_outputs.py SRC OUT")
    src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
    out.mkdir(parents=True, exist_ok=False)
    env = dict(os.environ, PYTHONPATH=str(src))
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
    if failed:
        raise SystemExit("\n".join(["jobs that break the contract:", *failed]))


if __name__ == "__main__":
    main()
