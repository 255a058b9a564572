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
65 jobs are every preset under every command, ``spectrum --engine diag`` on
every preset, and two split-engine carpets at N = 256 in all three carpet
formats: a 16-row one that steps and a 32-row one that powers the Strang
step.  The other 36 are error paths, each of which must end in one
stderr line and no output file: two configs nested too deeply (exit 2),
extreme model scales whose arithmetic overflows or underflows (exit 3),
``spacing`` runs whose sidecar would hold an infinity (exit 3), and a diag
``spectrum`` asking for more levels than it has momentum points (exit 2).
All 101 run one at a time in about 60 s, with 150 MB of output, on a
two-core host.  The powered carpet's bits depend on the BLAS thread count,
so compare two trees at the same OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
# model values that give spacing's sidecar an infinity
INFINITE_SIDECARS = (("mass", 1e300), ("light_speed", 1e150), ("well_width_in_compton", 1e-300))


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
    listed.append(("deep_parse_spacing", ["spacing"], "[" * 200_000))
    formats = "[" * 600 + "]" * 600
    listed.append(("deep_formats_spacing", ["spacing"], f'{{"output": {{"formats": {formats}}}}}'))
    for (key, value), commands in EXTREME_MODELS.items():
        config = json.dumps({"model": {key: value}})
        listed += [(f"{key}_{value:g}_{command}", [command], config) for command in commands]
    for key, value in INFINITE_SIDECARS:
        config = json.dumps({"model": {key: value}})
        listed.append((f"infinite_sidecar_{key}_{value:g}_spacing", ["spacing"], config))
    # the default levels.n_max of 100 is more than 64 momentum points hold
    config = json.dumps({"engine": {"kind": "diag", "momentum_points": 64}})
    listed.append(("diag_levels_spectrum", ["spectrum"], config))
    return listed


def main() -> None:
    if len(sys.argv) != 3:
        raise SystemExit("usage: snapshot_outputs.py SRC OUT")
    src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
    out.mkdir(parents=True, exist_ok=False)
    env = dict(os.environ, PYTHONPATH=str(src))
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
        (jobdir / "stderr.txt").write_text(job.stderr)
        (jobdir / "exit_code.txt").write_text(f"{job.returncode}\n")
        print(f"{name}: exit {job.returncode}", flush=True)


if __name__ == "__main__":
    main()
