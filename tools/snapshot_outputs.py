"""Run a fixed set of relwell CLI jobs against one source tree and save what
each leaves behind, so two trees can be compared with ``diff -r``.

    python tools/snapshot_outputs.py SRC OUT
    python tools/snapshot_outputs.py parent/src snap_parent
    python tools/snapshot_outputs.py src snap_change
    diff -r snap_parent snap_change

Each job runs ``python -m relwell.cli`` in a fresh interpreter with
``PYTHONPATH=SRC``.  ``OUT/<job>/`` receives the job's output files, its
stderr as ``stderr.txt`` and its exit code as ``exit_code.txt``.  The jobs are
every preset under every command, ``spectrum --engine diag`` on every preset,
and one 16-row split-engine carpet at N = 256 in all three carpet formats:
64 runs, one at a time, about 45 s and 150 MB of output on a two-core host.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

COMMANDS = ("spectrum", "carpet", "revivals", "autocorr", "spacing", "coeffs")
PRESETS = ("default", "fig1", "fig2a", "fig2b", "fig2c", "fig3", "fig4", "fig5a", "fig5b")

# 250 Strang steps with sample times about 16 steps apart
SPLIT_CARPET = {
    "model": {"well_width_in_compton": 2.0},
    "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.0625, "p0_in_hbar_over_L": 0.0},
    "engine": {"kind": "split", "grid_size": 256, "dt": 2e-4},
    "times": {"t_max": 0.05, "samples": 16, "unit": "natural"},
    "output": {"basename": "split16", "formats": ["csv", "bin", "pgm"]},
}


def jobs(out: Path) -> list[tuple[str, list[str]]]:
    """(directory name, CLI arguments before --out) for every job."""
    listed = [
        (f"{preset}_{command}", [command, "--preset", preset])
        for preset in PRESETS
        for command in COMMANDS
    ]
    listed += [
        (f"{preset}_spectrum_diag", ["spectrum", "--preset", preset, "--engine", "diag"])
        for preset in PRESETS
    ]
    config = out / "split16.json"
    config.write_text(json.dumps(SPLIT_CARPET))
    listed.append(("split16_carpet", ["carpet", "--config", str(config)]))
    return listed


def main() -> None:
    if len(sys.argv) != 3:
        raise SystemExit("usage: snapshot_outputs.py SRC OUT")
    src, out = Path(sys.argv[1]).resolve(), Path(sys.argv[2])
    out.mkdir(parents=True, exist_ok=False)
    env = dict(os.environ, PYTHONPATH=str(src))
    for name, args in jobs(out):
        jobdir = out / name
        jobdir.mkdir()
        job = subprocess.run(
            [sys.executable, "-m", "relwell.cli", *args, "--out", str(jobdir)],
            env=env,
            capture_output=True,
            text=True,
        )
        (jobdir / "stderr.txt").write_text(job.stderr)
        (jobdir / "exit_code.txt").write_text(f"{job.returncode}\n")
        print(f"{name}: exit {job.returncode}", flush=True)


if __name__ == "__main__":
    main()
