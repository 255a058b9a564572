"""End-to-end benchmark of the relwell CLI.

    python3 bench/run.py --workload carpets|engines|series|all --seed N \
        --seconds S --trace 0|1
    python3 bench/run.py --manifest      # rewrite BENCHMARK.json

Each job of a workload runs as a fresh ``python -m relwell.cli`` process, so a
pass pays for interpreter start, import, compute and file writing, as a user
does.  Passes repeat until ``--seconds`` have gone by; every pass runs the same
jobs.  The outputs of the first pass are checked against references computed
here (``checks.py``); later passes must reproduce them byte for byte.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics, each
the median over passes.  With ``--trace 1`` every round is one plain pass
plus one pass through ``traced_job.py``, which runs the same jobs in-process
with timing wrappers, and the last line holds the per-layer metrics.  See
bench/README.md for the jobs, the checks and the reference figures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

# BLAS and OpenMP size their thread pools when numpy loads, so pin them first:
# for this process and, through the environment, for every job it starts.
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import checks  # noqa: E402  (loads numpy)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SRC = ROOT / "src"
RUN_SECONDS = 8
JOB_TIMEOUT_S = 60.0
SETUP_REPEATS = 3

WORKLOADS = {
    "carpets": "exact-engine carpets fig2c, fig4 and fig3: sine transforms, the carpet writers, and the only large files and RSS",
    "engines": "split-operator carpets at N=256 and N=2048 and the 2048-point diag spectrum: splitop and momentum do the work",
    "series": "revivals, spacing, coeffs and one long autocorrelation: import, config resolution and phase reduction dominate",
}

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]

PER_LAYER = [
    ("cli.import_s", "s"), ("cli.resolve_s", "s"), ("cli.command_s", "s"), ("cli.self_s", "s"),
    ("packets.gaussian_state_s", "s"), ("packets.decompose_s", "s"),
    ("packets.decompose.alloc_peak_mb", "MB"), ("packets.levels", "count"),
    ("packets.write_coefficients_csv_s", "s"),
    ("spectral.density_rows_s", "s"), ("spectral.cells", "count"), ("spectral.cells_per_s", "1/s"),
    ("spectral.phase_evals", "count"), ("spectral.density_rows.alloc_peak_mb", "MB"),
    ("splitop.propagate_s", "s"), ("splitop.steps", "count"),
    ("splitop.step_us.n256", "us"), ("splitop.step_us.n2048", "us"),
    ("momentum.build_hamiltonian_s", "s"), ("momentum.solve_s", "s"), ("momentum.eigh_s", "s"),
    ("momentum.matrix_dim", "count"), ("momentum.solve.alloc_peak_mb", "MB"),
    ("momentum.write_spectrum_csv_s", "s"),
    ("observables.carpet_s", "s"), ("observables.autocorrelation_s", "s"),
    ("observables.phase_evals", "count"), ("observables.phase_evals_per_s", "1/s"),
    ("observables.extract_levels_s", "s"), ("observables.write_carpet_csv_s", "s"),
    ("observables.write_carpet_pgm_s", "s"), ("observables.write_carpet_csv.bytes", "bytes"),
    ("observables.write_carpet_csv.mb_per_s", "MB/s"),
    ("observables.write_autocorrelation_csv_s", "s"), ("observables.write_spacing_csv_s", "s"),
    ("model.revival_times_s", "s"), ("model.revival_times.calls", "count"),
    ("trace.overhead_s", "s"),
]

# -- job inputs ---------------------------------------------------------------

# The CLI's documented defaults, spelled out so every check knows its inputs.
DEFAULTS = {
    "model": {"mass": 1.0, "light_speed": 1.0, "hbar": 1.0, "well_width_in_compton": 10.0},
    "packet": {"x0_over_L": 0.5, "sigma_over_L": 0.05, "p0_in_hbar_over_L": 0.0},
    "engine": {"kind": "exact"},
    "times": {"t_max": 1.0, "samples": 64, "unit": "classical"},
    "levels": {"n_min": 1, "n_max": 100},
    "output": {"basename": "run", "formats": ["csv"]},
}

BOX_125 = {"well_width_in_compton": 125.0}
PRESETS = {
    "default": {},
    "fig1": {"model": {"well_width_in_compton": 800.0}, "levels": {"n_min": 1, "n_max": 1000},
             "output": {"basename": "fig1"}},
    "fig2c": {"model": BOX_125, "times": {"t_max": 1.05, "samples": 256, "unit": "revival"},
              "output": {"basename": "fig2c"}},
    "fig3": {"model": {"well_width_in_compton": 1.0},
             "packet": {"sigma_over_L": 1.0e-5},
             "engine": {"kind": "exact", "grid_intervals": 1 << 20},
             "times": {"t_max": 2.827, "samples": 10, "unit": "natural"},
             "output": {"basename": "fig3", "formats": ["pgm"]}},
    "fig4": {"model": {"well_width_in_compton": 101.25},
             "packet": {"sigma_over_L": 0.04, "p0_in_hbar_over_L": 270.0 * math.pi},
             "times": {"t_max": 1.0, "samples": 512, "unit": "revival"},
             "output": {"basename": "fig4", "formats": ["csv", "pgm"]}},
    "fig5a": {"model": BOX_125, "packet": {"x0_over_L": 2.0 / 3.0},
              "output": {"basename": "fig5a"}},
    "fig5b": {"model": BOX_125, "output": {"basename": "fig5b"}},
}

# Split carpets: the CLI caps dt at pi/(8 V0), far below T_cl/1000 here, so
# t_max fixes the step count: 80000 steps at N=256, 25000 at N=2048.
SPLIT_WALL = 1000.0
SPLIT_DT = math.pi / (8.0 * SPLIT_WALL)
SPLIT_JOBS = {"split256": (256, 80000), "split2048": (2048, 25000)}
# The wall `spectrum --engine diag` uses when the document names none; the
# check confirms it from the job's sidecar.
DIAG_WALL = 1000.0


def merged(*blocks: dict) -> dict:
    out = json.loads(json.dumps(DEFAULTS))
    for block in blocks:
        for key, value in block.items():
            out[key] = dict(out[key], **value)
    return out


@dataclass
class Job:
    name: str
    argv: list                      # CLI arguments before --config and --out
    doc: dict                       # the run document the CLI should resolve
    config: dict | None = None      # written to a file and passed as --config
    malformed: bool = False         # correct outcome: exit 2, one line, no NaN


def build_jobs(workload: str, seed: int) -> list[Job]:
    rng = random.Random(seed)
    centre = lambda: round(0.5 + rng.uniform(-0.05, 0.05), 6)  # noqa: E731
    if workload == "carpets":
        return [Job(p, ["carpet", "--preset", p], merged(PRESETS[p])) for p in ("fig2c", "fig4", "fig3")]
    if workload == "engines":
        jobs = []
        for name, (size, steps) in SPLIT_JOBS.items():
            doc = merged({
                "packet": {"x0_over_L": centre()},
                "engine": {"kind": "split", "grid_size": size, "wall_height_in_mc2": SPLIT_WALL,
                           "wall_margin_over_L": 0.125},
                "times": {"t_max": steps * SPLIT_DT, "samples": 64, "unit": "natural"},
                "output": {"basename": name},
            })
            jobs.append(Job(name, ["carpet"], doc, config=doc))
        jobs.append(Job("diag", ["spectrum", "--preset", "default", "--engine", "diag"],
                        merged({"engine": {"kind": "diag"}})))
        return jobs
    if workload == "series":
        jobs = [Job(f"{command}-{preset}", [command, "--preset", preset], merged(PRESETS[preset]))
                for command, preset in (("revivals", "fig1"), ("spacing", "fig1"),
                                        ("coeffs", "fig5a"), ("coeffs", "fig5b"))]
        doc = merged({
            "model": {"well_width_in_compton": 800.0},
            "packet": {"x0_over_L": centre(), "sigma_over_L": 0.01, "p0_in_hbar_over_L": 400.0 * math.pi},
            "times": {"t_max": 1.05, "samples": 65536, "unit": "revival"},
            "output": {"basename": "autocorr"},
        })
        jobs.append(Job("autocorr", ["autocorr"], doc, config=doc))
        # Fixed documents, not drawn from the seed, so every pass fails them alike.
        for name, times in (("bad-type", {"t_max": "1"}), ("bad-inf", {"t_max": math.inf})):
            jobs.append(Job(name, ["carpet"], {}, config={"times": times}, malformed=True))
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# -- running ------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stderr: str


def run_process(argv: list, stderr_path: Path) -> Outcome:
    """Run argv to its end (killed after JOB_TIMEOUT_S) with its own rusage."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   proc.returncode, stderr_path.read_text(errors="replace"))


def measure_setup() -> float:
    """Seconds from a fresh interpreter's spawn to ``import relwell.cli`` done."""
    probe = "import relwell.cli, time; print(time.monotonic_ns())"
    start = time.monotonic_ns()
    done = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=True)
    return (int(done.stdout) - start) / 1e9


def digest(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())}


@dataclass
class Run:
    jobs: list
    workdir: Path
    rng: random.Random
    refs: dict = field(default_factory=dict)
    verified: dict = field(default_factory=dict)   # job name -> digest of checked outputs
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def prepare(workload: str, seed: int) -> Run:
    jobs = build_jobs(workload, seed)
    workdir = OUT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "configs").mkdir(parents=True)
    for job in jobs:
        if job.config is not None:
            path = workdir / "configs" / f"{job.name}.json"
            path.write_text(json.dumps(job.config))
            job.argv = job.argv + ["--config", str(path)]
    run = Run(jobs, workdir, random.Random(seed + 1))
    for job in jobs:
        if job.doc.get("engine", {}).get("kind") == "split":
            run.refs[job.name] = checks.SplitReference(job.doc)
        elif job.argv[0] == "spectrum":
            run.refs[job.name] = checks.DiagReference(job.doc, DIAG_WALL, job.doc["levels"]["n_max"])
    return run


def judge(run: Run, job: Job, outdir: Path, outcome: Outcome) -> None:
    """Count the operation and check its outputs: in full the first time,
    afterwards against the digest of the outputs that passed."""
    run.attempted += 1
    if job.malformed:
        problems = checks.check_malformed(outdir, outcome.returncode, outcome.stderr)
        if problems:
            run.failed += 1
        return
    if outcome.returncode != 0:
        run.failed += 1
        run.errors.append(f"{job.name}: exit {outcome.returncode}: {outcome.stderr.strip()[-300:]}")
        return
    found = digest(outdir)
    if job.name in run.verified:
        if found != run.verified[job.name]:
            run.errors.append(f"{job.name}: outputs differ from the checked first pass")
        return
    problems = checks.check_sidecar_config(outdir, job.doc) + check_outputs(run, job, outdir)
    run.errors.extend(f"{job.name}: {p}" for p in problems)
    run.verified[job.name] = found


def check_outputs(run: Run, job: Job, outdir: Path) -> list:
    """Pick the check from the job's own command and run document."""
    command, doc = job.argv[0], job.doc
    basename = doc["output"]["basename"]
    if command == "carpet" and doc["engine"]["kind"] == "split":
        return checks.check_split_carpet(outdir, basename, run.refs[job.name])
    if command == "carpet" and "csv" in doc["output"]["formats"]:
        return checks.check_exact_carpet_csv(outdir, basename, doc, run.rng)
    if command == "carpet":
        return checks.check_exact_carpet_pgm(outdir, basename, doc)
    if command == "spectrum":
        return checks.check_diag_spectrum(outdir, basename, doc, run.refs[job.name])
    if command == "autocorr":
        return checks.check_autocorr(outdir, basename, doc, run.rng)
    named = {"revivals": checks.check_revivals, "spacing": checks.check_spacing, "coeffs": checks.check_coeffs}
    return named[command](outdir, basename, doc)


def run_pass(run: Run, tag: str, traced: bool) -> tuple[list, list]:
    """One pass over the jobs; returns their outcomes and, if traced, spans."""
    passdir = run.workdir / tag
    outcomes, traces = [], []
    for job in run.jobs:
        outdir = passdir / job.name
        outdir.mkdir(parents=True)
        argv = job.argv + ["--out", str(outdir)]
        if traced:
            spans = passdir / f"{job.name}.spans.json"
            command = [sys.executable, str(BENCH / "traced_job.py"), str(spans), "--"] + argv
        else:
            command = [sys.executable, "-m", "relwell.cli"] + argv
        outcome = run_process(command, passdir / f"{job.name}.stderr")
        judge(run, job, outdir, outcome)
        outcomes.append(outcome)
        if traced:
            # a job that died before writing its spans still counts as failed above
            traces.append(json.loads(spans.read_text()) if spans.exists() else {"import_s": 0.0, "spans": []})
    shutil.rmtree(passdir)
    return outcomes, traces


# -- metrics ------------------------------------------------------------------


def pass_totals(outcomes: list) -> dict:
    return {
        "wall_s": sum(o.wall_s for o in outcomes),
        "cpu_s": sum(o.cpu_s for o in outcomes),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }


def layer_totals(traces: list) -> dict:
    """Per-layer metrics of one traced pass, summed over its jobs."""
    time_of: dict = {}
    counts: dict = {}
    peaks: dict = {}
    step_time: dict = {256: 0.0, 2048: 0.0}
    step_count: dict = {256: 0, 2048: 0}
    solve_minus_build = 0.0
    self_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        covered = [0.0] * len(spans)   # time each span's direct children cover
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for i, span in enumerate(spans):
            seconds = span["end"] - span["start"]
            name = span["name"]
            time_of[name] = time_of.get(name, 0.0) + seconds
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            for key, value in span.get("counts", {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            if "alloc_peak_mb" in span:
                peaks[name] = max(peaks.get(name, 0.0), span["alloc_peak_mb"])
            if name == "cli.command":
                self_s += seconds - covered[i]
            elif name == "momentum.solve":
                solve_minus_build += seconds - covered[i]
            elif name == "splitop.propagate" and span["counts"]["grid_size"] in step_time:
                step_time[span["counts"]["grid_size"]] += seconds
                step_count[span["counts"]["grid_size"]] += span["counts"]["steps"]

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    t = lambda name: time_of.get(name, 0.0)  # noqa: E731
    c = lambda name: counts.get(name, 0)  # noqa: E731
    csv_bytes = c("observables.write_carpet_csv.bytes")
    return {
        "cli.import_s": statistics.median(tr["import_s"] for tr in traces),
        "cli.resolve_s": t("cli.resolve"),
        "cli.command_s": t("cli.command"),
        "cli.self_s": self_s,
        "packets.gaussian_state_s": t("packets.gaussian_state"),
        "packets.decompose_s": t("packets.decompose"),
        "packets.decompose.alloc_peak_mb": peaks.get("packets.decompose", 0.0),
        "packets.levels": c("packets.decompose.levels"),
        "packets.write_coefficients_csv_s": t("packets.write_coefficients_csv"),
        "spectral.density_rows_s": t("spectral.density_rows"),
        "spectral.cells": c("spectral.density_rows.cells"),
        "spectral.cells_per_s": rate(c("spectral.density_rows.cells"), t("spectral.density_rows")),
        "spectral.phase_evals": c("spectral.density_rows.phase_evals"),
        "spectral.density_rows.alloc_peak_mb": peaks.get("spectral.density_rows", 0.0),
        "splitop.propagate_s": t("splitop.propagate"),
        "splitop.steps": c("splitop.propagate.steps"),
        "splitop.step_us.n256": 1e6 * rate(step_time[256], step_count[256]),
        "splitop.step_us.n2048": 1e6 * rate(step_time[2048], step_count[2048]),
        "momentum.build_hamiltonian_s": t("momentum.build_hamiltonian"),
        "momentum.solve_s": t("momentum.solve"),
        "momentum.eigh_s": solve_minus_build,
        "momentum.matrix_dim": c("momentum.solve.matrix_dim"),
        "momentum.solve.alloc_peak_mb": peaks.get("momentum.solve", 0.0),
        "momentum.write_spectrum_csv_s": t("momentum.write_spectrum_csv"),
        "observables.carpet_s": t("observables.carpet"),
        "observables.autocorrelation_s": t("observables.autocorrelation"),
        "observables.phase_evals": c("observables.autocorrelation.phase_evals"),
        "observables.phase_evals_per_s": rate(c("observables.autocorrelation.phase_evals"),
                                              t("observables.autocorrelation")),
        "observables.extract_levels_s": t("observables.extract_levels"),
        "observables.write_carpet_csv_s": t("observables.write_carpet_csv"),
        "observables.write_carpet_pgm_s": t("observables.write_carpet_pgm"),
        "observables.write_carpet_csv.bytes": csv_bytes,
        "observables.write_carpet_csv.mb_per_s": rate(csv_bytes / 2**20, t("observables.write_carpet_csv")),
        "observables.write_autocorrelation_csv_s": t("observables.write_autocorrelation_csv"),
        "observables.write_spacing_csv_s": t("observables.write_spacing_csv"),
        "model.revival_times_s": t("model.revival_times"),
        "model.revival_times.calls": c("model.revival_times.calls"),
    }


def blocking_path(job: Job, trace: dict) -> str:
    """'command = child + child + ... + self' for one traced job; repeated
    children are summed under one name."""
    spans = trace["spans"]
    for i, span in enumerate(spans):
        if span["name"] == "cli.command":
            total = span["end"] - span["start"]
            parts: dict = {}
            for child in spans:
                if child["parent"] == i:
                    seconds, calls = parts.get(child["name"], (0.0, 0))
                    parts[child["name"]] = (seconds + child["end"] - child["start"], calls + 1)
            self_s = total - sum(seconds for seconds, _ in parts.values())
            terms = " + ".join(f"{name}{f' x{calls}' if calls > 1 else ''} {seconds:.3f}"
                               for name, (seconds, calls) in parts.items())
            return f"  {job.name}: cli.command {total:.3f} s = {terms} + cli.self {self_s:.3f}"
    return f"  {job.name}: no command ran"


def median_of(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = prepare(workload, seed)
    try:
        measure_setup()  # compiles bytecode and warms the file cache
        setup = [] if trace else [measure_setup() for _ in range(SETUP_REPEATS)]
        plain, per_job, layers, overhead = [], [], [], []
        start = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - start < seconds:
            outcomes, _ = run_pass(run, f"pass{index}", traced=False)
            plain.append(pass_totals(outcomes))
            per_job.append(outcomes)
            if trace:
                outcomes, traces = run_pass(run, f"traced{index}", traced=True)
                layers.append(layer_totals(traces))
                overhead.append(pass_totals(outcomes)["wall_s"] - plain[-1]["wall_s"])
                if index == 0:
                    print("blocking path of each traced job:")
                    for job, tr in zip(run.jobs, traces):
                        print(blocking_path(job, tr))
            index += 1
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass  # another run's outputs are still there
    for error in run.errors:
        print(f"CHECK FAILED {error}")
    if trace:
        values = median_of(layers)
        values["trace.overhead_s"] = statistics.median(overhead)
        units = dict(PER_LAYER)
    else:
        values = median_of(plain)
        values["setup_s"] = statistics.median(setup)
        units = {m["name"]: m["unit"] for m in END_TO_END}
    print(f"{workload}: {index} passes, seed {seed}, {run.attempted} jobs attempted, {run.failed} failed")
    for i, job in enumerate(run.jobs):
        runs = [outcomes[i] for outcomes in per_job]
        print(f"  job {job.name:12s} wall {statistics.median(o.wall_s for o in runs):7.3f} s"
              f"  cpu {statistics.median(o.cpu_s for o in runs):7.3f} s"
              f"  rss {max(o.rss_mb for o in runs):7.1f} MB  exit {runs[0].returncode}")
    for name, unit in units.items():
        print(f"  {name:45s} {values[name]:14.6g} {unit}")
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def manifest() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "better": better(name)} for name, unit in PER_LAYER],
    }


def better(name: str) -> str:
    return "higher" if name.endswith(("_per_s", ".mb_per_s")) else "lower"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true", help="rewrite BENCHMARK.json and exit")
    args = parser.parse_args()
    if args.manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "relwell" / "cli.py").is_file():
        print(f"error: no relwell sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parts = {w: measure(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{w}.{name}": m for w, p in parts.items() for name, m in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
