"""Run one relwell CLI job in-process with timing wrappers, and save the spans.

    python bench/traced_job.py SPANS.json -- <relwell arguments>

The job runs through ``relwell.cli.main`` exactly as ``python -m relwell.cli``
would run it.  Before the call, the public functions that the CLI calls in
each module are replaced, in the namespace they are looked up from, by
wrappers that record a span: name, parent span, start, end, and per-layer
counts.  A few wrappers also record the peak of the memory allocated during
the call (``tracemalloc``, switched on only for that call).  Nothing inside
``src/`` is changed.  The spans are written to SPANS.json even when the job
raises, and the job's own exit status is kept.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc


class Tracer:
    """Spans kept in memory; ``spans[i]['parent']`` indexes the caller's span."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, namespace, attr: str, name: str, counts=None, alloc: bool = False) -> None:
        setattr(namespace, attr, self.traced(getattr(namespace, attr), name, counts, alloc))

    def traced(self, inner, name: str, counts=None, alloc: bool = False):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(index)
            measure_alloc = alloc and not tracemalloc.is_tracing()
            if measure_alloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if measure_alloc:
                    span["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return traced


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _propagated_steps(args, kwargs, result):
    state, config = args[0], args[1]
    steps = result[-1].metadata["steps_taken"] - state.metadata.get("steps_taken", 0)
    return {"steps": steps, "grid_size": config.grid_size}


def _density_rows_work(args, kwargs, result):
    coeffs, times = args[0], args[2]
    rows, cols = result.shape
    return {"cells": rows * cols, "phase_evals": len(times) * coeffs.n_max}


def install(tracer: Tracer) -> None:
    """Wrap the calls the CLI makes into each module."""
    import relwell.cli as cli
    import relwell.momentum as momentum
    import relwell.observables as observables
    import relwell.splitop as splitop

    tracer.wrap(cli, "load_config", "cli.resolve")
    tracer.wrap(cli, "ResolvedConfig", "cli.resolve")
    for command, run in cli._COMMANDS.items():
        cli._COMMANDS[command] = tracer.traced(run, "cli.command")

    tracer.wrap(cli, "gaussian_state", "packets.gaussian_state")
    tracer.wrap(cli, "decompose", "packets.decompose",
                counts=lambda a, k, r: {"levels": r.n_max}, alloc=True)
    tracer.wrap(cli, "write_coefficients_csv", "packets.write_coefficients_csv")

    tracer.wrap(observables, "density_rows", "spectral.density_rows",
                counts=_density_rows_work, alloc=True)
    tracer.wrap(observables, "propagate", "splitop.propagate", counts=_propagated_steps)

    tracer.wrap(cli, "solve", "momentum.solve",
                counts=lambda a, k, r: {"matrix_dim": a[0].count}, alloc=True)
    tracer.wrap(momentum, "build_hamiltonian", "momentum.build_hamiltonian")
    tracer.wrap(cli, "write_spectrum_csv", "momentum.write_spectrum_csv")

    tracer.wrap(cli, "carpet", "observables.carpet")
    tracer.wrap(cli, "autocorrelation", "observables.autocorrelation",
                counts=lambda a, k, r: {"phase_evals": r.times.size * a[0].n_max})
    tracer.wrap(cli, "extract_levels", "observables.extract_levels")
    tracer.wrap(cli, "write_carpet_csv", "observables.write_carpet_csv", counts=_file_bytes)
    tracer.wrap(cli, "write_carpet_pgm", "observables.write_carpet_pgm")
    tracer.wrap(cli, "write_autocorrelation_csv", "observables.write_autocorrelation_csv")
    tracer.wrap(cli, "write_spacing_csv", "observables.write_spacing_csv")

    tracer.wrap(cli, "revival_times", "model.revival_times")
    tracer.wrap(splitop, "revival_times", "model.revival_times")


def main() -> None:
    spans_path, separator, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if separator != "--":
        raise SystemExit("usage: traced_job.py SPANS.json -- <relwell arguments>")
    start = time.perf_counter()
    import relwell.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        code = relwell.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
