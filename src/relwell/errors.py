"""The package's one exception type.

Input a run cannot use raises a plain ``ValueError`` (CLI exit 2); numerics
that failed raise ``SimulationError`` (exit 3).
"""


class SimulationError(Exception):
    """Numerics that failed: non-finite values, an empty state, an unconverged eigensolver."""
