"""Relativistic (Salpeter) particle in a box: spectra, revivals, carpets.

Three independent numerical routes — exact evolution in the analytic
eigenbasis, a split-operator grid propagator and momentum-space
diagonalization — cross-validate each other and the closed-form results.

The package's one exception type is defined here, free of numpy; each other
public name loads its module, and so numpy, on first use: ``import relwell``
alone loads neither.
"""

import importlib

__version__ = "0.1.0"


class SimulationError(Exception):
    """Numerics that failed (CLI exit 3); input a run cannot use raises ValueError (exit 2)."""


# public name -> the module that defines it
_MODULE_OF = {
    name: module
    for module, names in (
        ("grids", "BoxGrid GridState SpatialGrid"),
        ("model", "RevivalTimes WellModel energy energy_derivative level_velocity revival_times"),
        ("momentum", "MomentumGrid build_hamiltonian default_grid solve"),
        ("observables", "AutocorrelationSeries CarpetGrid LevelEstimates LightconeReport "
                        "SpacingStatistics autocorrelation carpet extract_levels "
                        "level_spacing lightcone_leakage"),
        ("packets", "CoefficientVector WavepacketSpec decompose dominant_level gaussian_state"),
        ("spectral", "density_rows evolve reconstruct_at"),
        ("splitop", "PropagationConfig default_config kinetic_phase propagate"),
    )
    for name in names.split()
}
__all__ = ["SimulationError", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
