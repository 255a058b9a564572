"""Relativistic (Salpeter) particle in a box: spectra, revivals, carpets.

Three independent numerical routes — exact evolution in the analytic
eigenbasis, a split-operator grid propagator and momentum-space
diagonalization — cross-validate each other and the closed-form results.
"""

from .errors import (
    AliasingError,
    DomainError,
    EigensolverError,
    EmptyStateError,
    NonFiniteOutputError,
    NumericalBlowupError,
    ResolutionError,
    SimulationError,
    UnsupportedOrderError,
)
from .grids import BoxGrid, GridState, SpatialGrid
from .model import (
    RevivalTimes,
    WellModel,
    energy,
    energy_derivative,
    level_velocity,
    lorentz_gamma,
    revival_times,
)
from .momentum import (
    EigenSpectrum,
    MomentumGrid,
    build_hamiltonian,
    default_grid,
    solve,
)
from .observables import (
    AutocorrelationSeries,
    CarpetGrid,
    LevelEstimates,
    LightconeReport,
    SpacingStatistics,
    autocorrelation,
    carpet,
    extract_levels,
    level_spacing,
    lightcone_leakage,
)
from .packets import (
    CoefficientVector,
    WavepacketSpec,
    decompose,
    dominant_level,
    gaussian_state,
)
from .spectral import density_rows, evolve, reconstruct, reconstruct_at
from .splitop import (
    PropagationConfig,
    default_config,
    kinetic_phase,
    propagate,
)

__version__ = "0.1.0"
