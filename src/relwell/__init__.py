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
    HermiticityError,
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
    eigenfunction_momentum,
    eigenfunction_position,
    energy,
    energy_above_rest,
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
    residual_integral_equation,
    solve,
    well_window_transform,
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
    gaussian_overlap_coefficients,
    gaussian_state,
)
from .spectral import density_rows, evolve, reconstruct, reconstruct_at
from .splitop import (
    PropagationConfig,
    default_config,
    kinetic_phase,
    propagate,
    read_checkpoint,
    write_checkpoint,
)

__version__ = "0.1.0"
