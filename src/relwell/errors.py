"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all relwell-specific errors."""


class DomainError(SimulationError):
    """A coordinate or time lies outside the region an operation is defined on."""


class ResolutionError(SimulationError):
    """A grid is too coarse to represent the requested state or dynamics."""


class AliasingError(SimulationError):
    """A basis index exceeds what the grid can represent without aliasing."""


class UnsupportedOrderError(SimulationError):
    """A derivative order outside the implemented range was requested."""


class EmptyStateError(SimulationError):
    """An operation received a coefficient vector with no weight in it."""


class NumericalBlowupError(SimulationError):
    """Propagation produced non-finite values."""

    def __init__(self, message: str, step_index: int):
        super().__init__(f"{message} (step {step_index})")
        self.step_index = step_index


class EigensolverError(SimulationError):
    """The dense eigensolver did not converge."""


class NonFiniteOutputError(SimulationError):
    """An output file would have held NaN or infinite values."""
