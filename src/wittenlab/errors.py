"""Exception and warning types shared across the package."""


class ShapeError(ValueError):
    """Matrices of a graded complex do not have conforming shapes."""


class NotAComplex(ValueError):
    """The squared differential has a residual above tolerance."""


class DomainError(ValueError):
    """An argument lies outside the mathematically valid domain."""


class ConfigError(ValueError):
    """A configuration value is unsupported (grid size, file contents)."""


class GeometryError(ValueError):
    """A requested circle geometry is inconsistent (caps overlap, bad order)."""


class LyapunovError(ValueError):
    """A descent-path integral that must be negative is not."""


class DataError(ValueError):
    """Form samples do not cover the region an operation needs."""


class UnsupportedError(ValueError):
    """The operation is defined only for a restricted class of inputs."""


class StructureError(ValueError):
    """A graph violates a structural requirement (isolated vertex, bad squares)."""


class StateError(RuntimeError):
    """A computation was requested before its prerequisites are available."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or to resolve the target."""


class InfeasibleError(ValueError):
    """Requested combinatorial data is not realizable."""


class InfeasibleTargets(InfeasibleError):
    """Reweighting targets are below the feasibility floor."""


class InvariantViolation(RuntimeError):
    """An internal algorithmic invariant was breached; indicates bad input."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class ConvergenceError(RuntimeError):
    """An extrapolation or tail bound failed; carries the raw samples."""

    def __init__(self, message, data=None):
        super().__init__(message)
        self.data = data


class AmbiguousKernel(UserWarning):
    """An eigenvalue sits too close to the numeric kernel threshold."""
