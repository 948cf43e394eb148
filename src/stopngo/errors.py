"""Exception types shared across the package."""


class StopngoError(Exception):
    """Base class for all package errors."""


class DomainError(StopngoError, ValueError):
    """A physical quantity is outside its admissible range."""


class InfeasibleError(StopngoError, ValueError):
    """Requested flux or control demand cannot be realized."""


class AssumptionError(StopngoError, ValueError):
    """A standing assumption of the control design is violated."""


class SimulationError(StopngoError, RuntimeError):
    """A time-domain run broke down (NaN, vacuum, negative speed)."""


class ConfigError(StopngoError, ValueError):
    """A run configuration failed to parse or validate."""
