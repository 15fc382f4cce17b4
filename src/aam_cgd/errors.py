"""Exception hierarchy shared by all modules."""


class AamCgdError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(AamCgdError):
    """Inputs have inconsistent or invalid dimensions."""


class DegeneracyError(AamCgdError):
    """Geometrically degenerate input (e.g. all landmarks coincide)."""


class InsufficientDataError(AamCgdError):
    """Not enough samples to perform the operation."""


class ConfigError(AamCgdError):
    """Invalid configuration value or algorithm combination."""


class RankDeficiencyError(AamCgdError):
    """Singular / near-singular system.  Carries a condition estimate."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition
