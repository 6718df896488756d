"""Exception types shared across the package."""


class FdpcError(Exception):
    """Base class for all package errors."""


class ConfigurationError(FdpcError):
    """Invalid model, dimensions, covariance, or CSIT configuration."""


class EvaluationError(FdpcError):
    """A rate/objective evaluation failed (e.g. numerically singular matrix).

    Carries the index of the offending Monte Carlo sample when known.
    """

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class SolverError(FdpcError):
    """An inflation-factor solver hit a singular system or similar failure."""

    def __init__(self, message, row_index=None):
        super().__init__(message)
        self.row_index = row_index
