"""Exception hierarchy shared across the pipeline."""


class TrackmineError(Exception):
    """Base class for all pipeline errors."""


class DataError(TrackmineError):
    """Malformed or inconsistent input data (bad file, unsorted stream, ...)."""


class ConfigError(TrackmineError):
    """Inconsistent configuration (unknown camera, bad threshold, ...)."""


class ConvergenceError(TrackmineError):
    """A solver could not certify its answer within the requested tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations
