"""Exception hierarchy shared across the pipeline."""


class TrackmineError(Exception):
    """Base class for all pipeline errors."""


class DataError(TrackmineError):
    """Malformed or inconsistent input data (bad file, unsorted stream, ...)."""


class ConfigError(TrackmineError):
    """Inconsistent configuration (unknown camera, bad threshold, ...)."""


class ConvergenceError(TrackmineError):
    """A solver's residual exceeds the tolerance the matrix's own scale sets."""
