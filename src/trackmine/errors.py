"""Exception hierarchy shared across the pipeline."""


class TrackmineError(Exception):
    """Base class for all pipeline errors."""


class DataError(TrackmineError):
    """Malformed or inconsistent input: a bad file or stream, or a setting
    out of range (a threshold, a scenario, a zone on an unknown camera, ...)."""


class ConvergenceError(TrackmineError):
    """A solver's residual exceeds the tolerance the matrix's own scale sets."""
