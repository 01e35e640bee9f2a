"""trackmine: camera detection tracks -> event logs -> directly-follows
process networks -> spectral node rankings."""

from .errors import ConvergenceError, DataError, TrackmineError

__all__ = ["ConvergenceError", "DataError", "TrackmineError"]
__version__ = "0.1.0"
