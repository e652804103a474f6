"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, NumericalError -> 4.
"""


class WaveletCFError(Exception):
    """Base class for all package errors."""


class ConfigError(WaveletCFError):
    """Invalid or inconsistent configuration."""


class DataError(WaveletCFError):
    """Malformed, missing, or mutually inconsistent data artifacts."""


class NumericalError(WaveletCFError):
    """A numerical procedure failed to meet its contract."""
