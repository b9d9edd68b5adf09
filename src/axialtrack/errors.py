"""Exception types shared across the library; the CLI exits 1 on an `AxialtrackError`."""


class AxialtrackError(Exception):
    """Base of the library's own errors."""


class DimensionError(AxialtrackError, ValueError):
    """Array shapes or extents do not match what an operation requires."""


class ConfigError(AxialtrackError, ValueError):
    """Invalid configuration value, file, or parameter structure."""


class NumericError(AxialtrackError, ValueError):
    """Non-finite values showed up where finite ones are required."""


class ResourceGuardError(AxialtrackError, RuntimeError):
    """A guarded operation would exceed its configured size cap."""


class GenerationError(AxialtrackError, RuntimeError):
    """Synthetic data generation could not satisfy its constraints."""
