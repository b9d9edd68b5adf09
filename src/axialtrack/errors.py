"""Exception types shared across the library, and the one memory limit of
a run; the CLI exits 1 on an `AxialtrackError`."""

# Most bytes that a run may hold at its declared peak (`config.run_peak`),
# one trajectory pass for stage one (`attention.stage_one_footprint`), and
# a pass of the backward (`backward._footprint`).
MEMORY_LIMIT = 2 ** 30


class AxialtrackError(Exception):
    """Base of the library's own errors."""


class DimensionError(AxialtrackError, ValueError):
    """Array shapes or extents do not match what an operation requires."""


class ConfigError(AxialtrackError, ValueError):
    """Invalid configuration value, file, or parameter structure."""


class NumericError(AxialtrackError, ValueError):
    """Non-finite values showed up where finite ones are required."""


class ResourceGuardError(AxialtrackError, RuntimeError):
    """A guarded operation would exceed the memory limit."""


class GenerationError(AxialtrackError, RuntimeError):
    """Synthetic data generation could not satisfy its constraints."""


def check_memory(stage: str, values: str, n: int, what: str) -> None:
    """Refuse `stage` before it runs when the `n` bytes of `what` that
    `values` need exceed `MEMORY_LIMIT`."""
    if n > MEMORY_LIMIT:
        raise ResourceGuardError(
            f"{stage} refused: {values} need {n} bytes of {what}, "
            f"above the limit of {MEMORY_LIMIT} bytes"
        )
