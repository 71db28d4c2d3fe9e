"""Exception types shared across the package."""


class FavardError(Exception):
    """Base class for all package errors."""


class NearSingularityError(FavardError):
    """Reciprocal denominator came closer to zero than the configured margin."""

    def __init__(self, value: float, margin: float):
        self.value = value
        self.margin = margin
        super().__init__(
            f"denominator magnitude {value:.3e} below margin {margin:.3e}"
        )


class CoverageError(FavardError):
    """A trajectory sample does not cover the time window a scan requires."""


class BlowUpError(FavardError):
    """A trajectory exceeded the bounded-orbit threshold (or became non-finite)."""

    def __init__(self, message: str, t: float | None = None):
        self.t = t
        super().__init__(message)


class SolverError(FavardError):
    """The min-max solver ran out of pivots, or roundoff broke its first LP."""


class ConfigError(FavardError):
    """A scenario configuration failed validation."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"config field '{field}': {reason}")
