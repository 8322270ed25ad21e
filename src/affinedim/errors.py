"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "AffineDimError",
    "SpectralGapError",
    "BudgetExceededError",
    "SubspaceInconsistencyError",
    "ConfigError",
]


class AffineDimError(Exception):
    """Base class for errors raised by this package."""


class SpectralGapError(AffineDimError):
    """An operation needed a singular-value gap that the data does not show."""


class BudgetExceededError(AffineDimError):
    """An exhaustive enumeration would exceed the configured product budget."""


class SubspaceInconsistencyError(AffineDimError):
    """Estimated subspaces violate a dimension or transversality constraint."""


class ConfigError(AffineDimError):
    """A run configuration failed validation.

    ``location`` is a dotted/indexed path into the offending document,
    e.g. ``ifs.matrices[1]``.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)
