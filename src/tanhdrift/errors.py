"""Exception taxonomy.

Three classes matter to callers (and map to distinct CLI exit codes):
invalid inputs (``ValidationError``), bad or missing data (``DataError``)
and oracle disagreement beyond a configured tolerance (``ToleranceError``).
"""


class TanhDriftError(Exception):
    """Base class for all package errors."""


class ValidationError(TanhDriftError):
    """Invalid parameters or violated preconditions."""


class DataError(TanhDriftError):
    """Missing, corrupt, or insufficient input data."""


class ToleranceError(TanhDriftError):
    """A cross-check against an oracle exceeded its tolerance."""


class InsufficientData(DataError):
    """Fewer observations than the minimum window size."""


class DegeneratePrices(DataError):
    """Price series has no variation; the regression slope is undefined."""


class NonPositiveValue(DataError):
    """A price or spread was not finite or <= 0 (logs are taken of both)."""


class EmptyResult(DataError):
    """No window or no input produced a usable result."""


class UniverseTooSmall(DataError):
    """Fewer than 10 names with valid signals; deciles cannot be formed."""


class TooFewNames(DataError):
    """Fewer than 3 common names between signal sets."""


class NoOverlap(DataError):
    """Signal and price dates never align."""


class TooFewPriceDays(DataError):
    """Signals and prices align, but no signal window holds the price
    days that realized variance needs."""
