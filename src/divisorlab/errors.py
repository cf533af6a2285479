"""Exception types shared across the package."""


class DivisorLabError(Exception):
    """Base class for all package errors."""


class CapacityError(DivisorLabError):
    """An allocation would exceed the memory ceiling."""


class RangeError(DivisorLabError):
    """An evaluation point lies outside the supported/tabulated range."""


class BudgetError(DivisorLabError):
    """An enumeration would exceed the work budget."""


class TableFormatError(DivisorLabError):
    """A cache file is corrupt, truncated, or has a bad magic/version."""


class TableKindMismatch(DivisorLabError):
    """A cache file holds a different table kind than the caller requested."""


class DegenerateFitError(DivisorLabError):
    """Too few grid points for a meaningful least-squares fit."""
