"""divisorlab: a numerical laboratory for the divisor and circle problem
error terms, their truncated cosine expansions, moment asymptotics, and
square-root spacing counts."""

from .error_terms import ErrorTermKind, error_term
from .errors import (BudgetError, CapacityError, DegenerateFitError,
                     DivisorLabError, RangeError, TableFormatError,
                     TableKindMismatch)
from .sieves import (DivisorTable, TableKind, load_table, save_table,
                     sieve_divisors, sieve_r, summatory_d, summatory_r)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CapacityError", "DegenerateFitError", "DivisorLabError",
    "DivisorTable", "ErrorTermKind", "RangeError",
    "TableFormatError", "TableKind", "TableKindMismatch",
    "error_term", "load_table", "save_table", "sieve_divisors", "sieve_r",
    "summatory_d", "summatory_r",
]
