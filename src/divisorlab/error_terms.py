"""Exact evaluation of the divisor and circle error terms.

delta(x)      = D(x) - x(log x + 2*gamma - 1)
delta-star(x) = -delta(x) + 2*delta(2x) - delta(4x)/2
circle(x)     = R(x) - pi*x

The step part is exact integer arithmetic; the smooth part is evaluated in
80-bit extended precision, so absolute error stays below 1e-6 for x up to
1e9.  Against 50-digit mpmath up to the top x = 1e17: delta 1.2e-3 at 1e16,
5.1e-3 at 5e16, 0.20 at 1e17 (one ulp of x*log x is 0.25 there), delta-star
0.017 at its top 2.5e16, circle 2.5e-3 at 1e17.  Between consecutive jumps
of the step part the error term is an exact step constant minus
smooth_main_term; this module says where the jumps fall and which table
holds the step constants, and the moments engine integrates over that grid.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import RangeError
from .numerics import EULER_GAMMA, PI_LD, NamedEnum
from .sieves import (TableKind, alternating_summatory_d, check_memory,
                     summatory_d, summatory_r)

# peak bytes per entry of a step table, the uint16 table and its int64 prefix
# (tracemalloc, fresh process, each kind, 1e6 and 3e6 entries)
_STEP_BYTES_PER_ENTRY = 10


class ErrorTermKind(NamedEnum):
    DELTA = "delta"
    DELTA_STAR = "delta-star"
    CIRCLE = "circle"


def jump_denominator(kind: ErrorTermKind) -> int:
    """The step part jumps only at multiples of 1/jump_denominator(kind).

    Delta and circle jump at integers; delta-star jumps at quarter-integers,
    the union of the jump sets of D(x), D(2x) and D(4x).
    """
    return 4 if kind is ErrorTermKind.DELTA_STAR else 1


def step_table_need(kind: ErrorTermKind, upto) -> tuple[TableKind, int]:
    """The table kind and limit whose prefix sums give the step part on
    [1, upto]: r up to upto for circle, d up to jump_denominator(kind)*upto
    otherwise (delta-star reads D(4x)); CapacityError past the ceiling."""
    limit = math.ceil(jump_denominator(kind) * upto)
    check_memory(_STEP_BYTES_PER_ENTRY * (limit + 1), f"step table of {limit} entries")
    if kind is ErrorTermKind.CIRCLE:
        return TableKind.SUM_OF_TWO_SQUARES, limit
    return TableKind.DIVISOR, limit


def smooth_main_term(kind: ErrorTermKind, x) -> np.longdouble:
    """The smooth function subtracted from the step sum, in longdouble.

    Accepts a scalar or array; the product x*log(x) is where doubles shed
    the digits that matter, so it is formed entirely in extended precision.
    """
    xl = np.asarray(x, dtype=np.longdouble)
    if kind is ErrorTermKind.CIRCLE:
        return PI_LD * xl
    return xl * (np.log(xl) + (2 * EULER_GAMMA - 1))


def step_part(kind: ErrorTermKind, count, ticks):
    """The step part on [t/denom, (t+1)/denom) per tick t (an int or an int64
    array) in longdouble, from count(t), the exact D(t) or R(t).  Delta-star
    takes -D(x) + 2 D(2x) - D(4x)/2 at t = floor(4x) as an exact integer,
    twice the step part, which longdouble holds exactly below 2^64.
    """
    if kind is ErrorTermKind.DELTA_STAR:
        return np.longdouble(-2 * count(ticks // 4) + 4 * count(ticks // 2)
                             - count(ticks)) / 2
    return np.longdouble(count(ticks))


def error_term(kind: ErrorTermKind, x) -> float:
    """Evaluate the requested error term at a single point x >= 1."""
    if x < 1:
        raise RangeError(f"error terms are defined for x >= 1, got {x}")
    count = summatory_r if kind is ErrorTermKind.CIRCLE else summatory_d
    step = step_part(kind, count, math.floor(jump_denominator(kind) * x))
    return float(step - smooth_main_term(kind, np.longdouble(x)))


def delta_star_identity_residual(x) -> float:
    """Residual of the alternating-sum identity for delta-star at x.

    Returns 0.5*sum_{n<=4x}(-1)^n d(n) - x(log x + 2*gamma - 1) - delta-star(x),
    which must vanish to ~1e-12; the integer parts cancel exactly and the two
    smooth evaluations share one code path.
    """
    if x < 1:
        raise RangeError(f"identity is checked for x >= 1, got {x}")
    alt = np.longdouble(alternating_summatory_d(x)) / 2
    lhs = alt - smooth_main_term(ErrorTermKind.DELTA, np.longdouble(x))
    return float(lhs - np.longdouble(error_term(ErrorTermKind.DELTA_STAR, x)))
