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
from .numerics import EULER_GAMMA, PI_LD, NamedEnum, short
from .sieves import MAX_SUMMATORY_X, TableKind, check_memory, summatory_d, summatory_r

# peak bytes per entry of a step table, the uint16 table and its int64 anchors
# (tracemalloc, fresh process, each kind: 2.08 at 1e6 entries, 2.04 at 3e6)
_STEP_BYTES_PER_ENTRY = 2.1


class ErrorTermKind(NamedEnum):
    """An error term, named by its CLI value, with the two facts the engines
    read: ``table``, the table whose running sums give its step part, and
    ``denom``, its jump grid: the step part jumps only at multiples of
    1/denom.  Delta and circle jump at integers; delta-star jumps at
    quarter-integers, the union of the jump sets of D(x), D(2x) and D(4x).
    """

    def __new__(cls, value: str, table: TableKind, denom: int):
        member = object.__new__(cls)
        member._value_, member.table, member.denom = value, table, denom
        return member

    DELTA = "delta", TableKind.DIVISOR, 1
    DELTA_STAR = "delta-star", TableKind.DIVISOR, 4
    CIRCLE = "circle", TableKind.SUM_OF_TWO_SQUARES, 1


def step_table_need(kind: ErrorTermKind, upto) -> tuple[TableKind, int]:
    """The table kind and limit whose running sums give the step part on
    [1, upto]: kind.table up to kind.denom*upto (delta-star reads D(4x));
    CapacityError past the ceiling."""
    # exact integers past the double range too
    limit = kind.denom * math.floor(upto) + math.ceil(kind.denom * (upto % 1))
    num, den = _STEP_BYTES_PER_ENTRY.as_integer_ratio()
    check_memory(-(-num * (limit + 1) // den), f"step table of {short(limit)} entries")
    return kind.table, limit


def smooth_main_term(kind: ErrorTermKind, x, out=None) -> np.longdouble:
    """The smooth function subtracted from the step sum, in longdouble,
    written to ``out`` when one is given.

    Accepts a scalar or array; the product x*log(x) is where doubles shed
    the digits that matter, so it is formed entirely in extended precision.
    """
    xl = np.asarray(x, dtype=np.longdouble)
    if kind is ErrorTermKind.CIRCLE:
        return np.multiply(PI_LD, xl, out=out)
    log = np.log(xl, out=out)
    return np.multiply(xl, np.add(log, 2 * EULER_GAMMA - 1, out=out), out=out)


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
    """Evaluate the requested error term at a single point 1 <= x <=
    MAX_SUMMATORY_X / kind.denom, the x whose counts stay in summatory range."""
    top = MAX_SUMMATORY_X / kind.denom
    if not 1 <= x <= top:
        raise RangeError(f"{kind.value} is defined for finite x >= 1 up to {top:g}, "
                         f"got {x}")
    # read from the module at call time: perfbench/tracing.py wraps them here
    count = summatory_d if kind.table is TableKind.DIVISOR else summatory_r
    step = step_part(kind, count, math.floor(kind.denom * x))
    return float(step - smooth_main_term(kind, np.longdouble(x)))
