"""Piecewise-exact integration of powers of the error terms, and the
main-term fits built on those integrals.

On each interval between consecutive jumps of the step sum the integrand
(error term)^k is analytic and mild, so fixed-order Gauss-Legendre per
segment integrates it to ~1e-13 relative.  Segments are processed in
fixed-size chunks; each chunk reduces internally with numpy's deterministic
pairwise sum and the chunks combine in ascending order through a Kahan
accumulator.  Thread count therefore never changes a single bit of the
result for a given chunk size.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .error_terms import (ErrorTermKind, jump_denominator, smooth_main_term,
                          step_table_need)
from .errors import BudgetError, DegenerateFitError, RangeError
from .numerics import KahanAccumulator, leggauss_01, loglog_slope
# sieve_divisors and sieve_r stay bound: perfbench/tracing.py wraps them here
from .sieves import DivisorTable, sieve, sieve_divisors, sieve_r  # noqa: F401

DEFAULT_CHUNK_SEGMENTS = 1 << 16
DEFAULT_SEGMENT_BUDGET = 10**9

MIN_POWER = 1
MAX_POWER = 9


@dataclass(frozen=True)
class MomentResult:
    kind: ErrorTermKind
    power: int
    interval: tuple[float, float]
    integral: float
    quadrature_order: int
    partition_count: int


@dataclass(frozen=True)
class ShortIntervalResult:
    kind: ErrorTermKind
    power: int
    X: float
    H: float
    moment: float
    main_term: float
    ratio: float
    in_asymptotic_range: bool


@dataclass(frozen=True)
class FitReport:
    kind: ErrorTermKind
    power: int
    main_exponent: float
    fitted_coefficient: float
    theory_coefficient: float
    residual_series: list[tuple[float, float]]
    residual_slope: float


def main_exponent(power: int) -> float:
    """Leading exponent of the long-interval moment: 1 + k/4."""
    return 1.0 + power / 4.0


def _check_power(power: int) -> None:
    if not MIN_POWER <= power <= MAX_POWER:
        raise RangeError(f"power must be in [{MIN_POWER}, {MAX_POWER}], got {power}")


class _StepTable:
    """Cumulative step sums backing constant-part lookups for one kind."""

    def __init__(self, kind: ErrorTermKind, upto: float,
                 table: DivisorTable | None = None):
        self.kind = kind
        self.denom = jump_denominator(kind)
        table = sieve(*step_table_need(kind, upto), table)
        # int64 prefix sums (values[0] = 0); exact well past desk scale
        self.limit = table.limit
        self.prefix = np.cumsum(table.values, dtype=np.int64)

    def constants(self, ticks: np.ndarray) -> np.ndarray:
        """Step constants for segments [t/denom, (t+1)/denom), longdouble."""
        if self.kind is ErrorTermKind.DELTA_STAR:
            doubled = -2 * self.prefix[ticks // 4] + 4 * self.prefix[ticks // 2] \
                - self.prefix[ticks]
            return doubled.astype(np.longdouble) / 2
        return self.prefix[ticks].astype(np.longdouble)


def _chunk_partials(step: _StepTable, m0: int, m1: int, span, nodes, weights,
                    powers: tuple[int, ...]) -> dict[int, np.longdouble]:
    """Integrals of error^k over the segments m0..m1-1 in one pairwise pass,
    or, when ``span`` = (x0, x1) is given, over that part of segment m0.

    A head or tail piece is thus a one-element pass; np.sum of one element
    is exact, so it rounds exactly as a scalar evaluation would.
    """
    ticks = np.arange(m0, m1, dtype=np.int64)
    if span is None:
        left = ticks.astype(np.longdouble) / step.denom
        width = np.longdouble(1) / step.denom
    else:
        left = np.array([span[0]], dtype=np.longdouble)
        width = np.longdouble(span[1]) - left[0]
    consts = step.constants(ticks)
    xs = left[:, None] + width * nodes[None, :]
    err = consts[:, None] - smooth_main_term(step.kind, xs)
    out: dict[int, np.longdouble] = {}
    prod = None
    for k in range(1, max(powers) + 1):
        prod = err if prod is None else prod * err
        if k in powers:
            per_seg = np.sum(prod * weights[None, :], axis=1)
            out[k] = np.sum(per_seg) * width
    return out


def moment_profile(kind: ErrorTermKind, powers, stops, start: float = 1.0,
                   order: int = 8, threads: int = 1,
                   chunk_segments: int = DEFAULT_CHUNK_SEGMENTS,
                   table: DivisorTable | None = None,
                   max_segments: int = DEFAULT_SEGMENT_BUDGET) -> dict[int, list[float]]:
    """Cumulative integrals of error^k from ``start`` to each stop, per power.

    One sweep serves every requested power: the error values at the
    quadrature nodes are shared and only the power accumulation differs.
    Results are recorded at each stop in ascending order.
    """
    powers = tuple(sorted(set(int(p) for p in powers)))
    for p in powers:
        _check_power(p)
    stops = [float(s) for s in stops]
    if not stops or any(b <= a for a, b in zip(stops, stops[1:])):
        raise ValueError("stops must be a non-empty ascending sequence")
    if start < 1:
        raise RangeError(f"integration starts at x >= 1, got {start}")
    if stops[0] < start:
        raise ValueError("first stop lies before the interval start")

    step = _StepTable(kind, stops[-1], table)
    denom = step.denom
    total_segments = int(math.ceil((stops[-1] - start) * denom)) + len(stops) + 2
    if total_segments > max_segments:
        raise BudgetError(f"{total_segments} segments exceed budget {max_segments}")
    if (stops[-1] * denom) > step.limit:
        raise RangeError(f"table covers only up to {step.limit}; "
                         f"cannot integrate to {stops[-1]}")

    nodes, weights = leggauss_01(order)
    if threads < 1:
        raise ValueError("thread count must be >= 1")

    acc = {p: KahanAccumulator() for p in powers}
    results: dict[int, list[float]] = {p: [] for p in powers}

    def run(part):
        return _chunk_partials(step, *part, nodes, weights, powers)

    prev = start
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for stop in stops:
            a_tick, b_tick = prev * denom, stop * denom
            m_lo, m_hi = math.floor(a_tick), math.floor(b_tick)
            first = math.ceil(a_tick)
            # (m0, m1, span) in Kahan add order: head piece, chunks, tail piece
            parts = []
            if first > a_tick:
                parts.append((m_lo, m_lo + 1, (prev, min(stop, first / denom))))
            parts += [(lo, min(lo + chunk_segments, m_hi), None)
                      for lo in range(first, m_hi, chunk_segments)]
            if first <= m_hi < b_tick:
                parts.append((m_hi, m_hi + 1, (m_hi / denom, stop)))
            for part in (map if threads == 1 else pool.map)(run, parts):
                for p in powers:
                    acc[p].add(part[p])
            for p in powers:
                results[p].append(acc[p].value())
            prev = stop
    return results


def moment(kind: ErrorTermKind, power: int, interval, order: int = 8,
           threads: int = 1, table: DivisorTable | None = None,
           chunk_segments: int = DEFAULT_CHUNK_SEGMENTS) -> MomentResult:
    """Integral of error^power over [a, b]."""
    a, b = float(interval[0]), float(interval[1])
    if not 1 <= a < b:
        raise RangeError(f"need 1 <= a < b, got [{a}, {b}]")
    profile = moment_profile(kind, (power,), [b], start=a, order=order,
                             threads=threads, table=table,
                             chunk_segments=chunk_segments)
    denom = jump_denominator(kind)
    count = int(math.ceil(b * denom) - math.floor(a * denom))
    return MomentResult(kind=kind, power=power, interval=(a, b),
                        integral=profile[power][0], quadrature_order=order,
                        partition_count=count)


def theory_coefficient(kind: ErrorTermKind, power: int,
                       cutoff: int = 10**5) -> float:
    """Predicted leading coefficient of the long-interval moment.

    Tabulated for the divisor error term only: k=3 and k=4 come from the
    diagonal series of exact square-root identities, k=2 is the classical
    mean-square constant (external cross-check, not derived from the
    diagonal machinery).  The circle and alternating variants have their
    own constants, which this module does not tabulate; pass an explicit
    coefficient for those.
    """
    if kind is not ErrorTermKind.DELTA:
        raise RangeError("theoretical moment coefficients are tabulated for "
                         "the divisor error term only; supply one explicitly")
    from . import constants as _constants
    if power == 2:
        return _constants.classical_mean_square_coefficient()
    if power == 3:
        return _constants.cubic_moment_coefficient(cutoff=cutoff).value
    if power == 4:
        return _constants.quartic_moment_coefficient(cutoff=cutoff).value
    raise RangeError(f"no theoretical main-term coefficient for power {power}")


def short_interval_ratio(kind: ErrorTermKind, power: int, X: float, H: float,
                         order: int = 8, threads: int = 1,
                         table: DivisorTable | None = None,
                         coefficient: float | None = None) -> ShortIntervalResult:
    """Moment over [X, X+H] divided by the predicted main-term increment.

    The asymptotic-range flag records whether H lies in the window where
    the ratio is expected to approach 1: H in [X^(7/12), X] for the cube and
    [X^(2/3), X] for the fourth power.
    """
    if power not in (3, 4):
        raise RangeError("short-interval ratios are defined for powers 3 and 4")
    if not 1 <= H <= X:
        raise RangeError(f"need 1 <= H <= X, got H={H}, X={X}")
    if coefficient is None:
        coefficient = theory_coefficient(kind, power)
    res = moment(kind, power, (X, X + H), order=order, threads=threads, table=table)
    e = np.longdouble(main_exponent(power))
    main = float(coefficient * ((np.longdouble(X) + np.longdouble(H)) ** e
                                - np.longdouble(X) ** e))
    low = X ** (7.0 / 12.0) if power == 3 else X ** (2.0 / 3.0)
    return ShortIntervalResult(kind=kind, power=power, X=float(X), H=float(H),
                               moment=res.integral, main_term=main,
                               ratio=res.integral / main,
                               in_asymptotic_range=bool(low <= H <= X))


def fit_coefficient(Xs, integrals, exponent: float) -> float:
    """Least-squares coefficient of X^exponent through the origin."""
    xs = np.asarray(Xs, dtype=float) ** exponent
    ys = np.asarray(integrals, dtype=float)
    return float(np.dot(xs, ys) / np.dot(xs, xs))


def fit_main_term(kind: ErrorTermKind, power: int, X_grid, order: int = 8,
                  threads: int = 1, table: DivisorTable | None = None,
                  theory: float | None = None) -> FitReport:
    """Fit the leading power's coefficient over an ascending X grid.

    Residuals are taken against the theoretical coefficient so that their
    log-log slope diagnoses the size of the next-order term; the fitted
    coefficient itself is the single-power least-squares value.
    """
    Xs = [float(x) for x in X_grid]
    if len(Xs) < 4:
        raise DegenerateFitError(f"need at least 4 grid points, got {len(Xs)}")
    if any(b <= a for a, b in zip(Xs, Xs[1:])):
        raise ValueError("X grid must be strictly ascending")
    _check_power(power)
    if theory is None:
        theory = theory_coefficient(kind, power)
    profile = moment_profile(kind, (power,), Xs, order=order, threads=threads,
                             table=table)
    integrals = profile[power]
    e = main_exponent(power)
    fitted = fit_coefficient(Xs, integrals, e)
    residuals = [(x, val - theory * x ** e) for x, val in zip(Xs, integrals)]
    slope = loglog_slope([x for x, _ in residuals], [r for _, r in residuals])
    return FitReport(kind=kind, power=power, main_exponent=e,
                     fitted_coefficient=fitted, theory_coefficient=theory,
                     residual_series=residuals, residual_slope=slope)
