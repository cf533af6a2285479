"""Piecewise-exact integration of powers of the error terms, and the
main-term fits built on those integrals.

On each interval between consecutive jumps of the step sum the integrand
(error term)^k is analytic and mild, so Gauss-Legendre of order 8 per
segment integrates it to ~1e-13 relative.  The one piece type is an x-range:
a run of up to CHUNK_SEGMENTS whole segments, or part of one segment at an
off-grid end.  Each piece reduces with numpy's deterministic pairwise sum,
the pieces combine in ascending order through a Kahan accumulator, and each
segment's node sum is formed on its own, in numerics.BLOCK-node blocks.
Thread count and block size change no bit.

The step counts D(t) or R(t) are read from the uint16 table a block at a
time, as an int64 running sum from the nearest of the exact anchors kept
every STRIDE entries, so no array of the table's length exists but the
table.  The caller allocates one workspace per worker that check_profile
accounts for, and the pieces take them in turn from a queue.
"""

from __future__ import annotations

import functools
import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import constants, numerics
from .error_terms import ErrorTermKind, smooth_main_term, step_part, step_table_need
from .errors import DegenerateFitError, RangeError
from .numerics import KahanAccumulator, loglog_slope
# sieve_divisors and sieve_r stay bound: perfbench/tracing.py wraps them here
from .sieves import DivisorTable, check_memory, sieve, sieve_divisors, sieve_r  # noqa: F401

# segments per chunk: the unit of pairwise reduction and of thread work
CHUNK_SEGMENTS = 1 << 16
# peak bytes per block node of a workspace and the _chunk_partials pass it
# serves, chunk sums apart (tracemalloc, each kind, 100 to 20000 segments)
_BLOCK_BYTES_PER_NODE = 104
# table entries per exact int64 anchor of the step counts
STRIDE = 1024
# the one quadrature rule: Gauss-Legendre of order 8 on [0, 1], longdouble
NODES, WEIGHTS = np.polynomial.legendre.leggauss(8)
NODES, WEIGHTS = (NODES.astype(np.longdouble) + 1) / 2, WEIGHTS.astype(np.longdouble) / 2

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


def _anchors(values: np.ndarray) -> np.ndarray:
    """Exact int64 anchors of a uint16 step table: anchors[j] = values[0] +
    ... + values[j*STRIDE - 1] for every j with j*STRIDE < len(values)."""
    n = (len(values) - 1) // STRIDE
    anchors = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(values[:n * STRIDE].reshape(n, STRIDE).sum(axis=1, dtype=np.int64),
              out=anchors[1:])
    return anchors


def _step_counts(values: np.ndarray, anchors: np.ndarray, ticks: np.ndarray) -> np.ndarray:
    """values[0] + ... + values[t] per tick t of a sorted int64 array, exact:
    the table's running sum from the last anchor at or before the first tick."""
    lo = ticks[0] - ticks[0] % STRIDE
    run = np.cumsum(values[lo:ticks[-1] + 1], dtype=np.int64)
    run += anchors[lo // STRIDE]
    return run[ticks - lo]


def _workspace(n_powers: int, segments: int) -> tuple[np.ndarray, np.ndarray]:
    """One worker's buffers for _chunk_partials: the node sums of up to
    CHUNK_SEGMENTS segments per power, and one block of x, err, prod and
    weighted nodes of up to numerics.rows(len(NODES)) segments."""
    rows = min(segments, numerics.rows(len(NODES)))
    return (np.empty((n_powers, min(segments, CHUNK_SEGMENTS)), dtype=np.longdouble),
            np.empty((4, rows, len(NODES)), dtype=np.longdouble))


def _chunk_partials(kind: ErrorTermKind, count, workspace, x0: float, x1: float,
                    powers: tuple[int, ...]) -> dict[int, np.longdouble]:
    """Integrals of error^k over the x-range [x0, x1) in one pairwise pass,
    with count(ticks) the exact step counts (_step_counts) and every array
    of the pass in ``workspace`` (_workspace).

    Precondition: the range is a run of whole segments or part of one
    segment, so all its segments share one width and only the first can
    start off its tick.  Node sums are formed numerics.rows(len(NODES))
    segments at a time; np.sum of a one-segment piece is exact.
    """
    denom = kind.denom
    m0, m1 = math.floor(x0 * denom), math.ceil(x1 * denom)
    lo, hi = np.longdouble(m0) / denom, np.longdouble(m0 + 1) / denom
    width = min(hi, np.longdouble(x1)) - max(lo, np.longdouble(x0))
    sums, block = workspace
    rows = numerics.rows(len(NODES))
    for i in range(0, m1 - m0, rows):
        ticks = np.arange(m0 + i, min(m0 + i + rows, m1), dtype=np.int64)
        left = ticks.astype(np.longdouble) / denom
        left[0] = max(left[0], np.longdouble(x0))
        xs, err, buf, weighted = block[:, :len(ticks)]
        np.add(left[:, None], width * NODES, out=xs)
        smooth_main_term(kind, xs, out=err)
        np.subtract(step_part(kind, count, ticks)[:, None], err, out=err)
        prod = err
        for k in range(1, max(powers) + 1):
            if k > 1:
                prod = np.multiply(prod, err, out=buf)
            if k in powers:
                np.sum(np.multiply(prod, WEIGHTS, out=weighted), axis=1,
                       out=sums[powers.index(k), i:i + len(ticks)])
    return {k: np.sum(sums[j, :m1 - m0]) * width for j, k in enumerate(powers)}


def check_profile(kind: ErrorTermKind, powers, stops, start: float = 1.0,
                  threads: int = 1):
    """Reject what moment_profile would reject before its table is built:
    powers, stops, start, thread count, step-table size and the workers'
    memory.  Returns the sorted distinct powers, the stops as floats, the
    step table's need, the segment count and the number of workers."""
    powers = tuple(sorted(set(int(p) for p in powers)))
    if not powers:
        raise ValueError("powers must be a non-empty set")
    for p in powers:
        if not MIN_POWER <= p <= MAX_POWER:
            raise RangeError(f"power must be in [{MIN_POWER}, {MAX_POWER}], got {p}")
    stops = [float(s) for s in stops]
    if (not stops or not all(map(math.isfinite, stops))
            or any(b <= a for a, b in zip(stops, stops[1:]))):
        raise ValueError("stops must be a non-empty ascending sequence of finite numbers")
    if not start >= 1:
        raise RangeError(f"integration starts at x >= 1, got {start}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if stops[0] < start:
        raise ValueError("first stop lies before the interval start")
    need = step_table_need(kind, stops[-1])
    segments = math.ceil(stops[-1] * kind.denom) - math.floor(start * kind.denom)
    workers = min(threads, segments // CHUNK_SEGMENTS + 3)
    check_memory(workers * (16 * len(powers) * min(segments, CHUNK_SEGMENTS)  # chunk sums
                            + _BLOCK_BYTES_PER_NODE * len(NODES)
                            * min(segments, numerics.rows(len(NODES)))),
                 f"{workers} integration threads")
    return powers, stops, need, segments, workers


def moment_profile(kind: ErrorTermKind, powers, stops, start: float = 1.0,
                   threads: int = 1,
                   table: DivisorTable | None = None) -> dict[int, list[float]]:
    """Cumulative integrals of error^k from ``start`` to each stop, per power.

    One sweep serves every requested power: the error values at the
    quadrature nodes are shared and only the power accumulation differs.
    Results are recorded at each stop in ascending order.
    """
    powers, stops, (table_kind, limit), segments, workers = check_profile(
        kind, powers, stops, start, threads)
    denom = kind.denom
    values = sieve(table_kind, limit, table).values[:limit + 1]
    count = functools.partial(_step_counts, values, _anchors(values))
    free = queue.SimpleQueue()
    for _ in range(workers):
        free.put(_workspace(len(powers), segments))

    def run(x0, x1):
        workspace = free.get()
        try:
            return _chunk_partials(kind, count, workspace, x0, x1, powers)
        finally:
            free.put(workspace)

    acc = {p: KahanAccumulator() for p in powers}
    results: dict[int, list[float]] = {p: [] for p in powers}
    prev = start
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pieces = map if workers == 1 else pool.map  # one worker: the caller integrates
        for stop in stops:
            first, last = math.ceil(prev * denom), math.floor(stop * denom)
            # x-ranges between consecutive cuts, in Kahan add order: head
            # piece, chunks of whole segments, tail piece; last / denom lies
            # before prev when both ends fall inside one segment
            cuts = {prev, stop, last / denom}
            cuts.update(t / denom for t in range(first, last, CHUNK_SEGMENTS))
            cuts = sorted(c for c in cuts if c >= prev)
            for part in pieces(run, cuts[:-1], cuts[1:]):
                for p in powers:
                    acc[p].add(part[p])
            for p in powers:
                results[p].append(acc[p].value())
            prev = stop
    return results


def check_interval(kind: ErrorTermKind, power: int, a: float, b: float, threads: int = 1):
    """Reject a moment interval [a, b] unless 1 <= a < b, then check_profile;
    returns the step table's need."""
    if not 1 <= a < b:
        raise RangeError(f"need 1 <= a < b, got [{a}, {b}]")
    return check_profile(kind, (power,), [b], a, threads)[2]


def moment(kind: ErrorTermKind, power: int, interval, threads: int = 1,
           table: DivisorTable | None = None) -> MomentResult:
    """Integral of error^power over [a, b]."""
    a, b = float(interval[0]), float(interval[1])
    check_interval(kind, power, a, b, threads)
    profile = moment_profile(kind, (power,), [b], start=a, threads=threads,
                             table=table)
    count = int(math.ceil(b * kind.denom) - math.floor(a * kind.denom))
    return MomentResult(kind=kind, power=power, interval=(a, b),
                        integral=profile[power][0], quadrature_order=len(NODES),
                        partition_count=count)


@functools.cache
def theory_coefficient(kind: ErrorTermKind, power: int,
                       cutoff: int = constants.DEFAULT_CUTOFF) -> float:
    """Predicted leading coefficient of the long-interval moment.

    Tabulated for the divisor error term only: k=3 and k=4 come from the
    diagonal series of exact square-root identities, k=2 is the classical
    mean-square constant (external cross-check, not derived from the
    diagonal machinery).  The circle and alternating variants have their
    own constants, which this module does not tabulate; pass an explicit
    coefficient for those.  Cached: the series behind it cost ~0.1 s.
    """
    if kind is not ErrorTermKind.DELTA:
        raise RangeError("theoretical moment coefficients are tabulated for "
                         "the divisor error term only; supply one explicitly")
    if power == 2:
        return constants.classical_mean_square_coefficient()
    if power == 3:
        return constants.cubic_moment_coefficient(cutoff=cutoff).value
    if power == 4:
        return constants.quartic_moment_coefficient(cutoff=cutoff).value
    raise RangeError(f"no theoretical main-term coefficient for power {power}")


def check_short_interval(kind: ErrorTermKind, power: int, X: float, H: float, threads: int = 1):
    """Reject a short-interval power other than 3 and 4, or H outside [1, X],
    then check_profile on [X, X+H]; returns the step table's need."""
    if power not in (3, 4):
        raise RangeError("short-interval ratios are defined for powers 3 and 4")
    if not 1 <= H <= X:
        raise RangeError(f"need 1 <= H <= X, got H={H}, X={X}")
    return check_profile(kind, (power,), [X + H], X, threads)[2]


def short_interval_ratio(kind: ErrorTermKind, power: int, X: float, H: float,
                         threads: int = 1, table: DivisorTable | None = None,
                         coefficient: float | None = None) -> ShortIntervalResult:
    """Moment over [X, X+H] divided by the predicted main-term increment.

    The asymptotic-range flag records whether H lies in the window where
    the ratio is expected to approach 1: H in [X^(7/12), X] for the cube and
    [X^(2/3), X] for the fourth power.
    """
    check_short_interval(kind, power, X, H, threads)
    if coefficient is None:
        coefficient = theory_coefficient(kind, power)
    res = moment(kind, power, (X, X + H), threads=threads, table=table)
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


def check_fit(kind: ErrorTermKind, power: int, Xs: list[float], threads: int = 1):
    """Reject fewer than 4 or not strictly ascending grid points, then
    check_profile on the grid; returns the step table's need."""
    if len(Xs) < 4:
        raise DegenerateFitError(f"need at least 4 grid points, got {len(Xs)}")
    if any(b <= a for a, b in zip(Xs, Xs[1:])):
        raise ValueError("X grid must be strictly ascending")
    return check_profile(kind, (power,), Xs, threads=threads)[2]


def fit_main_term(kind: ErrorTermKind, power: int, X_grid, threads: int = 1,
                  table: DivisorTable | None = None,
                  theory: float | None = None) -> FitReport:
    """Fit the leading power's coefficient over an ascending X grid.

    Residuals are taken against the theoretical coefficient so that their
    log-log slope diagnoses the size of the next-order term; the fitted
    coefficient itself is the single-power least-squares value.
    """
    Xs = [float(x) for x in X_grid]
    check_fit(kind, power, Xs, threads)
    if theory is None:
        theory = theory_coefficient(kind, power)
    profile = moment_profile(kind, (power,), Xs, threads=threads, table=table)
    integrals = profile[power]
    e = main_exponent(power)
    fitted = fit_coefficient(Xs, integrals, e)
    residuals = [(x, val - theory * x ** e) for x, val in zip(Xs, integrals)]
    slope = loglog_slope([x for x, _ in residuals], [r for _, r in residuals])
    return FitReport(kind=kind, power=power, main_exponent=e,
                     fitted_coefficient=fitted, theory_coefficient=theory,
                     residual_series=residuals, residual_slope=slope)
