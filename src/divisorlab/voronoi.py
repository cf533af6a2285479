"""Truncated cosine-sum expansions of the error terms and their empirical
remainder statistics.

The three series share the shape

    amplitude * x^(1/4) * sum_{n<=N} w(n) * n^(-3/4) * cos(f*sqrt(n*x) + phase)

with
    delta:       amplitude  1/(pi*sqrt(2)),  w(n) = d(n),        f = 4*pi, phase = -pi/4
    delta-star:  amplitude  1/(pi*sqrt(2)),  w(n) = (-1)^n d(n), f = 4*pi, phase = -pi/4
    circle:      amplitude -1/pi,            w(n) = r(n),        f = 2*pi, phase = +pi/4

Phases are formed in 80-bit extended precision before the cosine: sqrt(n*x)
reaches 1e6 at desk scale, and a double-precision product would surrender
six digits of the phase.  Argument folding mod 2*pi happens at the same
precision, so reduced and unreduced evaluations agree far below 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .error_terms import ErrorTermKind, error_term, jump_denominator
from .errors import BudgetError, RangeError
from .numerics import PI_LD, TWO_PI_LD
# sieve_divisors and sieve_r stay bound: perfbench/tracing.py wraps them here
from .sieves import (DivisorTable, TableKind, check_memory, sieve,  # noqa: F401
                     sieve_divisors, sieve_r)

_SQRT2_LD = np.sqrt(np.longdouble(2))
# evaluate_block works on max(1, BLOCK_TERMS // N) points at a time
BLOCK_TERMS = 1 << 16
# peak bytes per term: coefficients 16 plus one evaluate_block row 64
# (tracemalloc, fresh process, N = 1e5 and 1e6, each kind)
_SERIES_BYTES_PER_TERM = 80
# peak bytes per sample of remainder_stats (tracemalloc, 4e5 and 1.6e6 samples)
_BYTES_PER_SAMPLE = 32
# the most summatory steps remainder_stats may take, about a minute: a sample
# is one error_term call, sqrt(jump denominator * 2X) steps of 9-18 ns plus
# 18-45 us, about _SAMPLE_STEPS steps (2 vCPU, each kind, X from 2 to 1e12)
WORK_BUDGET = 4 * 10**9
_SAMPLE_STEPS = 2000


@dataclass(frozen=True)
class VoronoiSeries:
    """Frozen coefficients and constants of one truncated expansion."""
    kind: ErrorTermKind
    truncation: int
    coefficients: np.ndarray   # w(n) * n^(-3/4), n = 1..N (longdouble)
    amplitude: float
    phase: float
    frequency_scale: float


@dataclass(frozen=True)
class RemainderStats:
    """Sampled remainder of truncation N against the exact error term."""
    kind: ErrorTermKind
    X: float
    truncation: int
    sample_count: int
    seed: int
    rms: float
    sup: float


def build_series(kind: ErrorTermKind, truncation: int,
                 table: DivisorTable | None = None) -> VoronoiSeries:
    """Assemble the coefficient table and constants for one series."""
    if truncation < 2:
        raise ValueError(f"truncation length must be >= 2, got {truncation}")
    check_memory(_SERIES_BYTES_PER_TERM * truncation, f"series of {truncation} terms")
    circle = kind is ErrorTermKind.CIRCLE
    table = sieve(TableKind.SUM_OF_TWO_SQUARES if circle else TableKind.DIVISOR,
                  truncation, table)
    weights = table.values[1:truncation + 1].astype(np.longdouble)
    if circle:
        amplitude = -1 / float(PI_LD)
        phase = float(PI_LD / 4)
        freq = 2 * float(PI_LD)
    else:
        if kind is ErrorTermKind.DELTA_STAR:
            weights[::2] *= -1      # (-1)^n d(n): odd n are the even indices
        amplitude = 1 / float(PI_LD * _SQRT2_LD)
        phase = -float(PI_LD / 4)
        freq = 4 * float(PI_LD)
    ns = np.arange(1, truncation + 1, dtype=np.longdouble)
    coeffs = weights * ns ** np.longdouble(-0.75)
    return VoronoiSeries(kind=kind, truncation=truncation, coefficients=coeffs,
                         amplitude=amplitude, phase=phase, frequency_scale=freq)


def phases(series: VoronoiSeries, x) -> np.ndarray:
    """f*sqrt(n*x) folded mod 2*pi, plus phase, for n = 1..N, in longdouble.

    A column of points (shape (B, 1)) gives one row of phases per point.
    """
    ns = np.arange(1, series.truncation + 1, dtype=np.longdouble)
    t = np.longdouble(series.frequency_scale) * np.sqrt(ns * np.longdouble(x))
    t -= TWO_PI_LD * np.floor(t / TWO_PI_LD)
    t += np.longdouble(series.phase)
    return t


def truncated(kind: ErrorTermKind, truncation: int, x) -> float:
    """One-shot evaluation of the truncated expansion at one point x >= 1."""
    return float(evaluate_block(build_series(kind, truncation), [x])[0])


def evaluate_block(series: VoronoiSeries, xs) -> np.ndarray:
    """Evaluate the series on an x-grid, blocked so the n-loop stays in numpy.

    Results are bit-identical to per-point evaluation for any block size
    (the per-x reduction over n is a fixed-shape pairwise sum).  Points whose
    largest phase f*sqrt(N*x) reaches 2^32 are rejected: beyond it one
    longdouble ulp of the phase exceeds 2^-31 and the folded cosine is noise.
    """
    xs_arr = np.asarray(xs, dtype=float)
    flat = xs_arr.ravel()
    if flat.size and not (flat.min() >= 1 and series.frequency_scale * np.sqrt(
            series.truncation * float(flat.max())) < 2.0 ** 32):
        raise RangeError(f"series is evaluated for x >= 1 with phase f*sqrt(N*x) "
                         f"< 2^32, got x in [{flat.min()}, {flat.max()}]")
    amp = np.longdouble(series.amplitude)
    out = np.empty(flat.shape, dtype=float)
    rows = max(1, BLOCK_TERMS // series.truncation)
    for start in range(0, flat.size, rows):
        xb = flat[start:start + rows].astype(np.longdouble)[:, None]
        t = phases(series, xb)
        sums = np.sum(series.coefficients[None, :] * np.cos(t), axis=1)
        vals = amp * xb.ravel() ** np.longdouble(0.25) * sums
        out[start:start + rows] = vals.astype(float)
    return out.reshape(xs_arr.shape)


def remainder_stats(kind: ErrorTermKind, truncation: int, X: float,
                    sample_count: int = 100, seed: int = 0) -> RemainderStats:
    """rms and sup of (exact error term - truncated series) on [X, 2X].

    Sample points are uniform in [X, 2X] from a seeded generator, so a rerun
    with the same seed reproduces the statistics bit for bit.  The side
    condition N <= X is enforced here: remainder shapes are only meaningful
    while the truncation stays below the sampling scale.
    """
    if sample_count < 100:
        raise ValueError(f"sample_count must be >= 100, got {sample_count}")
    if truncation > X:
        raise RangeError(f"need truncation N <= X (N={truncation}, X={X})")
    check_memory(_BYTES_PER_SAMPLE * sample_count, f"{sample_count} remainder samples")
    work = sample_count * ((jump_denominator(kind) * 2 * X) ** 0.5 + _SAMPLE_STEPS)
    if work > WORK_BUDGET:
        raise BudgetError(f"remainder work {work:.3g} exceeds budget {WORK_BUDGET}")
    series = build_series(kind, truncation)
    rng = np.random.default_rng(seed)
    xs = rng.uniform(X, 2 * X, size=sample_count)
    approx = evaluate_block(series, xs)
    gaps = np.empty(sample_count)
    for i, x in enumerate(xs):
        gaps[i] = error_term(kind, float(x)) - approx[i]
    rms = float(np.sqrt(np.mean(gaps * gaps)))
    sup = float(np.max(np.abs(gaps)))
    return RemainderStats(kind=kind, X=float(X), truncation=truncation,
                          sample_count=sample_count, seed=seed, rms=rms, sup=sup)
