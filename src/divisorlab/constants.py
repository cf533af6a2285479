"""Numerical evaluation of the diagonal series behind the cubic and quartic
moment coefficients, with computable tail brackets.

The cubic series sums d(m)d(n)d(k)(mnk)^(-3/4) over ordered triples with
sqrt(m) + sqrt(n) = sqrt(k); such triples are exactly (a^2 q, b^2 q,
(a+b)^2 q) with q squarefree.  The quartic series sums
d(m)d(n)d(k)d(l)(mnkl)^(-3/4) over ordered quadruples with
sqrt(m) + sqrt(n) = sqrt(k) + sqrt(l); that diagonal splits into

  * the trivial pairings {k, l} = {m, n} over arbitrary pairs, whose sum
    collapses to 2*T^2 - U with T = sum d^2(n) n^(-3/2), U = sum d^4(n) n^(-3),
  * the common-core family (a^2 q, b^2 q, c^2 q, d^2 q) with a+b = c+d,
    whose inner sum per core is the square of one convolution,

minus their overlap (common-core trivial pairings), so no quadruple is
counted twice.  Everything reduces to one divisor sieve plus O(cutoff)
convolution work, batched over the cores of each width (71 at cutoff 1e5) bit
for bit; doubling the cutoff stays cheap enough to verify convergence directly.

Tail brackets rest on two elementary facts, both exercised by the tests:
D(x) <= x(log x + 1) for every x >= 1, and d(n) <= C*n^(1/4) with C the
literal DIVISOR_MAJORANT, 1.5 times the largest ratio d(1441440)/1441440^(1/4)
(~8.31) for n <= 2e6; C^4 exceeds 127401984/25025, the fourth power of the
global maximum 8.44696... at n = 21,621,600.  These are honest
floating-point brackets, not certified interval enclosures.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import PI_LD
# sieve_divisors stays bound: perfbench/tracing.py wraps it here
from .sieves import (DivisorTable, TableKind, check_memory, core_families, sieve,  # noqa: F401
                     sieve_divisors, width_runs)

DIVISOR_MAJORANT = 288 / 1441440 ** 0.25 * 1.5   # d(n) <= C*n^(1/4), see above
# peak bytes per unit of cutoff of quartic_diagonal_series, the table and the
# T/U term arrays (tracemalloc, fresh process, cutoffs 1e6, 4e6 and 1e7)
_QUARTIC_BYTES_PER_CUTOFF = 66
# and of cubic_diagonal_series, the table, the core table and the core terms
# (tracemalloc, fresh process, cutoffs 1e6 and 4e6: 20.4 and 20.2)
_CUBIC_BYTES_PER_CUTOFF = 21


@dataclass(frozen=True)
class SeriesValue:
    """A series evaluation: central value, one-sided tail bound, cutoff used."""
    name: str
    value: float
    tail_bound: float
    cutoff: int


def _core_groups(d: np.ndarray, cores: np.ndarray, amaxes: np.ndarray):
    """Per run of equal amax: (cores slice, W, conv), W[i, a-1] = d(a^2 q_i)
    a^(-3/2) in longdouble and conv[i] = np.convolve(W[i], W[i]) bit for bit
    (each column summed in ascending order from zero, as its dot does)."""
    for lo, hi, amax in width_runs(amaxes):
        a = np.arange(1, amax + 1, dtype=np.int64)
        W = d[cores[lo:hi, None] * (a * a)].astype(np.longdouble) \
            * a.astype(np.longdouble) ** np.longdouble(-1.5)
        conv = np.zeros((hi - lo, 2 * amax - 1), dtype=np.longdouble)
        for i in range(amax):
            conv[:, i:i + amax] += W[:, i:i + 1] * W
        yield slice(lo, hi), W, conv


def _tail_weighted_divisor_sum(M: float, p: float) -> float:
    """Upper bound for sum_{n > M} d(n) n^(-p), p > 1.

    Partial summation against D(t) <= t(log t + 1) gives
    p * M^(1-p) * (log M/(p-1) + 1/(p-1)^2 + 1/(p-1)).
    """
    q = p - 1.0
    return p * M ** (-q) * (math.log(M) / q + 1.0 / (q * q) + 1.0 / q)


def _tail_inner_cubic(S):
    """Upper bound for sum_{s > S} 2(log s + 1)/s^2, which dominates the
    cubic inner sums g(s) = sum_{a+b=s} (ab s)^(-1) = 2 H_{s-1}/s^2; S may
    be an array."""
    return 2.0 * (np.log(S) + 2.0) / S


def _tail_inner_quartic(B):
    """Upper bound for sum_{s > B} (2 H_{s-1}/s)^2 via the integral of
    4 (log t + 1)^2 t^(-2); B may be an array."""
    u = np.log(B) + 1.0
    return 4.0 * (u * u + 2.0 * u + 2.0) / B


@functools.cache
def _full_inner(name: str) -> float:
    """Numeric value of the complete inner sum over s >= 2 (plus its own
    integral tail), used for cores too large to admit any tuple."""
    top = 100000
    h = np.cumsum(1.0 / np.arange(1, top + 1, dtype=float))  # H_1 .. H_top
    s = np.arange(2, top + 1, dtype=float)
    per_s = 2.0 * h[:top - 1] / s          # 2 H_{s-1} / s
    if name == "cubic":
        return float(np.sum(per_s / s)) + _tail_inner_cubic(float(top))
    return float(np.sum(per_s**2)) + _tail_inner_quartic(float(top))


def cubic_diagonal_series(cutoff: int = 10**5,
                          table: DivisorTable | None = None) -> SeriesValue:
    """Sum of d(m)d(n)d(k)(mnk)^(-3/4) over exact triples with components
    <= cutoff, plus an upper bound on the omitted tail.

    Per squarefree core q the triples are (a^2 q, b^2 q, s^2 q), s = a+b,
    and the (a, b) sum collapses to a convolution of w(a) = d(a^2 q) a^(-3/2);
    the component constraint is s^2 q <= cutoff since the third entry is
    the largest.
    """
    if cutoff < 4:
        raise ValueError(f"cutoff must be >= 4, got {cutoff}")
    check_memory(_CUBIC_BYTES_PER_CUTOFF * cutoff, f"cubic series to {cutoff}")
    table = sieve(TableKind.DIVISOR, cutoff, table)
    cores, amaxes = core_families(cutoff)
    terms = np.empty(len(cores), dtype=np.longdouble)
    for group, W, conv in _core_groups(table.values, cores, amaxes):
        terms[group] = np.sum(W[:, 1:] * conv[:, :W.shape[1] - 1], axis=1)  # w(s)G(s)
    terms *= cores.astype(np.longdouble) ** np.longdouble(-2.25)
    total = np.cumsum(np.append(0, terms))[-1]   # 0 + t_0 + t_1 + ... in core order

    tail = float(np.sum(cores**-1.5 * _tail_inner_cubic(amaxes)))
    tail += 2.0 / math.sqrt(cutoff // 4) * _full_inner("cubic")
    tail *= DIVISOR_MAJORANT**3
    return SeriesValue(name="cubic_diagonal", value=float(total),
                       tail_bound=tail, cutoff=cutoff)


def quartic_diagonal_series(cutoff: int = 10**5,
                            table: DivisorTable | None = None) -> SeriesValue:
    """Sum of d(m)d(n)d(k)d(l)(mnkl)^(-3/4) over ordered exact quadruples
    with components <= cutoff (trivial pairings included), with tail bound.

    Cores with isqrt(cutoff/q) == 1 admit only the all-equal quadruple,
    which the trivial family already counts and the overlap would remove,
    so the core loop stops at cutoff/4.
    """
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    check_memory(_QUARTIC_BYTES_PER_CUTOFF * cutoff, f"quartic series to {cutoff}")
    table = sieve(TableKind.DIVISOR, cutoff, table)
    d = table.values

    ns = np.arange(1, cutoff + 1, dtype=np.longdouble)
    d_ld = d[1:cutoff + 1].astype(np.longdouble)
    T = np.sum(d_ld * d_ld * ns ** np.longdouble(-1.5))
    U = np.sum((d_ld ** 4) * ns ** np.longdouble(-3))
    del ns, d_ld    # freed before the core groups: the T/U phase sets the peak
    trivial = 2 * T * T - U

    qmax = cutoff // 4
    cores, amaxes = core_families(cutoff)
    same_terms = np.empty(len(cores), dtype=np.longdouble)
    overlap_terms = np.empty(len(cores), dtype=np.longdouble)
    for group, W, conv in _core_groups(d, cores, amaxes):
        same_terms[group] = np.sum(conv * conv, axis=1)
        w2 = W * W
        tq = np.sum(w2, axis=1)
        uq = np.sum(w2 * w2, axis=1)
        overlap_terms[group] = 2 * tq * tq - uq
    qf = cores.astype(np.longdouble) ** np.longdouble(-3)
    same_core = np.cumsum(np.append(0, qf * same_terms))[-1]   # in core order
    overlap = np.cumsum(np.append(0, qf * overlap_terms))[-1]

    value = float(trivial + same_core - overlap)

    t_tail = DIVISOR_MAJORANT * _tail_weighted_divisor_sum(cutoff, 1.25)
    u_tail = DIVISOR_MAJORANT**3 * _tail_weighted_divisor_sum(cutoff, 2.25)
    tail = 2.0 * t_tail * (2.0 * float(T) + t_tail) + u_tail
    # below cutoff 4 there are no cores: the whole q = 1 family lies in the tail
    qs, B = (cores, amaxes) if len(cores) else (np.ones(1), np.full(1, 2))
    core_tail = float(np.sum(qs**-2.0 * _tail_inner_quartic(B)))
    core_tail += (1.0 / max(qmax, 1)) * _full_inner("quartic")
    # counted twice: once for the family itself, once to cover the
    # truncation of the subtracted overlap
    tail += 2.0 * DIVISOR_MAJORANT**4 * core_tail
    return SeriesValue(name="quartic_diagonal", value=value,
                       tail_bound=tail, cutoff=cutoff)


def cubic_moment_coefficient(cutoff: int = 10**5,
                             table: DivisorTable | None = None) -> SeriesValue:
    """Leading coefficient of the cubic long-interval moment: 3*c/(28*pi^3)
    with c the cubic diagonal series."""
    series = cubic_diagonal_series(cutoff, table)
    scale = 3 / (28 * float(PI_LD) ** 3)
    return SeriesValue(name="cubic_coefficient", value=scale * series.value,
                       tail_bound=scale * series.tail_bound, cutoff=cutoff)


def quartic_moment_coefficient(cutoff: int = 10**5,
                               table: DivisorTable | None = None) -> SeriesValue:
    """Leading coefficient of the quartic long-interval moment:
    3*c/(64*pi^4) with c the quartic diagonal series."""
    series = quartic_diagonal_series(cutoff, table)
    scale = 3 / (64 * float(PI_LD) ** 4)
    return SeriesValue(name="quartic_coefficient", value=scale * series.value,
                       tail_bound=scale * series.tail_bound, cutoff=cutoff)


def classical_mean_square_coefficient() -> float:
    """Coefficient of X^(3/2) in the mean-square integral of the divisor
    error term: zeta(3/2)^4 / (6 pi^2 zeta(3)).

    Equals (1/(6 pi^2)) * sum d^2(n) n^(-3/2); a classical cross-check
    value, labeled external wherever it is reported.  The literal is the
    30-digit value rounded to a double.
    """
    return 0.6542839775088456
