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
convolution work; doubling the cutoff stays cheap enough to verify
convergence directly.

Tail brackets rest on two elementary facts, both exercised by the tests:
D(x) <= x(log x + 1) for every x >= 1, and d(n) <= C*n^(1/4) with C taken
as 1.5 times the scanned maximum of d(n)n^(-1/4) for n <= 2e6 (the scan max
is ~8.31; the global maximum of the ratio, reached near 2.2e7, is ~8.46, so
the 1.5x headroom keeps the majorant above it everywhere).  These are
honest floating-point brackets, not certified interval enclosures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import PI_LD
from .sieves import DivisorTable, TableKind, core_families, sieve, sieve_divisors

_MAJORANT_SCAN_LIMIT = 2 * 10**6
_MAJORANT_HEADROOM = 1.5
_majorant_cache: float | None = None
_inner_full_cache: dict[str, float] = {}


@dataclass(frozen=True)
class SeriesValue:
    """A series evaluation: central value, one-sided tail bound, cutoff used."""
    name: str
    value: float
    tail_bound: float
    cutoff: int


def divisor_majorant_constant() -> float:
    """C with d(n) <= C*n^(1/4) for all n (scanned base times 1.5 headroom)."""
    global _majorant_cache
    if _majorant_cache is None:
        table = sieve_divisors(_MAJORANT_SCAN_LIMIT)
        ns = np.arange(1, _MAJORANT_SCAN_LIMIT + 1, dtype=float)
        ratios = table.values[1:].astype(float) / ns**0.25
        _majorant_cache = float(ratios.max()) * _MAJORANT_HEADROOM
    return _majorant_cache


def _core_weights(d: np.ndarray, q: int, amax: int) -> np.ndarray:
    """w(a) = d(a^2 q) a^(-3/2) for a = 1..amax, in extended precision."""
    a = np.arange(1, amax + 1, dtype=np.int64)
    return d[a * a * q].astype(np.longdouble) \
        * a.astype(np.longdouble) ** np.longdouble(-1.5)


def _tail_weighted_divisor_sum(M: float, p: float) -> float:
    """Upper bound for sum_{n > M} d(n) n^(-p), p > 1.

    Partial summation against D(t) <= t(log t + 1) gives
    p * M^(1-p) * (log M/(p-1) + 1/(p-1)^2 + 1/(p-1)).
    """
    q = p - 1.0
    return p * M ** (-q) * (math.log(M) / q + 1.0 / (q * q) + 1.0 / q)


def _tail_inner_cubic(S: float) -> float:
    """Upper bound for sum_{s > S} 2(log s + 1)/s^2, which dominates the
    cubic inner sums g(s) = sum_{a+b=s} (ab s)^(-1) = 2 H_{s-1}/s^2."""
    return 2.0 * (math.log(S) + 2.0) / S


def _tail_inner_quartic(B: float) -> float:
    """Upper bound for sum_{s > B} (2 H_{s-1}/s)^2 via the integral of
    4 (log t + 1)^2 t^(-2)."""
    u = math.log(B) + 1.0
    return 4.0 * (u * u + 2.0 * u + 2.0) / B


def _full_inner(name: str) -> float:
    """Numeric value of the complete inner sum over s >= 2 (plus its own
    integral tail), used for cores too large to admit any tuple."""
    cached = _inner_full_cache.get(name)
    if cached is not None:
        return cached
    top = 100000
    h = np.cumsum(1.0 / np.arange(1, top + 1, dtype=float))  # H_1 .. H_top
    s = np.arange(2, top + 1, dtype=float)
    per_s = 2.0 * h[:top - 1] / s          # 2 H_{s-1} / s
    if name == "cubic":
        val = float(np.sum(per_s / s)) + _tail_inner_cubic(float(top))
    else:
        val = float(np.sum(per_s**2)) + _tail_inner_quartic(float(top))
    _inner_full_cache[name] = val
    return val


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
    table = sieve(TableKind.DIVISOR, cutoff, table)
    cores, amaxes = core_families(cutoff)
    total = np.longdouble(0)
    for q, amax in zip(cores.tolist(), amaxes.tolist()):
        w = _core_weights(table.values, q, amax)
        conv = np.convolve(w[:-1], w[:-1])          # conv[t] = G(t + 2)
        inner = w[1:] * conv[:amax - 1]             # w(s) G(s), s = 2..amax
        total += np.longdouble(q) ** np.longdouble(-2.25) * np.sum(inner)

    c4 = divisor_majorant_constant()
    qs = cores.astype(float)
    S = np.floor(np.sqrt(cutoff / qs))
    S = np.maximum(S, 2.0)
    tail = float(np.sum(qs**-1.5 * (2.0 * (np.log(S) + 2.0) / S)))
    tail += 2.0 / math.sqrt(cutoff // 4) * _full_inner("cubic")
    tail *= c4**3
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
    table = sieve(TableKind.DIVISOR, cutoff, table)
    d = table.values

    ns = np.arange(1, cutoff + 1, dtype=np.longdouble)
    d_ld = d[1:cutoff + 1].astype(np.longdouble)
    t_terms = d_ld * d_ld * ns ** np.longdouble(-1.5)
    u_terms = (d_ld ** 4) * ns ** np.longdouble(-3)
    T = np.sum(t_terms)
    U = np.sum(u_terms)
    trivial = 2 * T * T - U

    qmax = cutoff // 4
    cores, amaxes = core_families(cutoff)
    same_core = np.longdouble(0)
    overlap = np.longdouble(0)
    for q, amax in zip(cores.tolist(), amaxes.tolist()):
        w = _core_weights(d, q, amax)
        conv = np.convolve(w, w)
        qf = np.longdouble(q) ** np.longdouble(-3)
        same_core += qf * np.sum(conv * conv)
        w2 = w * w
        tq = np.sum(w2)
        uq = np.sum(w2 * w2)
        overlap += qf * (2 * tq * tq - uq)

    value = float(trivial + same_core - overlap)

    c4 = divisor_majorant_constant()
    t_tail = c4 * _tail_weighted_divisor_sum(cutoff, 1.25)
    u_tail = c4**3 * _tail_weighted_divisor_sum(cutoff, 2.25)
    tail = 2.0 * t_tail * (2.0 * float(T) + t_tail) + u_tail
    # below cutoff 4 the whole q = 1 family lies in the tail
    qs = cores.astype(float) if len(cores) else np.ones(1)
    B = np.maximum(np.floor(np.sqrt(cutoff / qs)), 2.0)
    u = np.log(B) + 1.0
    core_tails = 4.0 * (u * u + 2.0 * u + 2.0) / B
    core_tail = float(np.sum(qs**-2.0 * core_tails))
    core_tail += (1.0 / max(qmax, 1)) * _full_inner("quartic")
    # counted twice: once for the family itself, once to cover the
    # truncation of the subtracted overlap
    tail += 2.0 * c4**4 * core_tail
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
    value, labeled external wherever it is reported.
    """
    import mpmath
    with mpmath.workdps(30):
        val = mpmath.zeta(1.5)**4 / (6 * mpmath.pi**2 * mpmath.zeta(3))
        return float(val)
