"""Independent reference routes for the benchmark's output checks.

Nothing here imports divisorlab: each function recomputes a quantity by a
route that shares no code with the library (pure-integer hyperbola and
lattice counts, trial division, float64 series sums, dictionary grouping of
square-root pairs, mpmath).  The checks compare the library's outputs
against these, or against committed values that these routes confirmed.
"""

from __future__ import annotations

import math

import numpy as np


def divisor_count(n: int) -> int:
    """d(n) by trial division."""
    count = 0
    f = 1
    while f * f <= n:
        if n % f == 0:
            count += 1 if f * f == n else 2
        f += 1
    return count


def two_squares_count(n: int) -> int:
    """r(n): ordered signed pairs (a, b) with a^2 + b^2 = n."""
    count = 0
    a = 0
    while a * a <= n:
        b = math.isqrt(n - a * a)
        if b * b == n - a * a:
            count += (2 if a else 1) * (2 if b else 1)
        a += 1
    return count


def divisor_summatory(x: int) -> int:
    """D(x) = #{(a, b) : ab <= x} by the hyperbola method, Python ints."""
    if x < 1:
        return 0
    root = math.isqrt(x)
    return 2 * sum(x // k for k in range(1, root + 1)) - root * root


def lattice_summatory(x: int) -> int:
    """R(x) = #{(a, b) != (0, 0) : a^2 + b^2 <= x} by counting columns."""
    if x < 1:
        return 0
    root = math.isqrt(x)
    return 4 * root + 4 * sum(math.isqrt(x - a * a) for a in range(1, root + 1))


def squarefree_split(n: int) -> tuple[int, int]:
    """(core, root) with n = root^2 * core and core squarefree, by trial
    division."""
    core, root, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        root *= p ** (e // 2)
        if e % 2:
            core *= p
        p += 1
    return core * n, root


def series_float64(kind: str, truncation: int, xs) -> np.ndarray:
    """Truncated Voronoi expansion evaluated in float64 with weights from
    trial division; phases sqrt(n*x) are formed from exact float products
    for the x-grids the benchmark uses (n*x < 2^53)."""
    ns = np.arange(1, truncation + 1, dtype=np.float64)
    if kind == "circle":
        w = np.array([two_squares_count(n) for n in range(1, truncation + 1)], float)
        amp, freq, phase = -1 / math.pi, 2 * math.pi, math.pi / 4
    else:
        w = np.array([divisor_count(n) for n in range(1, truncation + 1)], float)
        if kind == "delta-star":
            w *= np.where(np.arange(1, truncation + 1) % 2 == 0, 1.0, -1.0)
        amp, freq, phase = 1 / (math.pi * math.sqrt(2)), 4 * math.pi, -math.pi / 4
    coef = w * ns ** -0.75
    xs = np.asarray(xs, dtype=np.float64)
    out = np.empty(len(xs))
    for i in range(0, len(xs), 2048):
        xb = xs[i:i + 2048, None]
        out[i:i + 2048] = amp * xb[:, 0] ** 0.25 * np.sum(
            coef * np.cos(freq * np.sqrt(ns * xb) + phase), axis=1)
    return out


def series_scale(truncation: int, xs) -> float:
    """Size of the largest possible series value on the grid: the natural
    scale for an absolute tolerance."""
    top = max(float(np.max(xs)), 1.0)
    return top ** 0.25 * sum(divisor_count(n) * n ** -0.75
                             for n in range(1, truncation + 1))


def exact_quadruples(limit: int) -> list[tuple[int, int, int, int]]:
    """Sorted ordered quadruples with sqrt m + sqrt n = sqrt k + sqrt l,
    components <= limit, by grouping pairs on the exact key of their root
    sum (a multiset of core -> coefficient)."""
    split = [None] + [squarefree_split(v) for v in range(1, limit + 1)]
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for m in range(1, limit + 1):
        qm, rm = split[m]
        for n in range(1, limit + 1):
            qn, rn = split[n]
            key = ((qm, rm + rn),) if qm == qn else tuple(sorted(((qm, rm), (qn, rn))))
            groups.setdefault(key, []).append((m, n))
    out = [(m, n, k, l) for pairs in groups.values()
           for (m, n) in pairs for (k, l) in pairs]
    out.sort()
    return out


def scaled_gap_three(m: int, n: int, k: int) -> float:
    """|sqrt m + sqrt n - sqrt k| * sqrt(mnk) with mpmath at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        s = mpmath.sqrt(m) + mpmath.sqrt(n) - mpmath.sqrt(k)
        return float(abs(s) * mpmath.sqrt(m * n * k))


def scaled_gap_four(m: int, n: int, k: int, l: int, sign: int) -> float:
    """|sqrt m + sqrt n + sign*sqrt k - sqrt l| * k^2 * sqrt(mnl), mpmath."""
    import mpmath
    with mpmath.workdps(40):
        s = mpmath.sqrt(m) + mpmath.sqrt(n) + sign * mpmath.sqrt(k) - mpmath.sqrt(l)
        return float(abs(s) * k * k * mpmath.sqrt(m * n * l))


def lsq_coefficient(xs, ys, exponent: float) -> float:
    """Least-squares c in y = c * x^exponent, in exact-sum float arithmetic."""
    num = math.fsum(x ** exponent * y for x, y in zip(xs, ys))
    den = math.fsum(x ** (2 * exponent) for x in xs)
    return num / den


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log|y| against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(abs(y)) for y in ys]
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    return (math.fsum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / math.fsum((a - mx) ** 2 for a in lx))
