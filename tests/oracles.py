"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here is deliberately naive: trial division, direct lattice
enumeration, float scans confirmed by exact core arithmetic.  These are the
reference implementations the fast code is measured against, so they must
not share code paths with it: nothing here imports divisorlab.
"""

from __future__ import annotations

import math
import operator
from itertools import product

import mpmath
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
    """r(n) by direct enumeration of (a, b) with a^2 + b^2 = n."""
    count = 0
    a = 0
    while a * a <= n:
        rest = n - a * a
        b = math.isqrt(rest)
        if b * b == rest:
            pairs = (2 if a > 0 else 1) * (2 if b > 0 else 1)
            count += pairs
        a += 1
    return count


def lattice_cumulative(limit: int) -> np.ndarray:
    """R(x) for x = 0..limit by counting lattice points 1 <= a^2+b^2 <= x."""
    counts = np.zeros(limit + 1, dtype=np.int64)
    amax = math.isqrt(limit)
    for a in range(0, amax + 1):
        b = np.arange(0, math.isqrt(limit - a * a) + 1)
        nvals = a * a + b * b
        weights = (2 if a > 0 else 1) * np.where(b > 0, 2, 1)
        mask = nvals >= 1
        np.add.at(counts, nvals[mask], weights[mask])
    return np.cumsum(counts)


def summatory_r_by_characters(x) -> int:
    """R(x) = 4 * sum_{j >= 0} (floor(x/(4j+1)) - floor(x/(4j+3))), the
    mod-4 character identity, in O(x) exact integer terms."""
    n = math.floor(x)
    total = 0
    for lo in range(1, n + 1, 4 << 22):
        ks = np.arange(lo, min(n + 1, lo + (4 << 22)), 4, dtype=np.int64)
        total += int(np.sum(n // ks)) - int(np.sum(n // (ks + 2)))
    return 4 * total


def alternating_prefix(d_values: np.ndarray) -> np.ndarray:
    """sum_{n <= y} (-1)^n d(n) for y = 0 .. len(d_values) - 1, from a sieved
    table of d(n) indexed by n, whose entry 0 is 0."""
    signs = np.where(np.arange(d_values.size) % 2 == 0, 1, -1)
    return np.cumsum(signs * d_values.astype(np.int64))


def piecewise_segments(kind_name: str, a: float, b: float) -> list[tuple]:
    """(left, right, step constant) for the pieces of [a, b] between jumps of
    the step part, summed from trial-division counts.

    D(x) and R(x) jump at integers; delta-star's step -D(x) + 2D(2x) - D(4x)/2
    jumps wherever x, 2x or 4x is an integer, so at quarter-integers.
    """
    quarters = kind_name == "delta-star"
    count = two_squares_count if kind_name == "circle" else divisor_count

    def step(y: float) -> int:
        return sum(count(n) for n in range(1, math.floor(y) + 1))

    grid = 4 if quarters else 1
    cuts = [a] + [t / grid for t in range(math.floor(a * grid) + 1,
                                          math.ceil(b * grid))] + [b]
    out = []
    for left, right in zip(cuts, cuts[1:]):
        const = (-2 * step(left) + 4 * step(2 * left) - step(4 * left)) / 2 \
            if quarters else step(left)
        out.append((left, right, const))
    return out


def circle_moment_exact(k: int, X, start=1, dps: int = 80):
    """The integral of P(x)^k over [start, X], P(x) = R(x) - pi*x, exactly up
    to the final mpf rounding at ``dps`` digits, for 1 <= start <= X, either
    end an integer or a float.

    On [n, n+1) P is c_n - pi*u with c_n = R_n - pi*n and u = x - n, so
    over u in [u0, u1] the integral is sum_j C(k, j) (-pi)^j (u1^(j+1) -
    u0^(j+1)) / (j+1) * c_n^(k-j).  Over the whole segments it is a
    polynomial in pi whose coefficients are the integer power sums sum_n
    R_n^a n^b, a + b <= k, formed in Python ints; a fractional end adds one
    partial segment, its u0 and u1 exact in mpmath.  Only the polynomials
    are evaluated in mpmath, where their terms cancel over many digits.
    """
    first, last = math.ceil(start), math.floor(X)
    counts = lattice_cumulative(last).tolist()
    # (n, u0, u1) of the partial segments: one inside a single segment, or
    # a head and a tail where an end is fractional
    partial = []
    if math.floor(start) == last and last < X:
        partial.append((last, start - last, X - last))
    else:
        if start < first:
            partial.append((first - 1, start - first + 1, 1))
        if last < X:
            partial.append((last, 0, X - last))
    ns = range(first, last)
    sums = {}
    for a in range(k + 1):
        ra = [r ** a for r in counts[first:last]]
        for b in range(k + 1 - a):
            sums[a, b] = sum(map(operator.mul, ra, (n ** b for n in ns)))
    with mpmath.workdps(dps):
        pi = mpmath.pi
        total = mpmath.mpf(0)
        for j in range(k + 1):
            m = k - j
            shifted = sum(math.comb(m, i) * (-pi) ** i * sums[m - i, i] for i in range(m + 1))
            total += math.comb(k, j) * (-pi) ** j / (j + 1) * shifted
            for n, u0, u1 in partial:
                width = mpmath.mpf(u1) ** (j + 1) - mpmath.mpf(u0) ** (j + 1)
                total += (math.comb(k, j) * (-pi) ** j * width / (j + 1)
                          * (counts[n] - pi * n) ** m)
        return +total


def squarefree_core(n: int) -> tuple[int, int]:
    """Split n = s^2 * q with q squarefree: trial division to the cube root,
    then a perfect-square check on the remaining cofactor (which has at
    most two prime factors)."""
    if n < 1:
        raise ValueError("n must be positive")
    q = 1
    s = 1
    m = n
    p = 2
    while p * p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                q *= p
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    if r * r == m:
        s *= r
    else:
        q *= m
    return q, s


def power_free_split(n: int, r: int) -> tuple[int, int]:
    """Split n = a^r * q with q r-power-free (full trial division)."""
    if n < 1:
        raise ValueError("n must be positive")
    if r < 2:
        raise ValueError("power must be >= 2")
    q = 1
    a = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            a *= p ** (e // r)
            q *= p ** (e % r)
        p += 1 if p == 2 else 2
    q *= m
    return q, a


def brute_exact_triples(limit: int) -> set[tuple[int, int, int]]:
    """All ordered (m, n, k), components <= limit, sqrt m + sqrt n = sqrt k,
    detected by integer core arithmetic on every (m, n) pair."""
    out = set()
    cores = {v: squarefree_core(v) for v in range(1, limit + 1)}
    for m in range(1, limit + 1):
        qm, rm = cores[m]
        for n in range(1, limit + 1):
            qn, rn = cores[n]
            if qm != qn:
                continue
            k = (rm + rn) ** 2 * qm
            if k <= limit:
                out.add((m, n, k))
    return out


def brute_exact_quadruples(limit: int) -> np.ndarray:
    """All ordered (m, n, k, l), components <= limit, with
    sqrt m + sqrt n = sqrt k + sqrt l, as a lexicographically sorted array.

    Sorts the float sums sqrt m + sqrt n of all pairs once; a run is a
    maximal stretch of sorted sums each within 1e-9 of the one before.
    Equal sums differ by ~1e-14 in floating point, so every solution joins
    two pairs of one run, and each join of a run is kept only when exact
    core arithmetic confirms it.  Rows are sorted as base-(limit+1) keys.
    """
    if limit < 1:
        return np.empty((0, 4), dtype=np.int64)
    splits = [(0, 1)] + [squarefree_core(v) for v in range(1, limit + 1)]
    core, root = (np.array(col, dtype=np.int64) for col in zip(*splits))
    sq = np.sqrt(np.arange(1, limit + 1, dtype=np.float64))
    sums = (sq[:, None] + sq[None, :]).ravel()    # pair p is (p // limit + 1, p % limit + 1)
    order = np.argsort(sums, kind="stable").astype(np.int32)
    sums = sums[order]
    first = np.flatnonzero(np.r_[True, np.diff(sums) > 1e-9])
    size = np.diff(np.r_[first, sums.size])
    del sums
    base = limit + 1
    keys = []
    for c in np.unique(size).tolist():
        runs = first[size == c]
        step = max(1, (1 << 20) // (c * c))
        for lo in range(0, runs.size, step):
            # these runs of c pairs as rows of a matrix, each joined c x c
            members = order[runs[lo:lo + step, None] + np.arange(c)].astype(np.int64)
            left = np.repeat(members, c, axis=1).ravel()
            right = np.tile(members, c).ravel()
            m, n = left // limit + 1, left % limit + 1
            k, l = right // limit + 1, right % limit + 1
            qm, rm = core[m], root[m]
            qn, rn = core[n], root[n]
            qk, rk = core[k], root[k]
            ql, rl = core[l], root[l]
            zero_core = (qm == qn) & (qn == qk) & (qk == ql) & (rm + rn == rk + rl)
            zero_pair = ((qm == qk) & (rm == rk) & (qn == ql) & (rn == rl)) \
                | ((qm == ql) & (rm == rl) & (qn == qk) & (rn == rk))
            ok = zero_core | zero_pair
            keys.append(((m[ok] * base + n[ok]) * base + k[ok]) * base + l[ok])
    del order, first, size
    keys = np.sort(np.concatenate(keys))
    rows = np.empty((keys.size, 4), dtype=np.int64)
    for col in (3, 2, 1, 0):
        keys, rows[:, col] = np.divmod(keys, base)
    return rows


def brute_count_three_root(M: int, Mp: int, delta: float) -> int:
    LD = np.longdouble
    t = LD(delta) * np.sqrt(LD(M))
    kmax = int((2 * math.sqrt(2 * M) + float(t)) ** 2) + 2
    count = 0
    for m in range(M + 1, 2 * M + 1):
        for n in range(Mp + 1, 2 * Mp + 1):
            s = np.sqrt(LD(m)) + np.sqrt(LD(n))
            for k in range(1, kmax + 1):
                if abs(s - np.sqrt(LD(k))) <= t:
                    count += 1
    return count


def brute_count_four_root(M, Mp, K, L, delta, sign, exclude_exact) -> int:
    LD = np.longdouble
    t = LD(delta) * np.sqrt(LD(K))
    count = 0
    for m in range(M + 1, 2 * M + 1):
        qm, rm = squarefree_core(m)
        for n in range(Mp + 1, 2 * Mp + 1):
            qn, rn = squarefree_core(n)
            for k in range(K + 1, 2 * K + 1):
                qk, rk = squarefree_core(k)
                for l in range(L + 1, 2 * L + 1):
                    v = np.sqrt(LD(m)) + np.sqrt(LD(n)) \
                        + LD(sign) * np.sqrt(LD(k)) - np.sqrt(LD(l))
                    if abs(v) > t:
                        continue
                    if exclude_exact:
                        ql, rl = squarefree_core(l)
                        if sign > 0:
                            zero = qm == qn == qk == ql and rm + rn + rk == rl
                        else:
                            zero = (qm == qn == qk == ql and rm + rn == rk + rl) \
                                or (qm == qk and rm == rk and qn == ql and rn == rl) \
                                or (qm == ql and rm == rl and qn == qk and rn == rk)
                        if zero:
                            continue
                    count += 1
    return count


def brute_zero_counts(boxes, n_left: int, r: int, trivial: bool) -> tuple[int, int]:
    """(exact zeros, trivial pairings) over every tuple of the dyadic boxes:
    a zero has its first n_left r-th roots summing to the others, decided
    per kernel after power_free_split (roots of distinct r-power-free
    kernels are linearly independent); a trivial pairing, counted only if
    trivial, is a zero (m, n, k, l) with (k, l) = (m, n) or (n, m)."""
    zeros = pairings = 0
    for tup in product(*(range(R + 1, 2 * R + 1) for R in boxes)):
        balance = {}
        for i, v in enumerate(tup):
            q, a = power_free_split(v, r)
            balance[q] = balance.get(q, 0) + (a if i < n_left else -a)
        if any(balance.values()):
            continue
        zeros += 1
        m, n, k, l = tup
        pairings += trivial and (k, l) in ((m, n), (n, m))
    return zeros, pairings


def brute_count_kth(N: int, delta: float, r: int) -> int:
    LD = np.longdouble
    t = LD(delta) * LD(N) ** (LD(1) / r)
    vals = {i: LD(i) ** (LD(1) / r) for i in range(N + 1, 2 * N + 1)}
    count = 0
    rng = range(N + 1, 2 * N + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if abs(vals[a] + vals[b] - vals[c] - vals[d]) < t:
                        count += 1
    return count


def _floor_int(x: np.ndarray) -> np.ndarray:
    """floor(x) of a longdouble array as int64, exact for finite |x| < 2^63."""
    f = x.astype(np.int64)
    return f - (f > x)


def _count_in_interval(lo, hi, floor_lo, cap_hi, strict: bool) -> np.ndarray:
    """Vectorized count of integers v with floor_lo <= v <= cap_hi and
    lo (<|<=) v (<|<=) hi, as int64, where lo/hi are longdouble arrays and
    0 <= lo < 2^63.

    hi is clipped in place at cap_hi (cap_hi + 1 when strict): that clamps
    the largest v before rounding, so hi fits in int64 for any delta, inf
    included, and an infinite cap_hi needs no integer clamp."""
    np.minimum(hi, cap_hi + strict, out=hi)
    if strict:
        vmin = _floor_int(lo) + 1
        vmax = -_floor_int(-hi) - 1
    else:
        vmin = -_floor_int(-lo)
        vmax = _floor_int(hi)
    np.maximum(vmin, floor_lo, out=vmin)
    cnt = vmax - vmin + 1
    return np.maximum(cnt, 0, out=cnt)


def count_solved(axes, t, inner_lo, inner_hi, r: int, strict: bool,
                 paired: bool) -> int:
    """Number of tuples (x, a_1, ..., v) with |x + a_1 + ... - v^(1/r)|
    (<|<=) t and inner_lo <= v <= inner_hi, where x runs over axes[0] and
    the later axes broadcast against each other: the library's four-root
    counter before sorted pair sums replaced it, kept as the route whose
    longdouble rounding the library must reproduce.

    v is never enumerated: it fills the integer interval between
    max(s - t, 0)^r and max(s + t, 0)^r.  Clamping hi leaves an empty
    interval where s + t <= 0, since inner_lo >= 1.  The sum s is always
    added left to right, so threshold ties are decided the same way on
    every call.

    paired says axes[1] holds the values of axes[0] (along its first
    dimension).  IEEE addition is commutative, so the tuples with x and a_1
    swapped have the same s to the bit and the same count: row i runs a_1
    over axes[1][i:] only and counts those twice, less the a_1 = x row."""
    total = 0
    for i, x in enumerate(axes[0]):
        s = x + (axes[1][i:] if paired else axes[1])
        for a in axes[2:]:
            s = s + a
        lo, hi = s - t, s + t
        lo[lo < 0] = 0
        hi[hi < 0] = 0
        with np.errstate(over="ignore"):    # an infinite hi**r is clipped
            hi **= r
        cnt = _count_in_interval(lo ** r, hi, inner_lo, inner_hi, strict)
        row = int(np.sum(cnt))
        total += 2 * row - int(np.sum(cnt[0])) if paired else row
    return total


def solved_count_four(form: str, box: dict, delta: float) -> int:
    """count_solved on a four-root box, set up as the library once did: the
    tuples within the threshold, exact zeros included for every form."""
    LD = np.longdouble

    def roots(R):
        return np.sqrt(np.arange(R + 1, 2 * R + 1, dtype=np.int64).astype(LD))

    if form == "four-root-kth":
        M, inv = box["M"], LD(1) / LD(box.get("root_k", 2))
        b = np.arange(M + 1, 2 * M + 1, dtype=np.int64).astype(LD) ** inv
        return count_solved((b, b[:, None], -b[None, :]), LD(delta) * LD(M) ** inv,
                            M + 1, 2 * M, box.get("root_k", 2), strict=True, paired=True)
    M, Mp, K, L = box["M"], box["Mp"], box["K"], box["L"]
    if form == "four-root-minus":
        last, inner = -roots(L), K
    else:
        last, inner = roots(K), L
    return count_solved((roots(M), roots(Mp)[:, None], last[None, :]),
                        LD(delta) * np.sqrt(LD(K)), inner + 1, 2 * inner, 2,
                        strict=False, paired=M == Mp)


def near_integer_count_by_sorting(K: int, alpha: float, beta: float,
                                  delta: float) -> int:
    """Number of k in (K, 2K] with ||beta + alpha*sqrt(k)|| < delta, by
    sorting the fractional parts and counting both tails with binary
    searches."""
    LD = np.longdouble
    k = np.arange(K + 1, 2 * K + 1, dtype=np.int64)
    t = LD(beta) + LD(alpha) * np.sqrt(k.astype(LD))
    frac = np.sort(t - np.floor(t))
    d = LD(delta)
    left = int(np.searchsorted(frac, d, side="left"))
    right = len(frac) - int(np.searchsorted(frac, 1 - d, side="right"))
    return left + right


def diagonal_series_by_core(cutoffs) -> dict[int, tuple[float | None, float]]:
    """(cubic, quartic) diagonal series at each cutoff by a loop over the
    squarefree cores q in ascending order, one np.convolve per core, each
    core's term added to a running longdouble total.

    d(n) comes from its own strided sieve and squarefreeness from crossing
    out multiples of p^2.  A core's terms depend on (q, amax) only, so each
    pair is evaluated once for all cutoffs.  The cubic entry is None below 4.
    """
    LD = np.longdouble
    top = max(cutoffs)
    d = np.zeros(top + 1, dtype=np.int64)
    for k in range(1, top + 1):
        d[k::k] += 1
    squarefree = np.ones(top // 4 + 1, dtype=bool)
    for p in range(2, math.isqrt(top // 4) + 1):
        squarefree[p * p::p * p] = False
    memo = {}

    def core_terms(q: int, amax: int) -> tuple:
        if (q, amax) not in memo:
            a = np.arange(1, amax + 1, dtype=np.int64)
            w = d[a * a * q].astype(LD) * a.astype(LD) ** LD(-1.5)
            g = np.convolve(w[:-1], w[:-1])        # g[t] = G(t + 2)
            cubic = LD(q) ** LD(-2.25) * np.sum(w[1:] * g[:amax - 1])
            conv = np.convolve(w, w)
            w2 = w * w
            tq, uq = np.sum(w2), np.sum(w2 * w2)
            qf = LD(q) ** LD(-3)
            memo[q, amax] = (cubic, qf * np.sum(conv * conv), qf * (2 * tq * tq - uq))
        return memo[q, amax]

    out = {}
    for cutoff in cutoffs:
        ns = np.arange(1, cutoff + 1, dtype=LD)
        d_ld = d[1:cutoff + 1].astype(LD)
        T = np.sum(d_ld * d_ld * ns ** LD(-1.5))
        U = np.sum(d_ld ** 4 * ns ** LD(-3))
        cubic = same_core = overlap = LD(0)
        for q in range(1, cutoff // 4 + 1):
            if squarefree[q]:
                t3, t4, t_overlap = core_terms(q, math.isqrt(cutoff // q))
                cubic += t3
                same_core += t4
                overlap += t_overlap
        out[cutoff] = (float(cubic) if cutoff >= 4 else None,
                       float(2 * T * T - U + same_core - overlap))
    return out
