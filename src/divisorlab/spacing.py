"""Brute-force counting and gap measurement for square-root spacing
inequalities, plus exact enumeration of square-root identities.

Conventions used throughout:

  * A dyadic box parameter R means the integer range (R, 2R].
  * Exact vanishing of a signed combination of square roots is decided by
    pure integer arithmetic: write each n as s^2*q with q squarefree; sums
    of sqrt over distinct squarefree cores are linearly independent, so a
    combination vanishes iff the per-core coefficient sums do.  No floating
    tolerance ever classifies a tuple as exactly zero.
  * Threshold comparisons (|combination| vs delta * scale) are evaluated in
    80-bit extended precision.  The innermost variable is never enumerated:
    its admissible range is a contiguous integer interval obtained by
    inverting the monotone square root, so 4-variable boxes cost three
    nested loops plus a range count.
  * Bound values evaluate the reference bound shapes with the epsilon term
    dropped and the implied constant set to 1, so measured ratios carry all
    the constant information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BudgetError
from .sieves import core_families, core_tables

LD = np.longdouble


class SpacingForm(Enum):
    FOUR_ROOT_KTH = "four-root-kth"    # |n1^(1/r)+n2^(1/r)-n3^(1/r)-n4^(1/r)| < delta*N^(1/r)
    NEAR_INTEGER = "near-integer"      # ||beta + alpha*sqrt(k)|| < delta
    THREE_ROOT = "three-root"          # |sqrt m + sqrt n - sqrt k| <= delta*sqrt(M)
    FOUR_ROOT_MINUS = "four-root-minus"  # |sqrt m + sqrt n - sqrt k - sqrt l| <= delta*sqrt(K)
    FOUR_ROOT_PLUS = "four-root-plus"    # 0 < |sqrt m + sqrt n + sqrt k - sqrt l| <= delta*sqrt(K)

    @classmethod
    def parse(cls, name: str) -> "SpacingForm":
        for form in cls:
            if form.value == name:
                return form
        known = ", ".join(sorted(f.value for f in cls))
        raise ValueError(f"unknown spacing form {name!r} (known: {known})")


@dataclass(frozen=True)
class BoxSpec:
    form: SpacingForm
    delta: float
    M: int | None = None
    Mp: int | None = None
    K: int | None = None
    L: int | None = None
    root_k: int = 2            # the fixed root order of the four-root-kth form
    alpha: float | None = None
    beta: float = 0.0
    exclude_exact: bool | None = None   # None -> form default
    budget: int = 10**10

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        need = {
            SpacingForm.FOUR_ROOT_KTH: ("M",),
            SpacingForm.NEAR_INTEGER: ("K",),
            SpacingForm.THREE_ROOT: ("M", "Mp"),
            SpacingForm.FOUR_ROOT_MINUS: ("M", "Mp", "K", "L"),
            SpacingForm.FOUR_ROOT_PLUS: ("M", "Mp", "K", "L"),
        }[self.form]
        for name in need:
            val = getattr(self, name)
            if val is None or val < 1:
                raise ValueError(f"form {self.form.value} needs box {name} >= 1")
        if self.form is SpacingForm.FOUR_ROOT_KTH and self.root_k < 2:
            raise ValueError("root order must be >= 2")
        if self.form is SpacingForm.NEAR_INTEGER:
            if self.alpha is None or abs(self.alpha) < 1:
                raise ValueError("near-integer form needs |alpha| >= 1")
            if not 0 < self.delta < 0.5:
                raise ValueError("near-integer form needs 0 < delta < 1/2")
        if self.form is SpacingForm.THREE_ROOT and self.Mp > self.M:
            raise ValueError("three-root form requires Mp <= M")

    def excludes_exact(self) -> bool:
        if self.exclude_exact is not None:
            return self.exclude_exact
        return self.form is SpacingForm.FOUR_ROOT_PLUS


@dataclass(frozen=True)
class SpacingCount:
    spec: BoxSpec
    count: int
    trivial_count: int
    exact_zero_count: int | None
    bound_primary: float
    bound_secondary: float | None
    bound_value: float
    ratio: float


@dataclass(frozen=True)
class GapResult:
    limit: int
    min_scaled_gap: float
    argmin: tuple[int, ...]


# ---------------------------------------------------------------------------
# exact square-root identities

@dataclass(frozen=True)
class ExactTriple:
    """m = a^2 q, n = b^2 q, k = (a+b)^2 q: sqrt(m) + sqrt(n) = sqrt(k)."""
    m: int
    n: int
    k: int
    a: int
    b: int
    q: int

    def components(self) -> tuple[int, int, int]:
        return (self.m, self.n, self.k)


def enumerate_exact_triples(limit: int) -> list[ExactTriple]:
    """All ordered triples with sqrt(m) + sqrt(n) = sqrt(k), components <= limit.

    Generated by squarefree core q and the pair (a, b); the third component
    (a+b)^2 q is the largest, so the constraint is (a+b)^2 q <= limit.
    """
    if limit < 1:
        return []
    out: list[ExactTriple] = []
    for q, smax in zip(*(c.tolist() for c in core_families(limit))):
        for s in range(2, smax + 1):
            k = s * s * q
            for a in range(1, s):
                b = s - a
                out.append(ExactTriple(m=a * a * q, n=b * b * q, k=k, a=a, b=b, q=q))
    out.sort(key=lambda t: t.components())
    return out


def enumerate_exact_quadruples(limit: int) -> np.ndarray:
    """All ordered quadruples (m, n, k, l), components <= limit, with
    sqrt(m) + sqrt(n) = sqrt(k) + sqrt(l), as a lexicographically sorted
    (N, 4) integer array.

    By independence of square roots of distinct squarefree numbers the
    solution set is the union of three disjoint families: common-core
    tuples (a^2 q, b^2 q, c^2 q, d^2 q) with a+b = c+d and q <= limit//4
    (this includes their trivial pairings), the singletons (q, q, q, q)
    for squarefree q > limit//4, and the trivial pairings {k, l} = {m, n}
    over pairs with distinct cores.
    """
    if limit < 1:
        return np.empty((0, 4), dtype=np.int64)
    rows: list[np.ndarray] = []
    for q, amax in zip(*(c.tolist() for c in core_families(limit))):
        comp = np.arange(1, amax + 1, dtype=np.int64) ** 2 * q
        for s in range(2, 2 * amax + 1):
            a = np.arange(max(1, s - amax), min(amax, s - 1) + 1, dtype=np.int64)
            pairs_m = comp[a - 1]
            pairs_n = comp[s - a - 1]
            na = len(a)
            mm = np.repeat(pairs_m, na)
            nn = np.repeat(pairs_n, na)
            kk = np.tile(pairs_m, na)
            ll = np.tile(pairs_n, na)
            rows.append(np.stack([mm, nn, kk, ll], axis=1))

    core, root = core_tables(limit)
    singles = np.flatnonzero(root[limit // 4 + 1:] == 1) + limit // 4 + 1
    rows.append(np.stack([singles] * 4, axis=1))

    m = np.arange(1, limit + 1, dtype=np.int64)
    mg, ng = np.meshgrid(m, m, indexing="ij")
    diff = core[mg] != core[ng]
    mg, ng = mg[diff], ng[diff]
    rows.append(np.stack([mg, ng, mg, ng], axis=1))
    rows.append(np.stack([mg, ng, ng, mg], axis=1))

    allrows = np.concatenate(rows, axis=0)
    return allrows[np.lexsort(allrows.T[::-1])]


def _core_members(q: int, boxes: tuple[int, ...]) -> list[np.ndarray] | None:
    """Per dyadic box (R, 2R], the ascending square parts a with a^2 q in
    the box, or None when some box has none.

    For squarefree q these are exactly the box members whose core is q
    (core(a^2 q) = q for every a)."""
    parts = [np.arange(math.isqrt(R // q) + 1, math.isqrt(2 * R // q) + 1,
                       dtype=np.int64) for R in boxes]
    return parts if all(len(p) for p in parts) else None


def _same_core_pairs(c1: np.ndarray, c2: np.ndarray) -> int:
    """Number of pairs (i, j) with c1[i] == c2[j]."""
    b1 = np.bincount(c1)
    b2 = np.bincount(c2, minlength=len(b1))[:len(b1)]
    return int(np.dot(b1, b2))


# ---------------------------------------------------------------------------
# interval helpers for the solved inner variable

def _count_in_interval(lo, hi, floor_lo, cap_hi, strict: bool):
    """Vectorized count of integers v with floor_lo <= v <= cap_hi and
    lo (<|<=) v (<|<=) hi, where lo/hi are longdouble arrays."""
    if strict:
        vmin = np.floor(lo) + 1
        vmax = np.ceil(hi) - 1
    else:
        vmin = np.ceil(lo)
        vmax = np.floor(hi)
    vmin = np.maximum(vmin, LD(floor_lo))
    vmax = np.minimum(vmax, LD(cap_hi))
    cnt = vmax - vmin + 1
    return np.where(cnt > 0, cnt, LD(0))


def _interval_overlap(r1: int, r2: int) -> int:
    """|(r1, 2r1] intersect (r2, 2r2]| for dyadic integer boxes."""
    lo = max(r1, r2)
    hi = min(2 * r1, 2 * r2)
    return max(0, hi - lo)


# ---------------------------------------------------------------------------
# per-form counting

def _count_near_integer(spec: BoxSpec) -> int:
    K = spec.K
    if K > spec.budget:
        raise BudgetError(f"box K={K} exceeds budget {spec.budget}")
    k = np.arange(K + 1, 2 * K + 1, dtype=np.int64)
    t = LD(spec.beta) + LD(spec.alpha) * np.sqrt(k.astype(LD))
    frac = t - np.floor(t)
    dist = np.minimum(frac, 1 - frac)
    return int(np.count_nonzero(dist < LD(spec.delta)))


def near_integer_count_by_sorting(spec: BoxSpec) -> int:
    """Independent route for the near-integer count: sort the fractional
    parts and count both tails with binary searches."""
    K = spec.K
    k = np.arange(K + 1, 2 * K + 1, dtype=np.int64)
    t = LD(spec.beta) + LD(spec.alpha) * np.sqrt(k.astype(LD))
    frac = np.sort(t - np.floor(t))
    d = LD(spec.delta)
    left = int(np.searchsorted(frac, d, side="left"))
    right = len(frac) - int(np.searchsorted(frac, 1 - d, side="right"))
    return left + right


def _count_three_root(spec: BoxSpec) -> int:
    M, Mp = spec.M, spec.Mp
    if M * Mp > spec.budget:
        raise BudgetError(f"box volume {M * Mp} exceeds budget {spec.budget}")
    t = LD(spec.delta) * np.sqrt(LD(M))
    n = np.arange(Mp + 1, 2 * Mp + 1, dtype=np.int64)
    sqrt_n = np.sqrt(n.astype(LD))
    total = 0
    for m in range(M + 1, 2 * M + 1):
        s = np.sqrt(LD(m)) + sqrt_n
        lo = s - t
        hi = s + t
        lo = np.maximum(lo, LD(0))
        cnt = _count_in_interval(lo * lo, hi * hi, 1, np.inf, strict=False)
        total += int(np.sum(cnt))
    return total


def _count_four_root_minus(spec: BoxSpec) -> tuple[int, int]:
    """Returns (count, trivial_count) for the two-plus-two-minus form."""
    M, Mp, K, L = spec.M, spec.Mp, spec.K, spec.L
    if M * Mp * L > spec.budget:
        raise BudgetError(f"box volume {M * Mp * L} exceeds budget {spec.budget}")
    t = LD(spec.delta) * np.sqrt(LD(K))
    n = np.arange(Mp + 1, 2 * Mp + 1, dtype=np.int64)
    l = np.arange(L + 1, 2 * L + 1, dtype=np.int64)
    sqrt_n = np.sqrt(n.astype(LD))[:, None]
    sqrt_l = np.sqrt(l.astype(LD))[None, :]
    total = 0
    for m in range(M + 1, 2 * M + 1):
        s = np.sqrt(LD(m)) + sqrt_n - sqrt_l
        lo = np.maximum(s - t, LD(0))
        hi = s + t
        valid = hi > 0
        cnt = _count_in_interval(lo * lo, hi * hi, K + 1, 2 * K, strict=False)
        total += int(np.sum(cnt[valid]))
    # trivial pairings (k,l) = (m,n) or (n,m); both demand box membership
    p_mn = _interval_overlap(M, K) * _interval_overlap(Mp, L)
    p_nm = _interval_overlap(M, L) * _interval_overlap(Mp, K)
    all_four = max(0, min(2 * M, 2 * Mp, 2 * K, 2 * L) - max(M, Mp, K, L))
    return total, p_mn + p_nm - all_four


def _count_four_root_plus(spec: BoxSpec) -> int:
    M, Mp, K, L = spec.M, spec.Mp, spec.K, spec.L
    if M * Mp * K > spec.budget:
        raise BudgetError(f"box volume {M * Mp * K} exceeds budget {spec.budget}")
    t = LD(spec.delta) * np.sqrt(LD(K))
    n = np.arange(Mp + 1, 2 * Mp + 1, dtype=np.int64)
    k = np.arange(K + 1, 2 * K + 1, dtype=np.int64)
    sqrt_n = np.sqrt(n.astype(LD))[:, None]
    sqrt_k = np.sqrt(k.astype(LD))[None, :]
    total = 0
    for m in range(M + 1, 2 * M + 1):
        s = np.sqrt(LD(m)) + sqrt_n + sqrt_k
        lo = np.maximum(s - t, LD(0))
        hi = s + t
        cnt = _count_in_interval(lo * lo, hi * hi, L + 1, 2 * L, strict=False)
        total += int(np.sum(cnt))
    return total


def _count_four_root_kth(spec: BoxSpec) -> int:
    N, r = spec.M, spec.root_k
    if N * N * N > spec.budget:
        raise BudgetError(f"box volume {N**3} exceeds budget {spec.budget}")
    inv = LD(1) / LD(r)
    t = LD(spec.delta) * LD(N) ** inv
    base = np.arange(N + 1, 2 * N + 1, dtype=np.int64).astype(LD) ** inv
    total = 0
    for i1 in range(N):
        a = base[i1] + base[:, None] - base[None, :]
        lo = np.maximum(a - t, LD(0))
        hi = a + t
        valid = hi > 0
        cnt = _count_in_interval(lo ** r, hi ** r, N + 1, 2 * N, strict=True)
        total += int(np.sum(cnt[valid]))
    return total


# ---------------------------------------------------------------------------
# exact-zero counting inside boxes

def _zero_count_three_root(spec: BoxSpec) -> int:
    """Number of box pairs (m, n) with sqrt m + sqrt n an exact sqrt k.

    k is unconstrained in this form and exact hits always satisfy the
    inequality, so the zero count is the number of same-core pairs."""
    M, Mp = spec.M, spec.Mp
    core, _ = core_tables(2 * max(M, Mp))
    return _same_core_pairs(core[M + 1:2 * M + 1], core[Mp + 1:2 * Mp + 1])


def _zero_count_four_root_minus(spec: BoxSpec) -> int:
    """Number of box tuples with sqrt m + sqrt n = sqrt k + sqrt l exactly."""
    M, Mp, K, L = spec.M, spec.Mp, spec.K, spec.L
    core, _ = core_tables(2 * max(M, Mp, K, L))

    # case 1: all four share one squarefree core, a+b = c+d
    total = 0
    for q in np.unique(core[M + 1:2 * M + 1]):
        parts = _core_members(int(q), (M, Mp, K, L))
        if parts is None:
            continue
        A, B, C, D = parts
        smax = int(A[-1] + B[-1])
        h1 = np.bincount((A[:, None] + B[None, :]).ravel(), minlength=smax + 1)
        sums_cd = (C[:, None] + D[None, :]).ravel()
        h2 = np.bincount(sums_cd, minlength=smax + 1)[:smax + 1]
        total += int(np.dot(h1, h2[:len(h1)]))

    # case 2: distinct cores on the left, so {k,l} must equal {m,n}
    def _distinct_core_pairs(r_m: int, r_n: int) -> int:
        lo1, hi1 = max(M, r_m), min(2 * M, 2 * r_m)
        lo2, hi2 = max(Mp, r_n), min(2 * Mp, 2 * r_n)
        if hi1 <= lo1 or hi2 <= lo2:
            return 0
        c1 = core[lo1 + 1:hi1 + 1]
        c2 = core[lo2 + 1:hi2 + 1]
        return len(c1) * len(c2) - _same_core_pairs(c1, c2)

    total += _distinct_core_pairs(K, L)    # (k,l) = (m,n)
    total += _distinct_core_pairs(L, K)    # (k,l) = (n,m)
    return total


def _zero_count_four_root_plus(spec: BoxSpec) -> int:
    """Number of box tuples with sqrt m + sqrt n + sqrt k = sqrt l exactly
    (possible only when all four share one core and a + b + c = e)."""
    M, Mp, K, L = spec.M, spec.Mp, spec.K, spec.L
    core, _ = core_tables(2 * max(M, Mp, K, L))
    total = 0
    for q in np.unique(core[M + 1:2 * M + 1]):
        parts = _core_members(int(q), (M, Mp, K, L))
        if parts is None:
            continue
        A, B, C, E = parts
        sums = (A[:, None, None] + B[None, :, None] + C[None, None, :]).ravel()
        h = np.bincount(sums)
        emask = E[E < len(h)]
        total += int(h[emask].sum())
    return total


def _zero_count_four_root_kth(spec: BoxSpec) -> int:
    """Exact zeros of the equal-box form: n1^(1/r)+n2^(1/r) = n3^(1/r)+n4^(1/r).

    With r-power-free kernels, either all four kernels coincide and the
    coefficients satisfy a1+a2 = a3+a4, or {n1, n2} = {n3, n4} across
    distinct kernels.
    """
    N, r = spec.M, spec.root_k
    core, root = core_tables(2 * N, r)
    kernels, coeffs = core[N + 1:], root[N + 1:]
    order = np.argsort(kernels, kind="stable")
    groups = np.split(coeffs[order],
                      np.flatnonzero(np.diff(kernels[order])) + 1)
    total = 0
    for a in groups:
        h = np.bincount((a[:, None] + a[None, :]).ravel())
        total += int(np.dot(h, h))
    # distinct-kernel trivial pairings, ordered (n3,n4) = (n1,n2) or (n2,n1)
    return total + 2 * (N * N - _same_core_pairs(kernels, kernels))


# ---------------------------------------------------------------------------
# bounds and the public entry point

def _bounds(spec: BoxSpec) -> tuple[float, float | None]:
    d = float(spec.delta)
    if spec.form is SpacingForm.FOUR_ROOT_KTH:
        N = float(spec.M)
        return N**4 * d + N**2, None
    if spec.form is SpacingForm.NEAR_INTEGER:
        K = float(spec.K)
        return K * d + abs(spec.alpha) ** 0.5 * K**0.25 + K**0.5, None
    if spec.form is SpacingForm.THREE_ROOT:
        M, Mp = float(spec.M), float(spec.Mp)
        return M * M * Mp * d + (M * Mp) ** 0.5, None
    M, Mp, K, L = float(spec.M), float(spec.Mp), float(spec.K), float(spec.L)
    vol = K * M * Mp * L
    secondary = vol * (d * K * K + vol**-0.5)
    if spec.form is SpacingForm.FOUR_ROOT_MINUS:
        primary = vol * (d + K**-1.5) + K * min(M, Mp, L)
    else:
        primary = vol * (d + K**-1.5)
    return primary, secondary


def count_box(spec: BoxSpec) -> SpacingCount:
    """Exact tuple count for the requested inequality form, with the
    epsilon-free bound value(s) and the count/bound ratio."""
    trivial = 0
    zeros: int | None = None
    if spec.form is SpacingForm.NEAR_INTEGER:
        count = _count_near_integer(spec)
    elif spec.form is SpacingForm.THREE_ROOT:
        count = _count_three_root(spec)
        zeros = _zero_count_three_root(spec)
    elif spec.form is SpacingForm.FOUR_ROOT_MINUS:
        count, trivial = _count_four_root_minus(spec)
        zeros = _zero_count_four_root_minus(spec)
    elif spec.form is SpacingForm.FOUR_ROOT_PLUS:
        count = _count_four_root_plus(spec)
        zeros = _zero_count_four_root_plus(spec)
    else:
        count = _count_four_root_kth(spec)
        zeros = _zero_count_four_root_kth(spec)
    if spec.excludes_exact():
        if zeros is None:
            raise ValueError(f"exact-zero exclusion unsupported for {spec.form.value}")
        count -= zeros
    primary, secondary = _bounds(spec)
    bound_value = primary if secondary is None else min(primary, secondary)
    return SpacingCount(spec=spec, count=count, trivial_count=trivial,
                        exact_zero_count=zeros, bound_primary=primary,
                        bound_secondary=secondary, bound_value=bound_value,
                        ratio=count / bound_value)


# ---------------------------------------------------------------------------
# minimal scaled gaps

def min_gap_three(limit: int, budget: int = 10**10) -> GapResult:
    """Minimum of |sqrt m + sqrt n - sqrt k| * sqrt(mnk) over m, n, k <= limit
    with a nonzero combination; reports a minimizing triple with m <= n.

    For fixed (m, n) the scaled gap, as a function of k, increases on
    [1, s^2/4], decreases on [s^2/4, s^2], and increases beyond s^2 (where
    s = sqrt m + sqrt n), so only k in {1, floor(s^2) and neighbours, limit}
    can attain the minimum; exact hits k = s^2 are excluded by the integer
    core test.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit * limit > budget:
        raise BudgetError(f"pair volume {limit * limit} exceeds budget {budget}")
    core, root = core_tables(limit)
    sqrt_tab = np.sqrt(np.arange(limit + 1).astype(LD))
    best = LD(np.inf)
    best_tuple = (0, 0, 0)
    for m in range(1, limit + 1):
        n = np.arange(m, limit + 1, dtype=np.int64)
        s = sqrt_tab[m] + sqrt_tab[n]
        s2 = s * s
        fl = np.floor(s2).astype(np.int64)
        exact_k = np.where(core[m] == core[n],
                           (root[m] + root[n]) ** 2 * core[m], -1)
        for cand in (np.ones_like(fl), fl - 1, fl, fl + 1,
                     np.full_like(fl, limit)):
            k = np.clip(cand, 1, limit)
            ok = k != exact_k
            gap = np.abs(s - sqrt_tab[k]) * np.sqrt(
                (m * n * k).astype(LD))
            gap = np.where(ok, gap, LD(np.inf))
            i = int(np.argmin(gap))
            if gap[i] < best:
                best = gap[i]
                best_tuple = (m, int(n[i]), int(k[i]))
    return GapResult(limit=limit, min_scaled_gap=float(best), argmin=best_tuple)


def min_gap_four(limit: int, sign: int = 1, budget: int = 10**10) -> GapResult:
    """Minimum of |sqrt m + sqrt n + sign*sqrt k - sqrt l| * k^2 * sqrt(mnl)
    over m, n <= k <= limit, l <= limit, nonzero combinations only.

    Same candidate argument as min_gap_three, now in l around
    (sqrt m + sqrt n + sign*sqrt k)^2.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit**3 > budget:
        raise BudgetError(f"triple volume {limit**3} exceeds budget {budget}")
    core, root = core_tables(limit)
    sqrt_tab = np.sqrt(np.arange(limit + 1).astype(LD))
    best = LD(np.inf)
    best_tuple = (0, 0, 0, 0)
    mn = np.arange(1, limit + 1, dtype=np.int64)
    for k in range(1, limit + 1):
        m = mn[:k, None]
        n = mn[None, :k]
        s = sqrt_tab[1:k + 1][:, None] + sqrt_tab[1:k + 1][None, :] \
            + LD(sign) * sqrt_tab[k]
        s2 = np.where(s > 0, s * s, LD(0))
        fl = np.floor(s2).astype(np.int64)
        for cand in (np.ones_like(fl), fl - 1, fl, fl + 1,
                     np.full_like(fl, limit)):
            lv = np.clip(cand, 1, limit)
            gap = np.abs(s - sqrt_tab[lv])
            scaled = gap * LD(k) ** 2 * np.sqrt((m * n * lv).astype(LD))
            nz = _nonzero_mask_four(core, root, m, n, k, lv, sign)
            scaled = np.where(nz, scaled, LD(np.inf))
            flat = int(np.argmin(scaled))
            i, j = divmod(flat, scaled.shape[1])
            if scaled[i, j] < best:
                best = scaled[i, j]
                best_tuple = (int(m[i, 0]), int(n[0, j]), k, int(lv[i, j]))
    return GapResult(limit=limit, min_scaled_gap=float(best), argmin=best_tuple)


def _nonzero_mask_four(core, root, m, n, k, lv, sign) -> np.ndarray:
    """True where sqrt m + sqrt n + sign*sqrt k - sqrt l != 0, by exact
    integer core comparisons (vectorized over an (m, n) grid)."""
    qm, rm = core[m], root[m]
    qn, rn = core[n], root[n]
    qk, rk = int(core[k]), int(root[k])
    ql, rl = core[lv], root[lv]
    if sign > 0:
        # sqrt m + sqrt n + sqrt k = sqrt l forces one common core
        zero = (qm == qn) & (qm == qk) & (qm == ql) & (rm + rn + rk == rl)
        return ~zero
    # sqrt m + sqrt n = sqrt k + sqrt l: common core with matching sums,
    # or the two formal pairs coincide
    zero_core = (qm == qn) & (qm == qk) & (qm == ql) & (rm + rn == rk + rl)
    zero_pair = ((qm == qk) & (rm == rk) & (qn == ql) & (rn == rl)) \
        | ((qm == ql) & (rm == rl) & (qn == qk) & (rn == rk))
    return ~(zero_core | zero_pair)
