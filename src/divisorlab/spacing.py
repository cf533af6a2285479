"""Brute-force counting and gap measurement for square-root spacing
inequalities, plus exact enumeration of square-root identities.

Conventions used throughout:

  * A dyadic box parameter R means the integer range (R, 2R].
  * Exact vanishing of a signed combination of square roots is decided by
    pure integer arithmetic: write each n as s^2*q with q squarefree; sums
    of sqrt over distinct squarefree cores are linearly independent, so a
    combination vanishes iff the per-core coefficient sums do.  No floating
    tolerance ever classifies a tuple as exactly zero.
  * Threshold comparisons (|combination| vs delta * scale) are decided in
    80-bit extended precision by one solved-variable counter for all four
    root forms: it enumerates the outer variables, never the innermost one,
    whose admissible values are an integer interval found by inverting the
    monotone root.  The sum is formed in one fixed order and the interval's
    ends are rounded exactly (numerics.floor_int), so that order's
    longdouble rounding decides exact ties; x + a and a + x are the same
    bits, so equal first boxes are evaluated once per unordered pair.
    Minimal gaps are decided in longdouble too, after a float64 screen with
    a proven error bound, and the first minimum in one fixed order wins.
  * Bound values evaluate the reference bound shapes with the epsilon term
    dropped and the implied constant set to 1, so measured ratios carry all
    the constant information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import numerics
from .errors import BudgetError
from .numerics import NamedEnum, floor_int
from .sieves import check_memory, core_families, core_tables, width_runs

LD = np.longdouble

# the most tuples a count or gap search may enumerate
WORK_BUDGET = 10**10
# Peak bytes of count_box (tracemalloc, each form): 64-286 per unit of the
# sides summed (sides to 1e6), 121-129 per broadcast block element (blocks
# to 4.9e5).
_BOX_BYTES_PER_SIDE = 290
_BOX_BYTES_PER_BLOCK = 130


class SpacingForm(NamedEnum):
    FOUR_ROOT_KTH = "four-root-kth"    # |n1^(1/r)+n2^(1/r)-n3^(1/r)-n4^(1/r)| < delta*N^(1/r)
    NEAR_INTEGER = "near-integer"      # ||beta + alpha*sqrt(k)|| < delta
    THREE_ROOT = "three-root"          # |sqrt m + sqrt n - sqrt k| <= delta*sqrt(M)
    FOUR_ROOT_MINUS = "four-root-minus"  # |sqrt m + sqrt n - sqrt k - sqrt l| <= delta*sqrt(K)
    FOUR_ROOT_PLUS = "four-root-plus"    # 0 < |sqrt m + sqrt n + sqrt k - sqrt l| <= delta*sqrt(K)


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

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not all(math.isfinite(v) for v in (self.alpha, self.beta) if v is not None):
            raise ValueError(f"alpha and beta must be finite, got {self.alpha}, {self.beta}")
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
            top = LD(abs(self.beta)) + LD(abs(self.alpha)) * np.sqrt(LD(2 * self.K))
            if np.spacing(top) > self.delta * 2.0 ** -20:
                raise ValueError(f"|beta| + |alpha|*sqrt(2K) = {float(top):.3g} leaves "
                                 f"too few fractional bits for delta {self.delta}")
        if self.form is SpacingForm.THREE_ROOT:
            if self.Mp > self.M:
                raise ValueError("three-root form requires Mp <= M")
            # k runs up to top^2, and a row of Mp interval lengths is summed
            top = math.sqrt(2 * self.M) + math.sqrt(2 * self.Mp) \
                + self.delta * math.sqrt(self.M)
            if self.Mp * top * top >= 2.0 ** 44:
                raise ValueError(f"Mp*(sqrt(2M) + sqrt(2Mp) + delta*sqrt(M))^2 = "
                                 f"{self.Mp * top * top:.3g} leaves too few fractional "
                                 f"bits for an exact count")
        if math.isfinite(self.delta) and not all(
                math.isfinite(b) for b in _bounds(self) if b is not None):
            raise ValueError(f"the bounds of this box at delta {self.delta} "
                             f"exceed double range")


@dataclass(frozen=True)
class SpacingCount:
    count: int
    trivial_count: int
    exact_zero_count: int | None
    bound_primary: float
    bound_secondary: float | None
    bound_value: float
    ratio: float


@dataclass(frozen=True)
class GapResult:
    min_scaled_gap: float
    argmin: tuple[int, ...]


# ---------------------------------------------------------------------------
# exact square-root identities

# Peak memory of enumerate_exact_triples per row: the per-width rows, their
# concatenation, the lexsort order and the sorted copy.  Measured 56.7-57.3
# bytes (tracemalloc, fresh process, limits 1e4-1e6), under this bound.
_TRIPLE_BYTES_PER_ROW = 90


def enumerate_exact_triples(limit: int) -> np.ndarray:
    """All ordered triples (m, n, k), components <= limit, with
    sqrt(m) + sqrt(n) = sqrt(k), as a lexicographically sorted (N, 3)
    integer array.

    Each is (a^2 q, b^2 q, (a+b)^2 q) for a squarefree core q and a, b >= 1
    with a + b <= amax = isqrt(limit // q): amax(amax-1)/2 rows per core.
    """
    cores, amaxes = core_families(limit)
    check_memory(_TRIPLE_BYTES_PER_ROW * int(np.sum(amaxes * (amaxes - 1) // 2)),
                 f"triples up to {limit}")
    rows = [np.empty((0, 3), dtype=np.int64)]
    for lo, hi, amax in width_runs(amaxes):
        # one (a, b) mask per width, broadcast against the run's cores
        a = np.arange(1, amax, dtype=np.int64)
        i, j = np.nonzero(np.add.outer(a, a) <= amax)
        roots = np.stack([a[i], a[j], a[i] + a[j]], axis=1)
        rows.append((roots * roots * cores[lo:hi, None, None]).reshape(-1, 3))
    rows = np.concatenate(rows)
    return rows[np.lexsort(rows.T[::-1])]


# Peak memory of enumerate_exact_quadruples per pair (m, n) <= limit: the
# signature keys, their stable order, the join indices and the rows.
# Measured 138-139 bytes (tracemalloc, fresh process, limits 300-2000).
_QUADRUPLE_BYTES_PER_PAIR = 140


def enumerate_exact_quadruples(limit: int) -> np.ndarray:
    """All ordered quadruples (m, n, k, l), components <= limit, with
    sqrt(m) + sqrt(n) = sqrt(k) + sqrt(l), as a lexicographically sorted
    (N, 4) integer array.

    By independence of square roots of distinct squarefree numbers,
    sqrt(m) + sqrt(n) is fixed by a signature: (q, a + b) when m = a^2 q and
    n = b^2 q share the core q, and the set {m, n} otherwise.  The rows are
    the self-join of all pairs on that signature: each pair, in lexicographic
    order, joined with every pair of its signature, also in that order, so
    they come out sorted.
    """
    side = max(limit, 0)
    check_memory(_QUADRUPLE_BYTES_PER_PAIR * side * side, f"quadruples up to {limit}")
    core, root = core_tables(side)
    # pair p is (m, n) = (p // side + 1, p % side + 1)
    m, n = (np.indices((side, side), dtype=np.int64) + 1).reshape(2, -1)
    q = core[m]
    # common-core signatures are positive, {m, n} ones negative
    key = np.where(q == core[n], q * (2 * math.isqrt(side) + 1) + root[m] + root[n],
                   -(np.minimum(m, n) * (side + 1) + np.maximum(m, n)))
    order = np.argsort(key, kind="stable")
    start, size = np.unique(key[order], return_index=True, return_counts=True)[1:]
    del m, n, q, key
    # each pair's group, by its first position in ``order`` and its size
    first, count = np.empty_like(order), np.empty_like(order)
    first[order], count[order] = np.repeat(start, size), np.repeat(size, size)
    # pair p has count[p] rows, and its j-th row joins order[first[p] + j]
    pair = np.repeat(np.arange(order.size), count)
    joined = order[np.repeat(first - np.cumsum(count) + count, count) + np.arange(pair.size)]
    del first, count, order
    rows = np.empty((pair.size, 4), dtype=np.int64)
    rows[:, 0], rows[:, 1] = np.divmod(pair, side)
    rows[:, 2], rows[:, 3] = np.divmod(joined, side)
    rows += 1
    return rows


# ---------------------------------------------------------------------------
# counting with a solved inner variable

def _count_in_interval(lo, hi, floor_lo, cap_hi, strict: bool) -> np.ndarray:
    """Vectorized count of integers v with floor_lo <= v <= cap_hi and
    lo (<|<=) v (<|<=) hi, as int64, where lo/hi are longdouble arrays and
    0 <= lo < 2^63.

    hi is clipped in place at cap_hi (cap_hi + 1 when strict): that clamps
    the largest v before rounding, so hi fits in int64 for any delta, inf
    included, and an infinite cap_hi needs no integer clamp."""
    np.minimum(hi, cap_hi + strict, out=hi)
    if strict:
        vmin = floor_int(lo) + 1
        vmax = -floor_int(-hi) - 1
    else:
        vmin = -floor_int(-lo)
        vmax = floor_int(hi)
    np.maximum(vmin, floor_lo, out=vmin)
    cnt = vmax - vmin + 1
    return np.maximum(cnt, 0, out=cnt)


def _count_solved(axes, t, inner_lo, inner_hi, r: int, strict: bool,
                  paired: bool) -> int:
    """Number of tuples (x, a_1, ..., v) with |x + a_1 + ... - v^(1/r)|
    (<|<=) t and inner_lo <= v <= inner_hi, where x runs over axes[0] and
    the later axes broadcast against each other.

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


def _sqrt_box(R: int) -> np.ndarray:
    return np.sqrt(np.arange(R + 1, 2 * R + 1, dtype=np.int64).astype(LD))


def _count_near_integer(spec: BoxSpec) -> int:
    k = np.arange(spec.K + 1, 2 * spec.K + 1, dtype=np.int64)
    t = LD(spec.beta) + LD(spec.alpha) * np.sqrt(k.astype(LD))
    frac = t - floor_int(t)
    dist = np.minimum(frac, 1 - frac)
    return int(np.count_nonzero(dist < LD(spec.delta)))


# ---------------------------------------------------------------------------
# exact-zero counting inside boxes

def _equal_sums(left: list[np.ndarray], right: list[np.ndarray]) -> int:
    """Number of pairs (one element from each left array, one from each
    right array) whose left sum equals their right sum."""
    h1, h2 = (np.bincount(reduce(np.add.outer, parts).ravel())
              for parts in (left, right))
    n = min(len(h1), len(h2))
    return int(np.dot(h1[:n], h2[:n]))


def _zero_count_four(boxes: tuple[int, int, int, int], n_left: int,
                     r: int = 2) -> tuple[int, int]:
    """Number of tuples in the dyadic boxes whose first n_left r-th roots
    sum exactly to the sum of the others, and (two roots a side) the number
    of trivial pairings among them.

    Write each n = a^r q with q r-power-free.  Roots over distinct kernels
    are linearly independent, so either all four kernels coincide and the
    parts a balance, or (two roots a side) the kernels on the left differ
    and the right side is the left side reordered."""
    core, root = core_tables(2 * max(boxes), r)
    by_core = []
    for R in boxes:
        c, a = core[R + 1:2 * R + 1], root[R + 1:2 * R + 1]
        order = np.argsort(c, kind="stable")
        q, first = np.unique(c[order], return_index=True)
        by_core.append(dict(zip(q.tolist(), np.split(a[order], first[1:]))))
    total = sum(_equal_sums([p[q] for p in by_core[:n_left]],
                            [p[q] for p in by_core[n_left:]])
                for q in set.intersection(*map(set, by_core)))
    if n_left != 2:
        return total, 0
    # the trivial pairings (k, l) = (m, n) and (k, l) = (n, m): m and n range
    # over two box intersections, and on distinct cores they are all the zeros
    R1, R2, R3, R4 = boxes
    pairings = 0
    for r_k, r_l in ((R3, R4), (R4, R3)):
        c1 = core[max(R1, r_k) + 1:min(2 * R1, 2 * r_k) + 1]
        c2 = core[max(R2, r_l) + 1:min(2 * R2, 2 * r_l) + 1]
        pairings += len(c1) * len(c2)
        total += len(c1) * len(c2) - _equal_sums([c1], [c2])
    # m = n = k = l is both pairings
    return total, pairings - max(0, min(2 * R for R in boxes) - max(boxes))


# ---------------------------------------------------------------------------
# bounds and the public entry point

def _bounds(spec: BoxSpec) -> tuple[float, float | None]:
    d = float(spec.delta)
    if spec.form is SpacingForm.FOUR_ROOT_KTH:
        N = float(spec.M)
        return N * N * N * N * d + N * N, None    # float ** would raise, * gives inf
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
    """Exact tuple count for the form's inequality (exact zeros included but
    for four-root-plus), with the epsilon-free bound value(s) and the ratio."""
    form, delta = spec.form, LD(spec.delta)
    M, Mp, K, L = spec.M, spec.Mp, spec.K, spec.L
    outer = {SpacingForm.NEAR_INTEGER: (K,), SpacingForm.THREE_ROOT: (M, Mp),
             SpacingForm.FOUR_ROOT_MINUS: (M, Mp, L),
             SpacingForm.FOUR_ROOT_PLUS: (M, Mp, K),
             SpacingForm.FOUR_ROOT_KTH: (M, M, M)}[form]
    volume = math.prod(outer)
    if volume > WORK_BUDGET:
        raise BudgetError(f"box volume {volume} exceeds budget {WORK_BUDGET}")
    sides = sum(v for v in (M, Mp, K, L) if v is not None)
    check_memory(_BOX_BYTES_PER_SIDE * sides
                 + _BOX_BYTES_PER_BLOCK * math.prod(outer[1:]), f"{form.value} box")
    trivial = 0
    zeros: int | None = None
    if form is SpacingForm.NEAR_INTEGER:
        count = _count_near_integer(spec)
    elif form is SpacingForm.FOUR_ROOT_KTH:
        inv = LD(1) / LD(spec.root_k)
        b = np.arange(M + 1, 2 * M + 1, dtype=np.int64).astype(LD) ** inv
        count = _count_solved((b, b[:, None], -b[None, :]), delta * LD(M) ** inv,
                              M + 1, 2 * M, spec.root_k, strict=True, paired=True)
        zeros, _ = _zero_count_four((M, M, M, M), 2, spec.root_k)
    elif form is SpacingForm.THREE_ROOT:
        count = _count_solved((_sqrt_box(M), _sqrt_box(Mp)), delta * np.sqrt(LD(M)),
                              1, np.inf, 2, strict=False, paired=M == Mp)
        # k is unconstrained and exact hits always satisfy the inequality, so
        # the zero count is the number of same-core pairs (m, n)
        core, _ = core_tables(2 * max(M, Mp))
        zeros = _equal_sums([core[M + 1:2 * M + 1]], [core[Mp + 1:2 * Mp + 1]])
    else:
        if form is SpacingForm.FOUR_ROOT_MINUS:
            last, inner, n_left = -_sqrt_box(L), K, 2
        else:
            last, inner, n_left = _sqrt_box(K), L, 3
        count = _count_solved((_sqrt_box(M), _sqrt_box(Mp)[:, None], last[None, :]),
                              delta * np.sqrt(LD(K)), inner + 1, 2 * inner, 2,
                              strict=False, paired=M == Mp)
        zeros, trivial = _zero_count_four((M, Mp, K, L), n_left)
        if form is SpacingForm.FOUR_ROOT_PLUS:
            count -= zeros
    primary, secondary = _bounds(spec)
    bound_value = primary if secondary is None else min(primary, secondary)
    return SpacingCount(count=count, trivial_count=trivial,
                        exact_zero_count=zeros, bound_primary=primary,
                        bound_secondary=secondary, bound_value=bound_value,
                        ratio=count / bound_value)


# ---------------------------------------------------------------------------
# minimal scaled gaps

# Peak bytes of a gap search (tracemalloc): 266-282 per pair of its largest block, 48 per limit
_GAP_BYTES_PER_PAIR = 300
_GAP_BYTES_PER_LIMIT = 50


def _pairs(side: int):
    """Pairs (m, n), 1 <= m <= n <= side, n-major, in numerics.BLOCK blocks."""
    tri = np.cumsum(np.arange(side + 1))    # pairs with n < j: tri[j - 1]
    for lo in range(0, int(tri[side]), numerics.BLOCK):
        pos = np.arange(lo, min(lo + numerics.BLOCK, tri[side]))
        n = np.searchsorted(tri, pos, side="right")
        yield pos - tri[n - 1] + 1, n


def _screen_bound(roots: float, weight: float) -> float:
    """Bound on |float64 gap - longdouble gap| where the |roots|, sqrt v
    included, sum to at most A = roots and the weight to at most W.  With
    u = 2^-53 the gap is |d| W, d = s - sqrt v, |d| <= A; longdouble is within
    9 2^-64 A W of it.  float64 rounds s, sqrt v and d (|d_F - d| <= 2u A),
    then sqrt(m n), scale, sqrt v and two products: 7u A W; twice that
    covers rounding A, W and the cuts."""
    return 16 * 2.0 ** -53 * roots * weight


def _screen(m, n, s, scale: int, exact, sqrt64: np.ndarray):
    """A block's candidates v (5 x pairs), float64 gaps (inf at exact zeros), bound."""
    # the slots 1, floor(s^2) - 1, floor(s^2), floor(s^2) + 1 and limit (the
    # -+2^62 offsets clip to 1 and limit); a float64 floor could cross an
    # integer just where minima lie
    v = floor_int(np.where(s > 0, s * s, LD(0))) + [[-1 << 62], [-1], [0], [1], [1 << 62]]
    np.clip(v, 1, len(sqrt64) - 1, out=v)
    weight = np.sqrt((m * n).astype(np.float64)) * scale
    root_v = sqrt64[v]
    gap = s.astype(np.float64) - root_v
    np.abs(gap, out=gap)
    gap *= weight
    gap *= root_v
    gap[v == exact] = np.inf
    return v, gap, _screen_bound(4 * sqrt64[-1], weight.max() * sqrt64[-1])


def _min_gap(blocks, limit: int, volume: int):
    """(gap, o, slot, m, n, v) of the least |s - sqrt v| * scale * sqrt(m n v)
    over v in [1, limit] and the pairs of blocks(sqrt_tab), which yields o, m,
    n, the sums s, the scale and the v where each sum vanishes (-1: none); inf
    and zeros if all vanish.  volume counts the tuples (o, m, n).  In v,
    |s - sqrt v| * sqrt v rises on [1, s^2/4], falls to s^2 and rises beyond,
    so only 5 slots (_screen) can attain the minimum.  Those within two screen
    bounds of the block's least float64 gap and one of the best so far are
    evaluated in longdouble; the first minimum in (o, slot, m, n) order wins."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if volume > WORK_BUDGET:
        raise BudgetError(f"search volume {volume} exceeds budget {WORK_BUDGET}")
    check_memory(_GAP_BYTES_PER_PAIR * min(numerics.BLOCK, limit * (limit + 1) // 2)
                 + _GAP_BYTES_PER_LIMIT * limit, f"gap search up to {limit}")
    sqrt_tab = np.sqrt(np.arange(limit + 1).astype(LD))
    sqrt64 = np.sqrt(np.arange(limit + 1, dtype=np.float64))
    best = (LD(np.inf), 0, 0, 0, 0, 0)
    for o, m, n, s, scale, exact in blocks(sqrt_tab):
        v, gap, bound = _screen(m, n, s, scale, exact, sqrt64)
        low, cut = gap.min(), float(best[0]) + bound
        if low == np.inf or low > cut:
            continue
        slot, i = np.nonzero(gap <= min(low + 2 * bound, cut))
        v, m, n = v[slot, i], m[i], n[i]
        exact_gap = np.abs(s[i] - sqrt_tab[v]) * LD(scale) * np.sqrt((m * n * v).astype(LD))
        best = min(best, *zip(exact_gap, np.broadcast_to(o, s.shape)[i].tolist(),
                              slot.tolist(), m.tolist(), n.tolist(), v.tolist()))
    return best


def min_gap_three(limit: int) -> GapResult:
    """Minimum of |sqrt m + sqrt n - sqrt k| * sqrt(mnk) over m, n, k <= limit
    with a nonzero combination; reports a minimizing triple with m <= n.  The
    solved variable is k; an exact hit k = s^2 needs m and n of one core."""
    def blocks(sqrt_tab):
        core, root = core_tables(limit)
        for m, n in _pairs(limit):
            yield m, m, n, sqrt_tab[m] + sqrt_tab[n], 1, \
                np.where(core[m] == core[n], (root[m] + root[n]) ** 2 * core[m], -1)

    best, _, _, m, n, k = _min_gap(blocks, limit, limit * limit)
    return GapResult(min_scaled_gap=float(best), argmin=(m, n, k))


def min_gap_four(limit: int, sign: int = 1) -> GapResult:
    """Minimum of |sqrt m + sqrt n + sign*sqrt k - sqrt l| * k^2 * sqrt(mnl)
    over m, n <= k <= limit, l <= limit, nonzero combinations only; reports
    a minimizing quadruple with m <= n.

    The solved variable is l.  By independence of square roots over distinct
    cores each (m, n, k) has at most one exact l: (a_m + a_n + sign*a_k)^2 q
    when all three share the core q, and for sign -1 also n when m = k and
    m when n = k.  The sum, that l and m n l are symmetric in m and n to the
    bit, and a mirror pair comes later, so only m <= n is searched."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")

    def blocks(sqrt_tab):
        core, root = core_tables(limit)
        for k in range(1, limit + 1):
            for m, n in _pairs(k):
                a = root[m] + root[n] + sign * root[k]
                exact = np.where((core[m] == core[n]) & (core[m] == core[k]) & (a > 0),
                                 a * a * core[k], -1)
                if sign < 0:
                    exact = np.where(m == k, n, np.where(n == k, m, exact))
                yield k, m, n, sqrt_tab[m] + sqrt_tab[n] + LD(sign) * sqrt_tab[k], \
                    k * k, exact

    best, k, _, m, n, lv = _min_gap(blocks, limit, limit**3)
    return GapResult(min_scaled_gap=float(best), argmin=(m, n, k, lv))
