"""Brute-force counting and gap measurement for square-root spacing
inequalities, plus exact enumeration of square-root identities.

Conventions used throughout:

  * A dyadic box parameter R means the integer range (R, 2R].
  * Exact vanishing of a signed combination of roots is decided by integer
    arithmetic on the core table, n = a^r q with q r-power-free: roots over
    distinct kernels are linearly independent, so a combination vanishes iff
    its per-kernel sums of parts do (a box's exact zeros are one join on
    (q, sum of parts)).  No floating tolerance ever classifies a tuple as
    exactly zero, and a root-sum box whose threshold t is under 2^-56 times
    its largest root sum, where rounding would, is rejected.
  * Threshold comparisons (|combination| vs delta * scale) are decided in
    80-bit extended precision by one rule, _ends: with the sum s of all
    roots but one formed in one fixed order, the integer v left out counts
    where it lies between max(s - t, 0)^r and max(s + t, 0)^r (strictly for
    k-th root), so that order's longdouble rounding decides exact ties.
    Each root-sum count and gap search screens in float64 and leaves to
    longdouble only what lies within the one band _band of the decision
    (_count_solved, _count_pairs, _min_gap).
  * Bound values evaluate the reference bound shapes with the epsilon term
    dropped and the implied constant set to 1, so measured ratios carry all
    the constant information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import numerics
from .errors import BudgetError
from .numerics import NamedEnum, floor_int
from .sieves import check_memory, core_tables

LD = np.longdouble

# the most entries a count sorts plus streams, or tuples a gap search scans
WORK_BUDGET = 10**10
# Peak bytes of count_box (tracemalloc, each form): 64-286 per unit of the
# sides summed (sides to 1e6), 34-63 of it the exact-zero join (sides 1024
# to 4096); 16-31.4 per entry of a sorted pair table (tables to 2.25e6); per
# element of a streamed block, 42 for a block of pair sums (blocks to 1e6)
# and 28-30 for a block of three-root sums in its workspace (boxes 256^2 to 8192^2).
_BOX_BYTES_PER_SIDE = 290
_BOX_BYTES_PER_TABLE = 33
_BOX_BYTES_PER_BLOCK = 100


class SpacingForm(NamedEnum):
    FOUR_ROOT_KTH = "four-root-kth"    # |n1^(1/r)+n2^(1/r)-n3^(1/r)-n4^(1/r)| < delta*N^(1/r)
    NEAR_INTEGER = "near-integer"      # ||beta + alpha*sqrt(k)|| < delta
    THREE_ROOT = "three-root"          # |sqrt m + sqrt n - sqrt k| <= delta*sqrt(M)
    FOUR_ROOT_MINUS = "four-root-minus"  # |sqrt m + sqrt n - sqrt k - sqrt l| <= delta*sqrt(K)
    FOUR_ROOT_PLUS = "four-root-plus"    # 0 < |sqrt m + sqrt n + sqrt k - sqrt l| <= delta*sqrt(K)


# each form's box sides, as the shapes count_box sorts and streams: K values,
# or (rows, columns) of sums
_SHAPES = {SpacingForm.NEAR_INTEGER: (("K",),), SpacingForm.THREE_ROOT: (("M", "Mp"),),
           SpacingForm.FOUR_ROOT_MINUS: (("M", "Mp"), ("L", "K")),
           SpacingForm.FOUR_ROOT_PLUS: (("M", "Mp"), ("K", "L")),
           SpacingForm.FOUR_ROOT_KTH: (("M", "M"), ("M", "M"))}


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
        reads = {SpacingForm.FOUR_ROOT_KTH: {"root_k"}, SpacingForm.NEAR_INTEGER: {"alpha", "beta"}}
        unread = [f.name for f in fields(self)[2:] if getattr(self, f.name) != f.default
                  and f.name not in reads.get(self.form, set()).union(*_SHAPES[self.form])]
        if unread:
            raise ValueError(f"form {self.form.value} does not read {', '.join(unread)}")
        for name in (name for shape in _SHAPES[self.form] for name in shape):
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
            # _count_solved's band around the ends must stay under 2^-5
            top = math.sqrt(2 * self.M) + math.sqrt(2 * self.Mp) \
                + self.delta * math.sqrt(self.M)
            if _band(top * top) >= 2.0 ** -5:
                raise ValueError(f"(sqrt(2M) + sqrt(2Mp) + delta*sqrt(M))^2 = {top * top:.3g} "
                                 f"leaves too few fractional bits for an exact count")
        if self.form is not SpacingForm.NEAR_INTEGER:
            # t must clear 32 times the rule's rounding bound 8 2^-64 (A + t)
            # (_count_four), A the largest root sum, or rounding decides exact zeros
            top = sum((2.0 * getattr(self, name)) ** (1 / self.root_k)
                      for shape in _SHAPES[self.form] for name in shape)
            side = self.K if self.form in (SpacingForm.FOUR_ROOT_MINUS,
                                           SpacingForm.FOUR_ROOT_PLUS) else self.M
            if not self.delta * side ** (1 / self.root_k) > 2.0 ** -56 * top:
                raise ValueError(f"delta {self.delta} puts the threshold under 2^-56 times "
                                 f"the largest root sum {top:.3g}: rounding decides zeros")
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

def _ragged(starts, sizes) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + sizes[i] - 1, concatenated."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1] if ends.size else 0)


# Peak memory of enumerate_exact_triples per row: a, q, s and the columns
# beside the stacked rows, or the rows, their sort key and order and the
# sorted copy.  Measured 72 bytes (tracemalloc, fresh process, limits 1e4-1e6).
_TRIPLE_BYTES_PER_ROW = 90


def enumerate_exact_triples(limit: int) -> np.ndarray:
    """All ordered triples (m, n, k), components <= limit, with
    sqrt(m) + sqrt(n) = sqrt(k), as a lexicographically sorted (N, 3)
    integer array.

    Each is listed under its largest entry k = s^2 q, q = core[k] squarefree:
    (a^2 q, (s - a)^2 q, k) for 1 <= a < s, so s - 1 rows for each k.
    """
    q, s = core_tables(max(limit, 0))
    q, s = q[s >= 2], s[s >= 2]    # core[k] and root[k] of each k with s >= 2
    check_memory(_TRIPLE_BYTES_PER_ROW * int(np.sum(s - 1)), f"triples up to {limit}")
    a = _ragged(1, s - 1)    # a = 1 .. s - 1 for each k
    q, s = np.repeat(q, s - 1), np.repeat(s, s - 1)
    rows = np.stack([a * a * q, (s - a) ** 2 * q, s * s * q], axis=1)
    del a, q, s
    return rows[np.argsort(rows[:, 0] * (limit + 1) + rows[:, 1])]    # (m, n) fixes k


# Peak memory of enumerate_exact_quadruples per pair (m, n) <= limit: the
# rows, about two a pair, each pair's first row and its swapped (k, l).
# Measured 88.9-90.2 bytes (tracemalloc, fresh process, limits 300-2000).
_QUADRUPLE_BYTES_PER_PAIR = 110


def enumerate_exact_quadruples(limit: int) -> np.ndarray:
    """All ordered quadruples (m, n, k, l), components <= limit, with
    sqrt(m) + sqrt(n) = sqrt(k) + sqrt(l), as a lexicographically sorted
    (N, 4) integer array.

    By independence of square roots of distinct squarefree numbers, a pair
    (m, n) of distinct cores has the rows (m, n, min, max), (m, n, max, min),
    and a pair (a^2 q, b^2 q) of one core q a row (m, n, c^2 q, (s - c)^2 q)
    for each c in [1, s) with both entries <= limit, s = a + b.
    """
    side = max(limit, 0)
    check_memory(_QUADRUPLE_BYTES_PER_PAIR * side * side, f"quadruples up to {limit}")
    core, root = (a[1:] for a in core_tables(side))    # of 1 .. side
    # pair p is (m, n) = (p // side + 1, p % side + 1); same-core ones' c in [low, low + size)
    same = np.flatnonzero(core[:, None] == core)
    m, n = np.divmod(same, side)
    q, s = core[m], root[m] + root[n]
    top = np.bincount(core)[q]    # c^2 q <= side for c <= top
    low = np.maximum(s - top, 1)
    size = np.minimum(s - 1, top) - low + 1
    offset = np.r_[0, np.full(side * side, 2)]    # 0, then each pair's rows
    offset[same + 1] = size
    np.cumsum(offset, out=offset)    # the first row of each pair, and the total
    rows = np.zeros((offset[-1], 4), dtype=np.int64)
    m, n, k, l = rows.T
    # m and n, each a sum of steps at the first rows of pairs (of each m for m)
    m[offset[:-1:max(side, 1)]] = 1
    n[offset[:-1]] = 1
    n[offset[side:-1:max(side, 1)]] = 1 - side
    np.cumsum(rows[:, :2], axis=0, out=rows[:, :2])
    np.maximum(m, n, out=k)
    np.minimum(m, n, out=l)
    k[offset[:-1]], l[offset[:-1]] = l[offset[:-1]], k[offset[:-1]]    # first rows (min, max)
    at, c = _ragged(offset[same], size), _ragged(low, size)
    q, s = np.repeat(q, size), np.repeat(s, size)
    k[at], l[at] = c * c * q, (s - c) ** 2 * q
    return rows


# ---------------------------------------------------------------------------
# three-root counting with a solved inner variable

def _count_solved(x, y, t) -> int:
    """Number of (m, n, k), k >= 1, with |x_m + y_n - sqrt k| <= t: k fills
    the integers between the _ends of s = x_m + y_n, formed in float64 for
    blocks of numerics.rows(y.size) rows of sums.  With u = 2^-53 and A the
    largest sum: float64 roots round longdouble ones good to 2^-64, so s -+ t
    is within 3u (A + t) of the rule's and an end, squared and rounded, within
    7u (A + t)^2 (7.1u with the rule's own rounding).  Only sums with an end
    within _band((A + t)^2) of an integer go to _ends.  That band is under
    2^-5 (BoxSpec), so a lower end at or below 1/2 gives k >= 1 on both
    routes and is not tested.  Every block reuses one workspace."""
    x64, y64, t64 = x.astype(np.float64), y.astype(np.float64), float(t)
    band = _band((float(x[-1] + y[-1]) + t64) ** 2)
    total, step = 0, numerics.rows(y.size)
    # the ends, an end's distance to the nearest integer and two masks
    work = np.empty((3, min(step, x.size), y.size))
    masks = np.empty((2, *work.shape[1:]), dtype=bool)
    for r0 in range(0, x.size, step):
        lo, hi, off = work[:, :x.size - r0]
        near, low = masks[:, :x.size - r0]
        _ends(np.add.outer(x64[r0:r0 + step], y64, out=hi), t64, 2, out=(lo, hi))
        np.less_equal(_off_integer(hi, off), band, out=near)
        np.less_equal(_off_integer(lo, off), band, out=low)
        near |= low & (lo > 0.5)
        i, j = np.nonzero(near)
        lo_ld, hi_ld = _ends(x[r0 + i] + y[j], t, 2)
        lo[i, j], hi[i, j] = np.ceil(lo_ld), np.floor(hi_ld)    # exact in float64
        np.floor(hi, out=hi)
        hi -= np.maximum(np.ceil(lo, out=lo), 1, out=lo)
        hi += 1
        total += int(np.sum(np.maximum(hi, 0, out=hi), dtype=np.int64))
    return total


def _off_integer(a, out):
    """|a - rint(a)|, written to out."""
    np.subtract(a, np.rint(a, out=out), out=out)
    return np.abs(out, out=out)


def _sqrt_box(R: int) -> np.ndarray:
    return np.sqrt(np.arange(R + 1, 2 * R + 1, dtype=np.int64).astype(LD))


def _count_near_integer(spec: BoxSpec) -> int:
    t = LD(spec.beta) + LD(spec.alpha) * _sqrt_box(spec.K)
    frac = t - floor_int(t)
    dist = np.minimum(frac, 1 - frac)
    return int(np.count_nonzero(dist < LD(spec.delta)))


# ---------------------------------------------------------------------------
# four-root counting by sorted pair sums

def _band(size: float) -> float:
    """16u size, u = 2^-53: the one float64 screen band.  Each caller proves
    its float64 values within a few u size of the longdouble ones, and only
    those within the band of a decision go to longdouble."""
    return 16 * 2.0 ** -53 * size


def _ends(s, t, r: int, out=(None, None)):
    """max(s - t, 0)^r and max(s + t, 0)^r in longdouble: the one threshold
    rule.  The integer left out of the sums s, each formed in one fixed
    order, counts where it lies between the two (strictly for k-th root).
    out, if given, names the two arrays written; the second may be s."""
    lo, hi = np.subtract(s, t, out=out[0]), np.add(s, t, out=out[1])
    np.maximum(lo, 0, out=lo)
    np.maximum(hi, 0, out=hi)
    with np.errstate(over="ignore"):    # an infinite hi^r compares as it should
        lo **= r
        hi **= r
    return lo, hi


def _count_pairs(p, q, t: float, band: float, decide) -> int:
    """Number of (i, j, k, l) with |P[i, j] - Q[k, l]| within t, where
    P = p[0][:, None] + p[1] and Q = q[0][:, None] + q[1] in float64 have
    sorted rows (p[1] and q[1] ascending).

    A tuple whose float64 |P - Q| lies more than band inside t counts, one
    more than band outside does not, and decide(i, j, k, l) settles the
    rest; an infinite t counts all.  The smaller table is sorted once and
    the larger streamed against it in blocks of whole rows: two searchsorted
    calls a block find each entry's partners within t + band, and the few
    entries whose first or last partner lies in a band are searched again
    for the ends of both bands."""
    swap = p[0].size * p[1].size > q[0].size * q[1].size
    (sa, sb), (ra, rb) = (q, p) if swap else (p, q)
    if t == np.inf:
        return sa.size * sb.size * ra.size * rb.size
    table = np.add.outer(sa, sb).ravel()
    order = np.argsort(table)
    # the sorted table between -inf and +inf guards: table[i] is ext[i + 1]
    ext = np.concatenate([[-np.inf], table[order], [np.inf]])
    table = ext[1:-1]
    near, far = max(t - band, 0.0), t + band
    total = 0
    step = numerics.rows(rb.size)
    for r0 in range(0, ra.size, step):
        keys = np.add.outer(ra[r0:r0 + step], rb).ravel()
        lo = np.searchsorted(table, keys - far)
        hi = np.searchsorted(table, keys + far)
        total += int(np.sum(hi)) - int(np.sum(lo))
        # the first partner table[lo] and the last table[hi - 1]
        edge = ext[1:][lo] < keys - near
        edge |= ext[hi] >= keys + near
        at = np.flatnonzero(edge)
        if not at.size:
            continue
        # the low band [ends[0], ends[1]) and the high band [ends[2], ends[3])
        ends = np.searchsorted(table, keys[at] + [[-far], [-near], [near], [far]])
        start, size = ends[::2].ravel(), (ends[1::2] - ends[::2]).ravel()
        total -= int(np.sum(size))
        i, j = np.divmod(order[_ragged(start, size)], sb.size)
        k, l = np.divmod(np.repeat(np.tile(at, 2), size) + r0 * rb.size, rb.size)
        total += int(np.count_nonzero(decide(k, l, i, j) if swap else decide(i, j, k, l)))
    return total


def _pair_need(*shapes: tuple[int, int]) -> tuple[int, int]:
    """(entries of the sorted table, entries of one streamed block) when a
    count streams the largest of these (rows, columns) shapes of sums in
    blocks of numerics.rows(columns) whole rows, after sorting the other, if any."""
    *small, (rows, cols) = sorted(shapes, key=math.prod)
    return sum(map(math.prod, small)), min(numerics.rows(cols), rows) * cols


def _count_four(spec: BoxSpec) -> tuple[int, int, int]:
    """(count, exact zeros, trivial pairings) of a four-root box.

    The count is of the tuples with |P - Q| within t, P = x_m + x_n and
    Q = a + b: (a, b) = (x_l, x_k) for minus and k-th root, (-x_k, x_l) for
    plus.  A tuple in the band _band(A + t), A the sum of the four largest
    |roots|, is decided by _ends: s = (x_m + x_n) - a against the integer
    under b.  With u = 2^-53: each float64 root rounds a longdouble root good
    to 2^-60 and each table entry rounds one sum, so float64 |P - Q| is within
    3u A of the exact value; a search key q +- w rounds t, w and the sum,
    u (A + 3t + 2B), B the band; the rule, rounding s, s +- t and (s +- t)^r,
    decides |P - Q| against t within 8 2^-64 (A + t).  The band covers the
    total, under 4.1u A + 3.1u t + 2u B, three times over."""
    form, M, r = spec.form, spec.M, spec.root_k
    kth, plus = form is SpacingForm.FOUR_ROOT_KTH, form is SpacingForm.FOUR_ROOT_PLUS
    Mp, K, L = (M, M, M) if kth else (spec.Mp, spec.K, spec.L)
    # first, so that no root table is held while the zeros are counted
    zeros, trivial = _zero_count_four((M, Mp, K, L), 3 if plus else 2, r)
    if kth:
        inv = LD(1) / LD(r)
        xm = xn = xk = xl = np.arange(M + 1, 2 * M + 1, dtype=np.int64).astype(LD) ** inv
        t, trivial = LD(spec.delta) * LD(M) ** inv, 0
    else:
        xm, xn, xk, xl = map(_sqrt_box, (M, Mp, K, L))
        t = LD(spec.delta) * np.sqrt(LD(K))
    a, b, v0 = (-xk, xl, L + 1) if plus else (xl, xk, K + 1)

    def decide(i, j, k, l):
        lo, hi = _ends(xm[i] + xn[j] - a[k], t, r)
        v = v0 + l
        return (lo < v) & (v < hi) if kth else (lo <= v) & (v <= hi)

    top = float(xm[-1] + xn[-1] + xk[-1] + xl[-1])
    p64, q64 = ([x.astype(np.float64) for x in pair] for pair in ((xm, xn), (a, b)))
    count = _count_pairs(p64, q64, float(t), _band(top + float(t)), decide)
    return count - zeros if plus else count, zeros, trivial


# ---------------------------------------------------------------------------
# exact-zero counting inside boxes

def _equal_sums(left: np.ndarray, right: np.ndarray) -> int:
    """Number of pairs (i, j) with left[i] == right[j], in nonnegative integers."""
    h1, h2 = np.bincount(left), np.bincount(right)
    return int(np.dot(h1[:len(h2)], h2[:len(h1)]))


def _zero_count_four(boxes: tuple[int, int, int, int], n_left: int,
                     r: int = 2) -> tuple[int, int]:
    """Number of tuples in the dyadic boxes whose first n_left r-th roots
    sum exactly to the sum of the others, and (two roots a side) the number
    of trivial pairings among them.

    Write each n = a^r q with q r-power-free.  Roots over distinct kernels
    are linearly independent, so either all four kernels coincide and the
    parts a balance, or (two roots a side) the kernels on the left differ
    and the right side is the left side reordered.  The first are one join
    of keys offset[q] + a_1 + a_2 and offset[q] + a_3 + a_4 (a_4 - a_3 for
    three roots on the left) over the kernels q all four boxes hold."""
    core = core_tables(2 * max(boxes), r)[0]
    cut = 2 * min(boxes) + 1    # only kernels q < cut lie in all four boxes
    # c[x][q], the n <= x of kernel q: those n are a^r q for a = 1, 2, ...,
    # so box (R, 2R] holds the parts a of q in (c[R][q], c[2R][q]]
    c = {x: np.bincount(core[1:x + 1], minlength=cut)[:cut]
         for x in {*boxes, *(2 * R for R in boxes)}}
    shared = np.flatnonzero(np.minimum.reduce([c[2 * R] - c[R] for R in boxes]))
    top = c[2 * max(boxes)][shared]    # the largest part of q
    offset = np.cumsum(3 * top + 1) - 2 * top - 1    # keys of q in [offset - top, offset + 2 top]

    def keys(*sides):
        q, key = shared, offset
        for R, sign in sides:
            size = c[2 * R][q] - c[R][q]
            key, q = np.repeat(key, size) + sign * _ragged(c[R][q] + 1, size), np.repeat(q, size)
        return key

    R1, R2, R3, R4 = boxes
    total = _equal_sums(keys((R1, 1), (R2, 1)), keys((R3, 1 if n_left == 2 else -1), (R4, 1)))
    if n_left != 2:
        return total, 0
    # the trivial pairings (k, l) = (m, n) and (k, l) = (n, m): m and n range
    # over two box intersections, and on distinct cores they are all the zeros
    pairings = 0
    for r_k, r_l in ((R3, R4), (R4, R3)):
        c1 = core[max(R1, r_k) + 1:min(2 * R1, 2 * r_k) + 1]
        c2 = core[max(R2, r_l) + 1:min(2 * R2, 2 * r_l) + 1]
        pairings += len(c1) * len(c2)
        total += len(c1) * len(c2) - _equal_sums(c1, c2)
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
    shapes = [tuple(getattr(spec, name) for name in shape) for shape in _SHAPES[form]]
    work = sum(map(math.prod, shapes))
    if work > WORK_BUDGET:
        raise BudgetError(f"box work {work} (entries sorted plus streamed) "
                          f"exceeds budget {WORK_BUDGET}")
    sides = sum(v for v in (M, Mp, K, L) if v is not None)
    table, block = (0, 0) if form is SpacingForm.NEAR_INTEGER else _pair_need(*shapes)
    check_memory(_BOX_BYTES_PER_SIDE * sides + _BOX_BYTES_PER_TABLE * table
                 + _BOX_BYTES_PER_BLOCK * block, f"{form.value} box")
    trivial, zeros = 0, None
    if form is SpacingForm.NEAR_INTEGER:
        count = _count_near_integer(spec)
    elif form is SpacingForm.THREE_ROOT:
        count = _count_solved(_sqrt_box(M), _sqrt_box(Mp), delta * np.sqrt(LD(M)))
        # k is unconstrained and exact hits always satisfy the inequality, so
        # the zero count is the number of same-core pairs (m, n)
        core, _ = core_tables(2 * max(M, Mp))
        zeros = _equal_sums(core[M + 1:2 * M + 1], core[Mp + 1:2 * Mp + 1])
    else:
        count, zeros, trivial = _count_four(spec)
    primary, secondary = _bounds(spec)
    bound_value = primary if secondary is None else min(primary, secondary)
    return SpacingCount(count=count, trivial_count=trivial,
                        exact_zero_count=zeros, bound_primary=primary,
                        bound_secondary=secondary, bound_value=bound_value,
                        ratio=count / bound_value)


# ---------------------------------------------------------------------------
# minimal scaled gaps

# Peak bytes of a gap search (tracemalloc, fresh process): per pair of its
# largest block 72-76 for three-root (limits 300-20000) and 4-43 for
# four-root (limits 40-1000) besides 40 per pair of the pair table that
# four-root holds throughout (m, n, two roots and their product while it is
# built); 48 per limit
_GAP_BYTES_PER_PAIR = 100
_GAP_BYTES_PER_TABLE = 40
_GAP_BYTES_PER_LIMIT = 50


def _pairs(side: int, size: int):
    """Pairs (m, n), 1 <= m <= n <= side, n-major, in blocks of size."""
    total = side * (side + 1) // 2
    for lo in range(0, total, size):
        hi = min(lo + size, total)
        # column n numbers its pairs from p = n (n - 1) / 2, where isqrt(8p + 1) = 2n - 1
        n = np.arange((math.isqrt(8 * lo + 1) + 1) // 2, (math.isqrt(8 * hi - 7) + 3) // 2)
        start = n * (n - 1) // 2
        count = np.minimum(start + n, hi) - np.maximum(start, lo)
        yield _ragged(np.maximum(start, lo) - start + 1, count), np.repeat(n, count)


def _with_roots(m, n, sqrt64: np.ndarray):
    """The pair table (m, n, sqrt m + sqrt n, sqrt m sqrt n), roots in float64."""
    a, b = sqrt64[m], sqrt64[n]
    ab = a * b
    a += b
    return m, n, a, ab


def _floor(pairs, k, sign: int, scale, sqrt64: np.ndarray, hit=None):
    """A float64 lower bound on the longdouble gap |s - sqrt v| * scale *
    sqrt(m n v) of _min_gap for each pair of the table pairs (_with_roots),
    s = sqrt m + sqrt n + sign sqrt k, at every v in [1, limit] but, where
    hit is given, the pair's exact hit v = hit >= 0.  The |roots|, sqrt v
    included, sum to at most A = 4 sqrt(limit) >= 4.  For s >= 0,
    |s - sqrt v| sqrt v = |s^2 - v| sqrt v / (s + sqrt v)
    >= dist(s^2, Z) / (s + 1); with |s| for s the same holds for s < 0, and
    |s - sqrt v| sqrt v >= 1 - s holds for every s.  An exact hit has
    s = sqrt(hit) >= 1 and s^2 = hit an integer, so |s^2 - v| >= 1 at every
    other integer v, and 1 stands in for dist(s^2, Z).  With u = 2^-53 and
    in units of the weight w = scale sqrt(m n): float64 s is within 3u A of
    the longdouble s, so 1 - s and 1 / (1 + |s|) are too, and its square
    within 6u A^2 of s^2, whose distance to the nearest integer is then
    found exactly; rounding 1 - s or 1 + |s| and the quotient (at most 1/2),
    the allowance's difference, w and the product adds under 8u A <= 2u A^2.
    The longdouble gap rounds sqrt v, the difference and three products, so
    lies at most 2^-64 (A^2 + 5A) under either bound.  The allowance
    _band(A^2) = 16u A^2 covers the total, under 9u A^2, so the bound is at
    most the gap at every such v: without hit, a pair with an exact hit has
    dist(s^2, Z) = 0 and a bound below zero, the gap at its exact slot."""
    s = pairs[2] + sign * sqrt64[k]
    unit = s * s
    unit -= np.rint(unit)
    np.abs(unit, out=unit)
    if hit is not None:
        unit[hit >= 0] = 1
    unit /= 1 + np.abs(s)
    np.maximum(unit, np.subtract(1, s, out=s), out=unit)
    unit -= _band(16 * (len(sqrt64) - 1))
    w = pairs[3] * scale
    w *= unit
    return w


def _screen(m, n, s, scale: int, exact, sqrt64: np.ndarray):
    """A block's candidates v (5 x pairs), float64 gaps (inf at exact zeros)
    and their bound _band(A W) on |float64 gap - longdouble gap|, where the
    |roots|, sqrt v included, sum to at most A = 4 sqrt(limit) and the weight
    scale sqrt(m n v) to at most W = max(scale sqrt(m n)) sqrt(limit).  With
    u = 2^-53 the gap is |d| W, d = s - sqrt v, |d| <= A; longdouble is
    within 9 2^-64 A W of it.  float64 rounds s, sqrt v and d
    (|d_F - d| <= 2u A), then sqrt(m n), scale, sqrt v and two products:
    7u A W; twice that covers rounding A, W and the cuts."""
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
    return v, gap, _band(4 * sqrt64[-1] * (weight.max() * sqrt64[-1]))


def _min_gap(blocks, exact, sign: int, limit: int, volume: int, table: int = 0):
    """(gap, o, slot, m, n, v) of the least |s - sqrt v| * scale * sqrt(m n v)
    over v in [1, limit] and the tuples (o, m, n) of blocks(sqrt64),
    s = sqrt m + sqrt n + sign sqrt k; inf and zeros if all vanish.  Each
    block is o (one number, or one per pair), its pair table (_with_roots),
    k and scale.  exact(core, root, m, n, k) gives the v where each s
    vanishes (-1: none), volume counts the tuples and table the pairs the
    search holds throughout.
    A tuple whose _floor lies above the best gap so far, rounded to float64
    and raised by _band of itself, cannot reach it and takes no longdouble
    work.  A tuple left with an exact hit, whose slot _screen leaves out, is
    bounded again by _floor without that slot, so the last block of a
    four-root k, which holds (k, k) for sign +1 and the column n = k for
    sign -1, all exact hits, is screened only if a tuple in it can still win.
    In v, |s - sqrt v| * sqrt v rises on [1, s^2/4], falls to s^2 and rises
    beyond, so only 5 slots (_screen) of each tuple left can attain the
    minimum.  Those within two screen bounds of the block's least float64 gap
    and one of the best so far are evaluated in longdouble; the first minimum
    in (o, slot, m, n) order wins."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if volume > WORK_BUDGET:
        raise BudgetError(f"search volume {volume} exceeds budget {WORK_BUDGET}")
    check_memory(_GAP_BYTES_PER_PAIR * min(numerics.BLOCK, limit * (limit + 1) // 2)
                 + _GAP_BYTES_PER_TABLE * table + _GAP_BYTES_PER_LIMIT * limit,
                 f"gap search up to {limit}")
    core, root = core_tables(limit)
    sqrt_tab = np.sqrt(np.arange(limit + 1).astype(LD))
    sqrt64 = np.sqrt(np.arange(limit + 1, dtype=np.float64))
    best, above = (LD(np.inf), 0, 0, 0, 0, 0), np.inf

    def take(o, pairs, keep):
        return o[keep] if np.ndim(o) else o, tuple(a[keep] for a in pairs)

    for o, pairs, k, scale in blocks(sqrt64):
        keep = np.flatnonzero(_floor(pairs, k, sign, scale, sqrt64) <= above)
        if keep.size:
            o, pairs = take(o, pairs, keep)
            hit = exact(core, root, pairs[0], pairs[1], k)
            keep = np.flatnonzero(_floor(pairs, k, sign, scale, sqrt64, hit) <= above)
        if not keep.size:
            continue
        (o, (m, n, _, _)), hit = take(o, pairs, keep), hit[keep]
        s = sqrt_tab[m] + sqrt_tab[n] + LD(sign) * sqrt_tab[k]
        v, gap, bound = _screen(m, n, s, scale, hit, sqrt64)
        low, cut = gap.min(), float(best[0]) + bound
        if low == np.inf or low > cut:
            continue
        slot, i = np.nonzero(gap <= min(low + 2 * bound, cut))
        v, m, n = v[slot, i], m[i], n[i]
        exact_gap = np.abs(s[i] - sqrt_tab[v]) * LD(scale) * np.sqrt((m * n * v).astype(LD))
        best = min(best, *zip(exact_gap, np.broadcast_to(o, s.shape)[i].tolist(),
                              slot.tolist(), m.tolist(), n.tolist(), v.tolist()))
        above = float(best[0])
        above += _band(above)
    return best


def min_gap_three(limit: int) -> GapResult:
    """Minimum of |sqrt m + sqrt n - sqrt k| * sqrt(mnk) over m, n, k <= limit
    with a nonzero combination; reports a minimizing triple with m <= n.  The
    solved variable is k; an exact hit k = s^2 needs m and n of one core."""
    def exact(core, root, m, n, _):
        return np.where(core[m] == core[n], (root[m] + root[n]) ** 2 * core[m], -1)

    def blocks(sqrt64):
        # the pair (1, 1) first, and again in its block: its gap, 0.464 from
        # limit 3, prunes most of the first block
        one = np.ones(1, dtype=np.int64)
        yield one, _with_roots(one, one, sqrt64), 0, 1
        for m, n in _pairs(limit, numerics.BLOCK):
            yield m, _with_roots(m, n, sqrt64), 0, 1

    best, _, _, m, n, k = _min_gap(blocks, exact, 1, limit, limit * limit)
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

    def exact(core, root, m, n, k):
        a = root[m] + root[n] + sign * root[k]
        hit = np.where((core[m] == core[n]) & (core[m] == core[k]) & (a > 0),
                       a * a * core[k], -1)
        return np.where(m == k, n, np.where(n == k, m, hit)) if sign < 0 else hit

    table = limit * (limit + 1) // 2

    def blocks(sqrt64):
        # the pairs of each k are a prefix of the n-major table up to limit
        pairs = _with_roots(*next(_pairs(limit, table)), sqrt64)
        for k in range(1, limit + 1):
            size = k * (k + 1) // 2
            for lo in range(0, size, numerics.BLOCK):
                yield k, tuple(a[lo:min(lo + numerics.BLOCK, size)] for a in pairs), k, k * k

    best, k, _, m, n, lv = _min_gap(blocks, exact, sign, limit, limit**3, table)
    return GapResult(min_scaled_gap=float(best), argmin=(m, n, k, lv))
