import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from divisorlab import errors, numerics, sieves, spacing
from divisorlab.sieves import core_families, core_tables
from divisorlab.spacing import (BoxSpec, SpacingForm, count_box,
                                enumerate_exact_quadruples,
                                enumerate_exact_triples, min_gap_four,
                                min_gap_three)

from oracles import (brute_count_four_root, brute_count_kth,
                     brute_count_three_root, brute_exact_quadruples,
                     brute_exact_triples, near_integer_count_by_sorting,
                     power_free_split, squarefree_core)


# ---------------------------------------------------------------------------
# cores and exact identities

def test_squarefree_core_small():
    assert squarefree_core(1) == (1, 1)
    assert squarefree_core(4) == (1, 2)
    assert squarefree_core(8) == (2, 2)
    assert squarefree_core(360) == (10, 6)     # 360 = 6^2 * 10
    assert squarefree_core(9999991) == (9999991, 1)   # prime


def test_core_tables_agree_with_trial_division():
    for r in (2, 3, 4, 5):
        core, root = core_tables(5000, r)
        for n in range(1, 5001):
            split = power_free_split(n, r)
            assert (core[n], root[n]) == split
            if r == 2:
                assert squarefree_core(n) == split
    with pytest.raises(ValueError):
        core_tables(10, 1)


def test_power_free_split():
    def split(n, r):
        core, root = core_tables(n, r)
        return int(core[n]), int(root[n])

    assert split(8, 3) == (1, 2)
    assert split(24, 3) == (3, 2)
    assert split(16, 4) == (1, 2)
    q, a = split(972, 5)                       # 972 = 2^2 * 3^5
    assert a ** 5 * q == 972 and q == 4
    assert power_free_split(972, 5) == (q, a)


def test_core_families_are_the_squarefree_cores_up_to_a_quarter():
    for limit in range(0, 200):
        q, amax = core_families(limit)
        want = [v for v in range(1, limit // 4 + 1) if squarefree_core(v)[0] == v]
        assert q.tolist() == want
        assert amax.tolist() == [math.isqrt(limit // v) for v in want]
        assert (amax >= 2).all()


def test_exact_triples_small_limits():
    for limit in (-1, 0, 1, 3):
        rows = enumerate_exact_triples(limit)
        assert rows.shape == (0, 3) and rows.dtype == np.int64
    assert enumerate_exact_triples(4).tolist() == [[1, 1, 4]]
    assert enumerate_exact_triples(8).tolist() == [[1, 1, 4], [2, 2, 8]]
    rows9 = enumerate_exact_triples(9).tolist()
    assert [1, 4, 9] in rows9 and [4, 1, 9] in rows9


def test_exact_triples_parametrization_is_exact():
    # every row is (a^2 q, b^2 q, (a+b)^2 q): one core, roots a + b = a+b
    core, root = core_tables(500)
    m, n, k = enumerate_exact_triples(500).T
    assert (core[m] == core[k]).all() and (core[n] == core[k]).all()
    assert (root[m] + root[n] == root[k]).all()


def test_exact_triples_vs_brute_force():
    # rows sorted and distinct, and as a set the oracle's
    rows = enumerate_exact_triples(300)
    assert rows.dtype == np.int64
    assert list(map(tuple, rows.tolist())) == sorted(brute_exact_triples(300))


def test_exact_quadruples_examples():
    rows = set(map(tuple, enumerate_exact_quadruples(9).tolist()))
    assert (1, 9, 4, 4) in rows              # 1 + 3 = 2 + 2
    assert (1, 1, 1, 1) in rows
    assert (2, 3, 2, 3) in rows and (2, 3, 3, 2) in rows   # trivial pairings


def test_exact_quadruples_vs_brute_force():
    # the empty case, singles only up to 3, the first common-core family at 4
    for limit in [*range(9), 60]:
        got = enumerate_exact_quadruples(limit)
        want = brute_exact_quadruples(limit)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert (got == want).all()


# ---------------------------------------------------------------------------
# box counting vs brute force

@pytest.mark.parametrize("M,Mp,delta", [
    (4, 4, 10.0),        # saturated threshold: every derived k qualifies
    (4, 4, 1e-2),
    (8, 6, 1e-3),
    (8, 8, 0.3),
])
def test_three_root_matches_brute_force(M, Mp, delta):
    spec = BoxSpec(form=SpacingForm.THREE_ROOT, M=M, Mp=Mp, delta=delta)
    assert count_box(spec).count == brute_count_three_root(M, Mp, delta)


def test_three_root_wide_threshold_matches_mpmath():
    # Mp*(sqrt(2M) + sqrt(2Mp) + delta*sqrt(M))^2 ~ 1.5e13, just under 2^44
    M, Mp, delta = 5, 3, 1e6
    with mpmath.workdps(60):
        t = mpmath.mpf(delta) * mpmath.sqrt(M)
        want = 0
        for m in range(M + 1, 2 * M + 1):
            for n in range(Mp + 1, 2 * Mp + 1):
                s = mpmath.sqrt(m) + mpmath.sqrt(n)
                lo = 1 if s <= t else int(mpmath.ceil((s - t) ** 2))
                want += int(mpmath.floor((s + t) ** 2)) - lo + 1
    spec = BoxSpec(form=SpacingForm.THREE_ROOT, M=M, Mp=Mp, delta=delta)
    assert count_box(spec).count == want == 75000338476786
    with pytest.raises(ValueError, match="fractional bits"):
        BoxSpec(form=SpacingForm.THREE_ROOT, M=M, Mp=Mp, delta=1e7)


@pytest.mark.parametrize("M,Mp,K,L,delta", [
    (4, 4, 4, 4, 1e-6),
    (4, 4, 4, 4, 0.05),
    (8, 4, 8, 4, 1e-3),
    (6, 6, 6, 6, 0.2),
])
def test_four_root_minus_matches_brute_force(M, Mp, K, L, delta):
    spec = BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=M, Mp=Mp, K=K, L=L,
                   delta=delta)
    res = count_box(spec)
    assert res.count == brute_count_four_root(M, Mp, K, L, delta, -1, False)


@pytest.mark.parametrize("M,Mp,K,L,delta", [
    (4, 4, 4, 36, 0.05),
    (4, 4, 4, 32, 0.2),
    (5, 3, 6, 40, 0.08),
])
def test_four_root_plus_matches_brute_force(M, Mp, K, L, delta):
    spec = BoxSpec(form=SpacingForm.FOUR_ROOT_PLUS, M=M, Mp=Mp, K=K, L=L,
                   delta=delta)
    res = count_box(spec)
    assert res.count == brute_count_four_root(M, Mp, K, L, delta, +1, True)


@pytest.mark.parametrize("N,delta,r", [
    (4, 0.05, 2),
    (4, 1e-6, 2),
    (6, 0.03, 3),
    (5, 0.5, 2),
])
def test_four_root_kth_matches_brute_force(N, delta, r):
    spec = BoxSpec(form=SpacingForm.FOUR_ROOT_KTH, M=N, delta=delta, root_k=r)
    assert count_box(spec).count == brute_count_kth(N, delta, r)


def test_near_integer_example_and_second_route():
    spec = BoxSpec(form=SpacingForm.NEAR_INTEGER, K=10**4, delta=1e-3,
                   alpha=2.0, beta=0.0)
    res = count_box(spec)
    assert res.count == near_integer_count_by_sorting(10**4, 2.0, 0.0, 1e-3)
    # independent direct scan
    ks = np.arange(10**4 + 1, 2 * 10**4 + 1)
    t = 2.0 * np.sqrt(ks.astype(np.longdouble))
    frac = t - np.floor(t)
    direct = int(np.count_nonzero(np.minimum(frac, 1 - frac) < 1e-3))
    assert res.count == direct


@pytest.mark.parametrize("K,delta,alpha,beta", [
    (503, 0.01, 3.7, 0.25),
    (1000, 0.2, 1.0, -0.7),
    (64, 0.3, -2.5, 10.0),
])
def test_near_integer_routes_agree(K, delta, alpha, beta):
    spec = BoxSpec(form=SpacingForm.NEAR_INTEGER, K=K, delta=delta,
                   alpha=alpha, beta=beta)
    assert count_box(spec).count == near_integer_count_by_sorting(K, alpha, beta,
                                                                  delta)


# Small boxes where some |combination| equals delta*scale exactly (delta =
# 2^-j; all but three-root 64^2 at j = 4 have such ties).  The longdouble
# rounding of the fixed evaluation order decides each tie, so these pin the
# library's counts as they were when the ties were first listed.
@pytest.mark.parametrize("form,box,j,count,trivial,zeros", [
    ("four-root-kth", {"M": 64}, 2, 11667954, 0, 8136),
    ("four-root-kth", {"M": 64}, 3, 6529684, 0, 8136),
    ("four-root-minus", {"M": 64, "Mp": 64, "K": 64, "L": 64}, 2, 11668180, 8128, 8136),
    ("four-root-minus", {"M": 64, "Mp": 64, "K": 64, "L": 64}, 3, 6530128, 8128, 8136),
    ("four-root-minus", {"M": 256, "Mp": 16, "K": 256, "L": 64}, 2, 26128595, 0, 22),
    ("four-root-minus", {"M": 256, "Mp": 16, "K": 256, "L": 64}, 3, 11352965, 0, 22),
    ("four-root-minus", {"M": 256, "Mp": 16, "K": 256, "L": 64}, 4, 5457789, 0, 22),
    ("four-root-plus", {"M": 16, "Mp": 16, "K": 16, "L": 128}, 2, 211870, 0, 18),
    ("three-root", {"M": 64, "Mp": 64}, 2, 640750, 0, 80),
    ("three-root", {"M": 64, "Mp": 64}, 3, 320376, 0, 80),
    ("three-root", {"M": 64, "Mp": 64}, 4, 160187, 0, 80),
    ("three-root", {"M": 256, "Mp": 16}, 2, 1601902, 0, 42),
    ("three-root", {"M": 256, "Mp": 16}, 3, 800963, 0, 42),
    ("three-root", {"M": 256, "Mp": 16}, 4, 400481, 0, 42),
])
def test_threshold_tie_counts_pinned(form, box, j, count, trivial, zeros):
    res = count_box(BoxSpec(form=SpacingForm.parse(form), delta=2.0 ** -j, **box))
    assert (res.count, res.trivial_count, res.exact_zero_count) == (count, trivial, zeros)


def test_floor_int_is_exact():
    k = np.array([0, 1, 2, 3, 7, 1000, 2**31, 2**40 + 1, 2**53 + 1, 2**62 - 1])
    ints = np.concatenate([k, -k]).astype(np.longdouble)
    big = np.longdouble(2) ** 62 + np.arange(-3, 4).astype(np.longdouble)
    x = np.concatenate([ints, np.nextafter(ints, np.longdouble(np.inf)),
                        np.nextafter(ints, np.longdouble(-np.inf)),
                        np.array([0.5, -0.5, 1.5, -1.5, -0.0], dtype=np.longdouble),
                        big, -big])
    floor = numerics.floor_int(x)
    assert floor.dtype == np.int64
    assert floor.tolist() == [int(v) for v in np.floor(x)]
    assert (-numerics.floor_int(-x)).tolist() == [int(v) for v in np.ceil(x)]


@pytest.mark.parametrize("j", [2, 3])
def test_paired_rows_count_every_row(j):
    # the tie boxes above: a swapped pair of equal axes gives the same sum
    LD = np.longdouble
    delta = LD(2.0 ** -j)
    kth = np.arange(17, 33).astype(LD) ** (LD(1) / 3)
    box16, box64 = spacing._sqrt_box(16), spacing._sqrt_box(64)
    for axes, t, lo, hi, r, strict in [
            ((kth, kth[:, None], -kth[None, :]), delta * LD(16) ** (LD(1) / 3),
             17, 32, 3, True),
            ((box16, box16[:, None], -box16[None, :]), delta * LD(4), 17, 32, 2, False),
            ((box64, box64), delta * LD(8), 1, np.inf, 2, False)]:
        assert spacing._count_solved(axes, t, lo, hi, r, strict, paired=True) \
            == spacing._count_solved(axes, t, lo, hi, r, strict, paired=False)


def test_trivial_pairings_reported_separately():
    spec = BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=4, Mp=4, K=4, L=4,
                   delta=1e-6)
    res = count_box(spec)
    # at this threshold only exact zeros remain, and on an all-equal box the
    # zero set is exactly the trivial pairings
    assert res.count == res.trivial_count == res.exact_zero_count == 28


def test_exclude_exact_counts_near_misses_only():
    base = BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=8, Mp=8, K=8, L=8,
                   delta=1e-6 / math.sqrt(8))
    with_exact = count_box(base)
    without = count_box(BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=8, Mp=8,
                                K=8, L=8, delta=1e-6 / math.sqrt(8),
                                exclude_exact=True))
    assert with_exact.count >= with_exact.exact_zero_count
    assert without.count == with_exact.count - with_exact.exact_zero_count
    # four-root-plus excludes whatever the flag says: its inequality is 0 < |...|
    assert not base.excludes_exact() and without.spec.excludes_exact()
    assert BoxSpec(form=SpacingForm.FOUR_ROOT_PLUS, M=8, Mp=8, K=8, L=8,
                   delta=0.1).excludes_exact()


def test_three_root_zero_detection():
    # exact hits are exactly the same-core pairs of the (8,16]^2 box
    spec = BoxSpec(form=SpacingForm.THREE_ROOT, M=8, Mp=8, delta=1e-9)
    res = count_box(spec)
    want = 0
    for m in range(9, 17):
        for n in range(9, 17):
            if squarefree_core(m)[0] == squarefree_core(n)[0]:
                want += 1
    assert res.exact_zero_count == want
    excl = count_box(BoxSpec(form=SpacingForm.THREE_ROOT, M=8, Mp=8,
                             delta=1e-9, exclude_exact=True))
    assert excl.count == res.count - res.exact_zero_count


def test_count_monotone_in_delta_and_box():
    counts = []
    for d in (1e-6, 1e-4, 1e-2, 0.5, 2.0):
        spec = BoxSpec(form=SpacingForm.THREE_ROOT, M=16, Mp=16, delta=d)
        counts.append(count_box(spec).count)
    assert counts == sorted(counts)
    small = count_box(BoxSpec(form=SpacingForm.NEAR_INTEGER, K=128, delta=0.05,
                              alpha=2.0)).count
    large = count_box(BoxSpec(form=SpacingForm.NEAR_INTEGER, K=256, delta=0.05,
                              alpha=2.0)).count
    assert large >= small


def test_two_bound_crossover_for_tiny_delta():
    # far below (K M Mp L)^(-1/2) K^-2 the secondary bound must win
    spec = BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=16, Mp=16, K=16, L=16,
                   delta=2.0**-20)
    res = count_box(spec)
    assert res.bound_secondary < res.bound_primary
    assert res.bound_value == res.bound_secondary
    # and for a generous delta the primary wins again
    spec = BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=16, Mp=16, K=16, L=16,
                   delta=2.0**-2)
    res = count_box(spec)
    assert res.bound_value == res.bound_primary <= res.bound_secondary


# ---------------------------------------------------------------------------
# minimal gaps

def test_min_gap_three_limit_one():
    res = min_gap_three(1)
    assert res.min_scaled_gap == pytest.approx(1.0, rel=1e-15)
    assert res.argmin == (1, 1, 1)


def test_min_gap_three_limit_three():
    res = min_gap_three(3)
    assert res.min_scaled_gap == pytest.approx(abs(2 - math.sqrt(3)) * math.sqrt(3),
                                               rel=1e-12)
    assert res.argmin == (1, 1, 3)


def test_min_gap_three_vs_brute_force():
    # full triple loop with exact-zero exclusion
    def brute(limit):
        best, arg = float("inf"), None
        for m in range(1, limit + 1):
            qm, rm = squarefree_core(m)
            for n in range(m, limit + 1):
                qn, rn = squarefree_core(n)
                s = math.sqrt(m) + math.sqrt(n)
                for k in range(1, limit + 1):
                    if qm == qn and k == (rm + rn) ** 2 * qm:
                        continue
                    g = abs(s - math.sqrt(k)) * math.sqrt(m * n * k)
                    if g < best:
                        best, arg = g, (m, n, k)
        return best, arg
    for limit in (5, 17, 60):
        want, want_arg = brute(limit)
        got = min_gap_three(limit)
        assert got.min_scaled_gap == pytest.approx(want, rel=1e-12)
        assert got.argmin == want_arg


def test_min_gap_four_excludes_exact_identities():
    # sqrt 1 + sqrt 1 + sqrt 4 = sqrt 16 must never appear as a minimizer
    res = min_gap_four(16, sign=1)
    assert res.min_scaled_gap > 0
    m, n, k, l = res.argmin
    assert abs(math.sqrt(m) + math.sqrt(n) + math.sqrt(k) - math.sqrt(l)) > 0


def test_min_gap_four_small_value():
    # (1,1,1,4): |1+1+1-2| * 1^2 * sqrt(1*1*4) = 2
    res = min_gap_four(1, sign=1)
    assert res.min_scaled_gap == pytest.approx(2.0, rel=1e-15)
    assert res.argmin == (1, 1, 1, 1)


def test_min_gap_four_vs_brute_force():
    def brute(limit, sign):
        best, arg = float("inf"), None
        for k in range(1, limit + 1):
            qk, rk = squarefree_core(k)
            for m in range(1, k + 1):
                qm, rm = squarefree_core(m)
                for n in range(1, k + 1):
                    qn, rn = squarefree_core(n)
                    s = math.sqrt(m) + math.sqrt(n) + sign * math.sqrt(k)
                    for l in range(1, limit + 1):
                        ql, rl = squarefree_core(l)
                        if sign > 0:
                            zero = qm == qn == qk == ql and rm + rn + rk == rl
                        else:
                            zero = (qm == qn == qk == ql and rm + rn == rk + rl) \
                                or (qm == qk and rm == rk and qn == ql and rn == rl) \
                                or (qm == ql and rm == rl and qn == qk and rn == rk)
                        if zero:
                            continue
                        g = abs(s - math.sqrt(l)) * k * k * math.sqrt(m * n * l)
                        if g < best:
                            best, arg = g, (m, n, k, l)
        return best
    for limit, sign in [(8, 1), (8, -1), (14, 1), (14, -1)]:
        want = brute(limit, sign)
        got = min_gap_four(limit, sign)
        assert got.min_scaled_gap == pytest.approx(want, rel=1e-10)
        # the reported argmin has m <= n and attains the reported gap
        m, n, k, l = got.argmin
        assert m <= n <= k
        with mpmath.workdps(50):
            ref = abs(mpmath.sqrt(m) + mpmath.sqrt(n) + sign * mpmath.sqrt(k)
                      - mpmath.sqrt(l)) * k * k * mpmath.sqrt(m * n * l)
        assert got.min_scaled_gap == pytest.approx(float(ref), rel=1e-9)


# float.hex of the minimal scaled gap and its argmin, recorded before the two
# gap searches shared one candidate search.  Each entry holds from its limit
# up to the next entry's.
GAP_RUNS = {
    "three": {1: ("0x1.0000000000000p+0", (1, 1, 1)),
              2: ("0x1.a827999fcef32p-1", (1, 1, 2)),
              3: ("0x1.db3d742c26554p-2", (1, 1, 3)),
              6: ("0x1.f488462648bc8p-4", (1, 2, 6))},
    +1: {1: ("0x1.0000000000000p+1", (1, 1, 1, 1)),
         5: ("0x1.b54cda58fbbefp+0", (1, 1, 1, 5)),
         6: ("0x1.593547836c717p+0", (1, 1, 1, 6)),
         7: ("0x1.dfdfbf5e3aaf5p-1", (1, 1, 1, 7)),
         8: ("0x1.f0ed99bed9b2ep-2", (1, 1, 1, 8)),
         14: ("0x1.4b43c7ff20eb6p-2", (1, 1, 3, 14))},
    -1: {1: ("inf", (0, 0, 0, 0)),
         2: ("0x1.2bec333018867p-1", (1, 1, 1, 2))},
}


def test_min_gaps_pinned_bit_for_bit():
    def pinned(runs, limit):
        return runs[max(start for start in runs if start <= limit)]

    for limit in range(1, 81):
        res = min_gap_three(limit)
        got = (float.hex(res.min_scaled_gap), res.argmin)
        assert got == pinned(GAP_RUNS["three"], limit), limit
    for sign in (1, -1):
        for limit in range(1, 31):
            res = min_gap_four(limit, sign)
            got = (float.hex(res.min_scaled_gap), res.argmin)
            assert got == pinned(GAP_RUNS[sign], limit), (limit, sign)


def test_min_gaps_pinned_in_blocks_of_seven(monkeypatch):
    # blocks of 7 pairs split the columns of pairs m <= n between blocks,
    # and the first minimum must still win across them
    monkeypatch.setattr(numerics, "BLOCK", 7)
    test_min_gaps_pinned_bit_for_bit()


def test_screen_bound_covers_every_candidate(monkeypatch):
    # every screened candidate's float64 gap lies within the screen's bound
    # of its longdouble gap, so no candidate that can attain the longdouble
    # minimum is cut
    screened = []

    def recording(*args):
        out = screen(*args)
        screened.append((*args, *out))
        return out

    screen = spacing._screen
    monkeypatch.setattr(spacing, "_screen", recording)
    min_gap_three(300)
    min_gap_four(60, 1)
    min_gap_four(60, -1)
    worst = 0.0
    for m, n, s, scale, exact, sqrt64, v, gap, bound in screened:
        sqrt_ld = np.sqrt(np.arange(len(sqrt64)).astype(np.longdouble))
        exact_gap = np.abs(s - sqrt_ld[v]) * np.longdouble(scale) \
            * np.sqrt((m * n * v).astype(np.longdouble))
        nonzero = v != exact
        assert np.array_equal(np.isinf(gap), ~nonzero)
        diff = np.abs(gap[nonzero] - exact_gap[nonzero])
        assert np.all(diff <= bound)
        worst = max(worst, float(diff.max(initial=0)) / bound)
    # 45,150 pairs up to 300 in blocks of numerics.BLOCK, one block per k <= 60
    assert len(screened) == math.ceil(300 * 301 / 2 / numerics.BLOCK) + 2 * 60
    assert 0 < worst <= 1


def test_min_gap_four_dual_precision_stability():
    res = min_gap_four(60, sign=-1)
    m, n, k, l = res.argmin
    with mpmath.workdps(50):
        ref = abs(mpmath.sqrt(m) + mpmath.sqrt(n) - mpmath.sqrt(k)
                  - mpmath.sqrt(l)) * k * k * mpmath.sqrt(m * n * l)
        assert res.min_scaled_gap == pytest.approx(float(ref), rel=1e-9)


# ---------------------------------------------------------------------------
# validation and budgets

def test_boxspec_validation():
    with pytest.raises(ValueError):
        BoxSpec(form=SpacingForm.THREE_ROOT, M=4, Mp=8, delta=0.1)   # Mp > M
    with pytest.raises(ValueError):
        BoxSpec(form=SpacingForm.THREE_ROOT, M=4, delta=0.1)         # missing Mp
    with pytest.raises(ValueError):
        BoxSpec(form=SpacingForm.NEAR_INTEGER, K=10, delta=0.7, alpha=2.0)
    with pytest.raises(ValueError):
        BoxSpec(form=SpacingForm.NEAR_INTEGER, K=10, delta=0.1, alpha=0.5)
    with pytest.raises(ValueError):   # alpha*sqrt(k) has no fractional bits left
        BoxSpec(form=SpacingForm.NEAR_INTEGER, K=10, delta=0.1, alpha=1e300)
    with pytest.raises(ValueError):
        BoxSpec(form=SpacingForm.FOUR_ROOT_KTH, M=4, delta=0.1, root_k=1)
    with pytest.raises(ValueError, match="exact-zero exclusion unsupported"):
        BoxSpec(form=SpacingForm.NEAR_INTEGER, K=10, delta=0.1, alpha=2.0,
                exclude_exact=True)
    with pytest.raises(ValueError):
        BoxSpec(form=SpacingForm.THREE_ROOT, M=4, Mp=4, delta=-1.0)
    # non-finite parameters would round to nonsense in int64
    with pytest.raises(ValueError, match="delta"):
        BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=4, Mp=4, K=4, L=4, delta=math.nan)
    for alpha, beta in [(math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0),
                        (2.0, math.inf), (2.0, math.nan)]:
        with pytest.raises(ValueError, match="finite"):
            BoxSpec(form=SpacingForm.NEAR_INTEGER, K=8, delta=0.1, alpha=alpha, beta=beta)
    # an infinite delta counts the whole box
    assert count_box(BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=4, Mp=4, K=4, L=4,
                             delta=math.inf)).count == 4**4
    assert count_box(BoxSpec(form=SpacingForm.FOUR_ROOT_KTH, M=5, root_k=3,
                             delta=math.inf)).count == 5**4


def test_budget_errors(monkeypatch):
    spec = BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=100, Mp=100, K=100,
                   L=100, delta=0.1)
    monkeypatch.setattr(spacing, "WORK_BUDGET", 1000)
    with pytest.raises(errors.BudgetError):
        count_box(spec)
    # one box per form: the budget caps the product of the enumerated sides
    for form, box, volume in [
            (SpacingForm.NEAR_INTEGER, dict(K=40, alpha=2.0), 40),
            (SpacingForm.THREE_ROOT, dict(M=6, Mp=5), 6 * 5),
            (SpacingForm.FOUR_ROOT_MINUS, dict(M=3, Mp=4, K=50, L=5), 3 * 4 * 5),
            (SpacingForm.FOUR_ROOT_PLUS, dict(M=3, Mp=4, K=5, L=50), 3 * 4 * 5),
            (SpacingForm.FOUR_ROOT_KTH, dict(M=4, root_k=3), 4 ** 3)]:
        monkeypatch.setattr(spacing, "WORK_BUDGET", volume)
        count_box(BoxSpec(form=form, delta=0.1, **box))
        monkeypatch.setattr(spacing, "WORK_BUDGET", volume - 1)
        with pytest.raises(errors.BudgetError):
            count_box(BoxSpec(form=form, delta=0.1, **box))
    monkeypatch.undo()
    with pytest.raises(errors.BudgetError):
        min_gap_three(10**6)
    with pytest.raises(errors.BudgetError):
        min_gap_four(10**5)
    # a memory ceiling, not a work budget: 140 bytes per pair
    with pytest.raises(errors.CapacityError):
        enumerate_exact_quadruples(10**5)


def test_box_memory_ceiling(monkeypatch):
    # 290 bytes per unit of the sides summed, the solved inner side included,
    # plus 130 per element of the broadcast block, checked before any table
    def unreachable(*args, **kwargs):
        raise AssertionError("allocation reached past the memory ceiling")

    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 10**6)
    for name in ("core_tables", "_sqrt_box", "_count_near_integer"):
        monkeypatch.setattr(spacing, name, unreachable)
    for form, box in [
            (SpacingForm.FOUR_ROOT_MINUS, dict(M=1, Mp=1, K=10**4, L=1)),
            (SpacingForm.FOUR_ROOT_PLUS, dict(M=1, Mp=1, K=1, L=10**4)),
            (SpacingForm.FOUR_ROOT_PLUS, dict(M=1, Mp=100, K=100, L=1)),
            (SpacingForm.THREE_ROOT, dict(M=10**4, Mp=1)),
            (SpacingForm.NEAR_INTEGER, dict(K=10**4, alpha=2.0)),
            (SpacingForm.FOUR_ROOT_KTH, dict(M=100))]:
        with pytest.raises(errors.CapacityError):
            count_box(BoxSpec(form=form, delta=0.1, **box))


def test_triple_memory_ceiling(monkeypatch):
    # 90 bytes per row, amax(amax-1)/2 rows per core family, checked before
    # any row is built
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 90 * 3748)
    assert len(enumerate_exact_triples(2000)) == 3748
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 90 * 3748 - 1)
    with pytest.raises(errors.CapacityError):
        enumerate_exact_triples(2000)
    # 3,770,060 rows up to 1e6 would take 339 MB; only the core families
    # (about 6 MB) may be allocated
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 2 * 10**7)
    tracemalloc.start()
    try:
        with pytest.raises(errors.CapacityError):
            enumerate_exact_triples(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**7


def test_quadruple_memory_ceiling(monkeypatch):
    # 140 bytes per pair (m, n) <= limit, checked before any pair is listed
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 140 * 60 * 60)
    assert len(enumerate_exact_quadruples(60)) == 7344
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 140 * 60 * 60 - 1)
    with pytest.raises(errors.CapacityError):
        enumerate_exact_quadruples(60)
    # 1e8 pairs up to 1e4 would take 14 GB; only the core table may be built
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(errors.CapacityError):
            enumerate_exact_quadruples(10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_gap_memory_ceiling(monkeypatch):
    # 300 bytes per pair m <= n of the largest block, at most numerics.BLOCK
    # of them, and 50 per unit of the limit, checked before any table
    def unreachable(*args, **kwargs):
        raise AssertionError("allocation reached past the memory ceiling")

    for search, limit, pairs in [(lambda: min_gap_three(1000), 1000, numerics.BLOCK),
                                 (lambda: min_gap_four(40, -1), 40, 40 * 41 // 2),
                                 (lambda: min_gap_four(40, 1), 40, 40 * 41 // 2)]:
        need = 300 * pairs + 50 * limit
        monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", need)
        search()
        monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", need - 1)
        with monkeypatch.context() as patch:
            patch.setattr(spacing, "core_tables", unreachable)
            with pytest.raises(errors.CapacityError):
                search()


def test_form_parse():
    assert SpacingForm.parse("four-root-minus") is SpacingForm.FOUR_ROOT_MINUS
    with pytest.raises(ValueError):
        SpacingForm.parse("five-root")
