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
                     brute_exact_triples, count_solved,
                     brute_zero_counts, near_integer_count_by_sorting,
                     power_free_split, solved_count_four, squarefree_core)
from test_acceptance import PILOT_DELTAS, PILOT_GRID


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


def test_core_tables_at_huge_root_orders():
    # 2^r above the limit leaves every n its own kernel, without forming f^r
    for r in (7, 64, 10**12, 10**20):
        core, root = core_tables(64, r)
        assert np.array_equal(core, np.arange(65)) and not np.any(root - 1), r


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
    # rows sorted and distinct, and as a set the oracle's: the empty case up
    # to 3, the first triple (1, 1, 4), and every limit to 64
    for limit in [*range(65), 300]:
        rows = enumerate_exact_triples(limit)
        assert rows.dtype == np.int64 and rows.shape[1:] == (3,)
        assert list(map(tuple, rows.tolist())) == sorted(brute_exact_triples(limit))


def test_exact_quadruples_examples():
    rows = set(map(tuple, enumerate_exact_quadruples(9).tolist()))
    assert (1, 9, 4, 4) in rows              # 1 + 3 = 2 + 2
    assert (1, 1, 1, 1) in rows
    assert (2, 3, 2, 3) in rows and (2, 3, 3, 2) in rows   # trivial pairings


def test_exact_quadruples_vs_brute_force():
    # the empty case, singles only up to 3, the first common-core family at 4
    for limit in [*range(41), 60, 61]:
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
    # (sqrt(2M) + sqrt(2Mp) + delta*sqrt(M))^2 is 5.0e12, 6.4e11 and 2.5e11,
    # under the 2^44 that keeps the band under 2^-5, and 5.0e14 at delta 1e7
    for M, Mp, delta, count in [(5, 3, 1e6, 75000338476786),
                                (64, 64, 1e5, 2621568156902998),
                                (100, 100, 5e4, 2500244210239616)]:
        with mpmath.workdps(60):
            t = mpmath.mpf(delta) * mpmath.sqrt(M)
            want = 0
            for m in range(M + 1, 2 * M + 1):
                for n in range(Mp + 1, 2 * Mp + 1):
                    s = mpmath.sqrt(m) + mpmath.sqrt(n)
                    lo = 1 if s <= t else int(mpmath.ceil((s - t) ** 2))
                    want += int(mpmath.floor((s + t) ** 2)) - lo + 1
        x, y = spacing._sqrt_box(M), spacing._sqrt_box(Mp)
        tld = np.longdouble(delta) * np.sqrt(np.longdouble(M))
        assert count_solved((x, y), tld, 1, math.inf, 2, strict=False, paired=False) == want
        spec = BoxSpec(form=SpacingForm.THREE_ROOT, M=M, Mp=Mp, delta=delta)
        assert count_box(spec).count == want == count, (M, Mp, delta)
    with pytest.raises(ValueError, match="fractional bits"):
        BoxSpec(form=SpacingForm.THREE_ROOT, M=5, Mp=3, delta=1e7)


# the three-root tie boxes of test_threshold_tie_counts_pinned, saturated
# thresholds (t above every sum), thresholds where (s - t)^2 crosses 1, and
# the wide threshold above
THREE_ROOT_BOXES = [(M, Mp, 2.0 ** -j) for M, Mp in ((64, 64), (256, 16)) for j in (2, 3, 4)] \
    + [(64, 64, 8.0), (256, 16, 8.0), (64, 64, 2.5), (256, 16, 1.25), (5, 3, 1e6)]


@pytest.mark.parametrize("M,Mp,delta", THREE_ROOT_BOXES)
def test_three_root_matches_the_solved_oracle(M, Mp, delta):
    # the per-row longdouble route, on the pairs m <= n of an equal box
    x, y = spacing._sqrt_box(M), spacing._sqrt_box(Mp)
    t = np.longdouble(delta) * np.sqrt(np.longdouble(M))
    want = count_solved((x, y), t, 1, math.inf, 2, strict=False, paired=M == Mp)
    spec = BoxSpec(form=SpacingForm.THREE_ROOT, M=M, Mp=Mp, delta=delta)
    assert count_box(spec).count == want


def test_three_root_band_covers_every_float64_misjudgement():
    # every (m, n) sum of THREE_ROOT_BOXES, its ends formed in float64 as
    # _count_solved screens them and by the longdouble rule: where the k
    # counted differ, an end above 1/2 lies within the band of an integer;
    # so does every exact tie; and every float64 end lies within
    # 7.1u (A + t)^2 of the rule's
    LD = np.longdouble

    def count(lo, hi):
        return np.maximum(np.floor(hi) - np.maximum(np.ceil(lo), 1) + 1, 0)

    misjudged = untested = 0
    for M, Mp, delta in THREE_ROOT_BOXES:
        x, y = spacing._sqrt_box(M), spacing._sqrt_box(Mp)
        t = LD(delta) * np.sqrt(LD(M))
        top = float(x[-1] + y[-1]) + float(t)
        lo, hi = spacing._ends(np.add.outer(x, y), t, 2)
        lo64, hi64 = spacing._ends(np.add.outer(x.astype(np.float64), y.astype(np.float64)),
                                   float(t), 2)
        band = 16 * 2.0 ** -53 * top ** 2
        near = (np.abs(hi64 - np.rint(hi64)) <= band) \
            | (lo64 > 0.5) & (np.abs(lo64 - np.rint(lo64)) <= band)
        wrong = count(lo64, hi64) != count(lo, hi)
        assert not np.any(wrong & ~near), (M, Mp, delta)
        assert np.all(near[(hi == np.rint(hi)) | (lo > 0.5) & (lo == np.rint(lo))])
        worst = max(np.max(np.abs(lo64 - lo)), np.max(np.abs(hi64 - hi)))
        assert worst < 7.1 * 2.0 ** -53 * top ** 2, (M, Mp, delta)
        misjudged += int(np.count_nonzero(wrong))
        untested += int(np.count_nonzero(lo64 <= 0.5))
    # float64 alone would miscount some sums (at (256, 16, 1.25)), and the
    # saturated and crossing thresholds hold lower ends that are not tested
    assert misjudged > 0 and untested > 0


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
    assert res.count - res.exact_zero_count \
        == brute_count_four_root(M, Mp, K, L, delta, -1, True)


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


def test_four_root_kth_at_huge_root_orders():
    # the roots lie so close that all 4^4 tuples count; 2^r is never formed,
    # and orders past int64 never reach an int64 power
    for r in (63, 64, 200, 10**12, 10**20, int(1.7e308)):
        res = count_box(BoxSpec(form=SpacingForm.FOUR_ROOT_KTH, M=4, delta=0.1, root_k=r))
        assert (res.count, res.exact_zero_count) == (256, 28), r


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
    # the tie boxes above: a swapped pair of equal axes gives the same sum;
    # three-root counts one array passed as both axes as it counts a copy
    LD = np.longdouble
    delta = LD(2.0 ** -j)
    kth = np.arange(17, 33).astype(LD) ** (LD(1) / 3)
    box16, box64 = spacing._sqrt_box(16), spacing._sqrt_box(64)
    for axes, t, lo, hi, r, strict in [
            ((kth, kth[:, None], -kth[None, :]), delta * LD(16) ** (LD(1) / 3),
             17, 32, 3, True),
            ((box16, box16[:, None], -box16[None, :]), delta * LD(4), 17, 32, 2, False)]:
        assert count_solved(axes, t, lo, hi, r, strict, paired=True) \
            == count_solved(axes, t, lo, hi, r, strict, paired=False)
    assert spacing._count_solved(box64, box64, delta * LD(8)) \
        == spacing._count_solved(box64, box64.copy(), delta * LD(8))


# the spacing-grid boxes of test_threshold_tie_counts_pinned, and three-root
# boxes whose blocks of 7 entries hold two rows, with a partial last block,
# or one row
@pytest.mark.parametrize("form,box", [
    ("four-root-kth", {"M": 64}),
    ("four-root-minus", {"M": 64, "Mp": 64, "K": 64, "L": 64}),
    ("four-root-minus", {"M": 256, "Mp": 16, "K": 256, "L": 64}),
    ("four-root-plus", {"M": 16, "Mp": 16, "K": 16, "L": 128}),
    ("three-root", {"M": 64, "Mp": 64}),
    ("three-root", {"M": 256, "Mp": 16}),
    ("three-root", {"M": 3, "Mp": 3}),
    ("three-root", {"M": 5, "Mp": 3}),
    ("three-root", {"M": 9, "Mp": 9})])
def test_counts_in_blocks_of_seven(monkeypatch, form, box):
    specs = [BoxSpec(form=SpacingForm.parse(form), delta=2.0 ** -j, **box)
             for j in (2, 3, 4)]
    want = [count_box(spec) for spec in specs]
    monkeypatch.setattr(numerics, "BLOCK", 7)
    assert [count_box(spec) for spec in specs] == want


def _count_with_zeros(form: str, box: dict, delta: float) -> int:
    """count_box's count with the exact zeros that four-root-plus leaves out."""
    res = count_box(BoxSpec(form=SpacingForm.parse(form), delta=delta, **box))
    return res.count + (res.exact_zero_count if form == "four-root-plus" else 0)


# the four-root boxes of the spacing-grid benchmark workload, full and tiny
GRID_FOUR_ROOT_BOXES = [
    ("four-root-minus", {"M": 128, "Mp": 128, "K": 128, "L": 128}),
    ("four-root-minus", {"M": 64, "Mp": 64, "K": 64, "L": 64}),
    ("four-root-minus", {"M": 256, "Mp": 16, "K": 256, "L": 64}),
    ("four-root-minus", {"M": 16, "Mp": 16, "K": 16, "L": 16}),
    ("four-root-plus", {"M": 64, "Mp": 64, "K": 64, "L": 512}),
    ("four-root-plus", {"M": 16, "Mp": 16, "K": 16, "L": 128}),
    ("four-root-kth", {"M": 64}),
    ("four-root-kth", {"M": 16}),
    # beyond the benchmark: cube roots and unequal sides
    ("four-root-kth", {"M": 24, "root_k": 3}),
    ("four-root-minus", {"M": 24, "Mp": 9, "K": 17, "L": 40}),
    ("four-root-plus", {"M": 9, "Mp": 24, "K": 40, "L": 300}),
]


@pytest.mark.parametrize("form,box", GRID_FOUR_ROOT_BOXES)
def test_sorted_sums_match_the_solved_counter(form, box):
    # every threshold 2^-j the benchmark draws; one inside the band, where
    # longdouble decides every tuple within 2 bands of 0; and the whole box
    for delta in [*(2.0 ** -j for j in range(2, 21)), 2.0 ** -50, math.inf]:
        assert _count_with_zeros(form, box, delta) \
            == solved_count_four(form, box, delta), delta


@pytest.mark.parametrize("form,box", [
    (form.value, box) for form, boxes, _ in PILOT_GRID.values()
    if form.value.startswith("four-root") for box in boxes])
def test_sorted_sums_match_the_solved_counter_on_the_a8_grid(form, box):
    for delta in PILOT_DELTAS:
        assert _count_with_zeros(form, box, delta) \
            == solved_count_four(form, box, delta), delta


# the four-root tie boxes of test_threshold_tie_counts_pinned: the k-th root
# and minus boxes of side 64 hold exact ties at j = 2 and 3 that longdouble
# rounding decides both ways; the plus box holds two at j = 2
@pytest.mark.parametrize("form,box,ties", [
    ("four-root-kth", {"M": 64}, (508, 1008)),
    ("four-root-minus", {"M": 64, "Mp": 64, "K": 64, "L": 64}, (508, 1008)),
    ("four-root-plus", {"M": 16, "Mp": 16, "K": 16, "L": 128}, (2, 0))])
def test_band_covers_every_float64_misjudgement(form, box, ties):
    # every tuple, decided in float64 (|P - Q| against t) and by the
    # longdouble rule: where they differ, the tuple lies in the band, and
    # every float64 |P - Q| lies within the band of the longdouble one
    LD = np.longdouble
    strict = form == "four-root-kth"    # whose roots are powers, as in count_box
    r = box.get("root_k", 2)
    sides = [box[name] for name in ("M", "Mp", "K", "L")] if "K" in box else [box["M"]] * 4
    root = (lambda a: a ** (LD(1) / r)) if strict else np.sqrt
    m, n, k, l = (root(np.arange(R + 1, 2 * R + 1).astype(LD)) for R in sides)
    n, k, l = n[:, None, None], k[None, :, None], l[None, None, :]
    if form == "four-root-plus":    # s = (x_m + x_n) + last, solved for v
        last, v, q = k, np.arange(sides[3] + 1, 2 * sides[3] + 1)[None, None, :], \
            l.astype(np.float64) - k.astype(np.float64)
    else:
        last, v, q = -l, np.arange(sides[2] + 1, 2 * sides[2] + 1)[None, :, None], \
            k.astype(np.float64) + l.astype(np.float64)
    root_v = root(v.astype(LD))
    worst = 0.0
    for j, tied in zip((2, 3), ties):
        t = LD(2.0 ** -j) * LD(sides[0 if strict else 2]) ** (LD(1) / r)
        band = spacing._band(float(sum(x.max() for x in (m, n, k, l))) + float(t))
        near = misjudged = 0
        for x in m:    # one m at a time: 64^3 tuples
            s = x + n + last
            lo, hi = np.maximum(s - t, 0) ** r, np.maximum(s + t, 0) ** r
            ld = (lo < v) & (v < hi) if strict else (lo <= v) & (v <= hi)
            gap = np.abs(np.float64(x) + n.astype(np.float64) - q)
            wrong = (gap < float(t) if strict else gap <= float(t)) != ld
            assert np.all(np.abs(gap[wrong] - float(t)) < band)
            near += int(np.count_nonzero(np.abs(gap - float(t)) < band))
            misjudged += int(np.count_nonzero(wrong))
            worst = max(worst, float(np.max(np.abs(gap - np.abs(s - root_v)))) / band)
        # the band is not empty: it holds the exact ties, and on the side-64
        # boxes float64 alone would misjudge some of them
        assert near == tied and (misjudged > 0) == (tied > 2)
    assert 0 < worst < 1


def test_trivial_pairings_reported_separately():
    spec = BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=4, Mp=4, K=4, L=4,
                   delta=1e-6)
    res = count_box(spec)
    # at this threshold only exact zeros remain, and on an all-equal box the
    # zero set is exactly the trivial pairings
    assert res.count == res.trivial_count == res.exact_zero_count == 28


# unequal boxes of each four-root form, cube roots, a box whose four sides
# share no kernel (every zero trivial), boxes with a side of 1, and a plus
# box where a join of kernels spaced too closely would find zeros
@pytest.mark.parametrize("form,box,zeros,trivial", [
    ("four-root-minus", {"M": 12, "Mp": 9, "K": 8, "L": 18}, 43, 42),
    ("four-root-minus", {"M": 2, "Mp": 18, "K": 8, "L": 9}, 3, 0),
    ("four-root-minus", {"M": 3, "Mp": 6, "K": 4, "L": 6}, 12, 12),
    ("four-root-minus", {"M": 1, "Mp": 25, "K": 4, "L": 16}, 2, 0),
    ("four-root-plus", {"M": 8, "Mp": 8, "K": 8, "L": 64}, 12, 0),
    ("four-root-plus", {"M": 2, "Mp": 2, "K": 8, "L": 25}, 2, 0),
    ("four-root-plus", {"M": 1, "Mp": 4, "K": 4, "L": 25}, 1, 0),
    ("four-root-plus", {"M": 3, "Mp": 5, "K": 3, "L": 3}, 0, 0),
    ("four-root-kth", {"M": 6}, 66, 0),
    ("four-root-kth", {"M": 9, "root_k": 3}, 153, 0),
    ("four-root-kth", {"M": 1}, 1, 0)])
def test_four_root_zero_counts_match_brute_force(form, box, zeros, trivial):
    res = count_box(BoxSpec(form=SpacingForm.parse(form), delta=0.1, **box))
    sides = [box["M"]] * 4 if form == "four-root-kth" else [box[k] for k in ("M", "Mp", "K", "L")]
    want = brute_zero_counts(sides, 3 if form == "four-root-plus" else 2, box.get("root_k", 2),
                             trivial=form == "four-root-minus")
    assert (res.exact_zero_count, res.trivial_count) == want == (zeros, trivial)


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


GAP_SEARCHES = [lambda: min_gap_three(300), lambda: min_gap_four(60, 1),
                lambda: min_gap_four(60, -1)]


def _recorded(monkeypatch, search, *names):
    # (name, arguments, result) of each call of the named spacing functions
    # that the search makes, in order
    calls = []

    def recording(name, function):
        def record(*args):
            out = function(*args)
            calls.append((name, args, out))
            return out
        return record

    for name in names:
        monkeypatch.setattr(spacing, name, recording(name, getattr(spacing, name)))
    search()
    monkeypatch.undo()
    return calls


def test_screen_bound_covers_every_candidate(monkeypatch):
    # every screened candidate's float64 gap lies within the screen's bound
    # of its longdouble gap, so no candidate that can attain the longdouble
    # minimum is cut
    worst = 0.0
    for search in GAP_SEARCHES:
        # a block is screened when one of its pairs has a floor at most the
        # least longdouble gap of the blocks screened before it, raised by
        # _band, and then its floor without the exact slot (the call given
        # the hits, made on just those pairs) too
        best, survived, rebounded, expect, screened = np.inf, 0, 0, 0, 0
        for name, args, out in _recorded(monkeypatch, search, "_floor", "_screen"):
            if name == "_floor":
                below = bool(out.min() <= best + spacing._band(best))
                if len(args) == 5:
                    survived += below
                else:
                    rebounded += 1
                    expect += below
                continue
            screened += 1
            (m, n, s, scale, exact, sqrt64), (v, gap, bound) = args, out
            sqrt_ld = np.sqrt(np.arange(len(sqrt64)).astype(np.longdouble))
            exact_gap = np.abs(s - sqrt_ld[v]) * np.longdouble(scale) \
                * np.sqrt((m * n * v).astype(np.longdouble))
            nonzero = v != exact
            assert np.array_equal(np.isinf(gap), ~nonzero)
            diff = np.abs(gap[nonzero] - exact_gap[nonzero])
            assert np.all(diff <= bound)
            worst = max(worst, float(diff.max(initial=0)) / bound)
            best = min(best, float(exact_gap[nonzero].min(initial=np.inf)))
        assert screened == expect
        assert survived == rebounded
    assert 0 < worst <= 1


def test_prune_bound_below_every_gap(monkeypatch):
    # every pair's float64 floor lies at most at its longdouble gap at every
    # v in [1, limit], at negative sums and exact zeros too, and the floor
    # given the exact hits at every v but a pair's exact slot, so no pair
    # that can attain or tie the least gap is dropped
    negative = zero = hits = 0
    for search in GAP_SEARCHES:
        for _, ((m, n, _, _), k, sign, scale, sqrt64, *hit), bound in _recorded(
                monkeypatch, search, "_floor"):
            sqrt_ld = np.sqrt(np.arange(len(sqrt64)).astype(np.longdouble))
            s = sqrt_ld[m] + sqrt_ld[n] + np.longdouble(sign) * sqrt_ld[k]
            least = np.full(s.shape, np.inf, dtype=np.longdouble)
            for v in range(1, len(sqrt64)):
                gap = np.abs(s - sqrt_ld[v]) * np.longdouble(scale) \
                    * np.sqrt((m * n * v).astype(np.longdouble))
                if hit:
                    gap[hit[0] == v] = np.inf
                np.minimum(least, gap, out=least)
            assert np.all(bound <= least)
            negative += np.count_nonzero(s < 0)
            zero += np.count_nonzero(least == 0)
            hits += np.count_nonzero(hit[0] >= 0) if hit else 0
    assert negative and zero and hits


def test_gap_searches_screen_few_blocks(monkeypatch):
    # the floor without the exact slot leaves a four-root k's block with an
    # exact hit unscreened unless it can still win, and the pair (1, 1),
    # searched first, prunes most of the three-root search's first block
    for sign in (1, -1):
        screens = _recorded(monkeypatch, lambda: min_gap_four(150, sign), "_screen")
        assert len(screens) <= 15
    screens = _recorded(monkeypatch, lambda: min_gap_three(1000), "_screen")
    # the pairs each block screens, of numerics.BLOCK in the first block
    pairs = [len(args[0]) for _, args, _ in screens]
    assert pairs[0] == 1 and 0 < pairs[1] < numerics.BLOCK // 2


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


def test_boxspec_rejects_unread_fields():
    # a field its form does not read would be echoed as if it had been used
    for form, box, unread in [
            (SpacingForm.THREE_ROOT, dict(M=8, Mp=8, K=99), "K"),
            (SpacingForm.THREE_ROOT, dict(M=8, Mp=8, root_k=3, alpha=5.0), "root_k, alpha"),
            (SpacingForm.FOUR_ROOT_KTH, dict(M=8, Mp=5, L=7), "Mp, L"),
            (SpacingForm.NEAR_INTEGER, dict(K=8, alpha=2.0, M=3), "M"),
            (SpacingForm.NEAR_INTEGER, dict(K=8, alpha=2.0, root_k=3), "root_k"),
            (SpacingForm.FOUR_ROOT_PLUS, dict(M=4, Mp=4, K=4, L=8, beta=0.5), "beta"),
            (SpacingForm.FOUR_ROOT_MINUS, dict(M=4, Mp=4, K=4, L=4, alpha=2.0), "alpha")]:
        with pytest.raises(ValueError, match=f"form {form.value} does not read {unread}$"):
            BoxSpec(form=form, delta=0.1, **box)
    # the defaults spelled out, and the fields each form reads, are accepted
    BoxSpec(form=SpacingForm.THREE_ROOT, M=8, Mp=8, delta=0.1, root_k=2, beta=0.0)
    BoxSpec(form=SpacingForm.FOUR_ROOT_KTH, M=8, delta=0.1, root_k=3)
    BoxSpec(form=SpacingForm.NEAR_INTEGER, K=8, delta=0.1, alpha=2.0, beta=0.5)


# One box of each root-sum form, its largest root sum A = sum of (2R)^(1/r)
# over the sides, and the scale of its threshold t = delta * scale.  At delta
# 1e-20 rounding decided their exact zeros: minus counted 1,815 of 8,136, both
# k-th root boxes 0, three-root 37 of 80, and plus -12.
ROOT_SUM_BOXES = [
    pytest.param(SpacingForm.FOUR_ROOT_MINUS, dict(M=64, Mp=64, K=64, L=64),
                 4 * 128**0.5, 8.0, id="minus-64"),
    pytest.param(SpacingForm.FOUR_ROOT_KTH, dict(M=64), 4 * 128**0.5, 8.0, id="kth-64"),
    pytest.param(SpacingForm.FOUR_ROOT_KTH, dict(M=16, root_k=3), 4 * 32 ** (1 / 3),
                 16 ** (1 / 3), id="kth-16-r3"),
    pytest.param(SpacingForm.THREE_ROOT, dict(M=64, Mp=64), 2 * 128**0.5, 8.0,
                 id="three-root-64"),
    pytest.param(SpacingForm.FOUR_ROOT_PLUS, dict(M=16, Mp=16, K=16, L=128),
                 3 * 32**0.5 + 16, 4.0, id="plus-16-128"),
]


def root_sum_floor(top: float, scale: float) -> float:
    """The least delta a root-sum box accepts: t = 2^-56 A."""
    return 2.0 ** -56 * top / scale


@pytest.mark.parametrize("form,box,top,scale", ROOT_SUM_BOXES)
def test_root_sum_threshold_floor(form, box, top, scale):
    # 2^-56 A is 32 times the rule's rounding bound 8 2^-64 (A + t): below
    # it a box is rejected, and just above it every exact zero is counted
    floor = root_sum_floor(top, scale)
    for delta in (1e-20, floor * 0.99):
        with pytest.raises(ValueError, match="rounding decides zeros"):
            BoxSpec(form=form, delta=delta, **box)
    res = count_box(BoxSpec(form=form, delta=floor * 1.01, **box))
    if form is SpacingForm.FOUR_ROOT_PLUS:
        assert res.count >= 0
    else:
        assert res.count >= res.exact_zero_count > 0


def test_budget_errors(monkeypatch):
    spec = BoxSpec(form=SpacingForm.FOUR_ROOT_MINUS, M=100, Mp=100, K=100,
                   L=100, delta=0.1)
    monkeypatch.setattr(spacing, "WORK_BUDGET", 1000)
    with pytest.raises(errors.BudgetError):
        count_box(spec)
    # one box per form: the budget caps the entries a count sorts plus
    # streams: K values, M x Mp three-root sums, or both four-root pair tables
    for form, box, work in [
            (SpacingForm.NEAR_INTEGER, dict(K=40, alpha=2.0), 40),
            (SpacingForm.THREE_ROOT, dict(M=6, Mp=5), 6 * 5),
            (SpacingForm.FOUR_ROOT_MINUS, dict(M=3, Mp=4, K=50, L=5), 3 * 4 + 5 * 50),
            (SpacingForm.FOUR_ROOT_PLUS, dict(M=3, Mp=4, K=5, L=50), 3 * 4 + 5 * 50),
            (SpacingForm.FOUR_ROOT_KTH, dict(M=4, root_k=3), 2 * 4 * 4)]:
        monkeypatch.setattr(spacing, "WORK_BUDGET", work)
        count_box(BoxSpec(form=form, delta=0.1, **box))
        monkeypatch.setattr(spacing, "WORK_BUDGET", work - 1)
        with pytest.raises(errors.BudgetError):
            count_box(BoxSpec(form=form, delta=0.1, **box))
    monkeypatch.undo()
    with pytest.raises(errors.BudgetError):
        min_gap_three(10**6)
    with pytest.raises(errors.BudgetError):
        min_gap_four(10**5)
    # a memory ceiling, not a work budget: 110 bytes per pair
    with pytest.raises(errors.CapacityError):
        enumerate_exact_quadruples(10**5)


def test_budget_counts_every_streamed_sum(monkeypatch):
    # one pair sum against 2^40: 2^20 tuples (m, n, k) or (m, n, l) for the
    # solved counter the sorted sums replaced, but hours of streamed sums
    def unreachable(*args, **kwargs):
        raise AssertionError("a table was built past the work budget")

    for name in ("core_tables", "_sqrt_box"):
        monkeypatch.setattr(spacing, name, unreachable)
    for form in (SpacingForm.FOUR_ROOT_MINUS, SpacingForm.FOUR_ROOT_PLUS):
        with pytest.raises(errors.BudgetError):
            count_box(BoxSpec(form=form, M=1, Mp=1, K=2**20, L=2**20, delta=0.1))


def test_box_memory_ceiling(monkeypatch):
    # 290 bytes per unit of the sides summed, the solved inner side included,
    # 33 per entry of the sorted pair table and 100 per element of a streamed
    # block (of four-root pair sums or three-root sums), checked before any
    # table
    def unreachable(*args, **kwargs):
        raise AssertionError("allocation reached past the memory ceiling")

    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 10**6)
    for name in ("core_tables", "_sqrt_box", "_count_near_integer"):
        monkeypatch.setattr(spacing, name, unreachable)
    for form, box in [
            (SpacingForm.FOUR_ROOT_MINUS, dict(M=1, Mp=1, K=10**4, L=1)),
            (SpacingForm.FOUR_ROOT_PLUS, dict(M=1, Mp=1, K=1, L=10**4)),
            # pair tables of 100 and 10^4 entries, streamed in one block
            (SpacingForm.FOUR_ROOT_PLUS, dict(M=1, Mp=100, K=100, L=100)),
            (SpacingForm.THREE_ROOT, dict(M=10**4, Mp=1)),
            (SpacingForm.NEAR_INTEGER, dict(K=10**4, alpha=2.0)),
            (SpacingForm.FOUR_ROOT_KTH, dict(M=100))]:
        with pytest.raises(errors.CapacityError):
            count_box(BoxSpec(form=form, delta=0.1, **box))
    monkeypatch.undo()
    # the plus box below sorts its 8 x 6 pair table and streams its 5 x 40
    # one in a single block, and the equal three-root box streams blocks of
    # BLOCK // 200 rows of 200 sums: each count runs at its need and not a
    # byte below
    three = BoxSpec(form=SpacingForm.THREE_ROOT, M=200, Mp=200, delta=0.1)
    for spec, need, count in [
            (BoxSpec(form=SpacingForm.FOUR_ROOT_PLUS, M=8, Mp=6, K=5, L=40, delta=0.1),
             290 * (8 + 6 + 5 + 40) + 33 * 8 * 6 + 100 * 5 * 40,
             brute_count_four_root(8, 6, 5, 40, 0.1, +1, True)),
            (three, 290 * (200 + 200) + 100 * (numerics.BLOCK // 200) * 200,
             count_box(three).count)]:
        monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", need)
        assert count_box(spec).count == count
        monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", need - 1)
        with monkeypatch.context() as patch:
            for name in ("core_tables", "_sqrt_box"):
                patch.setattr(spacing, name, unreachable)
            with pytest.raises(errors.CapacityError):
                count_box(spec)


def test_triple_memory_ceiling(monkeypatch):
    # 90 bytes per row, s - 1 rows per k = s^2 q, checked before any row is
    # built
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 90 * 3748)
    assert len(enumerate_exact_triples(2000)) == 3748
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 90 * 3748 - 1)
    with pytest.raises(errors.CapacityError):
        enumerate_exact_triples(2000)
    # up to 1e6 the core table needs 24 MB and its 3,770,060 rows 339 MB: the
    # row check raises, and only the core table may have been allocated
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 10**8)
    tracemalloc.start()
    try:
        with pytest.raises(errors.CapacityError, match="triples up to 1000000"):
            enumerate_exact_triples(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**8


def test_quadruple_memory_ceiling(monkeypatch):
    # 110 bytes per pair (m, n) <= limit, checked before any pair is listed
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 110 * 60 * 60)
    assert len(enumerate_exact_quadruples(60)) == 7344
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 110 * 60 * 60 - 1)
    with pytest.raises(errors.CapacityError):
        enumerate_exact_quadruples(60)
    # 1e8 pairs up to 1e4 would take 11 GB; only the core table may be built
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(errors.CapacityError):
            enumerate_exact_quadruples(10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def _peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadruple_and_zero_count_peaks_within_their_ceilings():
    # the quadruples to 300 within _QUADRUPLE_BYTES_PER_PAIR a pair, and the
    # exact-zero join of each four-root form within _BOX_BYTES_PER_SIDE a
    # unit of the sides, which count_box checks before the pair tables exist
    assert _peak(lambda: enumerate_exact_quadruples(300)) \
        <= spacing._QUADRUPLE_BYTES_PER_PAIR * 300 * 300
    for boxes, n_left, r in [((1024,) * 4, 2, 2), ((1024,) * 4, 3, 2), ((1024,) * 4, 2, 3),
                             ((128, 128, 128, 1024), 3, 2), ((1, 1, 1, 4096), 2, 2)]:
        assert _peak(lambda: spacing._zero_count_four(boxes, n_left, r)) \
            <= spacing._BOX_BYTES_PER_SIDE * sum(boxes)


def test_gap_memory_ceiling(monkeypatch):
    # 100 bytes per pair m <= n of the largest block, at most numerics.BLOCK
    # of them, 40 per pair of the table a four-root search holds (every pair
    # up to the limit) and 50 per unit of the limit, checked before any table
    def unreachable(*args, **kwargs):
        raise AssertionError("allocation reached past the memory ceiling")

    for search, limit, pairs, table in [
            (lambda: min_gap_three(1000), 1000, numerics.BLOCK, 0),
            (lambda: min_gap_four(40, -1), 40, 40 * 41 // 2, 40 * 41 // 2),
            (lambda: min_gap_four(40, 1), 40, 40 * 41 // 2, 40 * 41 // 2)]:
        need = 100 * pairs + 40 * table + 50 * limit
        monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", need)
        search()
        monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", need - 1)
        with monkeypatch.context() as patch:
            for name in ("core_tables", "_pairs"):
                patch.setattr(spacing, name, unreachable)
            with pytest.raises(errors.CapacityError):
                search()


def test_form_parse():
    assert SpacingForm.parse("four-root-minus") is SpacingForm.FOUR_ROOT_MINUS
    with pytest.raises(ValueError):
        SpacingForm.parse("five-root")
