import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from divisorlab import constants, errors, sieves
from divisorlab.constants import (DIVISOR_MAJORANT,
                                  classical_mean_square_coefficient,
                                  cubic_diagonal_series,
                                  cubic_moment_coefficient,
                                  quartic_diagonal_series,
                                  quartic_moment_coefficient)
from divisorlab.sieves import core_families, sieve_divisors, summatory_d
from divisorlab.spacing import enumerate_exact_quadruples, enumerate_exact_triples
from oracles import diagonal_series_by_core


def test_cubic_hand_values():
    # single triple (1,1,4): 3 * 4^(-3/4)
    assert cubic_diagonal_series(4).value == pytest.approx(3 * 4 ** -0.75, rel=1e-12)
    # cutoff 8 adds (2,2,8): 16 * 32^(-3/4)
    added = cubic_diagonal_series(8).value - cubic_diagonal_series(4).value
    assert added == pytest.approx(16 * 32 ** -0.75, rel=1e-12)
    assert added == pytest.approx(1.18921, abs=1e-5)


def test_quartic_hand_values():
    # cutoff 1 admits only (1,1,1,1) with term 1
    assert quartic_diagonal_series(1).value == pytest.approx(1.0, rel=1e-14)
    # (1,9,4,4) contributes d(9)*d(4)^2*(144)^(-3/4) = 27 * 144^(-3/4)
    assert 27 * 144 ** -0.75 == pytest.approx(0.6495, abs=1e-4)


def test_cubic_series_equals_sum_over_enumerated_triples():
    cutoff = 300
    table = sieve_divisors(cutoff)
    total = 0.0
    for m, n, k in enumerate_exact_triples(cutoff).tolist():
        total += (int(table.values[m]) * int(table.values[n]) * int(table.values[k])
                  * (m * n * k) ** -0.75)
    assert cubic_diagonal_series(cutoff).value == pytest.approx(total, rel=1e-12)


def test_quartic_series_equals_sum_over_enumerated_quadruples():
    cutoff = 40
    table = sieve_divisors(cutoff)
    d = table.values.astype(float)
    rows = enumerate_exact_quadruples(cutoff)
    prod = d[rows[:, 0]] * d[rows[:, 1]] * d[rows[:, 2]] * d[rows[:, 3]]
    scale = (rows[:, 0] * rows[:, 1] * rows[:, 2] * rows[:, 3]).astype(float) ** -0.75
    total = float(np.sum(prod * scale))
    assert quartic_diagonal_series(cutoff).value == pytest.approx(total, rel=1e-12)


def test_series_equal_per_core_convolution_loop_bit_for_bit():
    # every cutoff to 1000 meets each small width and group edge; all cutoffs
    # to 5000 would cost the library ~30 s, so beyond 1000 every 37th
    cutoffs = [*range(1, 1001), *range(1001, 5001, 37), 5000, 10**5]
    expected = diagonal_series_by_core(cutoffs)
    table = sieve_divisors(10**5)
    for cutoff in cutoffs:
        cubic, quartic = expected[cutoff]
        if cutoff >= 4:
            assert cubic_diagonal_series(cutoff, table).value == cubic, cutoff
        assert quartic_diagonal_series(cutoff, table).value == quartic, cutoff


def test_series_values_and_tail_bounds_are_pinned():
    # float.hex of value and tail_bound, as given by the tail widths
    # floor(sqrt(cutoff / q)) in floating point; the integer family widths
    # must reproduce them bit for bit
    pinned = json.loads((Path(__file__).parent / "golden" / "series-hex.json")
                        .read_text(encoding="utf-8"))
    table = sieve_divisors(10**5)
    for cutoff, want in pinned.items():
        cutoff = int(cutoff)
        if cutoff >= 4:
            got = cubic_diagonal_series(cutoff, table)
            assert [got.value.hex(), got.tail_bound.hex()] == want["cubic"], cutoff
        got = quartic_diagonal_series(cutoff, table)
        assert [got.value.hex(), got.tail_bound.hex()] == want["quartic"], cutoff


def test_core_groups_convolve_bit_for_bit():
    cores, amaxes = core_families(10**5)
    d = sieve_divisors(10**5).values
    widths = 0
    for group, W, conv in constants._core_groups(d, cores, amaxes):
        widths += 1
        assert W.shape == (group.stop - group.start, amaxes[group.start])
        for w, row in zip(W, conv):
            assert np.array_equal(row, np.convolve(w, w))
    assert widths == 71


def test_partial_sums_monotone():
    prev = 0.0
    for cutoff in (4, 8, 16, 64, 256, 1024):
        val = cubic_diagonal_series(cutoff).value
        assert val >= prev
        prev = val
    prev = 0.0
    for cutoff in (1, 4, 16, 64, 256, 1024):
        val = quartic_diagonal_series(cutoff).value
        assert val >= prev
        prev = val


def test_convergence_contract():
    for builder in (cubic_diagonal_series, quartic_diagonal_series):
        small = builder(10**4)
        large = builder(2 * 10**4)
        assert abs(large.value - small.value) < small.tail_bound
        # bracket overlap across the doubling
        lo = max(small.value - small.tail_bound, large.value - large.tail_bound)
        hi = min(small.value + small.tail_bound, large.value + large.tail_bound)
        assert lo <= hi


def test_tail_bound_nonnegative_and_shrinking():
    a = cubic_diagonal_series(10**3)
    b = cubic_diagonal_series(10**4)
    assert a.tail_bound > 0 and b.tail_bound > 0
    assert b.tail_bound < a.tail_bound


def test_coefficient_reductions():
    # closed-form reduction equals the staged product for the cubic side:
    # (pi sqrt2)^-3 * (3c/(4 sqrt2)) * (4/7) == 3c/(28 pi^3)
    c = 7.3
    staged = (math.pi * math.sqrt(2)) ** -3 * (3 * c / (4 * math.sqrt(2))) * (4 / 7)
    assert staged == pytest.approx(3 * c / (28 * math.pi ** 3), rel=1e-14)
    # quartic: (pi sqrt2)^-4 * (3c/8) * (1/2) == 3c/(64 pi^4)
    staged = (math.pi * math.sqrt(2)) ** -4 * (3 * c / 8) * 0.5
    assert staged == pytest.approx(3 * c / (64 * math.pi ** 4), rel=1e-14)


def test_moment_coefficients_positive_and_scaled():
    table = sieve_divisors(10**4)
    c1 = cubic_diagonal_series(10**4, table)
    b = cubic_moment_coefficient(10**4, table)
    assert b.value == pytest.approx(3 * c1.value / (28 * math.pi ** 3), rel=1e-14)
    assert b.value > 0
    c2 = quartic_diagonal_series(10**4, table)
    c = quartic_moment_coefficient(10**4, table)
    assert c.value == pytest.approx(3 * c2.value / (64 * math.pi ** 4), rel=1e-14)
    assert c.value > 0


def test_single_triple_coefficient_example():
    # cubic coefficient from cutoff 4 alone: 3 * 1.06066 / (28 pi^3)
    b = cubic_moment_coefficient(4)
    assert b.value == pytest.approx(0.003664, abs=2e-6)


def test_first_term_quartic_coefficient_example():
    # 3 / (64 pi^4) from the all-ones quadruple alone
    c = quartic_moment_coefficient(1)
    assert c.value == pytest.approx(4.812e-4, abs=1e-6)


def test_inner_literals_bracket_closed_forms():
    # each literal is a partial sum to 1e5 plus its integral tail there, so
    # it exceeds the complete sum, 2 zeta(3) or 11 zeta(4), by at most that tail
    with mpmath.workdps(30):
        for literal, closed, tail in (
                (constants._CUBIC_INNER, 2 * mpmath.zeta(3), constants._tail_inner_cubic),
                (constants._QUARTIC_INNER, 11 * mpmath.pi**4 / 90,
                 constants._tail_inner_quartic)):
            assert closed < literal <= closed + float(tail(1e5))


def test_inner_tail_helpers_bound_exact_tails():
    # the exact tail over s > S is the closed form minus the partial sum to S
    with mpmath.workdps(30):
        cubic, quartic, h = 2 * mpmath.zeta(3), 11 * mpmath.zeta(4), mpmath.mpf(0)
        for s in range(2, 3001):
            h += mpmath.mpf(1) / (s - 1)
            cubic -= 2 * h / s**2
            quartic -= (2 * h / s) ** 2
            if s in (2, 3, 10, 100, 1000, 3000):
                assert float(constants._tail_inner_cubic(float(s))) >= cubic > 0, s
                assert float(constants._tail_inner_quartic(float(s))) >= quartic > 0, s


def test_divisor_tail_helper_bounds_exact_tail():
    # sum_{n > M} d(n) n^(-p) = zeta(p)^2 - sum_{n <= M} d(n) n^(-p); that
    # difference of doubles is off by under 1e-13, far below the slack
    d = sieve_divisors(10**5).values[1:].astype(float)
    ns = np.arange(1, 10**5 + 1, dtype=float)
    for p in (1.25, 2.25):
        terms = d * ns**-p
        for M in (1, 4, 100, 1000, 10**5):
            exact = float(mpmath.zeta(p) ** 2 - math.fsum(terms[:M]))
            assert constants._tail_weighted_divisor_sum(M, p) >= exact > 0, (p, M)


def test_majorant_constant_is_safe():
    # the scanned base ratio must sit well inside the published constant
    c = DIVISOR_MAJORANT
    table = sieve_divisors(10**6)
    ns = np.arange(1, 10**6 + 1, dtype=float)
    ratios = table.values[1:].astype(float) / ns ** 0.25
    assert float(ratios.max()) <= c / 1.4


def test_majorant_literal_equals_the_scan():
    # 1.5 times the largest float64 d(n)/n^(1/4) for n <= 2e6, bit for bit
    limit = 2 * 10**6
    ns = np.arange(1, limit + 1, dtype=float)
    ratios = sieve_divisors(limit).values[1:].astype(float) / ns**0.25
    assert DIVISOR_MAJORANT == float(ratios.max()) * 1.5
    assert int(np.argmax(ratios)) + 1 == 1441440


def test_majorant_bounds_every_n():
    # sup d(n)/n^(1/4) = prod_{p<16} max_a (a+1)/p^(a/4), since every factor
    # of a prime p >= 16 is at most 1; its fourth power, exactly
    fourth = Fraction(1)
    for p in (2, 3, 5, 7, 11, 13):
        fourth *= max(Fraction((a + 1) ** 4, p**a) for a in range(40))
    assert fourth == Fraction(127401984, 25025)
    assert Fraction(DIVISOR_MAJORANT) ** 4 >= fourth


def test_quartic_series_memory_ceiling(monkeypatch):
    # 66 bytes per unit of cutoff, checked before the table is sieved
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 66 * 1000)
    assert quartic_diagonal_series(1000).cutoff == 1000

    def unreachable(*args, **kwargs):
        raise AssertionError("allocation reached past the memory ceiling")

    monkeypatch.setattr(constants, "sieve", unreachable)
    with pytest.raises(errors.CapacityError):
        quartic_diagonal_series(1001)
    with pytest.raises(errors.CapacityError):
        quartic_moment_coefficient(10**4)


def test_cubic_series_memory_ceiling(monkeypatch):
    # 21 bytes per unit of cutoff, checked before the table is sieved
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 21 * 1000)
    assert cubic_diagonal_series(1000).cutoff == 1000

    def unreachable(*args, **kwargs):
        raise AssertionError("allocation reached past the memory ceiling")

    monkeypatch.setattr(constants, "sieve", unreachable)
    with pytest.raises(errors.CapacityError):
        cubic_diagonal_series(1001)
    with pytest.raises(errors.CapacityError):
        cubic_moment_coefficient(10**4)


def test_divisor_summatory_log_bound():
    # D(x) <= x (log x + 1), the partial-summation ingredient of the tails
    for x in (1, 2, 10, 97, 1234, 10**5, 10**6):
        assert summatory_d(x) <= x * (math.log(x) + 1)


def test_classical_mean_square_value():
    with mpmath.workdps(30):
        expected = float(mpmath.zeta(1.5) ** 4 / (6 * mpmath.pi ** 2 * mpmath.zeta(3)))
    assert classical_mean_square_coefficient() == expected
    assert classical_mean_square_coefficient() == pytest.approx(0.65428, abs=1e-5)


def test_quartic_series_peak_allocation():
    # the tail bracket sieves nothing: cutoff 1e4 peaks well under 8 MiB
    code = ("import tracemalloc\n"
            "from divisorlab.constants import quartic_diagonal_series\n"
            "tracemalloc.start()\n"
            "quartic_diagonal_series(10**4)\n"
            "print(tracemalloc.get_traced_memory()[1])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=Path(constants.__file__).parents[1])
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 8 * 2**20
