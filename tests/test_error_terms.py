import math

import mpmath
import numpy as np
import pytest

from divisorlab import errors
from divisorlab.error_terms import (ErrorTermKind, delta_star_identity_residual,
                                    error_term, jump_denominator, smooth_main_term,
                                    step_part, step_table_need)
from divisorlab.moments import _step_prefix, moment_profile
from divisorlab.sieves import TableKind, sieve_divisors, summatory_d
from oracles import piecewise_segments


def test_delta_example():
    # D(10) = 27 against the sieve; smooth part with 30-digit gamma
    with mpmath.workdps(30):
        expected = 27 - 10 * (mpmath.log(10) + 2 * mpmath.euler - 1)
        assert abs(error_term(ErrorTermKind.DELTA, 10) - float(expected)) < 1e-12
    assert error_term(ErrorTermKind.DELTA, 10) == pytest.approx(2.42984, abs=1e-5)


def test_circle_example():
    with mpmath.workdps(30):
        expected = 80 - 25 * mpmath.pi
        assert abs(error_term(ErrorTermKind.CIRCLE, 25) - float(expected)) < 1e-12
    assert error_term(ErrorTermKind.CIRCLE, 25) == pytest.approx(1.46018, abs=1e-5)


def test_delta_star_from_brute_force_summatory():
    # -Delta(1) + 2 Delta(2) - Delta(4)/2 with D values 1, 3, 8
    with mpmath.workdps(30):
        g = mpmath.euler
        d1 = 1 - 1 * (mpmath.log(1) + 2 * g - 1)
        d2 = 3 - 2 * (mpmath.log(2) + 2 * g - 1)
        d4 = 8 - 4 * (mpmath.log(4) + 2 * g - 1)
        expected = float(-d1 + 2 * d2 - d4 / 2)
    assert error_term(ErrorTermKind.DELTA_STAR, 1) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("x", [1, 1000.5, 123456.25])
def test_identity_residual_spec_points(x):
    assert abs(delta_star_identity_residual(x)) <= 1e-8


def test_identity_residual_random():
    rng = np.random.default_rng(17)
    for x in rng.uniform(1, 10**5, 300):
        assert abs(delta_star_identity_residual(float(x))) <= 1e-8


def _step_pieces(kind, a, b):
    """(left, right, constant) of the step table's segments covering [a, b]."""
    denom = jump_denominator(kind)
    ticks = np.arange(math.floor(a * denom), math.ceil(b * denom))
    consts = step_part(kind, _step_prefix(kind, b).__getitem__, ticks)
    return [(t / denom, (t + 1) / denom, c) for t, c in zip(ticks, consts)]


def test_segments_delta():
    assert jump_denominator(ErrorTermKind.DELTA) == 1
    assert step_table_need(ErrorTermKind.DELTA, 3) == (TableKind.DIVISOR, 3)
    assert _step_pieces(ErrorTermKind.DELTA, 1, 3) == [(1, 2, 1), (2, 3, 3)]
    assert piecewise_segments("delta", 1, 3) == [(1, 2, 1), (2, 3, 3)]


def test_segments_circle_single():
    assert step_table_need(ErrorTermKind.CIRCLE, 2) == (TableKind.SUM_OF_TWO_SQUARES, 2)
    assert _step_pieces(ErrorTermKind.CIRCLE, 1, 2) == [(1, 2, 4)]
    assert piecewise_segments("circle", 1, 2) == [(1, 2, 4)]


def test_segments_delta_star_quarter_breakpoints():
    # delta-star reads D(4x), so its table reaches 4x and it jumps at 1.25
    assert jump_denominator(ErrorTermKind.DELTA_STAR) == 4
    assert step_table_need(ErrorTermKind.DELTA_STAR, 1.5) == (TableKind.DIVISOR, 6)
    pieces = _step_pieces(ErrorTermKind.DELTA_STAR, 1, 1.5)
    assert pieces == [(1, 1.25, 1), (1.25, 1.5, 0)]
    assert piecewise_segments("delta-star", 1, 1.5) == pieces


def test_segment_jumps_match_sieve():
    table = sieve_divisors(60)
    pieces = _step_pieces(ErrorTermKind.DELTA, 3, 50)
    for a, b in zip(pieces, pieces[1:]):
        assert b[2] - a[2] == table.value(int(b[0]))


def test_segment_value_matches_error_term():
    # the step table's constant at every tick is the brute-force step sum,
    # and constant - smooth part is the error term there, bit for bit; the
    # midpoint check shows nothing jumps inside a segment
    for kind in ErrorTermKind:
        pieces = _step_pieces(kind, 1, 12)
        assert pieces == piecewise_segments(kind.value, 1, 12)
        for left, right, const in pieces:
            for x in (left, (left + right) / 2):
                got = float(const - smooth_main_term(kind, x))
                assert got == error_term(kind, x)


def test_piecewise_antiderivative_consistency():
    # error(x) = c - s(x) on a segment, so error(right) - error(left) must
    # equal -(s(right) - s(left)); evaluate s independently with mpmath
    with mpmath.workdps(40):
        for kind, smooth in [
            (ErrorTermKind.DELTA,
             lambda x: x * (mpmath.log(x) + 2 * mpmath.euler - 1)),
            (ErrorTermKind.CIRCLE, lambda x: mpmath.pi * x),
        ]:
            for left, right, const in _step_pieces(kind, 7, 12):
                left_val = float(const - smooth_main_term(kind, left))
                right_lim = float(const - smooth_main_term(kind, right))
                drop = float(smooth(right) - smooth(left))
                assert right_lim - left_val == pytest.approx(-drop, abs=1e-10)


@pytest.mark.parametrize("kind, x", [(ErrorTermKind.DELTA, 1e15),
                                     (ErrorTermKind.DELTA, 1e16),
                                     (ErrorTermKind.DELTA_STAR, 2e15)])
def test_step_part_exact_beyond_double_precision(kind, x):
    # D(x) passes 2^53 near x = 2.7e14; the exact step part must not be
    # rounded to a double before the smooth part is subtracted
    with mpmath.workdps(50):
        def delta(y):
            return summatory_d(y) - mpmath.mpf(y) * (
                mpmath.log(y) + 2 * mpmath.euler - 1)
        if kind is ErrorTermKind.DELTA:
            expected = delta(x)
        else:
            expected = -delta(x) + 2 * delta(2 * x) - delta(4 * x) / 2
        assert abs(error_term(kind, x) - float(expected)) <= 1e-2


def test_mean_tendency_bounded():
    prof = moment_profile(ErrorTermKind.DELTA, (1,), [10**3, 10**4, 10**5, 10**6])
    for X, value in zip((10**3, 10**4, 10**5, 10**6), prof[1]):
        assert abs(value / X) <= 1.0


# recorded from the build pilot: max over the X grid of
# sup|delta| on [X, 2X] divided by X^(1/3) was 2.2861 (at X = 1e5)
SUP_RATIO_CEILING = 2.30


@pytest.mark.parametrize("X", [10**3, 10**4, 10**5, 10**6])
def test_sup_norm_scaling(X):
    table = sieve_divisors(2 * X + 2)
    prefix = np.cumsum(table.values.astype(np.int64))
    n = np.arange(X, 2 * X, dtype=np.int64)
    base = prefix[n].astype(np.longdouble)
    left = base - smooth_main_term(ErrorTermKind.DELTA, n.astype(np.longdouble))
    right = base - smooth_main_term(ErrorTermKind.DELTA, (n + 1).astype(np.longdouble))
    sup = float(max(np.abs(left).max(), np.abs(right).max()))
    assert sup / X ** (1 / 3) <= SUP_RATIO_CEILING


def test_rejects_x_below_one():
    with pytest.raises(errors.RangeError):
        error_term(ErrorTermKind.DELTA, 0.5)
    with pytest.raises(errors.RangeError):
        moment_profile(ErrorTermKind.DELTA, (1,), [3], start=0.2)


def test_kind_parse():
    assert ErrorTermKind.parse("delta-star") is ErrorTermKind.DELTA_STAR
    with pytest.raises(ValueError):
        ErrorTermKind.parse("nope")


def test_smooth_part_precision_large_x():
    # the smooth part at x = 1e9 must carry more than double precision:
    # compare against mpmath at 40 digits
    x = 10**9 + 0.5
    with mpmath.workdps(40):
        ref = mpmath.mpf(x) * (mpmath.log(x) + 2 * mpmath.euler - 1)
        got = smooth_main_term(ErrorTermKind.DELTA, x)
        # convert the reference through a string: np.longdouble(mpf) would
        # round through a 53-bit double and spoil the comparison
        assert abs(float(np.longdouble(mpmath.nstr(ref, 30)) - got)) < 1e-6


def test_longdouble_is_extended_precision():
    # x87 80-bit extended (x86-64 Linux) has a 63-bit fraction; where long
    # double is a plain double (MSVC on Windows, macOS on Apple silicon)
    # nmant is 52 and these claims fail: error terms to 1e-6 up to x = 1e9, the
    # exact step part below 2^64, lossless folding of Voronoi phases below
    # 2^32, and the spacing thresholds of the near-integer guard
    assert np.finfo(np.longdouble).nmant >= 63, (
        "numpy longdouble is not 80-bit extended precision; the precision "
        "claims of error_terms, voronoi and spacing do not hold here")
