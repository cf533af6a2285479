import math

import numpy as np
import pytest

from divisorlab import cli, errors, numerics, sieves, voronoi
from divisorlab.error_terms import ErrorTermKind, error_term
from divisorlab.sieves import sieve_divisors
from divisorlab.voronoi import (build_series, evaluate_block, phases,
                                remainder_stats, truncated)


def test_two_term_delta_example():
    got = truncated(ErrorTermKind.DELTA, 2, 1)
    expected = (1 / (math.pi * math.sqrt(2))) * (
        math.cos(4 * math.pi - math.pi / 4)
        + 2 * 2 ** -0.75 * math.cos(4 * math.pi * math.sqrt(2) - math.pi / 4))
    assert got == pytest.approx(expected, abs=1e-12)


def test_two_term_circle_example():
    got = truncated(ErrorTermKind.CIRCLE, 2, 1)
    expected = (-1 / math.pi) * (
        4 * math.cos(2 * math.pi + math.pi / 4)
        + 4 * 2 ** -0.75 * math.cos(2 * math.pi * math.sqrt(2) + math.pi / 4))
    assert got == pytest.approx(expected, abs=1e-12)


def test_coefficients_match_sieve():
    series = build_series(ErrorTermKind.DELTA, 50)
    table = sieve_divisors(50)
    ns = np.arange(1, 51, dtype=float)
    expected = table.values[1:51].astype(float) * ns ** -0.75
    assert np.allclose(series.coefficients.astype(float), expected, rtol=1e-15)
    star = build_series(ErrorTermKind.DELTA_STAR, 50)
    signs = np.where(ns.astype(int) % 2 == 0, 1.0, -1.0)
    assert np.allclose(star.coefficients.astype(float), expected * signs, rtol=1e-15)


def test_series_constants():
    # bit for bit: delta and delta-star share the divisor table's constants
    divisor = tuple(map(float.fromhex, ("0x1.ccf6429be6621p-3", "-0x1.921fb54442d18p-1",
                                        "0x1.921fb54442d18p+3")))
    circle = tuple(map(float.fromhex, ("-0x1.45f306dc9c883p-2", "0x1.921fb54442d18p-1",
                                       "0x1.921fb54442d18p+2")))
    for kind, expected in ((ErrorTermKind.DELTA, divisor),
                           (ErrorTermKind.DELTA_STAR, divisor), (ErrorTermKind.CIRCLE, circle)):
        series = build_series(kind, 4)
        assert (series.amplitude, series.phase, series.frequency_scale) == expected
    assert divisor == pytest.approx((1 / (math.pi * math.sqrt(2)), -math.pi / 4, 4 * math.pi),
                                    rel=1e-15)
    assert circle == pytest.approx((-1 / math.pi, math.pi / 4, 2 * math.pi), rel=1e-15)


def test_truncation_additivity():
    # extending N to N' changes the value by exactly the missing partial sum
    x = 3081.25
    small = build_series(ErrorTermKind.DELTA, 40)
    large = build_series(ErrorTermKind.DELTA, 90)
    tail_only = float(
        np.longdouble(large.amplitude) * np.longdouble(x) ** np.longdouble(0.25)
        * np.sum(large.coefficients[40:] * np.cos(phases(large, x)[40:])))
    diff = evaluate_block(large, [x])[0] - evaluate_block(small, [x])[0]
    assert diff == pytest.approx(tail_only, abs=1e-11)


def test_phase_reduction_lossless():
    # folded phases and the unfolded f*sqrt(n*x) + phase, both in longdouble,
    # agree to 1e-9 under the cosine even with n*x near 1e12
    series = build_series(ErrorTermKind.DELTA, 10**4)
    x = 9.7e7  # n*x up to ~1e12
    ns = np.arange(1, series.truncation + 1, dtype=np.longdouble)
    reduced = np.cos(phases(series, x))
    direct = np.cos(np.longdouble(series.frequency_scale) * np.sqrt(ns * np.longdouble(x))
                    + np.longdouble(series.phase))
    assert float(np.max(np.abs(reduced - direct))) < 1e-9


@pytest.mark.parametrize("kind", [ErrorTermKind.DELTA, ErrorTermKind.CIRCLE])
@pytest.mark.parametrize("x", [2e6, 1e13])
def test_phase_error_within_double_frequency_bound(kind, x):
    # frequency_scale is f rounded to a double, relative error at most 2^-53,
    # so phases() stays within 2^-53*f*sqrt(N*x) of longdouble-f phases
    series = build_series(kind, 10**4)
    f = (2 if kind is ErrorTermKind.CIRCLE else 4) * numerics.PI_LD
    ns = np.arange(1, series.truncation + 1, dtype=np.longdouble)
    t = f * np.sqrt(ns * np.longdouble(x))
    exact = t - numerics.TWO_PI_LD * np.floor(t / numerics.TWO_PI_LD) + np.longdouble(series.phase)
    err = (phases(series, x) - exact + numerics.PI_LD) % numerics.TWO_PI_LD - numerics.PI_LD
    bound = 2.0 ** -53 * series.frequency_scale * math.sqrt(series.truncation * x)
    assert float(np.max(np.abs(err))) <= bound


def test_block_evaluation_matches_pointwise(monkeypatch):
    series = build_series(ErrorTermKind.CIRCLE, 300)
    xs = np.linspace(500, 2500, 37)
    monkeypatch.setattr(numerics, "BLOCK", 8 * 300)   # 8 points per block
    blocked = evaluate_block(series, xs)
    pointwise = np.array([evaluate_block(series, [float(x)])[0] for x in xs])
    assert np.array_equal(blocked, pointwise)


def test_series_memory_ceiling(monkeypatch):
    # coefficients plus one evaluation row, 80 bytes per term, are checked
    # before the table is sieved
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 80 * 1000)
    assert build_series(ErrorTermKind.DELTA, 1000).truncation == 1000

    def unreachable(*args, **kwargs):
        raise AssertionError("allocation reached past the memory ceiling")

    monkeypatch.setattr(voronoi, "sieve", unreachable)
    for kind in ErrorTermKind:
        with pytest.raises(errors.CapacityError):
            build_series(kind, 1001)
    with pytest.raises(errors.CapacityError):
        voronoi.truncated(ErrorTermKind.DELTA, 10**4, 2.0)


def test_remainder_stats_deterministic():
    a = remainder_stats(ErrorTermKind.DELTA, 64, 2000.0, 100, seed=42)
    b = remainder_stats(ErrorTermKind.DELTA, 64, 2000.0, 100, seed=42)
    assert a.rms == b.rms and a.sup == b.sup
    assert a.rms <= a.sup


def test_remainder_improves_with_full_truncation():
    # rms at N = X must not exceed rms at N = sqrt(X), same seed
    X = 10**4
    full = remainder_stats(ErrorTermKind.DELTA, X, X, 100, seed=7)
    short = remainder_stats(ErrorTermKind.DELTA, 100, X, 100, seed=7)
    assert full.rms <= short.rms


def test_delta_star_series_tracks_its_error_term():
    X = 10**4
    wide = remainder_stats(ErrorTermKind.DELTA_STAR, 100, X, 100, seed=3)
    tight = remainder_stats(ErrorTermKind.DELTA_STAR, 5000, X, 100, seed=3)
    assert tight.rms < wide.rms


# recorded from the build pilot at a jump-and-resonance point: the series
# converges to the half-jump value there, so the distance to the
# right-continuous error term stays below it relative to |error|
PILOT_GAP_AT_1E4 = 14.036610357407453


def test_pilot_gap_thousand_terms_at_1e4():
    exact = error_term(ErrorTermKind.DELTA, 10**4)
    approx = truncated(ErrorTermKind.DELTA, 1000, 10**4)
    gap = exact - approx
    assert gap == pytest.approx(PILOT_GAP_AT_1E4, abs=1e-9)
    assert abs(gap) <= 0.8 * abs(exact)


def test_validation_errors():
    with pytest.raises(ValueError):
        build_series(ErrorTermKind.DELTA, 1)
    with pytest.raises(errors.RangeError):
        truncated(ErrorTermKind.DELTA, 4, 0.5)
    with pytest.raises(errors.RangeError):   # phase 4*pi*sqrt(N*x) >= 2^32
        evaluate_block(build_series(ErrorTermKind.DELTA, 10), [2.0, 1.2e17])
    with pytest.raises(ValueError):
        remainder_stats(ErrorTermKind.DELTA, 16, 1000.0, sample_count=50)
    with pytest.raises(errors.RangeError):
        remainder_stats(ErrorTermKind.DELTA, 2000, 1000.0, 100)


def test_remainder_work_budget(monkeypatch, capsys):
    # each sample costs about sqrt(denom * 2X) + 2000 summatory steps, and the
    # budget is checked before the series is built
    def unreachable(*args, **kwargs):
        raise AssertionError("series built past the work budget")

    monkeypatch.setattr(voronoi, "build_series", unreachable)
    for kind, X, samples in [(ErrorTermKind.DELTA, 50.0, 5 * 10**7),
                             (ErrorTermKind.DELTA, 1e12, 10**5),
                             (ErrorTermKind.DELTA_STAR, 1e12, 2000),
                             (ErrorTermKind.CIRCLE, 1e17, 100)]:
        with pytest.raises(errors.BudgetError):
            remainder_stats(kind, 10, X, samples)
    # work equal to the budget passes the check
    monkeypatch.setattr(voronoi, "WORK_BUDGET", 100 * (math.sqrt(2e12) + 2000))
    with pytest.raises(AssertionError):
        remainder_stats(ErrorTermKind.DELTA, 10, 1e12, 100)
    assert cli.main(["voronoi", "--kind", "delta", "-N", "10", "--scale", "1e12",
                     "--samples", "1e5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("compute error:") and "budget" in err
