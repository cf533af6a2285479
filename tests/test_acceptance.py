"""Acceptance suite: one test per criterion (split into sub-criteria where a
criterion has independent clauses), each printing a PASS/FAIL line with the
measured values.  Run with `pytest tests/test_acceptance.py -v -s`.

Three clauses fail on desk-scale mathematics rather than on implementation
defects, and are left asserting their stated windows:

  * A3 (coefficient clause): the cubic moment's sub-leading term is still
    ~27% of the main term at X = 1e7 (local residual exponent ~1.65,
    bending downward only past 1e8), so no 5% agreement between the fitted
    and series-derived coefficients is reachable on this grid.  The
    series-to-integral pipeline itself is verified independently: the cube
    of the truncated expansion integrates to the diagonal prediction
    within 0.2% (see test_diagonal_prediction_for_series_cube below).
  * A5 (cubic clause): same root cause; the measured ratio is ~0.67.
  * A6: the sampled rms remainder of the truncated expansion decays like
    the weighted coefficient tail, whose partial sums shrink very slowly
    (measured slope ~ -0.12), not like the sup-bound shape (slope -0.5)
    that the asserted window encodes.
"""

import math

import numpy as np
import pytest

from divisorlab import constants as cst
from divisorlab import moments, spacing, voronoi
from divisorlab.error_terms import ErrorTermKind
from divisorlab.numerics import loglog_slope
from divisorlab.sieves import sieve_divisors, sieve_r, summatory_d, summatory_r

from oracles import (alternating_prefix, brute_exact_quadruples, brute_exact_triples,
                     lattice_cumulative)
from test_error_terms import identity_residual

DELTA = ErrorTermKind.DELTA

# values recorded from the pre-build pilot runs on this code base
RECORDED = {
    "min_gap_three_2000": 0.1222002735344595,
    "min_gap_three_2000_argmin": (1, 2, 6),
    "min_gap_four_300_plus": 0.03695764055117795,
    "min_gap_four_300_minus": 0.2638031377171201,
    "ratio_three_root": 10.3703125,
    "ratio_four_root_minus": 4.565914241412214,
    "ratio_four_root_plus": 1.6425223822709991,
    "ratio_four_root_kth": 3.2278467319354935,
    "ratio_near_integer": 1.864799814785438,
}

CUBIC_SERIES_CUTOFF = 10**5        # pinned by the criterion
QUARTIC_SERIES_CUTOFF = 2 * 10**6  # chosen for convergence; see ledger
PROFILE_STOPS = [10**4, 10**5, 10**6, 2 * 10**6, 10**7]


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def divisor_table():
    return sieve_divisors(10**7)


@pytest.fixture(scope="module")
def cubic_profile(divisor_table):
    return moments.moment_profile(DELTA, (3, 4), PROFILE_STOPS,
                                  table=divisor_table)


@pytest.fixture(scope="module")
def cubic_coefficient(divisor_table):
    return cst.cubic_moment_coefficient(CUBIC_SERIES_CUTOFF, divisor_table).value


@pytest.fixture(scope="module")
def quartic_coefficient(divisor_table):
    return cst.quartic_moment_coefficient(QUARTIC_SERIES_CUTOFF,
                                          divisor_table).value


# ---------------------------------------------------------------------------

def test_a1_exact_kernel_equivalence():
    table = sieve_divisors(10**5)
    prefix = np.cumsum(table.values.astype(np.int64))
    d_bad = sum(1 for x in range(1, 10**5 + 1) if summatory_d(x) != int(prefix[x]))

    lim = 10**4
    lattice = lattice_cumulative(lim)
    r_bad = sum(1 for x in range(1, lim + 1) if summatory_r(x) != int(lattice[x]))
    sieved = sieve_r(lim)
    sieve_ok = bool((np.cumsum(sieved.values.astype(np.int64))[1:] == lattice[1:]).all())

    ok = d_bad == 0 and r_bad == 0 and sieve_ok
    assert report("A1", ok, f"D mismatches {d_bad}/1e5, R mismatches {r_bad}/1e4, "
                            f"sieve-vs-lattice {sieve_ok}")


def test_a2_alternating_identity():
    rng = np.random.default_rng(2024)
    prefix = alternating_prefix(sieve_divisors(4 * 10**5).values)
    worst = max(abs(identity_residual(float(x), prefix))
                for x in rng.uniform(1, 10**5, 10**4))
    ok = worst <= 1e-8
    assert report("A2", ok, f"worst residual {worst:.3e} over 1e4 samples")


def test_a3_cubic_fit_coefficient(cubic_profile, cubic_coefficient):
    xs = PROFILE_STOPS
    grid = [10**5, 10**6, 10**7]
    integrals = [cubic_profile[3][xs.index(X)] for X in grid]
    fitted = moments.fit_coefficient(grid, integrals, 1.75)
    rel = abs(fitted - cubic_coefficient) / cubic_coefficient
    ok = rel <= 0.05
    assert report("A3(coefficient)", ok,
                  f"fitted {fitted:.6f} vs derived {cubic_coefficient:.6f}, "
                  f"rel {rel:.3f} (tol 0.05)")


def test_cubic_moment_sign_structure(cubic_profile):
    # the cubic integral is positive from 1e4 on across the tested grid
    ok = all(cubic_profile[3][PROFILE_STOPS.index(X)] > 0
             for X in (10**4, 10**5, 10**6, 10**7))
    assert report("cubic sign structure", ok,
                  "integral positive at X in {1e4, 1e5, 1e6, 1e7}")


def test_a3_cubic_residual_slope(cubic_profile, cubic_coefficient):
    xs = [10**4, 10**5, 10**6, 10**7]
    residuals = [cubic_profile[3][PROFILE_STOPS.index(X)]
                 - cubic_coefficient * X**1.75 for X in xs]
    slope = loglog_slope(xs, residuals)
    ok = slope < 1.75
    assert report("A3(residual slope)", ok, f"slope {slope:.4f} < 1.75")


def test_a4_quartic_fit(cubic_profile, quartic_coefficient):
    xs = PROFILE_STOPS
    grid = [10**5, 10**6, 10**7]
    integrals = [cubic_profile[4][xs.index(X)] for X in grid]
    fitted = moments.fit_coefficient(grid, integrals, 2.0)
    rel = abs(fitted - quartic_coefficient) / quartic_coefficient
    ok_fit = rel <= 0.10

    slope_grid = [10**4, 10**5, 10**6, 10**7]
    residuals = [cubic_profile[4][PROFILE_STOPS.index(X)]
                 - quartic_coefficient * X * X for X in slope_grid]
    slope = loglog_slope(slope_grid, residuals)
    ok_slope = slope < 2.0
    assert report("A4", ok_fit and ok_slope,
                  f"fitted {fitted:.5f} vs derived {quartic_coefficient:.5f} "
                  f"rel {rel:.3f} (tol 0.10); slope {slope:.4f} < 2")


def _window_moment(profile, power):
    xs = PROFILE_STOPS
    return profile[power][xs.index(2 * 10**6)] - profile[power][xs.index(10**6)]


def test_a5_short_interval_quartic(cubic_profile, quartic_coefficient):
    X = 10**6
    window = _window_moment(cubic_profile, 4)
    main = quartic_coefficient * ((2 * X) ** 2 - X**2)
    ratio = window / main
    ok = 0.8 <= ratio <= 1.2
    assert report("A5(quartic)", ok, f"ratio {ratio:.4f} in [0.8, 1.2]")


def test_a5_short_interval_cubic(cubic_profile, cubic_coefficient):
    X = 10**6
    window = _window_moment(cubic_profile, 3)
    main = cubic_coefficient * ((2 * X) ** 1.75 - X**1.75)
    ratio = window / main
    ok = 0.7 <= ratio <= 1.3
    assert report("A5(cubic)", ok, f"ratio {ratio:.4f} in [0.7, 1.3]")


def test_a6_remainder_shape():
    X = 10**6
    ns = [10**2, 10**3, 10**4]
    stats = [voronoi.remainder_stats(DELTA, n, X, 100, seed=42) for n in ns]
    again = voronoi.remainder_stats(DELTA, ns[0], X, 100, seed=42)
    reproducible = again.rms == stats[0].rms and again.sup == stats[0].sup
    slope = loglog_slope(ns, [s.rms for s in stats])
    ok = reproducible and -0.75 <= slope <= -0.25
    assert report("A6", ok,
                  f"rms {[round(s.rms, 3) for s in stats]}, slope {slope:.4f} "
                  f"in [-0.75, -0.25], seed-reproducible {reproducible}")


def test_a7_gap_floors():
    three = spacing.min_gap_three(2000)
    ok3 = (three.min_scaled_gap == RECORDED["min_gap_three_2000"]
           and three.argmin == RECORDED["min_gap_three_2000_argmin"]
           and three.min_scaled_gap >= 0.05)
    plus = spacing.min_gap_four(300, sign=1)
    minus = spacing.min_gap_four(300, sign=-1)
    ok4 = (plus.min_scaled_gap == RECORDED["min_gap_four_300_plus"]
           and minus.min_scaled_gap == RECORDED["min_gap_four_300_minus"]
           and plus.min_scaled_gap > 0 and minus.min_scaled_gap > 0)
    assert report("A7", ok3 and ok4,
                  f"three-gap {three.min_scaled_gap:.10f} at {three.argmin} "
                  f">= 0.05; four-gap +:{plus.min_scaled_gap:.6f} "
                  f"-:{minus.min_scaled_gap:.6f}")


PILOT_DELTAS = [2.0**-20, 2.0**-14, 2.0**-8, 2.0**-2]

PILOT_GRID = {
    "ratio_three_root": (spacing.SpacingForm.THREE_ROOT, [
        dict(M=16, Mp=16), dict(M=64, Mp=64), dict(M=256, Mp=256),
        dict(M=1024, Mp=1024), dict(M=256, Mp=16), dict(M=1024, Mp=64)], {}),
    "ratio_four_root_minus": (spacing.SpacingForm.FOUR_ROOT_MINUS, [
        dict(M=16, Mp=16, K=16, L=16), dict(M=64, Mp=64, K=64, L=64),
        dict(M=256, Mp=256, K=256, L=256), dict(M=1024, Mp=16, K=1024, L=16),
        dict(M=256, Mp=16, K=256, L=64)], {}),
    "ratio_four_root_plus": (spacing.SpacingForm.FOUR_ROOT_PLUS, [
        dict(M=16, Mp=16, K=16, L=128), dict(M=64, Mp=64, K=64, L=512),
        dict(M=256, Mp=256, K=256, L=2048),
        dict(M=1024, Mp=16, K=1024, L=8192)], {}),
    "ratio_four_root_kth": (spacing.SpacingForm.FOUR_ROOT_KTH, [
        dict(M=16), dict(M=64), dict(M=256)], {}),
    "ratio_near_integer": (spacing.SpacingForm.NEAR_INTEGER, [
        dict(K=16), dict(K=256), dict(K=1024), dict(K=4096)],
        dict(alpha=2.0, beta=0.0)),
}


def test_a8_bound_shape_regression():
    all_ok = True
    details = []
    crossover_seen = False
    for key, (form, boxes, extra) in PILOT_GRID.items():
        worst = 0.0
        for box in boxes:
            for delta in PILOT_DELTAS:
                res = spacing.count_box(
                    spacing.BoxSpec(form=form, delta=delta, **box, **extra))
                worst = max(worst, res.ratio)
                if (form is spacing.SpacingForm.FOUR_ROOT_MINUS
                        and res.bound_secondary is not None
                        and res.bound_secondary < res.bound_primary):
                    crossover_seen = True
        ok = worst <= 1.2 * RECORDED[key]
        all_ok &= ok
        details.append(f"{form.value} {worst:.4f}<={1.2 * RECORDED[key]:.4f}")
    all_ok &= crossover_seen
    assert report("A8", all_ok,
                  "; ".join(details) + f"; crossover seen {crossover_seen}")


def test_a9_exact_set_equivalence():
    limit = 2000
    # rows sorted and distinct, and as a set the oracle's
    tri = list(map(tuple, spacing.enumerate_exact_triples(limit).tolist()))
    tri_ok = tri == sorted(brute_exact_triples(limit))
    quads = spacing.enumerate_exact_quadruples(limit)
    brute = brute_exact_quadruples(limit)
    quad_ok = quads.shape == brute.shape and bool((quads == brute).all())
    assert report("A9", tri_ok and quad_ok,
                  f"triples {len(tri)} (equal {tri_ok}); "
                  f"quadruples {len(quads)} (equal {quad_ok})")


def test_a10_thread_determinism(divisor_table):
    vals = [moments.moment(DELTA, 3, (1, 10**6), threads=t,
                           table=divisor_table).integral
            for t in (1, 4, 16)]
    ok = vals[0] == vals[1] == vals[2]
    assert report("A10", ok, f"integral {vals[0]!r} identical across 1/4/16 threads")


def test_diagonal_prediction_for_series_cube():
    """Independent confirmation of the cubic coefficient pipeline.

    The cube of the truncated expansion, integrated over [H, 2H], is the
    diagonal sum times the integral of x^(3/4) up to oscillatory terms of
    lower order; matching the two to a fraction of a percent pins the
    diagonal constant and the (pi sqrt 2)^-3 * 3/(4 sqrt 2) * (4/7)
    normalization at once.
    """
    N, H = 20, 10**6
    series = voronoi.build_series(DELTA, N)
    step = 5.0
    xs = np.arange(H, 2 * H + step, step)
    vals = voronoi.evaluate_block(series, xs).astype(np.longdouble)
    weights = np.ones(len(xs), dtype=np.longdouble)
    weights[1:-1:2] = 4
    weights[2:-1:2] = 2
    measured = float(np.sum(vals**3 * weights) * np.longdouble(step / 3))
    diagonal = cst.cubic_diagonal_series(N).value
    x34 = (4 / 7) * ((2 * H) ** 1.75 - H**1.75)
    predicted = (3 / (4 * math.sqrt(2))) * diagonal * x34 \
        / (math.pi * math.sqrt(2)) ** 3
    rel = abs(measured - predicted) / predicted
    assert report("series-cube diagonal check", rel < 0.005,
                  f"measured {measured:.6e} vs predicted {predicted:.6e}, "
                  f"rel {rel:.5f}")


def test_diagonal_prediction_for_series_fourth_power():
    """Quartic analogue: the fourth power of the truncated expansion
    integrates to (3/8) * quartic-diagonal * integral of x, fixing the
    (pi sqrt 2)^-4 * 3/8 * 1/2 normalization behind the X^2 coefficient."""
    N, H = 20, 10**6
    series = voronoi.build_series(DELTA, N)
    step = 5.0
    xs = np.arange(H, 2 * H + step, step)
    vals = voronoi.evaluate_block(series, xs).astype(np.longdouble)
    weights = np.ones(len(xs), dtype=np.longdouble)
    weights[1:-1:2] = 4
    weights[2:-1:2] = 2
    measured = float(np.sum(vals**4 * weights) * np.longdouble(step / 3))
    diagonal = cst.quartic_diagonal_series(N).value
    x_int = ((2 * H) ** 2 - H**2) / 2
    predicted = (3 / 8) * diagonal * x_int / (math.pi * math.sqrt(2)) ** 4
    rel = abs(measured - predicted) / predicted
    assert report("series-fourth-power diagonal check", rel < 0.005,
                  f"measured {measured:.6e} vs predicted {predicted:.6e}, "
                  f"rel {rel:.5f}")
