import mpmath
import numpy as np
import pytest

from divisorlab import constants, errors, moments, numerics, sieves
from divisorlab.error_terms import ErrorTermKind, jump_denominator
from divisorlab.moments import (CHUNK_SEGMENTS, fit_coefficient, fit_main_term,
                                main_exponent, moment, moment_profile,
                                short_interval_ratio, theory_coefficient)
from divisorlab.sieves import sieve_divisors
from oracles import piecewise_segments

DELTA = ErrorTermKind.DELTA


def test_power_one_closed_form():
    # int_1^2 (1 - x(log x + 2 gamma - 1)) dx = 13/4 - 2 log 2 - 3 gamma
    with mpmath.workdps(30):
        closed = float(mpmath.mpf(13) / 4 - 2 * mpmath.log(2) - 3 * mpmath.euler)
    got = moment(DELTA, 1, (1, 2)).integral
    assert abs(got - closed) <= 1e-12


def test_even_power_nonnegative():
    assert moment(DELTA, 2, (3, 250)).integral >= 0
    assert moment(ErrorTermKind.CIRCLE, 4, (1, 123.5)).integral >= 0


def test_order_stability(monkeypatch):
    table = sieve_divisors(10**5)
    eight = [moment(DELTA, power, (1, 10**5), table=table).integral
             for power in (1, 2, 3, 4)]
    x, w = np.polynomial.legendre.leggauss(16)
    monkeypatch.setattr(moments, "NODES", (x.astype(np.longdouble) + 1) / 2)
    monkeypatch.setattr(moments, "WEIGHTS", w.astype(np.longdouble) / 2)
    for power, a in zip((1, 2, 3, 4), eight):
        res = moment(DELTA, power, (1, 10**5), table=table)
        assert res.quadrature_order == 16
        assert abs(a - res.integral) <= 1e-7 * (1 + abs(a))


def test_additivity():
    table = sieve_divisors(2000)
    whole = moment(DELTA, 3, (1, 2000), table=table).integral
    parts = moment(DELTA, 3, (1, 700), table=table).integral \
        + moment(DELTA, 3, (700, 2000), table=table).integral
    assert abs(whole - parts) <= 1e-10 * abs(whole)


def test_partition_consistency():
    # whole-interval integral vs 1e3 chunks integrated separately and
    # summed in ascending order
    table = sieve_divisors(10**6)
    whole = moment(DELTA, 3, (1, 10**6), table=table).integral
    cuts = np.linspace(1, 10**6, 1001)
    total = np.longdouble(0)
    for a, b in zip(cuts[:-1], cuts[1:]):
        total += np.longdouble(moment(DELTA, 3, (float(a), float(b)),
                                      table=table).integral)
    assert abs(float(total) - whole) <= 1e-10 * abs(whole)


def test_profile_cumulative_matches_single_calls():
    table = sieve_divisors(5000)
    prof = moment_profile(DELTA, (2, 3), [1000, 5000], table=table)
    assert prof[2][0] == pytest.approx(moment(DELTA, 2, (1, 1000), table=table).integral,
                                       rel=1e-14)
    assert prof[3][1] == pytest.approx(moment(DELTA, 3, (1, 5000), table=table).integral,
                                       rel=1e-14)


def test_delta_star_moment_vs_adaptive_quadrature():
    # independent oracle: adaptive quadrature on each quarter segment
    a, b = 1.5, 6.25
    engine = moment(ErrorTermKind.DELTA_STAR, 2, (a, b)).integral
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for left, right, const in piecewise_segments("delta-star", a, b):
            total += mpmath.quad(
                lambda t: (mpmath.mpf(const)
                           - t * (mpmath.log(t) + 2 * mpmath.euler - 1)) ** 2,
                [left, right])
    assert engine == pytest.approx(float(total), rel=1e-11)


def test_circle_moment_vs_adaptive_quadrature():
    a, b = 2.0, 9.5
    engine = moment(ErrorTermKind.CIRCLE, 3, (a, b)).integral
    with mpmath.workdps(30):
        total = mpmath.mpf(0)
        for left, right, const in piecewise_segments("circle", a, b):
            total += mpmath.quad(
                lambda t: (mpmath.mpf(const) - mpmath.pi * t) ** 3,
                [left, right])
    assert engine == pytest.approx(float(total), rel=1e-11)


# float.hex of moment_profile, recorded when head and tail pieces still had
# their own kernel and kept since the kernel integrates clipped x-ranges:
# (kind, start, CHUNK_SEGMENTS) -> per power, the cumulative integral at each
# stop.  Starts and stops off the jump grid exercise head pieces, tail pieces
# and x-ranges inside a single segment.
PINNED_POWERS = (1, 3, 4, 9)
PINNED_STOPS = {1.25: [1.3, 1.45, 7.75], 2.5: [3.1, 40000.6]}
PINNED_PROFILE_HEX = {
    ('delta', 1.25, 7): (
        ('0x1.94148899539a8p-6', '0x1.3b81f9dfeec76p-4', '0x1.899596d75eac1p+0'),
        ('0x1.8b3c2a2ddc199p-8', '0x1.aba2f7d8a8d16p-7', '0x1.c29c0eda319bbp+1'),
        ('0x1.87db1cc34293bp-9', '0x1.735de81367c1ep-8', '0x1.0fa42fcdb7a0cp+3'),
        ('0x1.808bede88bb5fp-14', '0x1.f73e543fc237dp-14', '0x1.4e8535669fa13p+7'),
    ),
    ('delta', 1.25, CHUNK_SEGMENTS): (
        ('0x1.94148899539a8p-6', '0x1.3b81f9dfeec76p-4', '0x1.899596d75eac1p+0'),
        ('0x1.8b3c2a2ddc199p-8', '0x1.aba2f7d8a8d16p-7', '0x1.c29c0eda319bbp+1'),
        ('0x1.87db1cc34293bp-9', '0x1.735de81367c1ep-8', '0x1.0fa42fcdb7a0cp+3'),
        ('0x1.808bede88bb5fp-14', '0x1.f73e543fc237dp-14', '0x1.4e8535669fa13p+7'),
    ),
    ('delta', 2.5, 7): (
        ('0x1.f08ce4e94e62bp-8', '0x1.3113b53bb8025p+13'),
        ('0x1.be278e4fdb9bfp-4', '0x1.2194573ec4872p+23'),
        ('0x1.80ce4b7cb3b51p-3', '0x1.08c465b2cf803p+31'),
        ('0x1.507db55001276p-2', '0x1.32e1607c20c55p+54'),
    ),
    ('delta', 2.5, CHUNK_SEGMENTS): (
        ('0x1.f08ce4e94e62bp-8', '0x1.3113b53bb8025p+13'),
        ('0x1.be278e4fdb9bfp-4', '0x1.2194573ec4872p+23'),
        ('0x1.80ce4b7cb3b51p-3', '0x1.08c465b2cf803p+31'),
        ('0x1.507db55001276p-2', '0x1.32e1607c20c55p+54'),
    ),
    ('delta-star', 1.25, 7): (
        ('-0x1.9f1eaa99df998p-6', '-0x1.f7b13953446bap-4', '0x1.532b2daebd582p-1'),
        ('-0x1.ac69018441891p-8', '-0x1.922d8579b1ec3p-5', '0x1.95f92044d512dp+1'),
        ('0x1.b43d6a1878596p-9', '0x1.0496cd22d11f8p-5', '0x1.48f1fc36045abp+4'),
        ('-0x1.e8ae063f7c2c7p-14', '-0x1.21d5376c28625p-8', '0x1.e149b4fffdc5fp+7'),
    ),
    ('delta-star', 1.25, CHUNK_SEGMENTS): (
        ('-0x1.9f1eaa99df998p-6', '-0x1.f7b13953446bap-4', '0x1.532b2daebd582p-1'),
        ('-0x1.ac69018441891p-8', '-0x1.922d8579b1ec3p-5', '0x1.95f92044d512dp+1'),
        ('0x1.b43d6a1878596p-9', '0x1.0496cd22d11f8p-5', '0x1.48f1fc36045abp+4'),
        ('-0x1.e8ae063f7c2c7p-14', '-0x1.21d5376c28625p-8', '0x1.e149b4fffdc5fp+7'),
    ),
    ('delta-star', 2.5, 7): (
        ('0x1.d7ab3636c3666p-5', '0x1.34d037443cd3ap+12'),
        ('0x1.dbc613c98fd0ep-3', '0x1.8d045b49c691cp+23'),
        ('0x1.0363125293a2ep+0', '0x1.0b83c973b5a24p+31'),
        ('0x1.01a101bcde479p+3', '0x1.9b2fdaac84542p+55'),
    ),
    ('delta-star', 2.5, CHUNK_SEGMENTS): (
        ('0x1.d7ab3636c3666p-5', '0x1.34d037443cd3ap+12'),
        ('0x1.dbc613c98fd0ep-3', '0x1.8d045b49c691cp+23'),
        ('0x1.0363125293a2ep+0', '0x1.0b83c973b5a24p+31'),
        ('0x1.01a101bcde479p+3', '0x1.9b2fdaac84542p+55'),
    ),
    ('circle', 1.25, 7): (
        ('-0x1.21f6e76996f3bp-12', '-0x1.8b19aced7861bp-5', '-0x1.790fbb0651383p+2'),
        ('-0x1.cc2a02a8a4b87p-20', '-0x1.efc51cf7b229bp-8', '-0x1.a432ddc5723bcp+5'),
        ('0x1.acdf83896b67cp-22', '0x1.b8a3597d2742ep-9', '0x1.6f7ee0c808617p+8'),
        ('-0x1.dde1ea23a262dp-42', '-0x1.744585b88c472p-14', '-0x1.25db36311d48cp+17'),
    ),
    ('circle', 1.25, CHUNK_SEGMENTS): (
        ('-0x1.21f6e76996f3bp-12', '-0x1.8b19aced7861bp-5', '-0x1.790fbb0651383p+2'),
        ('-0x1.cc2a02a8a4b87p-20', '-0x1.efc51cf7b229bp-8', '-0x1.a432ddc5723bcp+5'),
        ('0x1.acdf83896b67cp-22', '0x1.b8a3597d2742ep-9', '0x1.6f7ee0c808617p+8'),
        ('-0x1.dde1ea23a262dp-42', '-0x1.744585b88c472p-14', '-0x1.25db36311d48cp+17'),
    ),
    ('circle', 2.5, 7): (
        ('-0x1.e9583c8b301edp-2', '-0x1.424e16499d355p+15'),
        ('-0x1.748a81ab5f2b6p-1', '-0x1.c6f9e48860da5p+26'),
        ('0x1.0324e79daeacdp+0', '0x1.c51199e3983bap+33'),
        ('-0x1.0189662f75b81p+3', '-0x1.0e067db55c82ep+62'),
    ),
    ('circle', 2.5, CHUNK_SEGMENTS): (
        ('-0x1.e9583c8b301edp-2', '-0x1.424e16499d355p+15'),
        ('-0x1.748a81ab5f2b6p-1', '-0x1.c6f9e48860da5p+26'),
        ('0x1.0324e79daeacdp+0', '0x1.c51199e3983bap+33'),
        ('-0x1.0189662f75b81p+3', '-0x1.0e067db55c82ep+62'),
    ),
}


@pytest.mark.parametrize("kind, start, chunk", sorted(PINNED_PROFILE_HEX))
@pytest.mark.parametrize("threads", (1, 2))
def test_fractional_profile_bits_pinned(kind, start, chunk, threads, monkeypatch):
    monkeypatch.setattr(moments, "CHUNK_SEGMENTS", chunk)
    prof = moment_profile(ErrorTermKind.parse(kind), PINNED_POWERS,
                          PINNED_STOPS[start], start=start, threads=threads)
    got = tuple(tuple(v.hex() for v in prof[p]) for p in PINNED_POWERS)
    assert got == PINNED_PROFILE_HEX[(kind, start, chunk)]


def test_thread_count_does_not_change_bits(monkeypatch):
    table = sieve_divisors(10**5)
    vals = [moment(DELTA, 3, (1, 10**5), threads=t, table=table).integral
            for t in (1, 2, 5)]
    assert vals[0] == vals[1] == vals[2]
    # fractional ends put head and tail x-ranges around many small chunks
    monkeypatch.setattr(moments, "CHUNK_SEGMENTS", 7)
    for kind in (ErrorTermKind.DELTA_STAR, ErrorTermKind.CIRCLE):
        profiles = [moment_profile(kind, PINNED_POWERS, [3.1, 40000.6], start=2.5,
                                   threads=t)
                    for t in (1, 2, 5)]
        assert profiles[0] == profiles[1] == profiles[2]


# float.hex of the delta profile from 2.5 with CHUNK_SEGMENTS = 7, recorded
# with the head/tail kernel: the stops 10.0 and 17.0 fall exactly on chunk
# starts (3 + 7j), which no PINNED_PROFILE_HEX case does
ON_CHUNK_START_STOPS = [10.0, 17.0, 17.5]
ON_CHUNK_START_HEX = (
    ('0x1.6ec476c95aa82p+0', '0x1.e8d01ca322318p+1', '0x1.f64c28965a06cp+1'),
    ('0x1.09f852466da38p+2', '0x1.16ff90de06531p+4', '0x1.18c1b78f72b48p+4'),
    ('0x1.c0962ead52f8fp+3', '0x1.268c7576eeb2cp+6', '0x1.27216558c2e19p+6'),
    ('0x1.b6da9ab1a8649p+7', '0x1.b8ca2f0387f7ep+12', '0x1.b8ccd834e527fp+12'),
)


@pytest.mark.parametrize("threads", (1, 2))
def test_stop_on_chunk_start_bits_pinned(threads, monkeypatch):
    monkeypatch.setattr(moments, "CHUNK_SEGMENTS", 7)
    prof = moment_profile(DELTA, PINNED_POWERS, ON_CHUNK_START_STOPS, start=2.5,
                          threads=threads)
    got = tuple(tuple(v.hex() for v in prof[p]) for p in PINNED_POWERS)
    assert got == ON_CHUNK_START_HEX


@pytest.mark.parametrize("kind", list(ErrorTermKind))
def test_block_size_does_not_change_bits(kind, monkeypatch):
    prefix = moments._step_prefix(kind, 16000)
    d = jump_denominator(kind)
    # a run of 5000 whole segments, then a head and a tail piece of segment 999
    parts = [(10**4 / d, (10**4 + 5000) / d), ((999 + 0.3) / d, 1000 / d),
             (999 / d, (999 + 0.6) / d)]
    runs = []
    for rows in (1, 7, 2048, 5000):    # 5000: the whole run in one block
        monkeypatch.setattr(numerics, "BLOCK", rows * len(moments.NODES))
        runs.append([moments._chunk_partials(kind, prefix, *part, powers)
                     for part in parts for powers in ((3, 4), (4,), PINNED_POWERS)])
    assert runs[0] == runs[1] == runs[2] == runs[3]


def test_short_interval_additivity():
    table = sieve_divisors(2 * 10**6)
    X = 10**6
    left = moment(DELTA, 3, (1, X), table=table).integral
    right = moment(DELTA, 3, (1, 2 * X), table=table).integral
    window = moment(DELTA, 3, (X, 2 * X), table=table).integral
    assert abs((right - left) - window) <= 1e-9 * max(1.0, abs(window))


def test_short_interval_range_flag():
    table = sieve_divisors(2 * 10**4)
    res = short_interval_ratio(DELTA, 4, 10**4, 10**4, table=table, coefficient=1.5)
    assert res.in_asymptotic_range
    narrow = short_interval_ratio(DELTA, 4, 10**4, 50, table=table, coefficient=1.5)
    assert not narrow.in_asymptotic_range  # H below X^(2/3)


def test_empty_power_set_rejected_before_table(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a table was sieved for an empty power set")

    monkeypatch.setattr(moments, "sieve", unreachable)
    with pytest.raises(ValueError, match="powers must be a non-empty set"):
        moment_profile(DELTA, [], [10.5])


def test_fit_requires_four_points():
    with pytest.raises(errors.DegenerateFitError):
        fit_main_term(DELTA, 3, [10, 100, 1000], theory=1.0)


def test_fit_coefficient_recovers_pure_power():
    xs = [10.0, 100.0, 1000.0]
    ys = [3.5 * x ** 1.75 for x in xs]
    assert fit_coefficient(xs, ys, 1.75) == pytest.approx(3.5, rel=1e-12)


def test_mean_square_fit_matches_classical_constant():
    # external classical cross-check: zeta(3/2)^4/(6 pi^2 zeta(3))
    from divisorlab.constants import classical_mean_square_coefficient
    table = sieve_divisors(10**6)
    report = fit_main_term(DELTA, 2, [10**3, 10**4, 10**5, 10**6], table=table,
                           theory=classical_mean_square_coefficient())
    assert report.main_exponent == 1.5
    assert report.fitted_coefficient == pytest.approx(
        classical_mean_square_coefficient(), rel=0.05)


def test_power_validation():
    with pytest.raises(errors.RangeError):
        moment(DELTA, 0, (1, 10))
    with pytest.raises(errors.RangeError):
        moment(DELTA, 12, (1, 10))
    assert main_exponent(3) == 1.75
    assert main_exponent(4) == 2.0
    assert main_exponent(2) == 1.5


def _unreachable(*args, **kwargs):
    raise AssertionError("allocation reached past the memory ceiling")


def test_segment_budget(monkeypatch):
    # the step table and its int64 prefix, 10 bytes per entry, are checked
    # before the sieve runs or a passed table is summed
    table = sieve_divisors(4 * 10**4)
    monkeypatch.setattr(sieves, "MEMORY_CEILING_BYTES", 10 * 10**4)
    monkeypatch.setattr(moments, "sieve", _unreachable)
    monkeypatch.setattr(moments.np, "cumsum", _unreachable)
    for kind, stop in ((DELTA, 10**4), (ErrorTermKind.CIRCLE, 10**4),
                       (ErrorTermKind.DELTA_STAR, 2500)):
        with pytest.raises(errors.CapacityError):
            moment_profile(kind, (1,), [stop])
    with pytest.raises(errors.CapacityError):
        moment(DELTA, 2, (1, 10**4), table=table)


def test_thread_memory_checked_before_threads_start(monkeypatch):
    # 613 threads would each hold 4 MiB of chunk sums and a block
    monkeypatch.setattr(moments, "sieve", _unreachable)
    monkeypatch.setattr(moments, "ThreadPoolExecutor", _unreachable)
    with pytest.raises(errors.CapacityError, match="613 integration threads"):
        moment_profile(DELTA, PINNED_POWERS, [4e7], threads=10**6)


def test_theory_coefficient_is_computed_once(monkeypatch):
    calls = []

    def counted(cutoff):
        calls.append(cutoff)
        return real(cutoff)

    real = constants.quartic_moment_coefficient
    monkeypatch.setattr(constants, "quartic_moment_coefficient", counted)
    theory_coefficient.cache_clear()
    try:
        first = theory_coefficient(DELTA, 4, 1000)
        assert theory_coefficient(DELTA, 4, 1000) is first
    finally:
        theory_coefficient.cache_clear()
    assert calls == [1000]


def test_interval_validation():
    with pytest.raises(errors.RangeError):
        moment(DELTA, 2, (0.5, 10))
    with pytest.raises(errors.RangeError):
        moment(DELTA, 2, (10, 10))
