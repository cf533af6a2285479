"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each workload has three parts:

  * ``make_inputs(seed, pass_index, scale)`` draws the pass's inputs from
    finite menus (so every input has a committed reference) with a
    ``random.Random`` keyed on workload, seed and pass.  Draws are
    stratified, so every seed asks for nearly the same amount of work.
  * ``execute(inputs, ctx, rec)`` makes the timed library calls through
    ``rec``, looking each function up on its module at call time so that a
    traced pass sees them.
  * ``check(...)`` compares every operation's output, outside the timed
    region, with a reference that does not come from the timed call: the
    committed values in reference.json (recorded with ``reference.py``
    and confirmed there by independent routes) or an independent route run
    here (oracles.py).

``scale="tiny"`` shrinks every workload for the self-tests; it draws from
the same menus.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from divisorlab import cli, constants, error_terms, moments, sieves, spacing, voronoi

import oracles

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
MODULES = {"cli": cli, "constants": constants, "error_terms": error_terms,
           "moments": moments, "sieves": sieves, "spacing": spacing,
           "voronoi": voronoi}

# Tolerances.  The README states moment integrals to < 1e-7 relative (order
# 8 against order 16) and error terms to ~1e-6 absolute; the checks are
# tighter than both.
MOMENT_RTOL = 1e-9
SERIES_RTOL = 1e-12      # diagonal-series values and tail brackets
RATIO_RTOL = 1e-12       # spacing count/bound ratios
GAP_RTOL = 1e-12         # recorded minimal scaled gaps
GAP_MPMATH_RTOL = 1e-9   # minimal gap against mpmath at the reported tuple
BLOCK_TOL = 1e-9         # series values, relative to the largest possible value


@dataclass
class Op:
    name: str
    spec: dict
    seconds: float       # wall clock
    cpu_seconds: float   # CPU time of the process, all threads
    result: object
    error: str | None


class Recorder:
    """Times each operation and keeps its output for the later check."""

    def __init__(self):
        self.ops: list[Op] = []

    def call(self, name: str, spec: dict, fn, *args, **kwargs):
        start, cpu = time.perf_counter(), time.process_time()
        try:
            result, error = fn(*args, **kwargs), None
        except Exception as exc:   # one failed operation must not end the pass
            result, error = None, f"{type(exc).__name__}: {exc}"
        self.ops.append(Op(name, spec, time.perf_counter() - start,
                           time.process_time() - cpu, result, error))
        return result


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _jitter(rng: random.Random, base: float, step: int, spread: float = 0.03) -> float:
    """base * (1 +- spread), snapped to the menu grid of multiples of step."""
    return float(step * max(1, round(base * (1 + rng.uniform(-spread, spread)) / step)))


def _stratified(rng: random.Random, menu: list, count: int) -> list:
    """One draw from each of ``count`` contiguous, near-equal slices of a
    menu sorted by cost: the total cost hardly depends on the seed."""
    edges = [round(i * len(menu) / count) for i in range(count + 1)]
    return [menu[rng.randrange(lo, hi)] for lo, hi in zip(edges, edges[1:])]


def _run_checks(ops: list[Op], checks: dict) -> list:
    """Failure message or None per operation; an output too malformed to
    compare counts as a failure, not as a crash of the pass."""
    out = []
    for op in ops:
        try:
            out.append(op.error or checks[op.name](op))
        except Exception as exc:
            out.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return out


def _close(got: float, want: float, rtol: float, scale: float | None = None) -> bool:
    return abs(got - want) <= rtol * (abs(want) if scale is None else scale)


# ---------------------------------------------------------------------------
# moment-study: the A3-A5 pipeline (sieve -> moment profiles -> fit and
# short interval -> diagonal series -> Voronoi block for the cube check)

# committed integrals R_k(x) = int_1^x error^k cover these menu grids
MOMENT_GRID = {"delta": (10_000, 1_600_000), "delta-star": (2_500, 325_000),
               "circle": (10_000, 650_000)}
MOMENT_POWERS = {"delta": (3, 4), "delta-star": (3, 4), "circle": (4,)}
STARTS = [1.25 + 0.25 * i for i in range(8)]
PROFILES = {
    "full": [("delta", [1e5, 3e5, 7e5, 1.5e6]), ("delta-star", [2e4, 1e5, 3e5]),
             ("circle", [5e4, 2e5, 6e5])],
    "tiny": [("delta", [1e4, 3e4]), ("delta-star", [5e3, 1e4]),
             ("circle", [1e4, 2e4])],
}
FIT_GRID = {"full": [1e5, 2e5, 4e5, 6e5], "tiny": [1e4, 2e4, 3e4, 4e4]}
SHORT_INTERVAL = {"full": (4e5, 2e5), "tiny": (2e4, 1e4)}
SERIES_CUTOFF = {"full": 100_000, "tiny": 1_000}
THEORY_CUTOFF = 100_000          # moments.theory_coefficient's default
BLOCK = {"full": (20, 1_000_000, 25.0, 40_000), "tiny": (20, 100_000, 25.0, 500)}


def moment_study_inputs(seed: int, pass_index: int, scale: str) -> dict:
    rng = _rng("moment-study", seed, pass_index)
    profiles = []
    for kind, bases in PROFILES[scale]:
        step = MOMENT_GRID[kind][0]
        profiles.append({"kind": kind, "powers": list(MOMENT_POWERS[kind]),
                         "stops": [_jitter(rng, b, step) for b in bases],
                         "start": rng.choice(STARTS)})
    grid = [_jitter(rng, b, MOMENT_GRID["delta"][0]) for b in FIT_GRID[scale]]
    X, H = (_jitter(rng, b, MOMENT_GRID["delta"][0]) for b in SHORT_INTERVAL[scale])
    need = {"delta": 1, "delta-star": 4, "circle": 1}
    divisor_limit = max([math.ceil(need[p["kind"]] * p["stops"][-1])
                         for p in profiles if p["kind"] != "circle"]
                        + [math.ceil(grid[-1]), math.ceil(X + H)])
    r_limit = max(math.ceil(p["stops"][-1]) for p in profiles if p["kind"] == "circle")
    N, x0, step, count = BLOCK[scale]
    return {"profiles": profiles, "fit_grid": grid, "short": [X, H],
            "divisor_limit": divisor_limit, "r_limit": r_limit,
            "cutoff": SERIES_CUTOFF[scale],
            "block": {"N": N, "x0": _jitter(rng, x0, 1000), "step": step,
                      "count": count}}


def moment_study_prepare(inputs: dict, workdir: Path) -> dict:
    b = inputs["block"]
    return {"xs": b["x0"] + b["step"] * np.arange(b["count"], dtype=float)}


def moment_study_execute(inputs: dict, ctx: dict, rec: Recorder) -> None:
    kinds = error_terms.ErrorTermKind
    d = rec.call("sieve_divisors", {"limit": inputs["divisor_limit"]},
                 sieves.sieve_divisors, inputs["divisor_limit"])
    r = rec.call("sieve_r", {"limit": inputs["r_limit"]},
                 sieves.sieve_r, inputs["r_limit"])
    for p in inputs["profiles"]:
        rec.call("moment_profile", p, moments.moment_profile,
                 kinds.parse(p["kind"]), p["powers"], p["stops"], start=p["start"],
                 threads=2, table=r if p["kind"] == "circle" else d)
    grid = inputs["fit_grid"]
    fit = rec.call("fit_main_term", {"grid": grid}, moments.fit_main_term,
                   kinds.DELTA, 4, grid, threads=2, table=d)
    X, H = inputs["short"]
    rec.call("short_interval_ratio", {"X": X, "H": H}, moments.short_interval_ratio,
             kinds.DELTA, 4, X, H, threads=2, table=d,
             coefficient=fit.theory_coefficient if fit else None)
    cutoff = inputs["cutoff"]
    rec.call("cubic_moment_coefficient", {"cutoff": cutoff},
             constants.cubic_moment_coefficient, cutoff, d)
    rec.call("quartic_moment_coefficient", {"cutoff": cutoff},
             constants.quartic_moment_coefficient, cutoff, d)
    N = inputs["block"]["N"]
    series = rec.call("build_series", {"N": N}, voronoi.build_series,
                      kinds.DELTA, N, d)
    rec.call("evaluate_block", {"N": N}, voronoi.evaluate_block, series, ctx["xs"])


def thread_speedup(inputs: dict) -> tuple[float, list]:
    """Single-thread wall time over two-thread wall time for the delta
    profile, plus both results for the checks.  Runs after the traced pass."""
    kinds = error_terms.ErrorTermKind
    p = inputs["profiles"][0]
    table = sieves.sieve_divisors(inputs["divisor_limit"])
    seconds, results = [], []
    for threads in (1, 2):
        start = time.perf_counter()
        results.append(moments.moment_profile(
            kinds.parse(p["kind"]), p["powers"], p["stops"], start=p["start"],
            threads=threads, table=table))
        seconds.append(time.perf_counter() - start)
    return seconds[0] / seconds[1], results


class MomentReference:
    """Committed integrals R_k(x) = int_1^x error^k on the menu grids."""

    def __init__(self, ref: dict):
        self.table = {}
        for kind, entry in ref["moments"].items():
            for power, values in entry["values"].items():
                self.table[kind, int(power)] = dict(zip(entry["x"], values))

    def between(self, kind: str, power: int, a: float, b: float) -> float:
        values = self.table[kind, power]
        return values[b] - (values[a] if a > 1 else 0.0)


def _check_sieve(table, limit: int, summatory, pointwise) -> str | None:
    if table.limit != limit or len(table.values) != limit + 1:
        return f"table limit {table.limit}, wanted {limit}"
    cumulative = np.cumsum(table.values.astype(np.int64))
    points = sorted(set(range(1, 60)) | set(np.linspace(1, limit, 64).astype(int)))
    for n in points:
        if int(cumulative[n]) != summatory(n):
            return f"prefix sum at {n} is {int(cumulative[n])}, wanted {summatory(n)}"
    for n in points[:: max(1, len(points) // 40)] + list(range(limit - 20, limit + 1)):
        if int(table.values[n]) != pointwise(n):
            return f"value at {n} is {int(table.values[n])}, wanted {pointwise(n)}"
    return None


def _check_profile(spec, result, mref: MomentReference) -> str | None:
    for power in spec["powers"]:
        for stop, got in zip(spec["stops"], result[power], strict=True):
            want = mref.between(spec["kind"], power, spec["start"], stop)
            if not _close(got, want, MOMENT_RTOL):
                return f"{spec['kind']}^{power} to {stop}: {got!r}, wanted {want!r}"
    return None


def _check_fit(spec, report, mref: MomentReference, theory: float) -> str | None:
    grid = spec["grid"]
    integrals = [mref.between("delta", 4, 1.0, x) for x in grid]
    residuals = [v - theory * x ** 2 for x, v in zip(grid, integrals)]
    fitted = oracles.lsq_coefficient(grid, integrals, 2.0)
    slope = oracles.loglog_slope(grid, residuals)
    if not _close(report.theory_coefficient, theory, SERIES_RTOL):
        return f"theory coefficient {report.theory_coefficient!r}, wanted {theory!r}"
    if not _close(report.fitted_coefficient, fitted, MOMENT_RTOL):
        return f"fitted coefficient {report.fitted_coefficient!r}, wanted {fitted!r}"
    got = report.residual_series
    if [x for x, _ in got] != grid or not all(
            _close(g, w, MOMENT_RTOL, scale=abs(v))
            for (_, g), w, v in zip(got, residuals, integrals)):
        return f"residual series {got!r}, wanted {list(zip(grid, residuals))!r}"
    if abs(report.residual_slope - slope) > 1e-6:
        return f"residual slope {report.residual_slope!r}, wanted {slope!r}"
    return None


def _check_short(spec, res, mref: MomentReference, theory: float) -> str | None:
    X, H = spec["X"], spec["H"]
    moment = mref.between("delta", 4, X, X + H)
    main = theory * ((X + H) ** 2 - X ** 2)
    if not _close(res.moment, moment, MOMENT_RTOL):
        return f"moment {res.moment!r}, wanted {moment!r}"
    if not _close(res.main_term, main, MOMENT_RTOL):
        return f"main term {res.main_term!r}, wanted {main!r}"
    if not _close(res.ratio, moment / main, MOMENT_RTOL):
        return f"ratio {res.ratio!r}, wanted {moment / main!r}"
    if res.in_asymptotic_range != (X ** (2 / 3) <= H <= X):
        return "asymptotic-range flag wrong"
    return None


def _check_series_value(value, ref: dict, name: str, cutoff: int) -> str | None:
    want = ref["constants"][f"{name}_{cutoff}"]
    if value.cutoff != cutoff or not _close(value.value, want["value"], SERIES_RTOL) \
            or not _close(value.tail_bound, want["tail_bound"], SERIES_RTOL):
        return f"{name}({cutoff}) = {value!r}, wanted {want!r}"
    return None


def _check_build_series(series, N: int) -> str | None:
    weights = np.array([oracles.divisor_count(n) for n in range(1, N + 1)], float)
    want = weights * np.arange(1, N + 1, dtype=float) ** -0.75
    got = np.asarray(series.coefficients, dtype=float)
    if series.truncation != N or got.shape != want.shape \
            or np.max(np.abs(got - want) / want) > 1e-14:
        return "series coefficients differ from d(n) n^(-3/4)"
    if not (_close(series.amplitude, 1 / (math.pi * math.sqrt(2)), 1e-15)
            and _close(series.frequency_scale, 4 * math.pi, 1e-15)
            and _close(series.phase, -math.pi / 4, 1e-15)):
        return "series constants differ from 1/(pi sqrt 2), 4 pi, -pi/4"
    return None


def _check_block(values, xs, N: int) -> str | None:
    want = oracles.series_float64("delta", N, xs)
    if values.shape != want.shape:
        return f"block shape {values.shape}, wanted {want.shape}"
    worst = float(np.max(np.abs(values - want)))
    if worst > BLOCK_TOL * oracles.series_scale(N, xs):
        return f"block values off by {worst:.3e}"
    return None


def moment_study_check(inputs: dict, ctx: dict, ops: list[Op], ref: dict) -> list:
    mref = MomentReference(ref)
    theory = ref["constants"][f"quartic_moment_coefficient_{THEORY_CUTOFF}"]["value"]
    checks = {
        "sieve_divisors": lambda op: _check_sieve(
            op.result, op.spec["limit"], oracles.divisor_summatory, oracles.divisor_count),
        "sieve_r": lambda op: _check_sieve(
            op.result, op.spec["limit"], oracles.lattice_summatory,
            oracles.two_squares_count),
        "moment_profile": lambda op: _check_profile(op.spec, op.result, mref),
        "fit_main_term": lambda op: _check_fit(op.spec, op.result, mref, theory),
        "short_interval_ratio": lambda op: _check_short(op.spec, op.result, mref, theory),
        "cubic_moment_coefficient": lambda op: _check_series_value(
            op.result, ref, "cubic_moment_coefficient", op.spec["cutoff"]),
        "quartic_moment_coefficient": lambda op: _check_series_value(
            op.result, ref, "quartic_moment_coefficient", op.spec["cutoff"]),
        "build_series": lambda op: _check_build_series(op.result, op.spec["N"]),
        "evaluate_block": lambda op: _check_block(op.result, ctx["xs"], op.spec["N"]),
    }
    return _run_checks(ops, checks)


# ---------------------------------------------------------------------------
# spacing-grid: A8-style boxes of all five forms, minimal gaps, exact
# quadruples.  Only the spacing module runs.

DELTA_EXPONENTS = list(range(2, 21))          # delta = 2^-j, j = 2..20
# (form, box, draws per pass); draws are distinct delta exponents.  With
# the gaps and the enumeration a pass makes 20 calls.  The three side-128
# counts are the slowest, so for any number of passes k the pooled p90
# (rank 18k - 0.9) falls between two of them, and p50 (rank 10k - 0.5)
# inside the six ~0.1 s counts.
COUNT_BOXES = {
    "full": [
        ("four-root-minus", {"M": 128, "Mp": 128, "K": 128, "L": 128}, 3),
        ("four-root-minus", {"M": 64, "Mp": 64, "K": 64, "L": 64}, 1),
        ("four-root-minus", {"M": 256, "Mp": 16, "K": 256, "L": 64}, 1),
        ("four-root-plus", {"M": 64, "Mp": 64, "K": 64, "L": 512}, 2),
        ("four-root-plus", {"M": 16, "Mp": 16, "K": 16, "L": 128}, 1),
        ("four-root-kth", {"M": 64}, 2),
        ("three-root", {"M": 1024, "Mp": 1024}, 1),
        ("three-root", {"M": 256, "Mp": 256}, 1),
        ("three-root", {"M": 256, "Mp": 16}, 1),
        ("near-integer", {"K": 4096, "alpha": 2.0}, 2),
        ("near-integer", {"K": 1024, "alpha": 2.0}, 1),
    ],
    "tiny": [
        ("four-root-minus", {"M": 16, "Mp": 16, "K": 16, "L": 16}, 1),
        ("four-root-plus", {"M": 16, "Mp": 16, "K": 16, "L": 128}, 1),
        ("four-root-kth", {"M": 16}, 1),
        ("three-root", {"M": 64, "Mp": 64}, 1),
        ("near-integer", {"K": 1024, "alpha": 2.0}, 1),
    ],
}
GAP_THREE_LIMITS = {"full": [960, 980, 1000, 1020, 1040], "tiny": [100]}
GAP_FOUR_LIMITS = {"full": [146, 148, 150, 152, 154], "tiny": [30]}
QUADRUPLE_LIMITS = {"full": [290, 295, 300, 305, 310], "tiny": [40, 50]}


def box_key(form: str, box: dict, exponent: int) -> str:
    return f"{form}|{json.dumps(box, sort_keys=True)}|{exponent}"


def spacing_grid_inputs(seed: int, pass_index: int, scale: str) -> dict:
    rng = _rng("spacing-grid", seed, pass_index)
    counts = [{"form": form, "box": box, "exponent": j}
              for form, box, draws in COUNT_BOXES[scale]
              for j in rng.sample(DELTA_EXPONENTS, draws)]
    return {"counts": counts,
            "gap_three": rng.choice(GAP_THREE_LIMITS[scale]),
            "gap_four_plus": rng.choice(GAP_FOUR_LIMITS[scale]),
            "gap_four_minus": rng.choice(GAP_FOUR_LIMITS[scale]),
            "quadruples": rng.choice(QUADRUPLE_LIMITS[scale])}


def spacing_grid_prepare(inputs: dict, workdir: Path) -> dict:
    return {"specs": [spacing.BoxSpec(form=spacing.SpacingForm.parse(c["form"]),
                                      delta=2.0 ** -c["exponent"], **c["box"])
                      for c in inputs["counts"]]}


def spacing_grid_execute(inputs: dict, ctx: dict, rec: Recorder) -> None:
    for c, spec in zip(inputs["counts"], ctx["specs"]):
        rec.call("count_box", c, spacing.count_box, spec)
    limit = inputs["gap_three"]
    rec.call("min_gap_three", {"limit": limit}, spacing.min_gap_three, limit)
    for sign, key in ((1, "gap_four_plus"), (-1, "gap_four_minus")):
        limit = inputs[key]
        rec.call("min_gap_four", {"limit": limit, "sign": sign},
                 spacing.min_gap_four, limit, sign)
    limit = inputs["quadruples"]
    rec.call("enumerate_exact_quadruples", {"limit": limit},
             spacing.enumerate_exact_quadruples, limit)


def _check_count(spec, result, ref: dict) -> str | None:
    want = ref["spacing"]["counts"][box_key(spec["form"], spec["box"], spec["exponent"])]
    got = {"count": result.count, "trivial_count": result.trivial_count,
           "exact_zero_count": result.exact_zero_count}
    if any(got[k] != want[k] for k in got) \
            or not _close(result.ratio, want["ratio"], RATIO_RTOL):
        return f"{spec}: {got} ratio {result.ratio!r}, wanted {want}"
    return None


def _check_gap(spec, result, ref: dict) -> str | None:
    limit, sign = spec["limit"], spec.get("sign")
    key = f"three_{limit}" if sign is None else f"four_{limit}_{sign:+d}"
    want = ref["spacing"]["gaps"][key]
    if list(result.argmin) != want["argmin"] \
            or not _close(result.min_scaled_gap, want["gap"], GAP_RTOL):
        return f"gap {key}: {result.min_scaled_gap!r} at {result.argmin}, wanted {want}"
    exact = oracles.scaled_gap_three(*result.argmin) if sign is None \
        else oracles.scaled_gap_four(*result.argmin, sign)
    if not _close(result.min_scaled_gap, exact, GAP_MPMATH_RTOL):
        return f"gap {key}: {result.min_scaled_gap!r}, mpmath gives {exact!r}"
    return None


def _check_quadruples(spec, result) -> str | None:
    want = oracles.exact_quadruples(spec["limit"])
    if result.shape != (len(want), 4) or list(map(tuple, result.tolist())) != want:
        return f"quadruples({spec['limit']}): {result.shape[0]} rows, wanted {len(want)}"
    return None


def spacing_grid_check(inputs: dict, ctx: dict, ops: list[Op], ref: dict) -> list:
    checks = {
        "count_box": lambda op: _check_count(op.spec, op.result, ref),
        "min_gap_three": lambda op: _check_gap(op.spec, op.result, ref),
        "min_gap_four": lambda op: _check_gap(op.spec, op.result, ref),
        "enumerate_exact_quadruples": lambda op: _check_quadruples(op.spec, op.result),
    }
    return _run_checks(ops, checks)


# ---------------------------------------------------------------------------
# cli-queries: a closed loop with one client sending README-style commands
# through divisorlab.cli.main in-process, against a fresh cache directory.

def _x(value: float) -> str:
    return str(int(round(value)))


def _log_menu(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** ((i + 0.5) / count) for i in range(count)]


def _cache_need(kind: str, upto: float) -> tuple[str, int]:
    """The table kind and limit the CLI's cache lookup asks for."""
    if kind == "circle":
        return "two-squares", int(upto) + 1
    return "divisor", (4 if kind == "delta-star" else 1) * (int(upto) + 1)


def _spacing_menu() -> list[list[str]]:
    boxes = [
        ["--form", "four-root-minus", "--M", "16", "--Mp", "16", "--K", "16", "--L", "16"],
        ["--form", "four-root-plus", "--M", "8", "--Mp", "8", "--K", "8", "--L", "64"],
        ["--form", "three-root", "--M", "64", "--Mp", "64"],
        ["--form", "four-root-kth", "--M", "16"],
        ["--form", "near-integer", "--K", "4096", "--alpha", "2"],
        ["--form", "four-root-minus", "--M", "32", "--Mp", "8", "--K", "32", "--L", "8"],
    ]
    out = []
    for i, box in enumerate(boxes):
        for delta, fmt in (("1e-4", "csv"), ("0.01", "json")):
            out.append(["--format", fmt, "spacing", *box, "--delta", delta])
    return out


def cli_menus() -> dict[str, list[dict]]:
    """Every command the cli-queries workload can send, by class, each class
    sorted by cost.  Commands carry the cache lookup they make, if any."""
    menus: dict[str, list[dict]] = {}

    def add(cls, argv, table=None):
        menus.setdefault(cls, []).append({"argv": argv, "table": table})

    for x in _log_menu(1e11, 1e13, 40):
        add("eval-delta", ["eval", "--kind", "delta", "--x", _x(x)])
    for x in _log_menu(1e9, 1e11, 16):
        add("eval-delta-star", ["eval", "--kind", "delta-star", "--x", _x(x)])
    for x in _log_menu(1e6, 5e6, 16):
        add("eval-circle", ["eval", "--kind", "circle", "--x", _x(x)])
    for n in (1000, 2000, 5000, 10000):
        for kind, x in (("delta", "50000"), ("circle", "200000"),
                        ("delta-star", "1000000"), ("delta", "5000000")):
            add("voronoi-x", ["voronoi", "--kind", kind, "--truncation", str(n),
                              "--x", x])
    for n in (100, 200, 400):
        for X, seed, fmt in (("500000", "1", "csv"), ("1000000", "2", "json"),
                             ("2000000", "3", "csv"), ("1500000", "4", "json")):
            add("voronoi-scale", ["--format", fmt, "voronoi", "--kind", "delta",
                                  "--truncation", str(n), "--scale", X, "--seed", seed])
    for to, fmt in (("100000", "csv"), ("150000", "json"), ("120000", "csv"),
                    ("180000", "json")):
        add("moment", ["--cache-dir", "cache", "--format", fmt, "moment", "--kind",
                       "delta", "--power", "2", "--to", to],
            _cache_need("delta", float(to)))
    for power, cutoff, to in (("3", "1000", "100000"), ("3", "2000", "200000"),
                              ("4", "1000", "150000"), ("4", "2000", "200000")):
        add("moment", ["--cache-dir", "cache", "moment", "--kind", "delta", "--power",
                       power, "--to", to, "--cutoff", cutoff],
            _cache_need("delta", float(to)))
    for kind, power, frm, to in (("circle", "4", "1", "50000"),
                                 ("circle", "4", "10", "100000"),
                                 ("delta-star", "3", "1", "20000"),
                                 ("delta-star", "4", "2.5", "30000")):
        add("moment", ["--cache-dir", "cache", "moment", "--kind", kind, "--power",
                       power, "--from", frm, "--to", to],
            _cache_need(kind, float(to)))
    for power, grid, fmt in (("4", "25000,50000,100000,200000", "csv"),
                             ("4", "30000,60000,120000,180000", "json"),
                             ("3", "25000,50000,100000,200000", "json"),
                             ("3", "20000,40000,80000,160000", "csv"),
                             ("2", "10000,30000,90000,150000", "csv"),
                             ("4", "10000,20000,40000,80000", "json"),
                             ("3", "40000,80000,120000,160000", "csv"),
                             ("2", "50000,100000,150000,200000", "json")):
        add("fit", ["--cache-dir", "cache", "--format", fmt, "fit", "--kind", "delta",
                    "--power", power, "--grid", grid, "--cutoff", "1000"],
            _cache_need("delta", float(grid.split(",")[-1])))
    for x in range(100_000, 190_000, 10_000):
        for h in (50_000, 80_000, 100_000):
            add("short-interval", ["--cache-dir", "cache", "short-interval", "--kind",
                                   "delta", "--power", "4", "--x", str(x), "--h", str(h)],
                _cache_need("delta", float(x + h)))
    for argv in _spacing_menu():
        add("spacing", argv)
    for cutoff in ("1000", "2000", "5000"):
        for name in ("cubic_diagonal", "quartic_diagonal", "cubic_coefficient",
                     "quartic_coefficient"):
            add("constants", ["constants", "--name", name, "--cutoff", cutoff])
    for limit in ("100000", "150000", "200000", "300000", "400000"):
        for kind in ("divisor", "sum-of-two-squares"):
            add("sieve", ["--output", f"{kind}-{limit}.dvt", "sieve", "--kind", kind,
                          "--limit", limit])
    return menus


# commands per pass and class: 40 per pass, so a 36 s run of four passes
# gives 160 latency samples.  Short-interval calls (~0.75 s each: the
# quartic series at cutoff 1e5 is recomputed every call) are 17.5% of the
# mix, the cache-reading moment and fit calls (0.1-0.45 s) 12.5%, and the
# millisecond classes the remaining 70%.  For any number of passes, p90
# (rank 0.9 * (40k - 1) of 40k) lies inside the short-interval class, 7.5
# points above its lower edge, and p50 inside the millisecond classes, 20
# points below their upper edge.
CLI_MIX = {
    "full": {"eval-delta": 8, "eval-delta-star": 3, "eval-circle": 3,
             "voronoi-x": 3, "voronoi-scale": 3, "moment": 3, "fit": 2,
             "short-interval": 7, "spacing": 3, "constants": 2, "sieve": 3},
    "tiny": {"eval-delta": 2, "eval-delta-star": 1, "eval-circle": 1,
             "voronoi-x": 1, "voronoi-scale": 1, "moment": 2, "fit": 1,
             "short-interval": 2, "spacing": 1, "constants": 1, "sieve": 1},
}


def cli_queries_inputs(seed: int, pass_index: int, scale: str) -> dict:
    rng = _rng("cli-queries", seed, pass_index)
    menus = cli_menus()
    draws = {cls: _stratified(rng, menus[cls], count)
             for cls, count in CLI_MIX[scale].items()}
    # the order of classes depends on the pass only, so that seeds differ in
    # what they ask, not in the allocation history the order creates
    slots = [cls for cls, count in CLI_MIX[scale].items() for _ in range(count)]
    random.Random(f"cli-queries-order:{pass_index}").shuffle(slots)
    commands = [draws[cls].pop() for cls in slots]
    # the first lookup of each table kind asks for the largest table, so
    # each kind misses exactly once and every later lookup hits
    for kind in ("divisor", "two-squares"):
        slots = [i for i, c in enumerate(commands)
                 if c["table"] and c["table"][0] == kind]
        if slots:
            biggest = max(slots, key=lambda i: commands[i]["table"][1])
            commands[slots[0]], commands[biggest] = commands[biggest], commands[slots[0]]
    return {"commands": [c["argv"] for c in commands]}


def cli_queries_prepare(inputs: dict, workdir: Path) -> dict:
    """The pass runs inside its own directory, so relative --cache-dir and
    --output paths (and therefore stdout) are the same in every pass."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "cache").mkdir()
    os.chdir(workdir)
    return {"workdir": workdir}


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_queries_execute(inputs: dict, ctx: dict, rec: Recorder) -> None:
    for argv in inputs["commands"]:
        rec.call("cli", {"argv": argv}, run_cli, argv)


TIMESTAMP_LINE = re.compile(r'^  "timestamp": "[^"]*"\n', re.MULTILINE)


def command_key(argv: list[str]) -> str:
    return " ".join(argv)


def sieve_output(argv: list[str]) -> str | None:
    return argv[argv.index("--output") + 1] if "sieve" in argv else None


def _check_command(argv, result, ref: dict, workdir: Path) -> str | None:
    rc, out, err = result
    want = ref["cli"][command_key(argv)]
    if rc != 0:
        return f"exit {rc}: {err.strip()}"
    if TIMESTAMP_LINE.sub("", out) != want["stdout"]:
        return f"stdout {out!r}, wanted {want['stdout']!r}"
    path = sieve_output(argv)
    if path is not None:
        digest = hashlib.sha256((workdir / path).read_bytes()).hexdigest()
        if digest != want["sha256"]:
            return f"{path}: sha256 {digest}, wanted {want['sha256']}"
    return None


def cli_queries_check(inputs: dict, ctx: dict, ops: list[Op], ref: dict) -> list:
    check = lambda op: _check_command(op.spec["argv"], op.result, ref, ctx["workdir"])
    return _run_checks(ops, {"cli": check})


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object
    prepare: object
    execute: object
    check: object


WORKLOADS = {
    "moment-study": Workload("moment-study", moment_study_inputs, moment_study_prepare,
                             moment_study_execute, moment_study_check),
    "spacing-grid": Workload("spacing-grid", spacing_grid_inputs, spacing_grid_prepare,
                             spacing_grid_execute, spacing_grid_check),
    "cli-queries": Workload("cli-queries", cli_queries_inputs, cli_queries_prepare,
                            cli_queries_execute, cli_queries_check),
}
