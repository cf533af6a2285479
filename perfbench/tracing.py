"""In-memory span tracer for the traced benchmark run.

The tracer wraps divisorlab's public functions at the module bindings their
callers use (the benchmark itself, and the cross-layer calls cli -> every
layer, moments -> constants, error_terms -> sieves, voronoi -> error_terms,
constants/moments/voronoi -> sieves).  Nothing under src/ is edited; the
wrappers are removed when the pass ends.  Inner helpers such as
smooth_main_term or leggauss_01 are never wrapped.

Each span records its name, start, end, parent span id and run id, plus the
work it was given (counted from its inputs, never from the algorithm) and
the tracemalloc peak above its starting allocation.  tracemalloc is paused
inside constants spans: the series loops there run ~6x slower under it, and
no metric reports that layer's allocations (nor those of the sieves it
calls).  Spans stay in memory
and are written as JSON lines when the pass ends.  A call into a layer from
inside the same layer is not a new span, so a layer's self time is simply
its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import math
import os
import threading
import time
import tracemalloc

MIB = float(1 << 20)
UNTRACKED_LAYERS = ("constants",)


def _denom(kind) -> int:
    return 4 if kind.value == "delta-star" else 1


def _table_bytes(kind, upto, table) -> int:
    """Bytes of the uint16 table plus the int64 prefix a moment call holds."""
    need = math.ceil(upto * _denom(kind))
    wanted = "SUM_OF_TWO_SQUARES" if kind.value == "circle" else "DIVISOR"
    if table is not None and table.kind.name == wanted and table.limit >= need:
        need = table.limit
    return 10 * (need + 1)


def _moment_work(kind, a, b, table):
    return {"segments": math.ceil((b - a) * _denom(kind)),
            "table_bytes": _table_bytes(kind, b, table)}


def _box_volume(spec) -> int:
    form = spec.form.value
    if form == "near-integer":
        return spec.K
    if form == "three-root":
        return spec.M * spec.Mp
    if form == "four-root-kth":
        return spec.M ** 4
    return spec.M * spec.Mp * spec.K * spec.L


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# (layer, function) -> work attributes from the bound arguments and result
WORK = {
    "sieve_divisors": lambda a, r: {"entries": a["limit"]},
    "sieve_r": lambda a, r: {"entries": a["limit"]},
    "save_table": lambda a, r: {"bytes": _file_bytes(a["path"]),
                                "kind": a["table"].kind.name},
    "load_table": lambda a, r: {"bytes": _file_bytes(a["path"]),
                                "kind": r.kind.name},
    "moment_profile": lambda a, r: _moment_work(
        a["kind"], a["start"], float(list(a["stops"])[-1]), a["table"]),
    "moment": lambda a, r: _moment_work(
        a["kind"], float(a["interval"][0]), float(a["interval"][1]), a["table"]),
    "fit_main_term": lambda a, r: _moment_work(
        a["kind"], 1.0, float(max(a["X_grid"])), a["table"]),
    "short_interval_ratio": lambda a, r: _moment_work(
        a["kind"], float(a["X"]), float(a["X"]) + float(a["H"]), a["table"]),
    "cubic_diagonal_series": lambda a, r: {"cutoff": a["cutoff"]},
    "quartic_diagonal_series": lambda a, r: {"cutoff": a["cutoff"]},
    "cubic_moment_coefficient": lambda a, r: {"cutoff": a["cutoff"]},
    "quartic_moment_coefficient": lambda a, r: {"cutoff": a["cutoff"]},
    "evaluate_block": lambda a, r: {
        "point_terms": int(r.size) * a["series"].truncation},
    "truncated": lambda a, r: {"point_terms": a["truncation"]},
    "remainder_stats": lambda a, r: {
        "point_terms": a["sample_count"] * a["truncation"]},
    "count_box": lambda a, r: {"box_volume": _box_volume(a["spec"])},
    "main": lambda a, r: {"argv": list(a["argv"] or []), "rc": r},
}


def bindings(mods):
    """(owner, attribute, layer) for every wrapped public function."""
    cli, constants, error_terms = mods["cli"], mods["constants"], mods["error_terms"]
    moments, sieves, spacing, voronoi = (mods["moments"], mods["sieves"],
                                         mods["spacing"], mods["voronoi"])
    out = [(sieves, "sieve_divisors", "sieves"), (sieves, "sieve_r", "sieves")]
    for owner in (cli, moments, voronoi):
        out += [(owner, "sieve_divisors", "sieves"), (owner, "sieve_r", "sieves")]
    out += [(constants, "sieve_divisors", "sieves"),
            (cli, "load_table", "sieves"), (cli, "save_table", "sieves")]
    out += [(error_terms, name, "sieves") for name in ("summatory_d", "summatory_r")]
    out += [(cli, "error_term", "error_terms"), (voronoi, "error_term", "error_terms")]
    out += [(moments, name, "moments") for name in
            ("moment_profile", "moment", "fit_main_term", "short_interval_ratio",
             "theory_coefficient")]
    out += [(constants, name, "constants") for name in
            ("cubic_diagonal_series", "quartic_diagonal_series",
             "cubic_moment_coefficient", "quartic_moment_coefficient",
             "classical_mean_square_coefficient")]
    out += [(voronoi, name, "voronoi") for name in
            ("build_series", "evaluate_block", "truncated", "remainder_stats")]
    out += [(spacing, name, "spacing") for name in
            ("count_box", "min_gap_three", "min_gap_four",
             "enumerate_exact_quadruples")]
    out.append((cli, "main", "cli"))
    return out


class Tracer:
    """Collects spans for one traced pass; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._installed: list[tuple] = []
        self._ids = itertools.count(1)
        self._offset = 0
        self._thread = threading.get_ident()

    def _traced(self) -> tuple[int, int]:
        """(current, peak) traced bytes, counting what was live at a pause."""
        current, peak = tracemalloc.get_traced_memory()
        return current + self._offset, peak + self._offset

    def _fold_peak(self) -> None:
        """Credit the allocation peak since the last span boundary to every
        open span, then restart peak tracking."""
        if not tracemalloc.is_tracing():
            return
        peak = self._traced()[1]
        for span in self._stack:
            span["peak_alloc"] = max(span["peak_alloc"], peak - span["base"])
        tracemalloc.reset_peak()

    def open(self, layer: str, name: str) -> dict:
        self._fold_peak()
        span = {"id": next(self._ids),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "run": self.run_id, "layer": layer, "name": f"{layer}.{name}",
                "peak_alloc": 0, "base": self._traced()[0], "attrs": {}}
        self._stack.append(span)
        if layer in UNTRACKED_LAYERS and tracemalloc.is_tracing():
            span["paused_at"] = span["base"]
            tracemalloc.stop()
        span["start"] = time.perf_counter()
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if "paused_at" in span:
            tracemalloc.start()
            self._offset = span.pop("paused_at")
        self._fold_peak()
        self._stack.pop()
        del span["base"]
        self.spans.append(span)

    def _wrapper(self, original, layer: str, name: str):
        signature = inspect.signature(original)
        work = WORK.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if (threading.get_ident() != self._thread
                    or (self._stack and self._stack[-1]["layer"] == layer)):
                return original(*args, **kwargs)
            span = self.open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(span)
            if work is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["attrs"] = work(bound.arguments, result)
            return result
        return traced

    def install(self, mods) -> None:
        for owner, attr, layer in bindings(mods):
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrapper(original, layer, attr))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["id"], ()), key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out


PER_LAYER_UNITS = {
    "sieves.sieve_s": "s", "sieves.sieved_entries": "count",
    "sieves.sieve_entries_per_s": "1/s", "sieves.peak_alloc_mib": "MiB",
    "sieves.summatory_calls": "count", "sieves.summatory_s": "s",
    "sieves.cache_save_s": "s", "sieves.cache_load_s": "s",
    "sieves.cache_bytes_written": "bytes", "sieves.cache_bytes_read": "bytes",
    "error_terms.eval_calls": "count", "error_terms.eval_s": "s",
    "moments.calls": "count", "moments.integrate_s": "s",
    "moments.segments": "count", "moments.segments_per_s": "1/s",
    "moments.table_mib": "MiB", "moments.peak_alloc_mib": "MiB",
    "moments.thread_speedup": "ratio",
    "constants.series_calls": "count", "constants.series_s": "s",
    "constants.cutoff_per_s": "1/s",
    "voronoi.eval_s": "s", "voronoi.point_terms": "count",
    "voronoi.point_terms_per_s": "1/s", "voronoi.peak_alloc_mib": "MiB",
    "spacing.count_s": "s", "spacing.box_volume": "count",
    "spacing.tuples_per_s": "1/s", "spacing.gap_s": "s",
    "spacing.enumerate_s": "s", "spacing.peak_alloc_mib": "MiB",
    "cli.calls": "count", "cli.self_s": "s", "cli.cache_hits": "count",
    "cli.cache_misses": "count", "cli.cache_hit_ratio": "ratio",
    "cli.nonzero_exits": "count",
    "trace.overhead_s": "s",
}

_CACHED_COMMANDS = ("moment", "fit", "short-interval")


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def cache_lookups(spans) -> list[tuple[str, str]]:
    """(table kind, 'hit' | 'miss') for each cache-reading CLI command."""
    by_parent: dict[int, list[dict]] = {}
    for span in spans:
        by_parent.setdefault(span["parent"], []).append(span)
    out = []
    for span in spans:
        argv = span["attrs"].get("argv") if span["name"] == "cli.main" else None
        if not argv or not set(argv) & set(_CACHED_COMMANDS):
            continue
        for child in by_parent.get(span["id"], ()):
            if child["name"] == "sieves.load_table":
                out.append((child["attrs"]["kind"], "hit"))
                break
            if child["name"] in ("sieves.sieve_divisors", "sieves.sieve_r"):
                kind = "DIVISOR" if child["name"].endswith("divisors") \
                    else "SUM_OF_TWO_SQUARES"
                out.append((kind, "miss"))
                break
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_s and
    moments.thread_speedup, from one pass's spans; a layer that did not run
    reports 0."""
    own = self_times(spans)

    def pick(*names):
        return [s for s in spans if s["name"] in names]

    def layer(name):
        return [s for s in spans if s["layer"] == name]

    def secs(group):
        return sum(own[s["id"]] for s in group)

    def total(group, key):
        return sum(s["attrs"].get(key, 0) for s in group)

    def peak(group):
        return max((s["peak_alloc"] for s in group), default=0) / MIB

    sieving = pick("sieves.sieve_divisors", "sieves.sieve_r")
    summing = pick("sieves.summatory_d", "sieves.summatory_r")
    saves, loads = pick("sieves.save_table"), pick("sieves.load_table")
    moment_spans, constant_spans = layer("moments"), layer("constants")
    voronoi_spans, count_spans = layer("voronoi"), pick("spacing.count_box")
    cli_spans = layer("cli")
    lookups = cache_lookups(spans)
    hits = sum(1 for _, outcome in lookups if outcome == "hit")
    m = {
        "sieves.sieve_s": secs(sieving),
        "sieves.sieved_entries": total(sieving, "entries"),
        "sieves.peak_alloc_mib": peak(layer("sieves")),
        "sieves.summatory_calls": len(summing),
        "sieves.summatory_s": secs(summing),
        "sieves.cache_save_s": secs(saves),
        "sieves.cache_load_s": secs(loads),
        "sieves.cache_bytes_written": total(saves, "bytes"),
        "sieves.cache_bytes_read": total(loads, "bytes"),
        "error_terms.eval_calls": len(layer("error_terms")),
        "error_terms.eval_s": secs(layer("error_terms")),
        "moments.calls": len(moment_spans),
        "moments.integrate_s": secs(moment_spans),
        "moments.segments": total(moment_spans, "segments"),
        "moments.table_mib": max((s["attrs"].get("table_bytes", 0)
                                  for s in moment_spans), default=0) / MIB,
        "moments.peak_alloc_mib": peak(moment_spans),
        "constants.series_calls": len(constant_spans),
        "constants.series_s": secs(constant_spans),
        "voronoi.eval_s": secs(voronoi_spans),
        "voronoi.point_terms": total(voronoi_spans, "point_terms"),
        "voronoi.peak_alloc_mib": peak(voronoi_spans),
        "spacing.count_s": secs(count_spans),
        "spacing.box_volume": total(count_spans, "box_volume"),
        "spacing.gap_s": secs(pick("spacing.min_gap_three", "spacing.min_gap_four")),
        "spacing.enumerate_s": secs(pick("spacing.enumerate_exact_quadruples")),
        "spacing.peak_alloc_mib": peak(layer("spacing")),
        "cli.calls": len(cli_spans),
        "cli.self_s": secs(cli_spans),
        "cli.cache_hits": hits,
        "cli.cache_misses": len(lookups) - hits,
        "cli.cache_hit_ratio": hits / len(lookups) if lookups else 0.0,
        "cli.nonzero_exits": sum(1 for s in cli_spans if s["attrs"].get("rc")),
    }
    m["sieves.sieve_entries_per_s"] = _rate(m["sieves.sieved_entries"],
                                            m["sieves.sieve_s"])
    m["moments.segments_per_s"] = _rate(m["moments.segments"],
                                        m["moments.integrate_s"])
    m["constants.cutoff_per_s"] = _rate(total(constant_spans, "cutoff"),
                                        m["constants.series_s"])
    m["voronoi.point_terms_per_s"] = _rate(m["voronoi.point_terms"],
                                           m["voronoi.eval_s"])
    m["spacing.tuples_per_s"] = _rate(m["spacing.box_volume"], m["spacing.count_s"])
    return m
