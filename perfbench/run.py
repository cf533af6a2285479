"""divisorlab benchmark: run one workload with one seed and report.

    python3 perfbench/run.py --workload moment-study --seed 1 --seconds 36 --trace 0

Runs passes of the workload, each in a fresh worker process (worker.py), one
after another, while another one fits in --seconds (at least three).  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it alternates an
untraced and a traced pass and reports the per-layer metrics, including the
tracing overhead.  Every operation's output is checked.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.  Details
of every pass go to .perfbench/results/ and span files to .perfbench/spans/.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
WORKLOADS = ("moment-study", "spacing-grid", "cli-queries")
MIN_PASSES = 3          # untraced passes per --trace 0 run
PASS_TIMEOUT_S = 170
RUN_LIMIT_S = 150       # no pass starts that could end after this

# Timings in the result line are CPU time of the worker process (all its
# threads): on a shared VM the hypervisor can steal up to 40% of the CPUs,
# which inflates wall-clock figures by as much and shifts them between runs,
# while the process's CPU time leaves most stolen time out.  The wall-clock
# figures are printed alongside.
END_TO_END_UNITS = {"setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB",
                    "query_cpu_p50_ms": "ms", "query_cpu_p90_ms": "ms"}
WALL_CLOCK_UNITS = {"setup_wall_s": "s", "wall_s": "s", "query_p50_ms": "ms",
                    "query_p90_ms": "ms"}


def _percentile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_worker(workload: str, seed: int, pass_index: int, trace: bool,
               scale: str) -> dict:
    """One pass in a fresh process; a pass that dies counts as one failure."""
    tag = f"{workload}-seed{seed}-pass{pass_index}-trace{int(trace)}-{os.getpid()}"
    out = STATE / "passes" / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index), "--scale", scale,
           "--trace", str(int(trace)), "--workdir", str(STATE / "work" / tag),
           "--out", str(out)]
    if trace:
        cmd += ["--spans", str(STATE / "spans" / f"{tag}.jsonl")]
    # BLAS pools stay single-threaded: the workloads' only parallelism is
    # moment_profile(threads=2) on this 2-core budget
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        error = None if proc.returncode == 0 and out.exists() else \
            f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        error = f"worker timed out after {PASS_TIMEOUT_S} s"
    if error is not None:
        return {"error": error, "attempted": 1, "failed": 1, "failures": [error]}
    record = json.loads(out.read_text(encoding="utf-8"))
    out.unlink()
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               scale: str) -> list[dict]:
    """Untraced passes, or (untraced, traced) pairs, one after another, while
    another one fits in --seconds (at least three passes, or one pair).  The
    workloads put their p50 and p90 ranks inside one class of operations
    for any pass count, so a run that fits one pass fewer still reads the
    same quantiles."""
    began = time.perf_counter()
    passes, durations = [], []
    minimum = 1 if trace else MIN_PASSES
    index = 0
    while True:
        t0 = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            passes.append(run_worker(workload, seed, index, traced, scale))
        durations.append(time.perf_counter() - t0)
        index += 1
        if any("error" in p for p in passes):
            break
        elapsed = time.perf_counter() - began
        typical = statistics.median(durations)
        if elapsed + typical > RUN_LIMIT_S or (
                index >= minimum and elapsed + typical > seconds):
            break
    return passes


def _steal_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7], sum(fields[:8])) if len(fields) >= 8 else None


def end_to_end(passes: list[dict]) -> tuple[dict, dict, dict]:
    """Gated metrics, wall-clock companions, and sample counts."""
    def median(key):
        return statistics.median(p[key] for p in passes)

    def quantiles(column):
        lat = sorted(1000 * op[column] for p in passes for op in p["latencies"])
        return _percentile(lat, 50), _percentile(lat, 90), lat

    cpu50, cpu90, cpu_lat = quantiles(2)
    wall50, wall90, wall_lat = quantiles(1)
    metrics = {"setup_s": median("setup_s"), "cpu_s": median("cpu_s"),
               "peak_rss_mib": median("peak_rss_mib"),
               "query_cpu_p50_ms": cpu50, "query_cpu_p90_ms": cpu90}
    wall = {"setup_wall_s": median("setup_wall_s"), "wall_s": median("wall_s"),
            "query_p50_ms": wall50, "query_p90_ms": wall90}
    samples = {"passes": len(passes), "operations": len(cpu_lat),
               "beyond_cpu_p90": sum(1 for v in cpu_lat if v > cpu90),
               "beyond_p90": sum(1 for v in wall_lat if v > wall90)}
    return metrics, wall, samples


def per_layer(pairs: list[tuple[dict, dict]]) -> tuple[dict, dict]:
    metrics = {}
    for name in tracing.PER_LAYER_UNITS:
        if name == "trace.overhead_s":
            values = [t["cpu_s"] - u["cpu_s"] for u, t in pairs]
        else:
            values = [t["layers"].get(name, 0.0) for _, t in pairs]
        metrics[name] = statistics.median(values)
    return metrics, {"traced_passes": len(pairs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload (self-tests only)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "divisorlab" / "__init__.py").is_file():
        sys.stderr.write(f"no divisorlab sources under {ROOT / 'src'}; run the "
                         "benchmark from a checkout of the repository\n")
        return 2
    for sub in ("passes", "work", "spans", "results"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)

    steal_before = _steal_ticks()
    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.scale)
    steal_after = _steal_ticks()
    steal_share = None
    if steal_before and steal_after and steal_after[1] > steal_before[1]:
        steal_share = (steal_after[0] - steal_before[0]) / (steal_after[1] - steal_before[1])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    ok = [p for p in passes if "error" not in p]
    wall = {}
    if args.trace:
        pairs = [(u, t) for u, t in zip(passes[0::2], passes[1::2])
                 if "error" not in u and "error" not in t]
        metrics, samples = per_layer(pairs) if pairs else ({}, {})
        units = tracing.PER_LAYER_UNITS
    else:
        metrics, wall, samples = end_to_end(ok) if ok else ({}, {}, {})
        units = END_TO_END_UNITS
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "seconds": args.seconds, "commit": _commit(),
        "src_digest": _src_digest(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": ok[0]["numpy"] if ok else None,
        "longdouble_nmant": ok[0]["longdouble_nmant"] if ok else None,
        "host_steal_share": steal_share, "passes": len(passes), "samples": samples,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "metrics": metrics, "wall_clock": wall, "failures": failures[:20],
        "pass_records": [{k: v for k, v in p.items() if k != "latencies"}
                         for p in passes],
    }
    (STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(STATE / "work", ignore_errors=True)

    print(f"divisorlab benchmark: {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(passes)} passes, commit {record['commit']}, "
          f"src {record['src_digest']}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:.6g} {units[name]}")
    for name, value in wall.items():
        print(f"  {name:28s} {value:.6g} {WALL_CLOCK_UNITS[name]} (wall clock)")
    print(f"  {'fail_ratio':28s} {failed / attempted:.6g} 1 "
          f"({failed} failed of {attempted} operations)")
    if steal_share is not None:
        print(f"  {'host_steal_share':28s} {steal_share:.4f} 1 (all CPUs, whole run)")
    if samples:
        print(f"  samples: {json.dumps(samples)}")
    for f in failures[:10]:
        print(f"  FAILED {f}")
    print("record " + json.dumps({k: record[k] for k in (
        "workload", "seed", "commit", "src_digest", "nproc", "python", "numpy",
        "longdouble_nmant", "host_steal_share", "passes", "samples")}))
    print(json.dumps({
        "correct": failed == 0 and len(ok) == len(passes) and bool(metrics),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
