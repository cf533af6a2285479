"""One benchmark pass in a fresh process.

The pass times its set-up (imports, input generation, cache-directory
creation), then its operations, each in CPU time and in wall-clock time,
then checks every output outside the timed region, and writes one JSON
record to --out.  A fresh process per pass means
every pass pays divisorlab's lazy per-process caches, as a user does, and
that ru_maxrss belongs to this workload alone.  run.py starts the passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_pass(workload: str, seed: int, pass_index: int, scale: str, trace: bool,
             workdir: Path, spans_file: Path | None = None, reference=None) -> dict:
    """Run one pass in this process and return its record.  ``reference``
    replaces the committed reference data (the self-tests corrupt it)."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    start, cpu = time.perf_counter(), time.process_time()
    import divisorlab  # noqa: F401  (timed: the import is part of set-up)
    import workloads
    wl = workloads.WORKLOADS[workload]
    inputs = wl.make_inputs(seed, pass_index, scale)
    ctx = wl.prepare(inputs, workdir)
    setup_wall_s = time.perf_counter() - start
    setup_s = time.process_time() - cpu

    rec = workloads.Recorder()
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer(f"{workload}-seed{seed}-pass{pass_index}")
        tracemalloc.start()
        tracer.install(workloads.MODULES)
        root_span = tracer.open("bench", "pass")
    start, cpu = time.perf_counter(), time.process_time()
    wl.execute(inputs, ctx, rec)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"setup_s": setup_s, "setup_wall_s": setup_wall_s, "cpu_s": cpu_s,
              "wall_s": wall_s, "peak_rss_mib": rss_mib}
    ops = rec.ops
    if tracer is not None:
        tracer.close(root_span)
        tracer.uninstall()
        tracemalloc.stop()
        record["layers"] = tracing.layer_metrics(tracer.spans)
        record["cache_lookups"] = tracing.cache_lookups(tracer.spans)
        record["span_count"] = len(tracer.spans)
        if spans_file is not None:
            tracer.write(spans_file)
        if workload == "moment-study":
            speedup, results = workloads.thread_speedup(inputs)
            record["layers"]["moments.thread_speedup"] = speedup
            ops = ops + [workloads.Op("moment_profile", inputs["profiles"][0], 0.0,
                                      0.0, result, None) for result in results]

    ref = workloads.load_reference() if reference is None else reference
    failures = wl.check(inputs, ctx, ops, ref)
    import numpy as np
    record.update({
        "latencies": [[op.name, op.seconds, op.cpu_seconds] for op in rec.ops],
        "attempted": len(ops),
        "failures": [f"{op.name}: {msg}" for op, msg in zip(ops, failures) if msg],
        "numpy": np.__version__,
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
    })
    record["failed"] = len(record["failures"])
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        record = run_pass(args.workload, args.seed, args.pass_index, args.scale,
                          bool(args.trace), args.workdir.resolve(), args.spans)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(args.workdir, ignore_errors=True)
    args.out.write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
