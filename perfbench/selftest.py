"""Self-tests of the benchmark harness, at tiny scale (under a minute).

    python3 perfbench/selftest.py

Kept out of the repository's pytest collection on purpose: they start
benchmark runs, which the tier-1 suite should not pay for.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = list(workloads.WORKLOADS)
SCRATCH = ROOT / ".perfbench" / "selftest"


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


class MetricsEmitted(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = bench("--workload", name, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace), "--scale", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed",
                                                   "metrics"})
                    self.assertTrue(result["correct"], proc.stdout)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertIn("fail_ratio", proc.stdout)
                    if trace:
                        spans = sorted((ROOT / ".perfbench" / "spans").glob(
                            f"{name}-seed3-*.jsonl"), key=os.path.getmtime)
                        first = json.loads(spans[-1].read_text().splitlines()[0])
                        self.assertLessEqual({"id", "parent", "run", "name", "start",
                                              "end"}, set(first))

    def test_run_without_sources_fails_without_a_result(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = bench("--workload", "moment-study", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Checks(unittest.TestCase):
    def run_tiny(self, name: str, reference=None) -> dict:
        try:
            return worker.run_pass(name, 7, 0, "tiny", False, SCRATCH / name,
                                   reference=reference)
        finally:
            os.chdir(ROOT)
            shutil.rmtree(SCRATCH / name, ignore_errors=True)

    def test_clean_reference_passes(self):
        for name in ("moment-study", "spacing-grid"):
            with self.subTest(workload=name):
                record = self.run_tiny(name)
                self.assertEqual(record["failed"], 0, record["failures"])

    def test_corrupted_reference_raises_fail_ratio(self):
        ref = workloads.load_reference()
        bad = copy.deepcopy(ref)
        for entry in bad["spacing"]["counts"].values():
            entry["count"] += 1
        record = self.run_tiny("spacing-grid", reference=bad)
        self.assertEqual(record["failed"], 5, record["failures"])   # the five count_box calls
        bad = copy.deepcopy(ref)
        for entry in bad["moments"].values():
            entry["values"] = {p: [v * (1 + 1e-8) for v in vs]
                               for p, vs in entry["values"].items()}
        record = self.run_tiny("moment-study", reference=bad)
        self.assertGreaterEqual(record["failed"], 3, record["failures"])
        bad = copy.deepcopy(ref)
        for entry in bad["cli"].values():
            entry["stdout"] = entry["stdout"].replace("1", "2", 1)
        record = self.run_tiny("cli-queries", reference=bad)
        self.assertGreater(record["failed"], 0)

    def test_cache_misses_once_per_table_kind_then_hits(self):
        for seed in range(4):
            with self.subTest(seed=seed):
                try:
                    record = worker.run_pass("cli-queries", seed, 0, "tiny", True,
                                             SCRATCH / "cli")
                finally:
                    os.chdir(ROOT)
                    shutil.rmtree(SCRATCH / "cli", ignore_errors=True)
                self.assertEqual(record["failed"], 0, record["failures"])
                lookups = record["cache_lookups"]
                kinds = {kind for kind, _ in lookups}
                for kind in kinds:
                    outcomes = [o for k, o in lookups if k == kind]
                    self.assertEqual(outcomes[0], "miss")
                    self.assertEqual(outcomes.count("miss"), 1, lookups)
                self.assertGreater(len(lookups), len(kinds))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, wl in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                a = wl.make_inputs(5, 0, "full")
                self.assertEqual(a, wl.make_inputs(5, 0, "full"))
                self.assertNotEqual(a, wl.make_inputs(6, 0, "full"))
                self.assertNotEqual(a, wl.make_inputs(5, 1, "full"))

    def test_inputs_stay_on_the_reference_menus(self):
        ref = workloads.load_reference()
        for seed in range(20):
            cli = workloads.cli_queries_inputs(seed, 0, "full")["commands"]
            self.assertEqual(len(cli), 40)
            for argv in cli:
                self.assertIn(workloads.command_key(argv), ref["cli"])
            spacing = workloads.spacing_grid_inputs(seed, 0, "full")
            for c in spacing["counts"]:
                self.assertIn(workloads.box_key(c["form"], c["box"], c["exponent"]),
                              ref["spacing"]["counts"])
            moment = workloads.moment_study_inputs(seed, 0, "full")
            for p in moment["profiles"]:
                xs = set(ref["moments"][p["kind"]]["x"])
                self.assertLessEqual(set(p["stops"]) | {p["start"]}, xs)
            X, H = moment["short"]
            self.assertLessEqual(set(moment["fit_grid"]) | {X, X + H},
                                 set(ref["moments"]["delta"]["x"]))


if __name__ == "__main__":
    unittest.main(verbosity=2)
