#!/usr/bin/env python3
"""The benchmark's own tests, on small instances of each workload.

    python3 perfbench/test_perfbench.py

Builds the benchmark program like run.py does, then checks that the layer
decorators are transparent, that per-layer self times add up, that the
deterministic counts repeat, that the seed reaches the inputs, that the
work per request stays flat as the request count grows, and that run.py
refuses to run without the program sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# One part at half size, run once plain and once traced.
SMALL = 0.5
ONCE = ["--parts", "1", "--max-rounds", "1"]
DETERMINISTIC_COUNTS = (
    "sim.events", "sim.pending_at_start", "core.background_ios", "sched.add_calls",
    "sched.pop_calls", "sched.depth_at_pop", "mems.service_calls", "mems.estimate_calls",
    "mems.estimate_items", "disk.service_calls", "fault.judge_calls", "fault.map_calls",
    "fault.timeouts", "fault.remaps", "fault.failed_requests", "array.submit_calls",
    "array.member_ops_per_io", "array.rebuild_chunks", "array.superblock_version",
    "array.final_state", "trace.records",
)
# Layers that open no span inside themselves: their total time is their self
# time.
LEAF_TOTALS = {
    "sched.add": "sched.add_s", "mems.service": "mems.service_s",
    "mems.estimate": "mems.estimate_s", "disk.service": "disk.service_s",
    "fault.judge": "fault.judge_s", "fault.map": "fault.map_s",
}

_BINARY = None
_CACHE = {}


def binary():
    global _BINARY
    if _BINARY is None:
        _BINARY = run.build()
    return _BINARY


def traced(workload, seed=1, size=SMALL):
    """One plain plus one traced repeat of a small instance (cached)."""
    key = (workload, seed, size)
    if key not in _CACHE:
        _CACHE[key] = run.run_program(binary(), workload, seed, 0, 1,
                                      ONCE + ["--size", str(size)])
    return _CACHE[key]


class DecoratorTest(unittest.TestCase):
    def test_traced_outputs_match_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = traced(workload)
                self.assertTrue(result["decorated_identical"])
                self.assertTrue(result["consistent"])
                sim = result["parts_sim"][0]
                self.assertEqual(sim["completed"], sim["submitted"])

    def test_self_times_are_non_negative_and_sum_to_run(self):
        # The run-phase self times must add up to the time spent inside
        # outermost spans, which the tracer sums span by span; that time
        # must fit in the run time the benchmark clocks around each chunk.
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                layers = traced(workload)["layers"]
                self_s = {k[len("self."):]: v for k, v in layers.items()
                          if k.startswith("self.")}
                self.assertEqual(layers["tracing.spans_dropped"], 0)
                self.assertGreater(layers["tracing.root_s"], 0.0)
                for value in [layers["core.self_s"]] + list(self_s.values()):
                    self.assertGreaterEqual(value, 0.0)
                self.assertAlmostEqual(sum(self_s.values()), layers["tracing.root_s"],
                                       delta=1e-6)
                self.assertLessEqual(layers["tracing.root_s"], layers["tracing.run_s"])
                for layer, metric in LEAF_TOTALS.items():
                    self.assertAlmostEqual(self_s[layer], layers[metric], delta=1e-8)
                self.assertAlmostEqual(self_s["sched.pop"], layers["sched.pop_self_s"],
                                       delta=1e-8)
                self.assertAlmostEqual(self_s["array.submit"], layers["array.submit_self_s"],
                                       delta=1e-8)

    def test_deterministic_counts_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = traced(workload)
                again = run.run_program(binary(), workload, 1, 0, 1,
                                        ONCE + ["--size", str(SMALL)])
                for name in DETERMINISTIC_COUNTS:
                    self.assertEqual(first["layers"][name], again["layers"][name], name)
                self.assertEqual(run.digest_of(first["parts_sim"]),
                                 run.digest_of(again["parts_sim"]))

    def test_layer_split_matches_workload_design(self):
        tpcc = traced("tpcc_mems_sptf")["layers"]
        self.assertGreater(tpcc["sched.depth_at_pop"], 15)
        self.assertEqual(tpcc["disk.service_calls"], 0)
        zoo = traced("zoo_closed_tiled")["layers"]
        self.assertLessEqual(zoo["sched.depth_at_pop"], 8)
        self.assertGreater(zoo["trace.records"], 0)
        raid = traced("raid5_disk_rebuild")["layers"]
        for name in ("mems.service_calls", "mems.estimate_calls", "mems.estimate_items"):
            self.assertEqual(raid[name], 0, name)
        self.assertGreater(raid["fault.judge_calls"], 0)
        self.assertEqual(raid["array.final_state"], run.ARRAY_OPTIMAL)


class InputTest(unittest.TestCase):
    def test_seed_changes_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = run.record_of(traced(workload, seed=1)["parts_sim"][0])
                b = run.record_of(traced(workload, seed=2)["parts_sim"][0])
                self.assertNotEqual(a["bits"], b["bits"])

    def test_work_per_request_stays_flat(self):
        # Host time tracks these deterministic counts; a backlog that grows
        # with the request count would make them grow too.
        per_io = {"tpcc_mems_sptf": "mems.estimates_per_io",
                  "zoo_closed_tiled": "mems.estimates_per_io",
                  "raid5_disk_rebuild": "sim.events_per_io"}
        for workload, metric in per_io.items():
            with self.subTest(workload=workload):
                small = traced(workload, size=SMALL)["layers"][metric]
                double = traced(workload, size=2 * SMALL)["layers"][metric]
                self.assertLess(abs(double - small), 0.15 * small)

    def test_golden_instance_matches_recording(self):
        expected = run.load_expected()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = run.run_program(binary(), workload, 1, 0, 0,
                                         ONCE + ["--size", str(SMALL)])
                self.assertEqual(run.diff_sim(run.record_of(result["golden"]),
                                              expected["golden"][workload]), [])


class EntryPointTest(unittest.TestCase):
    def test_refuses_without_program_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: no build is
        # possible, so run.py must fail without printing a result.
        scratch = os.path.join(os.path.dirname(run.build_dir()), "bare-checkout")
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.copytree(run.HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), scratch)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tpcc_mems_sptf",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=60, check=False)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def test_output_contract(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
             "raid5_disk_rebuild", "--seed", "3", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=170, check=True)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(last["correct"], proc.stderr)
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual(set(last["metrics"]), {m["name"] for m in spec["per_layer"]})


if __name__ == "__main__":
    unittest.main()
