#!/usr/bin/env python3
"""Unit tests for the bench-regression gate itself.

The gate holds seven sets of floors and until now had no tests of its
own: a broken comparison (inverted inequality, misspelled key, a gate
that silently passes on missing data) would wave regressions through.
Each test builds fixture JSONs in a temp dir, runs one gate against
them, and asserts on the module's failure tally.

Run from the repo root:
    python3 scripts/bench_gate_test.py
"""
import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_gate  # noqa: E402


@contextlib.contextmanager
def fixtures(files):
    """chdir into a temp dir holding the given {name: payload} JSONs."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        for name, payload in files.items():
            with open(os.path.join(d, name), "w") as f:
                json.dump(payload, f)
        os.chdir(d)
        try:
            yield
        finally:
            os.chdir(old)


def run_gate(gate, files):
    """Run one gate against fixtures; return (failures, checks)."""
    bench_gate.reset()
    with fixtures(files), contextlib.redirect_stdout(io.StringIO()):
        gate()
    return list(bench_gate.failures), bench_gate.checks


GOOD_RESHARD = {
    "baselineQueriesPerSec": 4000.0,
    "migratedQueriesPerSec": 5000.0,
    "migratedRelative": 1.25,
    "cutoverPauseMs": 9.3,
    "commitGroupIntervalMs": 40.0,
    "readFailures": 0,
    "churnReads": 800,
    "recordsMigrated": 30000,
}


class TestCheck(unittest.TestCase):
    def test_tally(self):
        bench_gate.reset()
        with contextlib.redirect_stdout(io.StringIO()):
            bench_gate.check(True, "fine")
            bench_gate.check(False, "broken")
        self.assertEqual(bench_gate.checks, 2)
        self.assertEqual(bench_gate.failures, ["broken"])
        bench_gate.reset()
        self.assertEqual((bench_gate.checks, bench_gate.failures), (0, []))


class TestGateReshard(unittest.TestCase):
    def run_reshard(self, **overrides):
        ci = dict(GOOD_RESHARD, **overrides)
        return run_gate(bench_gate.gate_reshard,
                        {"BENCH_reshard.ci.json": ci})

    def test_healthy_run_passes(self):
        failures, checks = self.run_reshard()
        self.assertEqual(failures, [])
        self.assertEqual(checks, 6)

    def test_pause_exceeding_one_group_interval_fails(self):
        failures, _ = self.run_reshard(cutoverPauseMs=41.0)
        self.assertEqual(len(failures), 1)
        self.assertIn("cutover pause", failures[0])

    def test_pause_exactly_one_interval_passes(self):
        failures, _ = self.run_reshard(cutoverPauseMs=40.0)
        self.assertEqual(failures, [])

    def test_slow_migrated_throughput_fails(self):
        failures, _ = self.run_reshard(migratedQueriesPerSec=3000.0,
                                       migratedRelative=0.75)
        self.assertEqual(len(failures), 1)
        self.assertIn("90%", failures[0])

    def test_any_read_failure_fails(self):
        failures, _ = self.run_reshard(readFailures=1)
        self.assertEqual(len(failures), 1)
        self.assertIn("verified-read failures", failures[0])

    def test_empty_migration_fails(self):
        failures, _ = self.run_reshard(recordsMigrated=0)
        self.assertEqual(len(failures), 1)
        self.assertIn("migrated", failures[0])

    def test_missing_key_raises(self):
        ci = dict(GOOD_RESHARD)
        del ci["cutoverPauseMs"]
        with self.assertRaises(KeyError):
            run_gate(bench_gate.gate_reshard, {"BENCH_reshard.ci.json": ci})

    def test_missing_file_raises(self):
        with self.assertRaises(FileNotFoundError):
            run_gate(bench_gate.gate_reshard, {})


class TestGateReplica(unittest.TestCase):
    GOOD = {
        "baselineQueriesPerSec": 4000.0,
        "replicatedQueriesPerSec": 4200.0,
        "replicatedRelative": 1.05,
        "failovers": 0,
    }

    def test_healthy_run_passes(self):
        failures, checks = run_gate(bench_gate.gate_replica,
                                    {"BENCH_replica.ci.json": self.GOOD})
        self.assertEqual(failures, [])
        self.assertEqual(checks, 4)

    def test_slow_replicated_path_fails(self):
        ci = dict(self.GOOD, replicatedRelative=0.8)
        failures, _ = run_gate(bench_gate.gate_replica,
                               {"BENCH_replica.ci.json": ci})
        self.assertEqual(len(failures), 1)

    def test_failovers_fail(self):
        ci = dict(self.GOOD, failovers=2)
        failures, _ = run_gate(bench_gate.gate_replica,
                               {"BENCH_replica.ci.json": ci})
        self.assertEqual(len(failures), 1)
        self.assertIn("failovers", failures[0])


class TestGateShard(unittest.TestCase):
    def payloads(self, ci_speedup):
        base = {"results": [
            {"shards": 1, "queries_per_sec": 1000.0, "speedup": 1.0},
            {"shards": 4, "queries_per_sec": 3600.0, "speedup": 3.6},
        ]}
        ci = {"results": [
            {"shards": 1, "queries_per_sec": 900.0, "speedup": 1.0},
            {"shards": 4, "queries_per_sec": 900.0 * ci_speedup,
             "speedup": ci_speedup},
        ]}
        return {"BENCH_shard.json": base, "BENCH_shard.ci.json": ci}

    def test_within_tolerance_passes(self):
        # 30% tolerance: a 3.6x baseline admits anything >= 2.52x.
        failures, _ = run_gate(bench_gate.gate_shard, self.payloads(2.6))
        self.assertEqual(failures, [])

    def test_regression_beyond_tolerance_fails(self):
        failures, _ = run_gate(bench_gate.gate_shard, self.payloads(2.4))
        self.assertEqual(len(failures), 1)
        self.assertIn("speedup", failures[0])


class TestGateFastpath(unittest.TestCase):
    """serveAllocReduction is seed/fast allocs per op; a fast serve that
    allocates nothing reports the lower bound seed x iters, not 0."""

    BASE = {
        "shaNI": True,
        "verifySpeedup": 3.1,
        "serveSpeedup": 5.7,
        "serveSeedAllocsPerOp": 138.0,
        "serveFastAllocsPerOp": 1.06,
        "serveAllocReduction": 130.6,
    }

    def run_fastpath(self, **overrides):
        ci = dict(self.BASE, **overrides)
        return run_gate(bench_gate.gate_fastpath, {
            "BENCH_fastpath.json": self.BASE,
            "BENCH_fastpath.ci.json": ci,
        })

    def test_healthy_run_passes(self):
        failures, _ = self.run_fastpath()
        self.assertEqual(failures, [])

    def test_zero_fast_allocs_lower_bound_passes(self):
        # saebench -figure fastpath -fastiters 50: 0 fast allocations in
        # 50 serves report 138 x 50.
        failures, _ = self.run_fastpath(
            serveFastAllocsPerOp=0.0, serveAllocReduction=138.0 * 50,
            serveSpeedup=8.5)
        self.assertEqual(failures, [])

    def test_reduction_reported_as_zero_fails(self):
        failures, _ = self.run_fastpath(
            serveFastAllocsPerOp=0.0, serveAllocReduction=0.0)
        self.assertEqual(len(failures), 2)
        self.assertTrue(all("alloc reduction" in f for f in failures))


class TestGateBurst(unittest.TestCase):
    """The multicore-efficiency floor arms only with >= 2 lane points."""

    @staticmethod
    def payload(lanes):
        return {"BENCH_burst.ci.json": {
            "burstQueriesPerSec": 90000.0,
            "lanes": lanes,
        }}

    def test_two_lane_run_passes(self):
        failures, _ = run_gate(bench_gate.gate_burst, self.payload([
            {"lanes": 1, "scalingEfficiency": 1.0},
            {"lanes": 2, "scalingEfficiency": 0.8},
        ]))
        self.assertEqual(failures, [])

    def test_poor_two_lane_efficiency_fails(self):
        failures, _ = run_gate(bench_gate.gate_burst, self.payload([
            {"lanes": 1, "scalingEfficiency": 1.0},
            {"lanes": 2, "scalingEfficiency": 0.6},
        ]))
        self.assertEqual(len(failures), 1)
        self.assertIn("2-lane scaling efficiency", failures[0])

    def test_single_lane_point_skips_efficiency(self):
        one = run_gate(bench_gate.gate_burst, self.payload([
            {"lanes": 1, "scalingEfficiency": 1.0}]))
        two = run_gate(bench_gate.gate_burst, self.payload([
            {"lanes": 1, "scalingEfficiency": 1.0},
            {"lanes": 2, "scalingEfficiency": 0.8}]))
        self.assertEqual(one[0], [])
        self.assertEqual(two[1] - one[1], 1)


if __name__ == "__main__":
    unittest.main()
