#!/usr/bin/env python3
"""Bench-regression gate.

Compares the CI-generated benchmark JSONs against the committed
baselines and fails on a >30% regression. Absolute queries-per-second
numbers are NOT comparable across machines, so every gated quantity is a
WITHIN-RUN ratio (shard-scaling speedup, fast-path speedup, alloc
reduction, replicated-relative throughput) — the same style as the existing
`serveAllocReduction >= 5` assert — plus basic sanity floors.

Usage (from the repo root, after the saebench CI steps):
    python3 scripts/bench_gate.py
"""
import json
import sys

TOLERANCE = 0.7  # a gated ratio may lose at most 30% against its baseline

failures = []
checks = 0


def reset():
    """Clear the tally (the unit tests run gates in isolation)."""
    global checks
    del failures[:]
    checks = 0


def check(ok, msg):
    global checks
    checks += 1
    status = "ok  " if ok else "FAIL"
    print(f"  [{status}] {msg}")
    if not ok:
        failures.append(msg)


def load(path):
    with open(path) as f:
        return json.load(f)


def gate_shard():
    print("shard scaling (BENCH_shard.ci.json vs committed BENCH_shard.json):")
    base = {c["shards"]: c for c in load("BENCH_shard.json")["results"]}
    ci = load("BENCH_shard.ci.json")["results"]
    check(len(ci) > 0, f"{len(ci)} shard cells measured")
    for c in ci:
        check(c["queries_per_sec"] > 0,
              f"{c['shards']} shards: {c['queries_per_sec']:.0f} q/s > 0")
        b = base.get(c["shards"])
        if b is None or c["shards"] == 1:
            continue
        floor = TOLERANCE * b["speedup"]
        check(c["speedup"] >= floor,
              f"{c['shards']}-shard speedup {c['speedup']:.2f}x >= {floor:.2f}x "
              f"(baseline {b['speedup']:.2f}x - 30%)")


def gate_fastpath():
    print("fast path (BENCH_fastpath.ci.json vs committed BENCH_fastpath.json):")
    base = load("BENCH_fastpath.json")
    ci = load("BENCH_fastpath.ci.json")
    # Alloc counts are deterministic per Go version; allow drift but keep
    # the hard acceptance floor from the fast-path PR.
    check(ci["serveAllocReduction"] >= 5,
          f"serve alloc reduction {ci['serveAllocReduction']:.0f}x >= 5x (hard floor)")
    floor = TOLERANCE * base["serveAllocReduction"]
    check(ci["serveAllocReduction"] >= floor,
          f"serve alloc reduction {ci['serveAllocReduction']:.0f}x >= {floor:.0f}x (baseline - 30%)")
    floor = TOLERANCE * base["serveSpeedup"]
    check(ci["serveSpeedup"] >= floor,
          f"serve speedup {ci['serveSpeedup']:.2f}x >= {floor:.2f}x (baseline - 30%)")
    if ci.get("shaNI"):
        # The per-record verify ratio jitters more than the throughput
        # ratios on busy runners (a ~1µs measurement), so it gets a
        # wider band: half the baseline, never below break-even.
        floor = max(1.0, 0.5 * base["verifySpeedup"])
        check(ci["verifySpeedup"] >= floor,
              f"verify speedup {ci['verifySpeedup']:.2f}x >= {floor:.2f}x (baseline - 50%)")
    else:
        # Runners without SHA-NI can't hit the accelerated ratio; the
        # fast path must still never be slower than the seed.
        check(ci["verifySpeedup"] >= 1.0,
              f"verify speedup {ci['verifySpeedup']:.2f}x >= 1.0x (no SHA-NI on this runner)")


def gate_burst():
    print("burst serving (BENCH_burst.ci.json):")
    ci = load("BENCH_burst.ci.json")
    check(ci["burstQueriesPerSec"] > 0,
          f"burst {ci['burstQueriesPerSec']:.0f} q/s > 0")
    # Scaling efficiency is only meaningful when the runner actually has
    # cores to sweep; a one-core runner records a single lane point.
    lanes = ci.get("lanes", [])
    check(len(lanes) >= 1, f"{len(lanes)} lane points measured")
    if len(lanes) >= 2:
        for p in lanes[1:]:
            floor = 0.7 if p["lanes"] <= 4 else 0.5
            check(p["scalingEfficiency"] >= floor,
                  f"{p['lanes']}-lane scaling efficiency "
                  f"{p['scalingEfficiency']:.2f} >= {floor:.2f}")
    else:
        print("  [skip] single lane point: no multicore efficiency to gate")


def gate_write():
    print("write pipeline (BENCH_write.ci.json vs committed BENCH_write.json):")
    base = load("BENCH_write.json")
    ci = load("BENCH_write.ci.json")
    check(ci["groupUpdatesPerSec"] > 0,
          f"grouped {ci['groupUpdatesPerSec']:.0f} updates/s > 0")
    # Group commit must win on any machine with a real fsync: the
    # within-run grouped/serial ratio may never drop below break-even,
    # and not more than 30% below the committed baseline. (On tmpfs
    # runners fsync is free and the ratio collapses toward 1; the CI
    # step runs in the checkout, which is on-disk.)
    floor = max(1.0, TOLERANCE * base["groupCommitWin"])
    check(ci["groupCommitWin"] >= floor,
          f"group-commit win {ci['groupCommitWin']:.2f}x >= {floor:.2f}x "
          f"(baseline {base['groupCommitWin']:.2f}x - 30%, never < 1x)")
    # The win is only meaningful if commits actually coalesced.
    check(ci["avgGroupSize"] >= 8,
          f"achieved group depth {ci['avgGroupSize']:.1f} >= 8")
    # One fsync per group, by construction.
    check(ci["groupWalSyncs"] <= ci["writers"] * 2 + 2,
          f"{ci['groupWalSyncs']} fsyncs for the grouped run (bounded by groups)")
    # TOM's per-group root re-sign must beat per-update re-signing; RSA
    # timing is stable, so hold it to the usual band.
    floor = max(1.0, TOLERANCE * base["signAmortWin"])
    check(ci["signAmortWin"] >= floor,
          f"TOM sign amortization {ci['signAmortWin']:.2f}x >= {floor:.2f}x "
          f"(baseline {base['signAmortWin']:.2f}x - 30%)")


def gate_agg():
    print("aggregation fast path (BENCH_agg.ci.json vs committed BENCH_agg.json):")
    base = load("BENCH_agg.json")
    ci = load("BENCH_agg.ci.json")
    check(ci["aggQueriesPerSec"] > 0,
          f"aggregate {ci['aggQueriesPerSec']:.0f} q/s > 0")
    # Hard acceptance floors from the aggregation PR: the SAE fast path
    # must beat verified scan-and-fold by >=10x within the run and ship
    # >=100x fewer response bytes. Both are within-run ratios, comparable
    # across machines.
    check(ci["aggSpeedup"] >= 10,
          f"SAE aggregate speedup {ci['aggSpeedup']:.1f}x >= 10x (hard floor)")
    check(ci["respBytesReduction"] >= 100,
          f"SAE response-bytes reduction {ci['respBytesReduction']:.0f}x >= 100x (hard floor)")
    # The speedup ratio divides a sub-10us aggregate measurement by a
    # scan measurement, so it jitters like the fast-path verify ratio on
    # busy runners: half the baseline, never below the hard floor.
    floor = max(10.0, 0.5 * base["aggSpeedup"])
    check(ci["aggSpeedup"] >= floor,
          f"SAE aggregate speedup {ci['aggSpeedup']:.1f}x >= {floor:.1f}x (baseline - 50%)")
    # The bytes ratio is workload-determined, not timing noise; hold it
    # to the baseline band too.
    floor = TOLERANCE * base["respBytesReduction"]
    check(ci["respBytesReduction"] >= floor,
          f"SAE response-bytes reduction {ci['respBytesReduction']:.0f}x >= {floor:.0f}x (baseline - 30%)")
    # TOM's aggregate VO carries O(log n) evidence plus a signature, so
    # its ratios are structurally smaller; sanity floors only.
    check(ci["tomAggSpeedup"] >= 1.5,
          f"TOM aggregate speedup {ci['tomAggSpeedup']:.1f}x >= 1.5x")
    check(ci["tomRespBytesReduction"] >= 5,
          f"TOM response-bytes reduction {ci['tomRespBytesReduction']:.0f}x >= 5x")


def gate_replica():
    print("replica tier (BENCH_replica.ci.json):")
    ci = load("BENCH_replica.ci.json")
    check(ci["baselineQueriesPerSec"] > 0,
          f"primaries-only baseline {ci['baselineQueriesPerSec']:.0f} q/s > 0")
    check(ci["replicatedQueriesPerSec"] > 0,
          f"replicated {ci['replicatedQueriesPerSec']:.0f} q/s > 0")
    # Both sides are routed verified queries measured within the same
    # run, so the ratio is machine-independent-ish. Spreading reads over
    # the replica sets usually WINS (more processes serving); the gate
    # only demands the indirection never costs more than 10%.
    check(ci["replicatedRelative"] >= 0.9,
          f"replicated path at {100 * ci['replicatedRelative']:.0f}% of primaries-only >= 90%")
    # A healthy loopback run needs no failovers; any retry inflates the
    # measurement and means an endpoint misbehaved.
    check(ci["failovers"] == 0,
          f"{ci['failovers']} failovers during the replicated run (want 0)")


def gate_reshard():
    print("online reshard (BENCH_reshard.ci.json):")
    ci = load("BENCH_reshard.ci.json")
    check(ci["baselineQueriesPerSec"] > 0,
          f"pre-split baseline {ci['baselineQueriesPerSec']:.0f} q/s > 0")
    check(ci["migratedQueriesPerSec"] > 0,
          f"post-split {ci['migratedQueriesPerSec']:.0f} q/s > 0")
    # Both sides are routed verified queries within the same run. The
    # split trades one shard for two, so throughput usually RISES; the
    # gate demands the migrated data is never more than 10% slower to
    # serve than before the split.
    check(ci["migratedRelative"] >= 0.9,
          f"post-split path at {100 * ci['migratedRelative']:.0f}% of pre-split >= 90%")
    # Zero-downtime is the whole point: no verified reader may see an
    # error at any instant of the split.
    check(ci["readFailures"] == 0,
          f"{ci['readFailures']} verified-read failures across the split (want 0)")
    # The freeze->router-ack window must fit inside one commit-group
    # interval of the paced write workload: the pause contains only the
    # straggler drain (one parallel target commit) plus two control
    # round trips, never bulk data movement.
    check(ci["cutoverPauseMs"] <= ci["commitGroupIntervalMs"],
          f"cutover pause {ci['cutoverPauseMs']:.2f}ms <= "
          f"one commit-group interval ({ci['commitGroupIntervalMs']:.2f}ms)")
    # And the split must have actually moved the shard.
    check(ci["recordsMigrated"] > 0,
          f"{ci['recordsMigrated']} records migrated > 0")


def main():
    reset()
    gate_shard()
    gate_fastpath()
    gate_burst()
    gate_write()
    gate_agg()
    gate_replica()
    gate_reshard()
    if failures:
        print(f"\nbench gate: {len(failures)}/{checks} checks FAILED")
        for f in failures:
            print(f"  - {f}")
        sys.exit(1)
    print(f"\nbench gate: all {checks} checks passed")


if __name__ == "__main__":
    main()
