#!/usr/bin/env bash
# ab.sh — one A/B protocol for end-to-end claims: alternating runs of
# bench/run.sh in two checkouts, with the CPU steal and the rusage of
# every run recorded beside its metrics.
#
#   scripts/ab.sh PARENT_DIR CHANGE_DIR --workload W --pairs K \
#       [--seed0 S] [--seconds N] [--out FILE]
#
# Pair i (0-based) runs both checkouts on seed S+i (default S = 1,
# N = 26 s, --trace 0); even pairs run PARENT_DIR first, odd pairs
# CHANGE_DIR first. Around every run the script reads the steal column
# of /proc/stat and takes the run's rusage (the benchmark and every
# process it waited for). It writes every run — its end-to-end metrics,
# its per_layer block (the "also measured" lines run.sh prints on
# stderr), steal and rusage — to one JSON file (default
# ab-W-<time>.json in the current directory), then prints per metric
# each side's median and IQR, the pairs the change won (by the metric's
# "better" in PARENT_DIR/BENCHMARK.json) and a two-sided sign-test p.
# No run is ever dropped: a failed run is recorded with its exit status
# and counts as a lost pair for the side it belongs to. run.sh builds
# before it measures, so a checkout's first run also carries its build
# in wall time and rusage (not in its metrics).
set -euo pipefail
[ $# -ge 2 ] || { sed -n '2,22p' "$0" >&2; exit 2; }
exec python3 - "$@" <<'PY'
import json, math, os, re, resource, statistics, subprocess, sys, time

def usage(msg):
    sys.exit("ab.sh: " + msg)

args = sys.argv[1:]
parent, change, rest = os.path.abspath(args[0]), os.path.abspath(args[1]), args[2:]
opt = {"--workload": None, "--pairs": None, "--seed0": "1", "--seconds": "26", "--out": None}
while rest:
    a = rest.pop(0)
    if a in opt and rest:
        opt[a] = rest.pop(0)
    else:
        usage("unknown or incomplete argument %r" % a)
if not opt["--workload"] or not opt["--pairs"]:
    usage("--workload and --pairs are required")
for d in (parent, change):
    if not os.path.isfile(os.path.join(d, "bench", "run.sh")):
        usage("%s has no bench/run.sh" % d)
workload, pairs, seed0 = opt["--workload"], int(opt["--pairs"]), int(opt["--seed0"])
out = opt["--out"] or "ab-%s-%s.json" % (workload, time.strftime("%Y%m%dT%H%M%S"))

with open(os.path.join(parent, "BENCHMARK.json")) as f:
    spec = json.load(f)
better = {m["name"]: m["better"] for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
end_to_end = [m["name"] for m in spec.get("end_to_end", [])]

def steal_ticks():
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])  # cpu user nice system idle iowait irq softirq STEAL

tick = os.sysconf("SC_CLK_TCK")
layer_line = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?) \S+$")

def run(side, d, seed):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", opt["--seconds"], "--trace", "0"]
    # The run's rusage is the delta of this process's RUSAGE_CHILDREN:
    # the benchmark and every process it waited for.
    r0, s0, t0 = resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks(), time.monotonic()
    p = subprocess.run(cmd, cwd=d, capture_output=True, text=True)
    r1, s1, wall = resource.getrusage(resource.RUSAGE_CHILDREN), steal_ticks(), time.monotonic() - t0
    stdout, stderr, steal = p.stdout, p.stderr, (s1 - s0) / tick
    rec = {"side": side, "seed": seed, "exit": p.returncode, "wall_s": round(wall, 3),
           "steal_cpu_s": steal, "metrics": {}, "per_layer": {},
           "rusage": {"utime_s": round(r1.ru_utime - r0.ru_utime, 3),
                      "stime_s": round(r1.ru_stime - r0.ru_stime, 3)}}
    for line in stdout.splitlines():
        try:
            res = json.loads(line)
        except ValueError:
            continue
        rec["correct"], rec["attempted"], rec["failed"] = res.get("correct"), res.get("attempted"), res.get("failed")
        rec["metrics"] = {k: v["value"] for k, v in res.get("metrics", {}).items()}
    in_layers = False
    for line in stderr.splitlines():
        if line.startswith("also measured"):
            in_layers = True
        elif line.startswith("workload "):
            in_layers = False
        elif in_layers and (m := layer_line.match(line)):
            rec["per_layer"][m.group(1)] = float(m.group(2))
    if p.returncode != 0:
        rec["stderr_tail"] = stderr.splitlines()[-20:]
    print("ab: pair seed %d %-6s exit %d, %.0f s, steal %.1f CPU-s, %s" % (
        seed, side, p.returncode, wall, steal,
        " ".join("%s=%.4g" % (k, rec["metrics"][k]) for k in end_to_end if k in rec["metrics"])), file=sys.stderr)
    return rec

runs = []
for i in range(pairs):
    seed = seed0 + i
    order = [("parent", parent), ("change", change)]
    if i % 2:
        order.reverse()
    for side, d in order:
        runs.append(run(side, d, seed))
        with open(out, "w") as f:
            json.dump({"workload": workload, "parent": parent, "change": change,
                       "pairs": pairs, "seed0": seed0, "seconds": float(opt["--seconds"]), "runs": runs}, f, indent=1)

def sign_p(wins, n):
    if n == 0:
        return 1.0
    k = min(wins, n - wins)
    return min(1.0, 2 * sum(math.comb(n, j) for j in range(k + 1)) / 2 ** n)

def iqr(v):
    if len(v) < 2:
        return 0.0
    q = statistics.quantiles(v, n=4)
    return q[2] - q[0]

by_seed = {}
for r in runs:
    by_seed.setdefault(r["seed"], {})[r["side"]] = r
names = end_to_end + sorted({k for r in runs for k in r["per_layer"]} - set(end_to_end))
print("%s, %d pairs, seeds %d-%d; steal per pair (CPU-s, parent/change): %s" % (
    workload, pairs, seed0, seed0 + pairs - 1,
    " ".join("%.1f/%.1f" % (p["parent"]["steal_cpu_s"], p["change"]["steal_cpu_s"]) for p in by_seed.values())))
print("%-34s %12s %10s %12s %10s %7s %8s" % ("metric", "parent med", "IQR", "change med", "IQR", "won", "sign p"))
for name in names:
    block = "metrics" if name in end_to_end else "per_layer"
    pv, cv, wins, n = [], [], 0, 0
    for p in by_seed.values():
        a, b = p["parent"][block].get(name), p["change"][block].get(name)
        if a is not None:
            pv.append(a)
        if b is not None:
            cv.append(b)
        if a is None or b is None:
            # A side without the metric (a failed run) loses the pair.
            if (a is None) != (b is None):
                n += 1
                wins += a is None
            continue
        if a == b:
            continue
        n += 1
        lower = b < a
        wins += lower if better.get(name, "lower") == "lower" else not lower
    if not pv and not cv:
        continue
    med = lambda v: statistics.median(v) if v else float("nan")
    print("%-34s %12.4g %10.3g %12.4g %10.3g %3d/%-3d %8.3g" % (
        name, med(pv), iqr(pv), med(cv), iqr(cv), wins, n, sign_p(wins, n)))
print("ab: %d runs written to %s" % (len(runs), out), file=sys.stderr)
PY
