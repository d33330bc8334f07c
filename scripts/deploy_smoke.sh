#!/usr/bin/env bash
# deploy_smoke.sh — end-to-end multi-process router deployment smoke.
#
# Launches a real 2-shard SAE deployment (2 SP + 2 TE processes) with a
# router tier in front via cmd/saenet, then drives a plain (non-sharded)
# VerifyingClient through the router's single address and asserts:
#
#   1. honest deployment: every query verifies, through the router and
#      dialled straight to the shards (client-side scatter);
#   2. a tampering shard SP (-tamper drop) is caught by verification;
#   3. killing one shard under the router fails queries loudly (the
#      client errors; it never receives a truncated "verified" result);
#   4. kill -9 against a durable write pipeline mid-group loses no acked
#      update and leaves no unacked update partially visible (WAL
#      replay + full-range verification on reopen);
#   5. chaos: a replicated deployment (2 shards x primary + 2 replicas,
#      hedged router in front) survives kill -9 / restart churn against
#      its replicas — concurrent verified readers and a live writer see
#      ZERO failures while at least one endpoint per shard stays up;
#   6. online reshard: a hot shard is split in two behind a live hedged
#      router while verified readers stream through it and a writer
#      hammers the splitting shard — verified reads NEVER fail across
#      the cutover, the writer stops cleanly at the retirement fence,
#      and a fresh client session verifies against the successor
#      topology.
#
# Run from the repo root: ./scripts/deploy_smoke.sh
set -u -o pipefail

N=${N:-20000}
SEED=${SEED:-1}
QUERIES=${QUERIES:-12}
WORK=$(mktemp -d)
BIN="$WORK/saenet"

cleanup() {
  for pf in "$WORK"/*.pid; do
    [ -f "$pf" ] && kill "$(cat "$pf")" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

die() { echo "deploy_smoke: FAIL: $*" >&2; exit 1; }

echo "deploy_smoke: building saenet..."
go build -o "$BIN" ./cmd/saenet || die "build"

# start_server <logname> <args...> — starts a saenet process (pid in
# $WORK/<logname>.pid) and echoes the address it reports once serving.
start_server() {
  local name="$1" log="$WORK/$1.log"; shift
  "$BIN" "$@" >>"$log" 2>&1 &
  echo $! >"$WORK/$name.pid"
  for _ in $(seq 1 100); do
    local addr
    addr=$(sed -n 's/.*serving on \([0-9.:]*\).*/\1/p' "$log" | head -1)
    if [ -n "$addr" ]; then echo "$addr"; return 0; fi
    sleep 0.2
  done
  echo "deploy_smoke: server $log never became ready:" >&2
  cat "$log" >&2
  return 1
}

echo "deploy_smoke: starting 2 shard SP/TE pairs..."
SP0=$(start_server sp0 -role sp -addr 127.0.0.1:0 -n "$N" -seed "$SEED" -shards 2 -shard-index 0) || die "sp0"
SP1=$(start_server sp1 -role sp -addr 127.0.0.1:0 -n "$N" -seed "$SEED" -shards 2 -shard-index 1) || die "sp1"
SP1_PID=$(cat "$WORK/sp1.pid")
TE0=$(start_server te0 -role te -addr 127.0.0.1:0 -n "$N" -seed "$SEED" -shards 2 -shard-index 0) || die "te0"
TE1=$(start_server te1 -role te -addr 127.0.0.1:0 -n "$N" -seed "$SEED" -shards 2 -shard-index 1) || die "te1"

echo "deploy_smoke: starting router over sp=[$SP0,$SP1] te=[$TE0,$TE1]..."
ROUTER=$(start_server router -role router -addr 127.0.0.1:0 -sp "$SP0,$SP1" -te "$TE0,$TE1") || die "router"

echo "deploy_smoke: [1/6] plain client through the router (honest deployment)..."
OUT=$("$BIN" -role client -router "$ROUTER" -queries "$QUERIES" -seed "$SEED" 2>&1) \
  || { echo "$OUT" >&2; die "honest routed query session failed"; }
echo "$OUT" | grep -q "verified" || { echo "$OUT" >&2; die "no verified queries in client output"; }
VERIFIED=$(echo "$OUT" | grep -c "verified")
echo "deploy_smoke:   $VERIFIED queries verified through $ROUTER"
# The same session dialled straight to the shards: the client scatters
# itself, against the plan every TE attests.
OUT=$("$BIN" -role client -sp "$SP0,$SP1" -te "$TE0,$TE1" -queries "$QUERIES" -seed "$SEED" 2>&1) \
  || { echo "$OUT" >&2; die "direct client-side scatter session failed"; }
DIRECT=$(echo "$OUT" | grep -c "records  verified")
[ "$DIRECT" -eq "$QUERIES" ] || { echo "$OUT" >&2; die "direct session verified $DIRECT of $QUERIES queries"; }
echo "deploy_smoke:   $DIRECT queries verified by client-side scatter over sp=[$SP0,$SP1] te=[$TE0,$TE1]"

echo "deploy_smoke: [2/6] tampering shard SP must be detected..."
SP1T=$(start_server sp1t -role sp -addr 127.0.0.1:0 -n "$N" -seed "$SEED" -shards 2 -shard-index 1 -tamper drop) || die "sp1t"
ROUTER2=$(start_server router2 -role router -addr 127.0.0.1:0 -sp "$SP0,$SP1T" -te "$TE0,$TE1") || die "router2"
if OUT=$("$BIN" -role client -router "$ROUTER2" -queries "$QUERIES" -seed "$SEED" 2>&1); then
  echo "$OUT" >&2
  die "client verified results from a tampering shard"
fi
echo "$OUT" | grep -qi "verification" || { echo "$OUT" >&2; die "tamper failure is not a verification error"; }
echo "deploy_smoke:   tampered shard rejected: $(echo "$OUT" | tail -1)"

echo "deploy_smoke: [3/6] killing shard 1 mid-deployment must fail queries loudly..."
kill -9 "$SP1_PID" 2>/dev/null || true
sleep 0.5
if OUT=$("$BIN" -role client -router "$ROUTER" -queries "$QUERIES" -seed "$SEED" 2>&1); then
  echo "$OUT" >&2
  die "client succeeded against a dead shard"
fi
# The failure must be an explicit error; a truncated-but-"verified"
# session would have exited 0 and tripped the check above.
echo "deploy_smoke:   dead shard failed loudly: $(echo "$OUT" | tail -1)"

echo "deploy_smoke: [4/6] kill -9 mid-group: acked updates must survive recovery..."
CRASH_DIR="$WORK/crashdb"
CRASH_N=${CRASH_N:-2000}
"$BIN" -role crashwriter -dir "$CRASH_DIR" -n "$CRASH_N" -seed "$SEED" >>"$WORK/crashwriter.log" 2>&1 &
WRITER_PID=$!
echo "$WRITER_PID" >"$WORK/crashwriter.pid"
# Kill -9 once the writer has acked a group or two: usually before its
# first checkpoint (every 25 rounds), so the audit's recovery rebuilds
# from the base record plus the WAL (TestCrashRecoveryKillMidGroup pins
# that case; this poll is too coarse to promise it).
for _ in $(seq 1 2000); do
  LINES=0
  [ -f "$CRASH_DIR/acked.log" ] && LINES=$(wc -l <"$CRASH_DIR/acked.log")
  [ "$LINES" -ge 4 ] && break
  sleep 0.01
done
[ "${LINES:-0}" -ge 4 ] || { cat "$WORK/crashwriter.log" >&2; die "crashwriter made no progress"; }
kill -9 "$WRITER_PID" 2>/dev/null || true
wait "$WRITER_PID" 2>/dev/null || true
OUT=$("$BIN" -role crashverify -dir "$CRASH_DIR" -n "$CRASH_N" -seed "$SEED" 2>&1) \
  || { echo "$OUT" >&2; die "crash recovery audit failed"; }
echo "$OUT" | grep -q "full range verified" || { echo "$OUT" >&2; die "crashverify gave no verified verdict"; }
echo "deploy_smoke:   $OUT"

echo "deploy_smoke: [5/6] replica churn under a hedged router: zero client failures..."
CHAOS_N=${CHAOS_N:-8000}
P0=$(start_server prim0 -role primary -dir "$WORK/shard0" -addr 127.0.0.1:0 -n "$CHAOS_N" -seed "$SEED" -shards 2 -shard-index 0) || die "prim0"
P1=$(start_server prim1 -role primary -dir "$WORK/shard1" -addr 127.0.0.1:0 -n "$CHAOS_N" -seed "$SEED" -shards 2 -shard-index 1) || die "prim1"
R00=$(start_server rep00 -role replica -addr 127.0.0.1:0 -primary "$P0") || die "rep00"
R01=$(start_server rep01 -role replica -addr 127.0.0.1:0 -primary "$P0") || die "rep01"
R10=$(start_server rep10 -role replica -addr 127.0.0.1:0 -primary "$P1") || die "rep10"
R11=$(start_server rep11 -role replica -addr 127.0.0.1:0 -primary "$P1") || die "rep11"
ROUTER3=$(start_server router3 -role router -addr 127.0.0.1:0 \
  -sp "$P0,$P1" -te "$P0,$P1" -replicas "$R00,$R01;$R10,$R11" \
  -hedge-after 30ms) || die "router3"

"$BIN" -role chaos -router "$ROUTER3" -sp "$P0,$P1" -seed "$SEED" \
  -duration 8s >"$WORK/chaos.log" 2>&1 &
CHAOS_PID=$!
echo "$CHAOS_PID" >"$WORK/chaos.pid"
sleep 1

# Churn: kill -9 one replica per shard, let failover absorb it, restart
# the replica on its old address (it re-bootstraps from the primary),
# then churn the OTHER replica of each shard. The primary plus at least
# one endpoint per shard stays alive throughout.
churn() {
  local name="$1" addr="$2" prim="$3"
  kill -9 "$(cat "$WORK/$name.pid")" 2>/dev/null || true
  sleep 1
  : >"$WORK/$name.log"  # fresh log so start_server sees the new serving line
  start_server "$name" -role replica -addr "$addr" -primary "$prim" >/dev/null || die "restart $name"
}
churn rep01 "$R01" "$P0"
churn rep11 "$R11" "$P1"
churn rep00 "$R00" "$P0"
churn rep10 "$R10" "$P1"

wait "$CHAOS_PID" && CHAOS_RC=0 || CHAOS_RC=$?
cat "$WORK/chaos.log"
[ "$CHAOS_RC" -eq 0 ] || die "chaos client exited $CHAOS_RC"
grep -q "chaos: PASS" "$WORK/chaos.log" || die "no zero-failure accounting line"
grep -q " 0 failures" "$WORK/chaos.log" || die "chaos reported failures"
echo "deploy_smoke:   replica churn survived: $(grep 'chaos: PASS' "$WORK/chaos.log")"

echo "deploy_smoke: [6/6] online shard split under a live hedged-router workload..."
P4=$(start_server prim4 -role primary -dir "$WORK/resh0" -addr 127.0.0.1:0 -n "$CHAOS_N" -seed "$SEED" -shards 2 -shard-index 0) || die "prim4"
P5=$(start_server prim5 -role primary -dir "$WORK/resh1" -addr 127.0.0.1:0 -n "$CHAOS_N" -seed "$SEED" -shards 2 -shard-index 1) || die "prim5"
ROUTER4=$(start_server router4 -role router -addr 127.0.0.1:0 \
  -sp "$P4,$P5" -te "$P4,$P5" -hedge-after 30ms) || die "router4"

# Verified readers + a writer hammering both shards for the whole split.
"$BIN" -role chaos -router "$ROUTER4" -sp "$P4,$P5" -seed "$SEED" \
  -duration 8s >"$WORK/chaos6.log" 2>&1 &
CHAOS6_PID=$!
echo "$CHAOS6_PID" >"$WORK/chaos6.pid"
sleep 1

# Split shard 1 online in a separate process; it keeps hosting the two
# successor shards after the cutover, so it must outlive the workload.
"$BIN" -role reshard -sp "$P4,$P5" -router "$ROUTER4" \
  -dir "$WORK/resh1a,$WORK/resh1b" -split-shard 1 >"$WORK/reshard.log" 2>&1 &
RESHARD_PID=$!
echo "$RESHARD_PID" >"$WORK/reshard.pid"
for _ in $(seq 1 150); do
  grep -q "reshard: cutover complete" "$WORK/reshard.log" && break
  kill -0 "$RESHARD_PID" 2>/dev/null || break
  sleep 0.2
done
grep -q "reshard: cutover complete" "$WORK/reshard.log" \
  || { cat "$WORK/reshard.log" >&2; die "online split never cut over"; }
echo "deploy_smoke:   $(grep 'reshard: cutover complete' "$WORK/reshard.log")"

# The readers must ride out the entire split with zero failures; the
# writer is allowed only the retirement fence on the migrated shard.
wait "$CHAOS6_PID" && CHAOS6_RC=0 || CHAOS6_RC=$?
cat "$WORK/chaos6.log"
[ "$CHAOS6_RC" -eq 0 ] || die "workload across the split exited $CHAOS6_RC"
grep -q "chaos: PASS" "$WORK/chaos6.log" || die "no zero-failure accounting line for the split workload"
grep -q " 0 failures" "$WORK/chaos6.log" || die "verified readers failed across the cutover"

# A fresh client session verifies against the successor topology.
OUT=$("$BIN" -role client -router "$ROUTER4" -queries "$QUERIES" -seed "$SEED" 2>&1) \
  || { echo "$OUT" >&2; die "post-split routed query session failed"; }
echo "$OUT" | grep -q "verified" || { echo "$OUT" >&2; die "no verified queries after the split"; }
echo "deploy_smoke:   post-split session verified through $ROUTER4"

echo "deploy_smoke: PASS"
