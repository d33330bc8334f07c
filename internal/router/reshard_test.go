package router

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/shard"
	"sae/internal/wire"
)

// epochSuccessor serves the same records as sys under the successor
// plan (same geometry, epoch+1) from a fresh durable system — the
// stand-in for a reshard target that has fully caught up.
func epochSuccessor(t *testing.T, sys *core.DurableSystem, idx int, next shard.Plan) *wire.PrimaryServer {
	t.Helper()
	var b bytes.Buffer
	if err := sys.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	_, recs, err := core.SnapshotRecords(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	clone, err := core.OpenDurableFrom(t.TempDir(), len(recs)/record.Size, bytes.NewReader(recs), 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clone.Close() })
	hub := replica.Attach(clone, 0)
	srv, err := wire.ServePrimary("127.0.0.1:0", clone, hub, nil,
		wire.WithShardInfo(wire.ShardInfo{Index: idx, Plan: next}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestRouterStalePlanReplayRejected: a cutover carrying a plan whose
// epoch does not strictly exceed the serving one is refused — before a
// real cutover (replaying the current plan), and after (replaying either
// the displaced plan or the cutover order itself). The epoch in the
// attested plan is what makes the swap replay-proof.
func TestRouterStalePlanReplayRejected(t *testing.T) {
	d := newReplicaDeployment(t, 2_000, 1, 0, Config{})
	next := d.plan.WithEpoch(1)
	succ := epochSuccessor(t, d.syss[0], 0, next)

	replaySame := wire.Cutover{Plan: d.plan, Shards: []wire.CutoverShard{
		{SPs: []string{d.primAddrs[0]}, TEs: []string{d.primAddrs[0]}}}}
	if err := d.router.Cutover(replaySame); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("same-epoch cutover accepted: %v", err)
	}

	// The genuine cutover, through the wire like the coordinator sends it.
	cut := wire.Cutover{Plan: next, Shards: []wire.CutoverShard{
		{SPs: []string{succ.Addr()}, TEs: []string{succ.Addr()}}}}
	cc, err := wire.DialSP(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if err := cc.ReshardCutover(cut); err != nil {
		t.Fatalf("genuine cutover refused: %v", err)
	}
	if got := d.router.Counters().Cutovers; got != 1 {
		t.Fatalf("cutovers = %d, want 1", got)
	}
	if !d.router.Plan().Equal(next) {
		t.Fatalf("router serves %v, want %v", d.router.Plan(), next)
	}

	// Replaying the displaced plan or the applied order changes nothing.
	if err := cc.ReshardCutover(replaySame); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("displaced-plan replay accepted: %v", err)
	}
	if err := cc.ReshardCutover(cut); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("applied-order replay accepted: %v", err)
	}
	if got := d.router.Counters().Cutovers; got != 1 {
		t.Fatalf("cutovers = %d after replays, want 1", got)
	}
}

// TestRouterReshardSeamForgeryRejected: a rogue router scattering a
// verified query by a plan from NEITHER epoch (a seam belonging to no
// attested topology) cannot assemble an answer — the span-clamped
// primaries refuse sub-queries that escape their attested spans, so the
// client sees a loud error, never a silently re-seamed answer.
func TestRouterReshardSeamForgeryRejected(t *testing.T) {
	d := newReplicaDeployment(t, 4_000, 2, 0, Config{})
	vc, err := wire.DialVerified(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	q := record.Range{Lo: 0, Hi: record.KeyDomain}
	honest, _, err := vc.Query(q)
	if err != nil {
		t.Fatalf("honest spanning query: %v", err)
	}

	// A plausible-looking two-shard plan with the seam halfway into the
	// true shard 0 — derived by merge+resplit, so it is well-formed, just
	// never attested by anyone.
	merged, err := d.plan.MergeShards(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := merged.SplitShard(0, []record.Key{d.plan.Span(1).Lo / 2})
	if err != nil {
		t.Fatal(err)
	}
	d.router.setTamper(&tamper{scatterPlan: &forged})
	if _, _, err := vc.Query(q); err == nil {
		t.Fatal("seam from neither plan produced a verifiable answer")
	} else if !strings.Contains(err.Error(), "escapes") {
		t.Fatalf("want a span-escape refusal, got: %v", err)
	}

	// Honesty restored, service restored.
	d.router.setTamper(nil)
	again, _, err := vc.Query(q)
	if err != nil {
		t.Fatalf("post-tamper honest query: %v", err)
	}
	if len(again) != len(honest) {
		t.Fatalf("honest answer changed size: %d vs %d", len(again), len(honest))
	}
}

// TestRouterCrossEpochReplayRejected: after a cutover, a rogue router
// replaying a cached pre-reshard answer produces a perfectly
// XOR-verifiable result — for the OLD epoch. The client's epoch floor
// (epoch regression is never acceptable, whatever the generation says)
// rejects it at the verify path.
func TestRouterCrossEpochReplayRejected(t *testing.T) {
	d := newReplicaDeployment(t, 2_000, 1, 0, Config{})
	vc, err := wire.DialVerified(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()
	q := record.Range{Lo: 0, Hi: record.KeyDomain}

	// Capture the epoch-0 per-shard payloads of an honest answer.
	var cached [][]byte
	d.router.setTamper(&tamper{replayVerified: func(raws [][]byte) [][]byte {
		if cached == nil {
			cached = make([][]byte, len(raws))
			for i := range raws {
				cached[i] = append([]byte(nil), raws[i]...)
			}
		}
		return raws
	}})
	if _, _, err := vc.Query(q); err != nil {
		t.Fatalf("pre-cutover query: %v", err)
	}
	if vc.Epoch() != 0 {
		t.Fatalf("pre-cutover epoch = %d, want 0", vc.Epoch())
	}
	d.router.setTamper(nil)

	// Cut over to the successor epoch; the client observes it.
	next := d.plan.WithEpoch(1)
	succ := epochSuccessor(t, d.syss[0], 0, next)
	if err := d.router.Cutover(wire.Cutover{Plan: next, Shards: []wire.CutoverShard{
		{SPs: []string{succ.Addr()}, TEs: []string{succ.Addr()}}}}); err != nil {
		t.Fatalf("cutover: %v", err)
	}
	if _, _, err := vc.Query(q); err != nil {
		t.Fatalf("post-cutover query: %v", err)
	}
	if vc.Epoch() != 1 {
		t.Fatalf("post-cutover epoch = %d, want 1", vc.Epoch())
	}

	// Replay the epoch-0 answer. Same records, same VT — the XOR check
	// passes; the epoch floor must not.
	d.router.setTamper(&tamper{replayVerified: func([][]byte) [][]byte { return cached }})
	if _, _, err := vc.Query(q); !errors.Is(err, wire.ErrStaleRead) {
		t.Fatalf("cross-epoch replay not rejected as stale: %v", err)
	}
}

// TestRouterRequestRacingCutoverRetries: the coordinator retires the
// source shards as soon as the router acks the cutover, so a request that
// snapshotted the displaced topology just before the swap reaches a fenced
// shard. The hook below lands the cutover and the retirement exactly
// inside that window; the router must re-run the request on the successor
// topology instead of surfacing the fence to a reader.
func TestRouterRequestRacingCutoverRetries(t *testing.T) {
	d := newReplicaDeployment(t, 2_000, 1, 0, Config{})
	vc, err := wire.DialVerified(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	next := d.plan.WithEpoch(1)
	succ := epochSuccessor(t, d.syss[0], 0, next)
	var once sync.Once
	d.router.setTamper(&tamper{reshapeSubs: func(subs []shard.SubQuery) []shard.SubQuery {
		once.Do(func() {
			if err := d.router.Cutover(wire.Cutover{Plan: next, Shards: []wire.CutoverShard{
				{SPs: []string{succ.Addr()}, TEs: []string{succ.Addr()}}}}); err != nil {
				t.Errorf("cutover: %v", err)
			}
			d.primSrvs[0].Retire()
		})
		return subs
	}})
	recs, _, err := vc.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil {
		t.Fatalf("query racing the cutover: %v", err)
	}
	if len(recs) != 2_000 || vc.Epoch() != 1 {
		t.Fatalf("got %d records at epoch %d, want 2000 at epoch 1", len(recs), vc.Epoch())
	}
}

// TestRouterCutoverRaceRetriesOnlyTheFence: the re-run is for the
// retirement fence alone. Any other error a request meets while a cutover
// lands — here the displaced shard refusing as "warming" — is surfaced,
// not papered over by a second attempt.
func TestRouterCutoverRaceRetriesOnlyTheFence(t *testing.T) {
	d := newReplicaDeployment(t, 2_000, 1, 0, Config{})
	vc, err := wire.DialVerified(d.router.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer vc.Close()

	next := d.plan.WithEpoch(1)
	succ := epochSuccessor(t, d.syss[0], 0, next)
	var once sync.Once
	d.router.setTamper(&tamper{reshapeSubs: func(subs []shard.SubQuery) []shard.SubQuery {
		once.Do(func() {
			if err := d.router.Cutover(wire.Cutover{Plan: next, Shards: []wire.CutoverShard{
				{SPs: []string{succ.Addr()}, TEs: []string{succ.Addr()}}}}); err != nil {
				t.Errorf("cutover: %v", err)
			}
			d.primSrvs[0].SetWarming(true)
		})
		return subs
	}})
	if _, _, err := vc.Query(record.Range{Lo: 0, Hi: record.KeyDomain}); err == nil || !strings.Contains(err.Error(), "still warming") {
		t.Fatalf("query meeting a non-fence error across a cutover: %v, want the warming refusal surfaced", err)
	}
}
