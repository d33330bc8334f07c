package router

import (
	"context"
	"encoding/binary"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/wire"
	"sae/internal/workload"
)

// allocDeployment is a router over one fake verified-capable primary that
// answers every verified query with the same prebuilt n-record result —
// 500 records (250 KB) is the paper's range_scan answer, 10 range_short's
// — so that what the process allocates per request is the relay path's
// and the client's doing, not a storage engine's.
func allocDeployment(tb testing.TB, n int) (r *Router, upstream string, recs int) {
	tb.Helper()
	ds, err := workload.Generate(workload.UNF, n, 9)
	if err != nil {
		tb.Fatal(err)
	}
	slices.SortFunc(ds.Records, func(a, b record.Record) int { return int(a.Key) - int(b.Key) })
	enc := wire.EncodeRecords(ds.Records)
	vt := digest.XORFoldWire(enc[4:], 1)
	answer := binary.BigEndian.AppendUint64(nil, 0)   // plan epoch
	answer = binary.BigEndian.AppendUint64(answer, 1) // generation
	answer = append(append(answer, vt[:]...), enc...)
	plan := shard.PlanFor(ds.Records, 1)
	up, err := wire.Serve("127.0.0.1:0", func(req wire.Frame, rb *wire.RespBuf) wire.Frame {
		switch req.Type {
		case wire.MsgShardMapReq:
			return wire.Frame{Type: wire.MsgShardMap, Payload: wire.EncodeShardInfo(wire.ShardInfo{Index: 0, Plan: plan})}
		case wire.MsgVerifiedQuery:
			return wire.Frame{Type: wire.MsgVerifiedResult, Payload: answer}
		default:
			return wire.ErrFrame(wire.CannotHandle("fake primary", req.Type))
		}
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { up.Close() })
	r, err = New(Config{SPs: []string{up.Addr()}, TEs: []string{up.Addr()}, ProbeInterval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.Close() })
	if err := r.Serve("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	return r, up.Addr(), len(ds.Records)
}

// allocatedPerOp returns the bytes the whole process — fake primary,
// router and client together — allocates per run of op. It measures on
// one P: sync.Pool caches per P, so with many a released payload can sit
// where the next read does not look, and the figure would count the
// scheduler's placement instead of what the code allocates (the
// end-to-end benchmark is where pool hit rates on real cores show).
func allocatedPerOp(op func()) int {
	const runs = 500
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	op() // pools and connection scratch fill on the first run
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / runs
}

var wholeDomain = record.Range{Lo: 0, Hi: record.KeyDomain}

// relayBudget is what the router may allocate to relay one verified
// answer, 10 records or 500 (250 KB) alike: its fixed per-request share.
// Before received payloads were pooled and relayed by reference it
// allocated two copies of the answer (> 500 KiB); with a context per
// attempt beside the request's, 1 592 B; measured 1 128 B since.
const relayBudget = 1536

// relay returns an op that fetches the 250 KB answer raw from addr and
// releases it.
func relay(tb testing.TB, addr string) func() {
	c, err := wire.Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	req := wire.Frame{Type: wire.MsgVerifiedQuery, Payload: wire.EncodeRange(wholeDomain)}
	return func() {
		resp, err := c.RoundTripCtx(context.Background(), req)
		if err != nil {
			tb.Fatal(err)
		}
		wire.Release(resp.Payload)
	}
}

// checkRelayBudget holds the router to relayBudget for an n-record answer:
// what a request allocates through the router, less what the same request
// allocates against the upstream directly, is the router's share.
func checkRelayBudget(tb testing.TB, n int) (routed func()) {
	r, up, _ := allocDeployment(tb, n)
	routed = relay(tb, r.Addr())
	got := allocatedPerOp(routed) - allocatedPerOp(relay(tb, up))
	tb.Logf("the router allocates %d B to relay one %d-record answer, budget %d", got, n, relayBudget)
	if got > relayBudget {
		tb.Fatalf("the router allocates %d B to relay one %d-record answer, budget %d", got, n, relayBudget)
	}
	return routed
}

// queryOverhead is what one verified query may allocate beyond the
// records it returns, client, router and upstream together (measured:
// 4 KiB, the record slice's size-class slack included; unpooled, 250 KiB
// more): the received payload must come from, and go back to, the pool.
const queryOverhead = 16 << 10

func checkQueryBudget(tb testing.TB) (query func()) {
	r, _, recs := allocDeployment(tb, 500)
	vc, err := wire.DialVerified(r.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { vc.Close() })
	query = func() {
		out, _, err := vc.QueryCtx(context.Background(), wholeDomain)
		if err != nil || len(out) != recs {
			tb.Fatalf("verified query: %d records, %v", len(out), err)
		}
	}
	if got, budget := allocatedPerOp(query), recs*int(unsafe.Sizeof(record.Record{}))+queryOverhead; got > budget {
		tb.Fatalf("one verified query of %d records allocates %d B, budget %d", recs, got, budget)
	}
	return query
}

// TestAllocBudgets: the receive path allocates neither the relayed answer
// at the router nor the received payload at the client, and a short
// routed answer costs the router only its fixed per-request share.
func TestAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts")
	}
	checkRelayBudget(t, 500)
	checkRelayBudget(t, 10)
	checkQueryBudget(t)
}

// BenchmarkRelayAllocs and BenchmarkVerifiedQueryAllocs are the budgets
// as CI's bench job runs them: they fail over budget, and -benchmem shows
// the whole process's figure.
func BenchmarkRelayAllocs(b *testing.B) {
	op := checkRelayBudget(b, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkVerifiedQueryAllocs(b *testing.B) {
	op := checkQueryBudget(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
