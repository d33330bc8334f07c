package wire

import (
	"context"
	"runtime"
	"testing"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/replica"
	"sae/internal/shard"
	"sae/internal/workload"
)

// readServers serves one durable shard of n records as a primary and as a
// replica bootstrapped from it, and returns both addresses.
func readServers(tb testing.TB, n int) (primary, replicaAddr string) {
	tb.Helper()
	ds, err := workload.Generate(workload.UNF, n, 11)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.OpenDurableSystem(tb.TempDir(), ds.Records, 16)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sys.Close() })
	si := ShardInfo{Index: 0, Plan: shard.PlanFor(ds.Records, 1)}
	psrv, err := ServePrimary("127.0.0.1:0", sys, replica.Attach(sys, 0), nil, WithShardInfo(si))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { psrv.Close() })
	rep, rsi, err := BootstrapReplica(psrv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	rsrv, err := ServeReplica("127.0.0.1:0", rep, nil, WithShardInfo(rsi))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { rsrv.Close() })
	return psrv.Addr(), rsrv.Addr()
}

// allocsPerRequest returns what the whole process — server and raw client
// together — allocates per run of op, in bytes and in objects, less the
// answers the client received outside its payload pool (op reports their
// sizes): those are the client's own allocation, one object each. It
// measures on one P: sync.Pool caches per P, so with many a released
// payload can sit where the next read does not look.
func allocsPerRequest(op func() (unpooled int), runs int) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < runs; i++ {
		op() // pools and lane scratch fill
	}
	var before, after runtime.MemStats
	var own, owned int
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if n := op(); n > 0 {
			own += n
			owned++
		}
	}
	runtime.ReadMemStats(&after)
	return float64(int(after.TotalAlloc-before.TotalAlloc)-own) / float64(runs),
		float64(int(after.Mallocs-before.Mallocs)-owned) / float64(runs)
}

// request returns an op that sends typ for each range of qs in turn over
// one raw connection to addr and releases every answer. The op returns
// the answer's size if the client received it outside the payload pool
// (below minPooled or above respBufRetain), else 0.
func request(tb testing.TB, addr string, typ, want MsgType, qs []record.Range) func() int {
	c, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	reqs := make([]Frame, len(qs))
	for i, q := range qs {
		reqs[i] = Frame{Type: typ, Payload: EncodeRange(q)}
	}
	next := 0
	return func() int {
		resp, err := c.RoundTripCtx(context.Background(), reqs[next%len(reqs)])
		next++
		if err != nil {
			tb.Fatal(err)
		}
		if resp.Type != want {
			tb.Fatalf("%s answered with %s", FrameName(typ), FrameName(resp.Type))
		}
		n := len(resp.Payload)
		Release(resp.Payload)
		if n >= minPooled && n <= respBufRetain {
			return 0
		}
		return n
	}
}

// readVerbs are the read requests a primary and a replica serve on their
// lanes, with the frame each answers with.
var readVerbs = []struct{ req, resp MsgType }{
	{MsgVerifiedQuery, MsgVerifiedResult},
	{MsgQuery, MsgResult},
	{MsgVTRequest, MsgVT},
	{MsgAggQuery, MsgAggResult},
	{MsgAggTokenReq, MsgAggToken},
}

// Budget per read request, beyond an answer received outside the pool:
// the raw client's own round trip — its request frame, its pending slot,
// the released payload's pool box — and nothing of the serve path. A TE token used to copy each list page
// it folded (a 4 KiB escape per boundary) and a verified burst built its
// closures per request, about 4.8 KB and 12 objects in all.
const (
	readBudgetBytes   = 512
	readBudgetObjects = 8
)

// checkReadAllocs holds every read verb of a primary and a replica to
// the budget, at the paper's 0.5 % extent and at 0.01 %, over an XB-Tree
// deep enough that a boundary cuts internal entries (and so reads their
// list pages). It returns one op per server, verb and extent.
func checkReadAllocs(tb testing.TB) (ops []func() int) {
	primary, replicaAddr := readServers(tb, 20_000)
	const queries = 400
	for _, srv := range []struct{ name, addr string }{{"primary", primary}, {"replica", replicaAddr}} {
		for _, extent := range []float64{0.005, 0.0001} {
			qs := workload.Queries(queries, extent, 7)
			for _, v := range readVerbs {
				op := request(tb, srv.addr, v.req, v.resp, qs)
				b, o := allocsPerRequest(op, queries)
				if testing.Verbose() {
					tb.Logf("%s %s at %.2f %% extent: %.0f B, %.1f objects", srv.name, FrameName(v.req), extent*100, b, o)
				}
				if b > readBudgetBytes || o > readBudgetObjects {
					tb.Errorf("%s %s at %.2f %% extent: %.0f B and %.1f objects per request, budget %d B and %d",
						srv.name, FrameName(v.req), extent*100, b, o, readBudgetBytes, readBudgetObjects)
				}
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// TestPrimaryReadAllocs: a primary's and a replica's read path makes no
// garbage in steady state. Their RSS follows the collector's heap goal,
// so garbage a read makes is memory the process holds.
func TestPrimaryReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts")
	}
	checkReadAllocs(t)
}

// BenchmarkPrimaryReadAllocs is the budget as CI's bench job runs it: it
// fails over budget, and -benchmem shows one pass over every server, verb
// and extent.
func BenchmarkPrimaryReadAllocs(b *testing.B) {
	ops := checkReadAllocs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, op := range ops {
			op()
		}
	}
}

// TestWideAnswerAllocs: a 10 % answer (about 10 000 records, 5 MB) is
// larger than the arena a lane keeps between bursts, so each request
// sizes a fresh one. It must size it once, from the burst's plan: grown
// by append it was copied about five times (some 33 MB per request). The
// raw client receives an answer this large outside its pool, which
// allocsPerRequest leaves out.
func TestWideAnswerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts")
	}
	primary, _ := readServers(t, 100_000)
	qs := workload.Queries(1, 0.1, 7)
	for _, v := range readVerbs[:2] {
		op := request(t, primary, v.req, v.resp, qs)
		answer := op()
		if answer <= laneArenaRetain {
			t.Fatalf("%s answer of %d B fits the retained arena; the test needs a wider one", FrameName(v.req), answer)
		}
		got, _ := allocsPerRequest(op, 4)
		t.Logf("%s: %d B answer, %.0f B allocated per request beyond the client's receive", FrameName(v.req), answer, got)
		if budget := 1.5 * float64(answer); got > budget {
			t.Errorf("%s: a %d B answer allocates %.0f B per request beyond the client's receive, budget %.0f",
				FrameName(v.req), answer, got, budget)
		}
	}
}

// writeBatch is the owner's batch size on the write path under test, as
// bench/'s write_mixed sends it.
const writeBatch = 16

// writePairs returns the write frames of pairs [from, to): pair p inserts
// writeBatch fresh records, then deletes them, so a primary's live data
// keeps its size.
func writePairs(from, to int) []Frame {
	frames := make([]Frame, 0, 2*(to-from))
	recs := make([]record.Record, writeBatch)
	ids := make([]record.ID, writeBatch)
	keys := make([]record.Key, writeBatch)
	for p := from; p < to; p++ {
		for j := range recs {
			ids[j] = record.ID(1<<40 + p*writeBatch + j)
			keys[j] = record.Key((p*writeBatch + j) * 7919 % record.KeyDomain)
			recs[j] = record.Synthesize(ids[j], keys[j])
		}
		frames = append(frames,
			Frame{Type: MsgBatchInsert, Payload: EncodeRecords(recs)},
			Frame{Type: MsgBatchDelete, Payload: EncodeDeletes(ids, keys)})
	}
	return frames
}

// writeClient serves one durable shard of n records as a primary with a
// hub attached, committing through the default group cap, and returns a
// func that sends frames to it over one raw connection, one round trip
// each, and expects every one acked.
func writeClient(tb testing.TB, n int) func([]Frame) {
	tb.Helper()
	ds, err := workload.Generate(workload.UNF, n, 11)
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.OpenDurableSystem(tb.TempDir(), ds.Records, 0)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { sys.Close() })
	srv, err := ServePrimary("127.0.0.1:0", sys, replica.Attach(sys, 0), nil,
		WithShardInfo(ShardInfo{Index: 0, Plan: shard.PlanFor(ds.Records, 1)}))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return func(fs []Frame) {
		for i := range fs {
			resp, err := c.RoundTripCtx(context.Background(), fs[i])
			if err != nil {
				tb.Fatal(err)
			}
			if resp.Type != MsgAck {
				tb.Fatalf("%s answered with %s %.80q", FrameName(fs[i].Type), FrameName(resp.Type), resp.Payload)
			}
		}
	}
}

// writeGarbagePerOp sends frames on one P and returns the garbage made
// per op: what the process allocated less what it still holds, both read
// after the collections of settle, so the heap pages and tree nodes the
// writes leave live are not counted. The first warm frames fill the
// pools, the caches and the hub's log.
func writeGarbagePerOp(send func([]Frame), frames []Frame, warm int) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	send(frames[:warm])
	var before, after runtime.MemStats
	settle(&before)
	send(frames[warm:])
	settle(&after)
	runtime.KeepAlive(frames) // the frames sent are not the server's garbage
	garbage := int64(after.TotalAlloc-before.TotalAlloc) - (int64(after.HeapAlloc) - int64(before.HeapAlloc))
	return float64(garbage) / float64(len(frames[warm:])*writeBatch)
}

// settle reads the memory statistics after two collections: the second
// frees what the first only moved to the pools' victim caches, so the
// live heap it reads holds nothing the run before it has let go of.
func settle(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}

// writeBudgetPerOp is the garbage a durable write may make per op. About
// 50 B remain: the raw client's round trip and the server's goroutine
// per frame, spread over a batch, and a delete frame's payload, which is
// below the receive pool's smallest class. Before writes were decoded
// into pooled ops and the committer, WAL, TE and hub reused their
// buffers, an op made about 3.9 KB.
const writeBudgetPerOp = 128

// checkWriteAllocs holds a primary's durable inserts and deletes, in
// batches of writeBatch, to the budget. It returns the send func and the
// first pair it has not sent. The warm-up outlasts the hub's window
// (replica.DefaultRetain groups), after which its log stops growing.
func checkWriteAllocs(tb testing.TB) (send func([]Frame), next int) {
	const warmPairs, pairs = 300, 200
	send = writeClient(tb, 20_000)
	got := writeGarbagePerOp(send, writePairs(0, warmPairs+pairs), 2*warmPairs)
	if testing.Verbose() {
		tb.Logf("%.0f B of garbage per op over %d batches of %d", got, 2*pairs, writeBatch)
	}
	if got > writeBudgetPerOp {
		tb.Errorf("a durable write makes %.0f B of garbage per op, budget %d", got, writeBudgetPerOp)
	}
	return send, warmPairs + pairs
}

// TestPrimaryWriteAllocs: a primary's write path makes no garbage in
// steady state. Its RSS follows the collector's heap goal, so garbage a
// write makes is memory the process holds.
func TestPrimaryWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts")
	}
	checkWriteAllocs(t)
}

// BenchmarkPrimaryWriteAllocs is the budget as CI's bench job runs it: it
// fails over budget, and -benchmem shows one insert batch and one delete
// batch per iteration.
func BenchmarkPrimaryWriteAllocs(b *testing.B) {
	send, next := checkWriteAllocs(b)
	frames := writePairs(next, next+b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send(frames[2*i : 2*i+2])
	}
}
