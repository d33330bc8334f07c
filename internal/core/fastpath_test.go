package core

import (
	"sort"
	"testing"

	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/heapfile"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/wal"
)

func fastpathRecords(n int) []record.Record {
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Synthesize(record.ID(i+1), record.Key((i*7919)%record.KeyDomain))
	}
	sort.Slice(recs, func(i, j int) bool { return record.SortByKey(recs[i], recs[j]) < 0 })
	return recs
}

func fastpathSP(t *testing.T, recs []record.Record, cached bool) *ServiceProvider {
	t.Helper()
	sp := NewServiceProvider(pagestore.NewMem())
	if err := sp.Load(recs); err != nil {
		t.Fatalf("SP load: %v", err)
	}
	if !cached {
		sp.index.UseCache(nil)
	}
	return sp
}

// TestVerifyPoolParity drives the parallel wire-form verifier across
// honest and tampered results at several worker counts: accept/reject
// must match the serial Client.Verify reference exactly.
func TestVerifyPoolParity(t *testing.T) {
	recs := fastpathRecords(600)
	te := NewTrustedEntity(pagestore.NewMem())
	if err := te.Load(recs); err != nil {
		t.Fatalf("TE load: %v", err)
	}
	q := record.Range{Lo: recs[50].Key, Hi: recs[500].Key}
	vt, _, err := te.GenerateVT(q)
	if err != nil {
		t.Fatalf("GenerateVT: %v", err)
	}
	sp := fastpathSP(t, recs, true)
	honest, _, err := sp.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	encode := func(rs []record.Record) []byte {
		out := make([]byte, 0, len(rs)*record.Size)
		for i := range rs {
			out = rs[i].AppendBinary(out)
		}
		return out
	}
	outside := record.Synthesize(9999, q.Hi+1)
	reordered := append([]record.Record{}, honest...)
	reordered[0], reordered[len(reordered)-1] = reordered[len(reordered)-1], reordered[0]
	cases := []struct {
		name   string
		result []record.Record
		ok     bool
	}{
		{"honest", honest, true},
		{"drop", DropTamper(2)(honest), false},
		{"inject", InjectTamper(record.Synthesize(12345, q.Lo))(honest), false},
		{"modify", ModifyTamper(1)(honest), false},
		{"outside", append(append([]record.Record{}, honest...), outside), false},
		{"reordered", reordered, false},
		{"empty-claiming", nil, false},
	}
	var serial Client
	for _, tc := range cases {
		_, wantErr := serial.Verify(q, tc.result, vt)
		if (wantErr == nil) != tc.ok {
			t.Fatalf("%s: baseline verify ok=%v, want %v", tc.name, wantErr == nil, tc.ok)
		}
		for _, workers := range []int{1, 2, 4} {
			vp := NewVerifyPool(workers)
			if _, err := vp.VerifyEncoded(q, encode(tc.result), vt); (err == nil) != tc.ok {
				t.Fatalf("%s: VerifyEncoded(%d) ok=%v, want %v (err=%v)", tc.name, workers, err == nil, tc.ok, err)
			}
		}
	}
	// A ragged payload must be rejected outright.
	vp := NewVerifyPool(2)
	if _, err := vp.VerifyEncoded(q, encode(honest)[:len(honest)*record.Size-1], vt); err == nil {
		t.Fatal("VerifyEncoded accepted a truncated payload")
	}
}

// Allocation-regression tests: the three hot paths must stay (near)
// allocation-free per operation so future PRs cannot silently reintroduce
// per-record garbage. Bounds are small constants, far below one
// allocation per record.

// TestServeBurstAllocs pins the steady-state SP serve path at n = 1 with
// a lane's reused scratch: index scan into the scratch's RID arena, then
// the heap's page bytes handed out one run per page — at most pages + 1
// emits for a clustered ~400-record query, and not one allocation.
func TestServeBurstAllocs(t *testing.T) {
	recs := fastpathRecords(2000)
	sp := fastpathSP(t, recs, true)
	qs := []record.Range{{Lo: recs[100].Key, Hi: recs[500].Key}}
	lane := exec.NewLane(0)
	var sc BurstScratch
	sink, emits, n := 0, 0, 0
	emit := func(_ int, enc []byte) error {
		sink += int(record.WireKey(enc))
		emits++
		n += len(enc) / record.Size
		return nil
	}
	serve := func() {
		emits, n = 0, 0
		if err := sp.ServeBurstCtx(lane.Contexts(1), qs, &sc, emit); err != nil || n == 0 {
			t.Fatalf("serve: n=%d err=%v", n, err)
		}
	}
	serve() // warm the index cache and the scratch
	if pages := (n + heapfile.RecordsPerPage - 1) / heapfile.RecordsPerPage; emits > pages+1 {
		t.Fatalf("%d records served in %d emits, want at most %d (one per page)", n, emits, pages+1)
	}
	if allocs := testing.AllocsPerRun(50, serve); allocs != 0 {
		t.Fatalf("SP serve path allocates %.1f objects/op for a %d-record query, want 0", allocs, n)
	}
}

// listReads returns the VT for q and the list pages its descent read: a
// token descent and an aggregate descent walk the same nodes, and only
// the token reads list pages.
func listReads(t *testing.T, te *TrustedEntity, lane *exec.Lane, q record.Range) (digest.Digest, int64) {
	t.Helper()
	var vt [1]digest.Digest
	ctxs := lane.Contexts(1)
	if err := te.GenerateVTBurst(ctxs, []record.Range{q}, vt[:]); err != nil {
		t.Fatalf("GenerateVT: %v", err)
	}
	vtReads := ctxs[0].Stats().Reads
	ctxs = lane.Contexts(1)
	if _, err := te.tree.AggregateCtx(ctxs[0], q.Lo, q.Hi); err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	return vt[0], vtReads - ctxs[0].Stats().Reads
}

// internalKey returns the first of keys that an internal entry of te's
// XB-Tree carries: a point range on it reads exactly that entry's list.
// A range ending on it reads the list too, where the upper boundary cuts
// the entry off from its subtree.
func internalKey(t *testing.T, te *TrustedEntity, keys []record.Key) record.Key {
	t.Helper()
	lane := exec.NewLane(0)
	for _, k := range keys {
		if _, n := listReads(t, te, lane, record.Range{Lo: k, Hi: k}); n == 1 {
			return k
		}
	}
	t.Fatal("no internal entry found")
	return 0
}

// bruteVT is the XOR of the digests of every record of recs in q.
func bruteVT(recs []record.Record, q record.Range) digest.Digest {
	var acc digest.Accumulator
	for i := range recs {
		if q.Contains(recs[i].Key) {
			acc.Add(digest.OfRecord(&recs[i]))
		}
	}
	return acc.Sum()
}

// TestGenerateVTAllocs: TE token generation on a warm cache allocates
// nothing, including where a range boundary cuts an internal entry and
// the descent folds that entry's list page — a shared slot, and a chain
// of pages for a key with more tuples than a slot holds.
func TestGenerateVTAllocs(t *testing.T) {
	recs := fastpathRecords(2000)
	te := NewTrustedEntity(pagestore.NewMem())
	if err := te.Load(recs); err != nil {
		t.Fatalf("TE load: %v", err)
	}
	keys := make([]record.Key, 0, 1000)
	for i := 1000; i < len(recs); i++ {
		keys = append(keys, recs[i].Key)
	}
	k := internalKey(t, te, keys)
	lane := exec.NewLane(0)
	noAllocs := func(name string, q record.Range, minLists int64) {
		t.Helper()
		vt, n := listReads(t, te, lane, q)
		if n < minLists {
			t.Fatalf("%s: the descent read %d list pages, want >= %d", name, n, minLists)
		}
		if want := bruteVT(recs, q); vt != want {
			t.Fatalf("%s: VT %v, brute force %v", name, vt, want)
		}
		qs := []record.Range{q}
		var vts [1]digest.Digest
		gen := func() {
			if err := te.GenerateVTBurst(lane.Contexts(1), qs, vts[:]); err != nil {
				t.Fatalf("%s: GenerateVT: %v", name, err)
			}
		}
		if allocs := testing.AllocsPerRun(50, gen); allocs != 0 {
			t.Fatalf("%s: TE VT generation allocates %.1f objects/op, want 0", name, allocs)
		}
	}
	q := record.Range{Lo: recs[100].Key, Hi: k}
	noAllocs("slot", q, 1)

	// 300 more tuples under k move its list to a chain of three pages.
	var ops []wal.Op
	for i := 0; i < 300; i++ {
		r := record.Synthesize(record.ID(10_000+i), k)
		recs = append(recs, r)
		ops = append(ops, wal.InsertOp(r))
	}
	if err := te.ApplyBatchCtx(exec.NewContext(), ops); err != nil {
		t.Fatalf("TE insert: %v", err)
	}
	noAllocs("chain", q, 3)
}

// TestVerifyEncodedAllocs bounds the client's zero-copy verification: the
// payload is hashed in place, so a thousand-record check must not
// allocate per record (workers=1 keeps the fan-out goroutines out of the
// measurement).
func TestVerifyEncodedAllocs(t *testing.T) {
	recs := fastpathRecords(1000)
	enc := make([]byte, 0, len(recs)*record.Size)
	var acc digest.Accumulator
	for i := range recs {
		enc = recs[i].AppendBinary(enc)
		acc.Add(digest.OfRecord(&recs[i]))
	}
	vt := acc.Sum()
	q := record.Range{Lo: 0, Hi: record.KeyDomain - 1}
	vp := NewVerifyPool(1)
	verify := func() {
		if _, err := vp.VerifyEncoded(q, enc, vt); err != nil {
			t.Fatalf("VerifyEncoded: %v", err)
		}
	}
	verify()
	allocs := testing.AllocsPerRun(50, verify)
	if allocs > 2 {
		t.Fatalf("client verify allocates %.1f objects/op for 1000 records, want <= 2", allocs)
	}
}
