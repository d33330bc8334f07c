package core

import (
	"errors"
	"testing"

	"sae/internal/digest"
	"sae/internal/record"
	"sae/internal/wal"
	"sae/internal/workload"
)

func newTestSystem(t *testing.T, n int, dist workload.Distribution) (*System, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(dist, n, 100)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	sys, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys, ds
}

// refResult computes the expected result by linear scan.
func refResult(ds *workload.Dataset, q record.Range) []record.Record {
	var out []record.Record
	for i := range ds.Records {
		if q.Contains(ds.Records[i].Key) {
			out = append(out, ds.Records[i])
		}
	}
	return out
}

func TestHonestQueryVerifies(t *testing.T) {
	sys, ds := newTestSystem(t, 3000, workload.UNF)
	for _, q := range workload.Queries(20, workload.DefaultExtent, 101) {
		out, err := sys.Query(q)
		if err != nil {
			t.Fatalf("Query(%v): %v", q, err)
		}
		if out.VerifyErr != nil {
			t.Fatalf("honest result rejected for %v: %v", q, out.VerifyErr)
		}
		if want := refResult(ds, q); len(out.Result) != len(want) {
			t.Fatalf("result size %d, want %d", len(out.Result), len(want))
		}
	}
}

func TestSkewedDatasetVerifies(t *testing.T) {
	sys, _ := newTestSystem(t, 3000, workload.SKW)
	for _, q := range workload.Queries(10, workload.DefaultExtent, 102) {
		out, err := sys.Query(q)
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		if out.VerifyErr != nil {
			t.Fatalf("honest result rejected: %v", out.VerifyErr)
		}
	}
}

// busyQuery returns a query with a non-trivial result for attack tests.
func busyQuery(t *testing.T, sys *System, ds *workload.Dataset) (record.Range, []record.Record) {
	t.Helper()
	for _, q := range workload.Queries(50, workload.DefaultExtent, 103) {
		if want := refResult(ds, q); len(want) >= 3 {
			return q, want
		}
	}
	t.Fatal("no query with enough results")
	return record.Range{}, nil
}

func TestDropAttackDetected(t *testing.T) {
	sys, ds := newTestSystem(t, 3000, workload.UNF)
	q, _ := busyQuery(t, sys, ds)
	sys.SP.SetTamper(DropTamper(1))
	out, err := sys.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !errors.Is(out.VerifyErr, ErrVerificationFailed) {
		t.Fatalf("drop attack not detected: %v", out.VerifyErr)
	}
}

func TestInjectAttackDetected(t *testing.T) {
	sys, ds := newTestSystem(t, 3000, workload.UNF)
	q, _ := busyQuery(t, sys, ds)
	fake := record.Synthesize(10_000_000, (q.Lo+q.Hi)/2)
	sys.SP.SetTamper(InjectTamper(fake))
	out, err := sys.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !errors.Is(out.VerifyErr, ErrVerificationFailed) {
		t.Fatalf("inject attack not detected: %v", out.VerifyErr)
	}
}

func TestModifyAttackDetected(t *testing.T) {
	sys, ds := newTestSystem(t, 3000, workload.UNF)
	q, _ := busyQuery(t, sys, ds)
	sys.SP.SetTamper(ModifyTamper(0))
	out, err := sys.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !errors.Is(out.VerifyErr, ErrVerificationFailed) {
		t.Fatalf("modify attack not detected: %v", out.VerifyErr)
	}
}

func TestOutOfRangeInjectionDetected(t *testing.T) {
	// Injecting a record whose key is outside the range must be rejected
	// even before the XOR check.
	sys, ds := newTestSystem(t, 3000, workload.UNF)
	q, _ := busyQuery(t, sys, ds)
	fake := record.Synthesize(10_000_001, q.Hi+1000)
	sys.SP.SetTamper(InjectTamper(fake))
	out, err := sys.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !errors.Is(out.VerifyErr, ErrVerificationFailed) {
		t.Fatal("out-of-range injection not detected")
	}
}

func TestDuplicateInjectionCancellationCaveat(t *testing.T) {
	// The XOR construction's known multiset caveat: injecting the SAME
	// record twice XOR-cancels, so the token matches even though the
	// result is wrong. The paper's security proof (and our Verify) treats
	// results as sets; a production client additionally deduplicates.
	// This test documents the caveat: an order-preserving duplicate pair
	// cancels in the XOR, and the range and key-order checks alone do not
	// catch in-place duplicates. (Appending the pair at the end no longer
	// works: the client rejects out-of-key-order results outright.)
	sys, ds := newTestSystem(t, 3000, workload.UNF)
	q, want := busyQuery(t, sys, ds)
	dup := want[0]
	sys.SP.SetTamper(func(rs []record.Record) []record.Record {
		return append([]record.Record{dup, dup}, rs...)
	})
	out, err := sys.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if out.VerifyErr != nil {
		t.Fatalf("XOR of a duplicated pair should cancel; got %v", out.VerifyErr)
	}
	// A single duplicate, however, breaks the token.
	sys.SP.SetTamper(func(rs []record.Record) []record.Record {
		return append([]record.Record{dup}, rs...)
	})
	out, err = sys.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if !errors.Is(out.VerifyErr, ErrVerificationFailed) {
		t.Fatal("single duplicate injection not detected")
	}
}

func TestVTSizeIsConstant(t *testing.T) {
	if VTSize != 20 {
		t.Fatalf("VTSize = %d, want 20", VTSize)
	}
	sys, _ := newTestSystem(t, 2000, workload.UNF)
	small, _, err := sys.TE.GenerateVT(record.Range{Lo: 0, Hi: 10})
	if err != nil {
		t.Fatalf("GenerateVT: %v", err)
	}
	large, _, err := sys.TE.GenerateVT(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil {
		t.Fatalf("GenerateVT: %v", err)
	}
	// Both tokens are single digests regardless of result cardinality.
	if len(small) != VTSize || len(large) != VTSize {
		t.Fatalf("token sizes %d/%d, want %d", len(small), len(large), VTSize)
	}
}

func TestUpdatesPropagate(t *testing.T) {
	sys, _ := newTestSystem(t, 1000, workload.UNF)
	// Insert records into a hot range, query, verify.
	q := record.Range{Lo: 5000, Hi: 9000}
	var inserted []record.Record
	for i := 0; i < 20; i++ {
		r, err := sys.Insert(record.Key(5000 + i*100))
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		inserted = append(inserted, r)
	}
	out, err := sys.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if out.VerifyErr != nil {
		t.Fatalf("verification failed after inserts: %v", out.VerifyErr)
	}
	found := 0
	for i := range out.Result {
		for j := range inserted {
			if out.Result[i].ID == inserted[j].ID {
				found++
			}
		}
	}
	if found != len(inserted) {
		t.Fatalf("found %d of %d inserted records in the result", found, len(inserted))
	}
	// Delete a few and re-verify.
	for _, r := range inserted[:10] {
		if err := sys.Delete(r.ID); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	out, err = sys.Query(q)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if out.VerifyErr != nil {
		t.Fatalf("verification failed after deletes: %v", out.VerifyErr)
	}
	if err := sys.TE.Validate(); err != nil {
		t.Fatalf("TE invariants broken after updates: %v", err)
	}
}

func TestDeleteUnknownID(t *testing.T) {
	sys, _ := newTestSystem(t, 100, workload.UNF)
	if err := sys.Delete(999_999); err == nil {
		t.Fatal("Delete of unknown id succeeded")
	}
}

func TestStorageAccounting(t *testing.T) {
	sys, _ := newTestSystem(t, 2000, workload.UNF)
	spBytes := sys.SP.StorageBytes()
	teBytes := sys.TE.StorageBytes()
	// The SP stores 500-byte records; the TE only 28-byte tuples plus tree
	// overhead. The paper's Figure 8: TE storage is a small fraction.
	if teBytes*5 > spBytes {
		t.Fatalf("TE storage (%d) not small relative to SP (%d)", teBytes, spBytes)
	}
	if sys.SP.HeapBytes() >= spBytes {
		t.Fatal("index storage unaccounted")
	}
}

func TestResponseTimeUsesSlowerParty(t *testing.T) {
	sys, _ := newTestSystem(t, 1000, workload.UNF)
	out, err := sys.Query(record.Range{Lo: 0, Hi: 50_000})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	rt := out.ResponseTime()
	slower := out.SPCost.Total()
	if out.TECost.Total() > slower.Total() {
		slower = out.TECost
	}
	if rt.Total() != slower.Add(out.ClientCost).Total() {
		t.Fatal("ResponseTime must be max(SP, TE) + client")
	}
}

func TestVerifyEmptyResult(t *testing.T) {
	sys, _ := newTestSystem(t, 100, workload.UNF)
	// A range between two existing keys (or beyond the domain edge) has an
	// empty result; its token is the XOR over the empty set: zero.
	var c Client
	cost, err := c.Verify(record.Range{Lo: 1, Hi: 2}, nil, digest.Zero)
	if err != nil {
		t.Fatalf("empty result with zero token rejected: %v", err)
	}
	_ = cost
	_, err = c.Verify(record.Range{Lo: 1, Hi: 2}, nil, digest.OfBytes([]byte("x")))
	if !errors.Is(err, ErrVerificationFailed) {
		t.Fatal("empty result with nonzero token accepted")
	}
	_ = sys
}

// TestChurnKeepsHeapFlat: under a churn that keeps the live count
// constant (each batch of 16 inserts 8 records and deletes the 8
// oldest), the SP's heap holds at most ⌈live/8⌉ + 1 pages: one part-dead
// page at the front, one part-filled page at the tail. Every full page
// the deletes empty goes back to the store, and the next tail page
// reuses it.
func TestChurnKeepsHeapFlat(t *testing.T) {
	s, ds := newTestSystem(t, 5000, workload.UNF)
	queue := make([]wal.Op, 0, len(ds.Records)+400*8)
	for i := range ds.Records {
		queue = append(queue, wal.DeleteOp(ds.Records[i].ID, ds.Records[i].Key))
	}
	ops := make([]wal.Op, 0, 16)
	nextID := s.Owner.watermark()
	for b := 0; b < 400; b++ {
		ops = ops[:0]
		for i := 0; i < 8; i++ {
			r := record.Synthesize(nextID, record.Key(uint64(nextID)*7919%record.KeyDomain))
			nextID++
			ops = append(ops, wal.InsertOp(r))
			queue = append(queue, wal.DeleteOp(r.ID, r.Key))
		}
		ops = append(ops, queue[:8]...)
		queue = queue[8:]
		if err := s.apply(ops); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		live, pages := s.SP.Count(), s.SP.heap.NumPages()
		if bound := (live+7)/8 + 1; pages > bound {
			t.Fatalf("after batch %d the heap holds %d pages for %d live records, want <= %d", b, pages, live, bound)
		}
	}
	out, err := s.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil {
		t.Fatal(err)
	}
	if out.VerifyErr != nil || len(out.Result) != len(ds.Records) {
		t.Fatalf("whole-domain answer after the churn: %d records, verify %v; want %d verified", len(out.Result), out.VerifyErr, len(ds.Records))
	}
}
