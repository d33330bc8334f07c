package tom

import (
	"sync"
	"sync/atomic"
	"testing"

	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/wal"
	"sae/internal/workload"
)

// TestConcurrentReadersApplyBatch races VO-building readers against
// ApplyBatchCtx. Readers share the MB-Tree's node objects under the
// provider's read lock while each batch changes them in place under its
// write lock, so every answer must verify against the signature it
// carries (run with -race).
func TestConcurrentReadersApplyBatch(t *testing.T) {
	sys, _ := newTestSystem(t, 3000, workload.UNF)
	queries := workload.Queries(16, workload.DefaultExtent, 9)

	var done atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for rd := 0; rd < 3; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := rd; !done.Load() || i < rd+len(queries); i++ {
				q := queries[i%len(queries)]
				out, err := sys.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if out.VerifyErr != nil {
					t.Errorf("reader %d: query %v failed verification: %v", rd, q, out.VerifyErr)
					return
				}
				agg, err := sys.Aggregate(q)
				if err != nil {
					t.Error(err)
					return
				}
				if agg.VerifyErr != nil {
					t.Errorf("reader %d: aggregate %v failed verification: %v", rd, q, agg.VerifyErr)
					return
				}
				reads.Add(1)
			}
		}(rd)
	}

	// Batches of 12 inserts and 4 deletes of the oldest inserted records.
	var live []record.Record
	nextID := record.ID(9_000_000)
	for b := 0; b < 30; b++ {
		var ops []wal.Op
		for i := 0; i < 12; i++ {
			r := record.Synthesize(nextID, record.Key((int(nextID)*7919)%record.KeyDomain))
			nextID++
			live = append(live, r)
			ops = append(ops, wal.InsertOp(r))
		}
		for _, r := range live[:4] {
			ops = append(ops, wal.DeleteOp(r.ID, r.Key))
		}
		live = live[4:]
		if err := sys.Provider.ApplyBatchCtx(exec.NewContext(), ops, sys.Owner); err != nil {
			t.Fatal(err)
		}
	}
	done.Store(true)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no reader ran")
	}
}
