package tom

import (
	"fmt"
	"strings"
	"testing"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/wal"
	"sae/internal/workload"
)

// TestApplyBatchParity applies the same updates one at a time (a root
// re-sign each) and as one batch (a single re-sign at the end); queries
// and VO verification must come out identical, because the tree only
// depends on the final entry set and the signature only on the final
// root.
func TestApplyBatchParity(t *testing.T) {
	serial, ds := newTestSystem(t, 2000, workload.UNF)
	batched, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}

	var ops []wal.Op
	nextID := record.ID(1000000)
	for i := 0; i < 60; i++ {
		r := record.Synthesize(nextID, record.Key((i*6151)%record.KeyDomain))
		nextID++
		ops = append(ops, wal.InsertOp(r))
	}
	for i := 0; i < 20; i++ {
		r := ds.Records[i*29]
		ops = append(ops, wal.DeleteOp(r.ID, r.Key))
	}

	for _, op := range ops {
		switch op.Kind {
		case wal.OpInsert:
			if err := serial.Provider.ApplyInsert(op.Rec, serial.Owner); err != nil {
				t.Fatalf("serial insert: %v", err)
			}
		case wal.OpDelete:
			if err := serial.Provider.ApplyDelete(op.ID, op.Key, serial.Owner); err != nil {
				t.Fatalf("serial delete: %v", err)
			}
		}
	}
	if err := batched.Provider.ApplyBatchCtx(exec.NewContext(), ops, batched.Owner); err != nil {
		t.Fatalf("ApplyBatchCtx: %v", err)
	}

	for _, q := range workload.Queries(15, workload.DefaultExtent, 888) {
		so, err := serial.Query(q)
		if err != nil {
			t.Fatalf("serial query: %v", err)
		}
		bo, err := batched.Query(q)
		if err != nil {
			t.Fatalf("batched query: %v", err)
		}
		if so.VerifyErr != nil || bo.VerifyErr != nil {
			t.Fatalf("verification failed: serial %v, batched %v", so.VerifyErr, bo.VerifyErr)
		}
		if len(so.Result) != len(bo.Result) {
			t.Fatalf("result sizes diverged for %v: %d vs %d", q, len(so.Result), len(bo.Result))
		}
		for i := range so.Result {
			if !so.Result[i].Equal(&bo.Result[i]) {
				t.Fatalf("result %d diverged for %v", i, q)
			}
		}
	}
}

// TestApplyBatchUnknownDeleteFails ensures a bad op surfaces an error
// instead of corrupting the provider.
func TestApplyBatchUnknownDeleteFails(t *testing.T) {
	sys, _ := newTestSystem(t, 200, workload.UNF)
	ops := []wal.Op{wal.DeleteOp(987654321, 1)}
	if err := sys.Provider.ApplyBatchCtx(exec.NewContext(), ops, sys.Owner); err == nil {
		t.Fatalf("deleting an unknown id in a batch succeeded")
	}
}

// wholeDomain verifies a full-range query and returns its records: the
// provider is still serving iff the signed root matches the tree.
func wholeDomain(t *testing.T, sys *System) []record.Record {
	t.Helper()
	out, err := sys.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil {
		t.Fatalf("whole-domain query: %v", err)
	}
	if out.VerifyErr != nil {
		t.Fatalf("whole-domain query no longer verifies: %v", out.VerifyErr)
	}
	return out.Result
}

// twins is one dataset under TOM and under SAE. Every batch goes to
// TOM's provider and to SAE's group committer, which admit through the
// same catalog rule and so must accept or refuse it alike.
type twins struct {
	tom *System
	sae *core.DurableSystem
}

func newTwins(t *testing.T, n int) (*twins, *workload.Dataset) {
	t.Helper()
	sys, ds := newTestSystem(t, n, workload.UNF)
	sae, err := core.OpenDurableSystem(t.TempDir(), ds.Records, 0)
	if err != nil {
		t.Fatalf("OpenDurableSystem: %v", err)
	}
	t.Cleanup(func() { sae.Close() })
	return &twins{tom: sys, sae: sae}, ds
}

// apply feeds ops to both providers and returns TOM's error. It fails the
// test if SAE decides otherwise, or if a refused batch moved either
// provider's whole-domain token: SAE's VT, TOM's root digest.
func (tw *twins) apply(t *testing.T, name string, ops []wal.Op) error {
	t.Helper()
	vt, root := tw.saeToken(t), tw.tom.Provider.tree.RootDigest()
	tomErr := tw.tom.Provider.ApplyBatchCtx(exec.NewContext(), ops, tw.tom.Owner)
	saeErr := tw.sae.Committer().SubmitOps(ops)
	if (tomErr == nil) != (saeErr == nil) {
		t.Fatalf("%s: TOM returned %v, SAE %v", name, tomErr, saeErr)
	}
	if tomErr != nil && (tw.saeToken(t) != vt || tw.tom.Provider.tree.RootDigest() != root) {
		t.Fatalf("%s: the refused batch moved a whole-domain token", name)
	}
	return tomErr
}

// saeToken returns SAE's verified whole-domain token.
func (tw *twins) saeToken(t *testing.T) digest.Digest {
	t.Helper()
	out, err := tw.sae.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("SAE whole-domain query: %v / %v", err, out.VerifyErr)
	}
	return out.VT
}

// TestApplyBatchFailureLeavesProviderServing: a batch refused for one bad
// op applies none of its ops, so the tree still matches the owner's last
// root signature and every later query verifies. SAE refuses the same
// batches.
func TestApplyBatchFailureLeavesProviderServing(t *testing.T) {
	tw, ds := newTwins(t, 200)
	sys := tw.tom
	fresh := record.Synthesize(5000, 123_456)
	bad := [][]wal.Op{
		{wal.InsertOp(fresh), wal.DeleteOp(987654321, 1)},                          // unknown id
		{wal.InsertOp(fresh), wal.DeleteOp(ds.Records[3].ID, ds.Records[3].Key+1)}, // wrong key
	}
	for i, ops := range bad {
		if err := tw.apply(t, fmt.Sprintf("batch %d", i), ops); err == nil {
			t.Fatalf("batch %d: a batch with a bad delete succeeded", i)
		}
		if got := wholeDomain(t, sys); len(got) != len(ds.Records) {
			t.Fatalf("batch %d: %d records served after the refused batch, want %d", i, len(got), len(ds.Records))
		}
	}
	// The provider still takes good batches.
	if err := tw.apply(t, "good batch", []wal.Op{wal.InsertOp(fresh)}); err != nil {
		t.Fatalf("good batch after the refused ones: %v", err)
	}
	if got := wholeDomain(t, sys); len(got) != len(ds.Records)+1 {
		t.Fatalf("%d records after one insert, want %d", len(got), len(ds.Records)+1)
	}
}

// TestApplyBatchRejectsRepeatedID: a batch may insert only ids that are
// not live and delete only ids that are, at that point in the batch. An
// id inserted twice would leave one copy served and verifying after its
// delete. SAE decides every batch alike.
func TestApplyBatchRejectsRepeatedID(t *testing.T) {
	tw, ds := newTwins(t, 200)
	sys := tw.tom
	live := ds.Records[7]
	for name, ops := range map[string][]wal.Op{
		"insert twice":       {wal.InsertOp(record.Synthesize(5000, 10)), wal.InsertOp(record.Synthesize(5000, 20))},
		"insert a live id":   {wal.InsertOp(record.Synthesize(live.ID, 30))},
		"delete twice":       {wal.DeleteOp(live.ID, live.Key), wal.DeleteOp(live.ID, live.Key)},
		"delete before born": {wal.DeleteOp(5001, 40), wal.InsertOp(record.Synthesize(5001, 40))},
	} {
		if err := tw.apply(t, name, ops); err == nil {
			t.Fatalf("%s: batch accepted", name)
		}
		if got := wholeDomain(t, sys); len(got) != len(ds.Records) {
			t.Fatalf("%s: %d records served after the refused batch, want %d", name, len(got), len(ds.Records))
		}
	}
	// Ids live at their point in the batch are fine: insert then delete,
	// delete then re-insert.
	ops := []wal.Op{
		wal.InsertOp(record.Synthesize(5000, 10)), wal.DeleteOp(5000, 10),
		wal.DeleteOp(live.ID, live.Key), wal.InsertOp(record.Synthesize(live.ID, 50)),
	}
	if err := tw.apply(t, "ids live at their point", ops); err != nil {
		t.Fatalf("batch with ids live at their point: %v", err)
	}
	if err := tw.apply(t, "delete the re-inserted id", []wal.Op{wal.DeleteOp(live.ID, 50)}); err != nil {
		t.Fatalf("deleting the re-inserted id: %v", err)
	}
	sae, err := tw.sae.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || sae.VerifyErr != nil {
		t.Fatalf("SAE whole-domain query: %v / %v", err, sae.VerifyErr)
	}
	for _, r := range append(wholeDomain(t, sys), sae.Result...) {
		if r.ID == 5000 || r.ID == live.ID {
			t.Fatalf("id %d still served after its delete", r.ID)
		}
	}
}

// TestLoadRejectsRepeatedID: a dataset carrying one id twice is refused
// at load with an error naming the id.
func TestLoadRejectsRepeatedID(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 50, 200)
	if err != nil {
		t.Fatal(err)
	}
	recs := append([]record.Record(nil), ds.Records...)
	recs[9].ID = recs[4].ID
	_, err = NewSystem(recs)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("record id %d appears more than once", recs[4].ID)) {
		t.Fatalf("NewSystem with a repeated id: got %v", err)
	}
}
