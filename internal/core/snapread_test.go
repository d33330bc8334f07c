package core

import (
	"sync"
	"testing"

	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/workload"
)

// TestSnapshotAccessCountParity checks that a snapshot query charges
// exactly the node accesses of a live query at the same generation, per
// phase: the snapshot reopens the same tree over frozen pages, and the
// live cache runs charge-every-access, so the paper's access accounting
// is identical on both paths.
func TestSnapshotAccessCountParity(t *testing.T) {
	sys, _ := newTestSystem(t, 4000, workload.UNF)
	sps, err := sys.SP.BeginSnapshot()
	if err != nil {
		t.Fatalf("SP BeginSnapshot: %v", err)
	}
	defer sps.Close()
	tes, err := sys.TE.BeginSnapshot()
	if err != nil {
		t.Fatalf("TE BeginSnapshot: %v", err)
	}
	defer tes.Close()

	for _, q := range workload.Queries(15, workload.DefaultExtent, 99) {
		liveCtx, snapCtx := exec.NewContext(), exec.NewContext()
		liveRecs, liveCost, err := sys.SP.QueryCtx(liveCtx, q)
		if err != nil {
			t.Fatalf("live query: %v", err)
		}
		snapRecs, snapCost, err := sps.QueryCtx(snapCtx, q)
		if err != nil {
			t.Fatalf("snapshot query: %v", err)
		}
		// The Figure 6 phase split, not just the total, is the same.
		if l, s := liveCost.Index.Accesses, snapCost.Index.Accesses; l != s {
			t.Fatalf("index-phase accesses differ for %v: live %d, snapshot %d", q, l, s)
		}
		if l, s := liveCost.Fetch.Accesses, snapCost.Fetch.Accesses; l != s {
			t.Fatalf("fetch-phase accesses differ for %v: live %d, snapshot %d", q, l, s)
		}
		if len(liveRecs) != len(snapRecs) {
			t.Fatalf("result sizes differ for %v: live %d, snapshot %d", q, len(liveRecs), len(snapRecs))
		}
		for i := range liveRecs {
			if !liveRecs[i].Equal(&snapRecs[i]) {
				t.Fatalf("record %d differs between live and snapshot for %v", i, q)
			}
		}
		if l, s := liveCtx.Stats(), snapCtx.Stats(); l != s {
			t.Fatalf("SP access counts differ for %v: live %+v, snapshot %+v", q, l, s)
		}

		liveTE, snapTE := exec.NewContext(), exec.NewContext()
		liveVT, _, err := sys.TE.GenerateVTCtx(liveTE, q)
		if err != nil {
			t.Fatalf("live VT: %v", err)
		}
		snapVT, _, err := tes.GenerateVTCtx(snapTE, q)
		if err != nil {
			t.Fatalf("snapshot VT: %v", err)
		}
		if liveVT != snapVT {
			t.Fatalf("VT differs between live and snapshot for %v", q)
		}
		if l, s := liveTE.Stats(), snapTE.Stats(); l != s {
			t.Fatalf("TE access counts differ for %v: live %+v, snapshot %+v", q, l, s)
		}
	}
}

// TestConcurrentWritersVerifiedSnapshotReaders is the write-pipeline
// race test: writers push batches through the group committer while
// readers continuously open consistent snapshot pairs and run fully
// verified queries against them. Every verification must pass, and a
// snapshot queried twice must return identical bytes no matter how far
// the committer has advanced in between. Run under -race in CI.
func TestConcurrentWritersVerifiedSnapshotReaders(t *testing.T) {
	sys, _ := newTestSystem(t, 3000, workload.UNF)
	gc := newCommitterFor(t, sys, 32, true)

	qs := workload.Queries(8, workload.DefaultExtent, 321)
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	var wg sync.WaitGroup

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sps, tes, err := gc.Snapshot()
				if err != nil {
					errCh <- err
					return
				}
				q := qs[(r+i)%len(qs)]
				recs, _, err := sps.Query(q)
				if err == nil {
					vtDigest, _, vtErr := tes.GenerateVT(q)
					if vtErr != nil {
						err = vtErr
					} else if _, verr := (Client{}).Verify(q, recs, vtDigest); verr != nil {
						err = verr
					} else {
						// Re-read under churn: frozen means frozen.
						again, _, aerr := sps.Query(q)
						if aerr != nil {
							err = aerr
						} else if len(again) != len(recs) {
							err = errSnapshotMoved
						} else {
							for j := range again {
								if !again[j].Equal(&recs[j]) {
									err = errSnapshotMoved
									break
								}
							}
						}
					}
				}
				sps.Close()
				tes.Close()
				if err != nil {
					errCh <- err
					return
				}
			}
		}(r)
	}

	var wwg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := 0; i < 20; i++ {
				keys := make([]record.Key, 20)
				for k := range keys {
					keys[k] = record.Key((w*100000 + i*500 + k*17) % record.KeyDomain)
				}
				ins, err := gc.InsertBatch(keys)
				if err != nil {
					errCh <- err
					return
				}
				if i%3 == 0 {
					if err := gc.DeleteBatch(idsOf(ins[:5])); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wwg.Wait()
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("writer/reader failure: %v", err)
	}

	// Quiesced end state verifies and the TE tree is still sound.
	if err := sys.TE.Validate(); err != nil {
		t.Fatalf("TE validation after churn: %v", err)
	}
	out, err := sys.Query(record.Range{Lo: 0, Hi: record.KeyDomain})
	if err != nil || out.VerifyErr != nil {
		t.Fatalf("final verified query: %v / %v", err, out.VerifyErr)
	}
}

var errSnapshotMoved = errSnapshot("snapshot returned different bytes on re-read")

type errSnapshot string

func (e errSnapshot) Error() string { return string(e) }
