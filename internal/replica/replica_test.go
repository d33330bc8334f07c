package replica

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/workload"
)

func newPrimary(t *testing.T, n int, maxGroup int) (*core.DurableSystem, *Hub) {
	t.Helper()
	ds, err := workload.Generate(workload.UNF, n, 7)
	if err != nil {
		t.Fatalf("generating dataset: %v", err)
	}
	sys, err := core.OpenDurableSystem(t.TempDir(), ds.Records, maxGroup)
	if err != nil {
		t.Fatalf("opening durable system: %v", err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, Attach(sys, 0)
}

func bootstrap(t *testing.T, h *Hub) *Replica {
	t.Helper()
	snap, err := h.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	r, err := NewFromSnapshot(snap)
	if err != nil {
		t.Fatalf("bootstrapping replica: %v", err)
	}
	return r
}

// catchUp pulls groups from the hub until the replica has the hub's
// newest sequence, re-bootstrapping if the retention window moved past.
func catchUp(t *testing.T, h *Hub, r *Replica) {
	t.Helper()
	for {
		gs, snap, last := h.Since(r.Seq(), 8)
		if snap {
			snap, err := h.Snapshot()
			if err != nil {
				t.Fatalf("re-snapshot: %v", err)
			}
			if err := r.Reset(snap); err != nil {
				t.Fatalf("reset: %v", err)
			}
			continue
		}
		if err := r.ApplyGroups(gs); err != nil {
			t.Fatalf("applying groups: %v", err)
		}
		if r.Seq() >= last {
			return
		}
	}
}

// assertParity checks the replica against the primary record-for-record,
// token-for-token, at the same generation stamp: the bit-identical claim.
func assertParity(t *testing.T, sys *core.DurableSystem, r *Replica) {
	t.Helper()
	if got, want := r.Seq(), sys.Seq(); got != want {
		t.Fatalf("generation stamp: replica %d, primary %d", got, want)
	}
	ranges := []record.Range{
		{Lo: 0, Hi: record.KeyDomain},
		{Lo: 100_000, Hi: 400_000},
		{Lo: 9_000_000, Hi: record.KeyDomain},
		{Lo: 5_000_000, Hi: 5_000_000},
	}
	for _, q := range ranges {
		prec, _, err := sys.SP.Query(q)
		if err != nil {
			t.Fatalf("primary query %v: %v", q, err)
		}
		pvt, _, err := sys.TE.GenerateVT(q)
		if err != nil {
			t.Fatalf("primary VT %v: %v", q, err)
		}
		rrec, rvt, _, err := r.Query(q)
		if err != nil {
			t.Fatalf("replica query %v: %v", q, err)
		}
		if pvt != rvt {
			t.Fatalf("VT mismatch over %v: primary %x, replica %x", q, pvt, rvt)
		}
		if len(prec) != len(rrec) {
			t.Fatalf("result size over %v: primary %d, replica %d", q, len(prec), len(rrec))
		}
		var pb, rb []byte
		for i := range prec {
			pb = prec[i].AppendBinary(pb[:0])
			rb = rrec[i].AppendBinary(rb[:0])
			if !bytes.Equal(pb, rb) {
				t.Fatalf("record %d over %v not bit-identical", i, q)
			}
		}
		// The replica's answers must pass the client's unchanged XOR check.
		if _, err := (core.Client{}).Verify(q, rrec, rvt); err != nil {
			t.Fatalf("verifying replica answer over %v: %v", q, err)
		}
		ptok, _, err := sys.TE.AggToken(q)
		if err != nil {
			t.Fatalf("primary agg token %v: %v", q, err)
		}
		rtok, _, err := r.TE().AggToken(q)
		if err != nil {
			t.Fatalf("replica agg token %v: %v", q, err)
		}
		if !bytes.Equal(ptok.AppendTo(nil), rtok.AppendTo(nil)) {
			t.Fatalf("aggregate token mismatch over %v", q)
		}
	}
	if got, want := r.Count(), sys.Owner.Count(); got != want {
		t.Fatalf("record count: replica %d, primary %d", got, want)
	}
}

// TestParityUnderWrites drives mixed insert/delete rounds through the
// primary's commit pipeline with the replica tailing by delta pulls, and
// asserts full bit parity (records, VTs, aggregate tokens, generation
// stamp) after every catch-up.
func TestParityUnderWrites(t *testing.T) {
	sys, hub := newPrimary(t, 2000, 16)
	rep := bootstrap(t, hub)
	assertParity(t, sys, rep)

	var inserted []record.ID
	for round := 0; round < 12; round++ {
		keys := make([]record.Key, 20)
		for i := range keys {
			keys[i] = record.Key((round*31 + i*997) % record.KeyDomain)
		}
		recs, err := sys.InsertBatch(keys)
		if err != nil {
			t.Fatalf("round %d insert: %v", round, err)
		}
		for i := range recs {
			inserted = append(inserted, recs[i].ID)
		}
		if len(inserted) >= 10 {
			if err := sys.DeleteBatch(inserted[:5]); err != nil {
				t.Fatalf("round %d delete: %v", round, err)
			}
			inserted = inserted[5:]
		}
		catchUp(t, hub, rep)
		assertParity(t, sys, rep)
	}
}

// TestGapForcesSnapshot holds a replica back past the hub's retention
// window and checks the protocol pushes it through a full re-bootstrap,
// after which parity holds again.
func TestGapForcesSnapshot(t *testing.T) {
	sys, hub := newPrimary(t, 500, 4)
	hub.retain = 4 // tiny window so a short stall falls behind
	rep := bootstrap(t, hub)

	// Advance the primary far past the window while the replica sleeps.
	for i := 0; i < 12; i++ {
		if _, err := sys.InsertBatch([]record.Key{record.Key(i * 1000)}); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	gs, snap, _ := hub.Since(rep.Seq(), 0)
	if !snap {
		t.Fatalf("expected snapshotNeeded after falling %d groups behind, got %d groups", 12, len(gs))
	}
	// Feeding a non-contiguous stream directly must fail loudly, not
	// corrupt silently.
	tail, _, _ := hub.Since(sys.Seq()-2, 0)
	if err := rep.ApplyGroups(tail); !errors.Is(err, ErrGap) {
		t.Fatalf("applying gapped stream: got %v, want ErrGap", err)
	}
	catchUp(t, hub, rep)
	assertParity(t, sys, rep)
}

// TestIdempotentRedelivery re-applies already-folded groups and checks
// they are skipped rather than double-applied.
func TestIdempotentRedelivery(t *testing.T) {
	sys, hub := newPrimary(t, 300, 8)
	rep := bootstrap(t, hub)
	if _, err := sys.InsertBatch([]record.Key{1, 2, 3}); err != nil {
		t.Fatalf("insert: %v", err)
	}
	gs, _, _ := hub.Since(rep.Seq(), 0)
	if err := rep.ApplyGroups(gs); err != nil {
		t.Fatalf("first apply: %v", err)
	}
	if err := rep.ApplyGroups(gs); err != nil {
		t.Fatalf("redelivery: %v", err)
	}
	assertParity(t, sys, rep)
}

// TestServeWhileApplying races verified serving against a live feed and
// a primary write burst (run under -race). Every answer must verify and
// carry a non-decreasing generation stamp.
func TestServeWhileApplying(t *testing.T) {
	sys, hub := newPrimary(t, 1000, 8)
	rep := bootstrap(t, hub)

	stop := make(chan struct{})
	var bg, readers sync.WaitGroup

	// Primary writer. Bounded so the race-instrumented run stays cheap;
	// once the budget is spent it just waits for the readers.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; i < 800; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.InsertBatch([]record.Key{record.Key((i * 137) % record.KeyDomain)}); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	// Replica feed.
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			gs, snap, last := hub.Since(rep.Seq(), 4)
			if snap {
				snap, err := hub.Snapshot()
				if err != nil {
					t.Errorf("feed snapshot: %v", err)
					return
				}
				if err := rep.Reset(snap); err != nil {
					t.Errorf("feed reset: %v", err)
					return
				}
				continue
			}
			if err := rep.ApplyGroups(gs); err != nil {
				t.Errorf("feed apply: %v", err)
				return
			}
			if rep.Seq() >= last {
				time.Sleep(200 * time.Microsecond) // caught up; don't spin
			}
		}
	}()

	// Verified readers.
	for w := 0; w < 3; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			var lastGen uint64
			q := record.Range{Lo: record.Key(w * 1_000_000), Hi: record.Key(w*1_000_000 + 3_000_000)}
			for i := 0; i < 80; i++ {
				recs, vt, gen, err := rep.Query(q)
				if err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
				if _, err := (core.Client{}).Verify(q, recs, vt); err != nil {
					t.Errorf("reader %d: verification failed at gen %d: %v", w, gen, err)
					return
				}
				if gen < lastGen {
					t.Errorf("reader %d: generation went backwards: %d after %d", w, gen, lastGen)
					return
				}
				lastGen = gen
			}
		}(w)
	}

	// Let readers finish, then stop writer and feed.
	readers.Wait()
	close(stop)
	bg.Wait()

	catchUp(t, hub, rep)
	assertParity(t, sys, rep)
}
