package replica

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"sae/internal/core"
	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/wal"
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

// snapshotOf returns the snapshot bytes h's primary serves a replica.
func snapshotOf(h *Hub) ([]byte, error) {
	var b bytes.Buffer
	err := h.WriteSnapshot(&b)
	return b.Bytes(), err
}

func bootstrap(t *testing.T, h *Hub) *Replica {
	t.Helper()
	snap, err := snapshotOf(h)
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
		gs, snap, last := since(t, h, r.Seq(), 8)
		if snap {
			snap, err := snapshotOf(h)
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

// since decodes what a pull of up to max groups above after ships: the
// hub's frames, through the one group decoder.
func since(t testing.TB, h *Hub, after uint64, max int) (gs []wal.Group, snapshotNeeded bool, last uint64) {
	b, snapshotNeeded, last := h.AppendSince(nil, after, max)
	gs, n := wal.DecodeGroups(b)
	if n != len(b) {
		t.Errorf("the hub's frames break at byte %d of %d", n, len(b))
	}
	return gs, snapshotNeeded, last
}

// frameSize is the length of a group's WAL frames.
func frameSize(t testing.TB, ops []wal.Op) int {
	b, err := wal.EncodeGroup(nil, 0, ops)
	if err != nil {
		t.Fatal(err)
	}
	return len(b)
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
		ptok, _, err := sys.TE.AggTokenCtx(exec.NewContext(), q)
		if err != nil {
			t.Fatalf("primary agg token %v: %v", q, err)
		}
		rtok, _, err := r.TE().AggTokenCtx(exec.NewContext(), q)
		if err != nil {
			t.Fatalf("replica agg token %v: %v", q, err)
		}
		if !bytes.Equal(ptok.AppendTo(nil), rtok.AppendTo(nil)) {
			t.Fatalf("aggregate token mismatch over %v", q)
		}
	}
	if got, want := r.Count(), sys.SP.Count(); got != want {
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
	gs, snap, _ := since(t, hub, rep.Seq(), 0)
	if !snap {
		t.Fatalf("expected snapshotNeeded after falling %d groups behind, got %d groups", 12, len(gs))
	}
	// Feeding a non-contiguous stream directly must fail loudly, not
	// corrupt silently.
	tail, _, _ := since(t, hub, sys.Seq()-2, 0)
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
	gs, _, _ := since(t, hub, rep.Seq(), 0)
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
			gs, snap, last := since(t, hub, rep.Seq(), 4)
			if snap {
				snap, err := snapshotOf(hub)
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

// reuseOps is submission b of writer w in TestSubmitSliceReuse, in a
// slice of its own: a delete of the first record the writer's previous
// submission inserted (from the second on), then batch-1 inserts. Record
// ids encode (w, b, i).
func reuseOps(w, b, batch int) []wal.Op {
	id := func(b, i int) record.ID { return record.ID(1<<40 | w<<20 | b<<8 | i) }
	key := func(id record.ID) record.Key { return record.Key(uint64(id) * 7919 % record.KeyDomain) }
	var ops []wal.Op
	if b > 0 {
		ops = append(ops, wal.DeleteOp(id(b-1, 0), key(id(b-1, 0))))
	}
	for i := 0; i < batch-1; i++ {
		ops = append(ops, wal.InsertOp(record.Synthesize(id(b, i), key(id(b, i)))))
	}
	return ops
}

// reuseOf names the submission op belongs to, when it is a submission's
// first op.
func reuseOf(op wal.Op) (w, b int) {
	if op.Kind == wal.OpDelete {
		return int(op.ID>>20) & 0xFFFFF, int(op.ID>>8)&0xFFF + 1
	}
	return int(op.Rec.ID>>20) & 0xFFFFF, int(op.Rec.ID>>8) & 0xFFF
}

// TestSubmitSliceReuse: SubmitOps keeps nothing of the caller's slice.
// Four writers each submit every batch from one slice and overwrite it
// with junk as soon as SubmitOps returns, while a replica tails the hub.
// The hub's groups must hold exactly the batches a run with a fresh
// slice per batch submits, each whole within one group; and the primary,
// the tailing replica, the primary reopened from its WAL and a replica
// that applies those fresh batches in the hub's grouping must all agree,
// record for record and token for token.
func TestSubmitSliceReuse(t *testing.T) {
	const writers, batches, batch = 4, 30, 6
	ds, err := workload.Generate(workload.UNF, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// A cap of a few batches makes groups coalesce and straddle it.
	sys, err := core.OpenDurableSystem(dir, ds.Records, 2*batch)
	if err != nil {
		t.Fatal(err)
	}
	hub := Attach(sys, writers*batches)
	tail, ref := bootstrap(t, hub), bootstrap(t, hub)

	done := make(chan struct{})
	tailed := make(chan error, 1)
	go func() {
		for {
			gs, snap, _ := since(t, hub, tail.Seq(), 4)
			if snap {
				tailed <- errors.New("the hub's window moved past the tailer")
				return
			}
			if err := tail.ApplyGroups(gs); err != nil {
				tailed <- err
				return
			}
			select {
			case <-done:
				tailed <- nil
				return
			default:
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops := make([]wal.Op, 0, batch)
			junk := wal.InsertOp(record.Synthesize(1<<62, 0))
			for b := 0; b < batches; b++ {
				ops = append(ops[:0], reuseOps(w, b, batch)...)
				if err := sys.Committer().SubmitOps(ops); err != nil {
					t.Error(err)
					return
				}
				for i := range ops {
					ops[i] = junk
				}
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if err := <-tailed; err != nil {
		t.Fatalf("tailing the hub: %v", err)
	}
	if t.Failed() {
		return
	}

	gs, snap, last := since(t, hub, 0, 0)
	if snap || last != sys.Seq() || len(gs) == 0 || gs[len(gs)-1].Seq != last {
		t.Fatalf("hub holds %d groups up to %d (snapshot needed %v), primary at %d", len(gs), last, snap, sys.Seq())
	}
	seen := make(map[[2]int]bool)
	fresh := make([]wal.Group, len(gs))
	for gi, g := range gs {
		fresh[gi].Seq = g.Seq
		for ops := g.Ops; len(ops) > 0; {
			w, b := reuseOf(ops[0])
			want := reuseOps(w, b, batch)
			if w >= writers || b >= batches || seen[[2]int{w, b}] || len(ops) < len(want) {
				t.Fatalf("group %d: op %v starts no whole unseen submission", g.Seq, ops[0].Kind)
			}
			for i := range want {
				if ops[i] != want[i] {
					t.Fatalf("group %d: op %d of writer %d's batch %d differs from what was submitted", g.Seq, i, w, b)
				}
			}
			seen[[2]int{w, b}] = true
			fresh[gi].Ops = append(fresh[gi].Ops, want...)
			ops = ops[len(want):]
		}
	}
	if len(seen) != writers*batches {
		t.Fatalf("the hub holds %d submissions, want %d", len(seen), writers*batches)
	}

	catchUp(t, hub, tail)
	if err := ref.ApplyGroups(fresh); err != nil {
		t.Fatal(err)
	}
	assertParity(t, sys, tail)
	assertParity(t, sys, ref)
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := core.OpenDurableSystem(dir, ds.Records, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	assertParity(t, reopened, ref)
}

// TestHubHoldsWALBytes: a commit group has one byte form. A hub that
// retains every group a primary commits, inserts and deletes, holds
// exactly the bytes of the primary's WAL, which a pull ships as they are.
func TestHubHoldsWALBytes(t *testing.T) {
	ds, err := workload.Generate(workload.UNF, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sys, err := core.OpenDurableSystem(dir, ds.Records, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	hub := Attach(sys, 64)
	for b := 0; b < 40; b++ {
		if err := sys.Committer().SubmitOps(reuseOps(0, b, 2+b%5)); err != nil {
			t.Fatal(err)
		}
	}
	got, snap, last := hub.AppendSince(nil, 0, 0)
	log, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if snap || last != 40 || sys.Seq() != 40 {
		t.Fatalf("hub at %d (snapshot needed %v), primary at %d, want both at 40", last, snap, sys.Seq())
	}
	if !bytes.Equal(got, log) {
		t.Fatalf("the hub holds %d bytes that differ from the WAL's %d", len(got), len(log))
	}
}

// TestHubLogReuse commits groups of varying sizes through a hub that
// retains 5: every pull must return exactly the retained groups, a
// tailer that fell behind the window must be sent to a snapshot, and the
// hub's log must reuse its evicted front rather than grow with the
// stream — at most twice what it retains plus one group.
func TestHubLogReuse(t *testing.T) {
	const retain = 5
	sys, _ := newPrimary(t, 500, 0)
	hub := Attach(sys, retain)
	var sent []wal.Group
	maxLog := 0
	for b := 0; b < 60; b++ {
		ops := reuseOps(0, b, 2+b*7%11)
		if err := sys.Committer().SubmitOps(ops); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, wal.Group{Seq: sys.Seq(), Ops: ops})
		kept := sent[max(0, len(sent)-retain):]
		retained := 0
		for _, g := range kept {
			retained += frameSize(t, g.Ops)
		}
		maxLog = max(maxLog, 2*(retained+frameSize(t, ops)))
		if c := cap(hub.log); c > maxLog {
			t.Fatalf("after group %d the hub's log holds %d bytes of capacity for %d retained", sys.Seq(), c, retained)
		}
		gs, snap, last := since(t, hub, kept[0].Seq-1, 0)
		if snap || last != sys.Seq() || len(gs) != len(kept) {
			t.Fatalf("after group %d: %d groups, snapshot needed %v, last %d", sys.Seq(), len(gs), snap, last)
		}
		for i := range kept {
			if gs[i].Seq != kept[i].Seq || !slices.Equal(gs[i].Ops, kept[i].Ops) {
				t.Fatalf("after group %d: pulled group %d differs from the committed one", sys.Seq(), kept[i].Seq)
			}
		}
		if gs, _, _ := since(t, hub, kept[0].Seq, 2); len(gs) != min(2, len(kept)-1) {
			t.Fatalf("a pull of at most 2 returned %d groups", len(gs))
		}
		if _, snap, _ := since(t, hub, kept[0].Seq-2, 0); snap != (len(sent) > retain) {
			t.Fatalf("after group %d a tailer one group behind the window: snapshot needed %v", sys.Seq(), snap)
		}
	}
}
