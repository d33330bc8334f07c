package bptree

import (
	"math/rand"
	"testing"

	"sae/internal/agg"
	"sae/internal/exec"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// refAgg folds the reference entry list the way a client would fold a
// verified range scan.
func refAgg(entries []Entry, lo, hi record.Key) agg.Agg {
	var a agg.Agg
	for _, e := range entries {
		if e.Key >= lo && e.Key <= hi {
			a = a.Add(e.Key)
		}
	}
	return a
}

func TestAggregateParityBulkload(t *testing.T) {
	keys := make([]record.Key, 5000)
	rng := rand.New(rand.NewSource(7))
	for i := range keys {
		keys[i] = record.Key(rng.Intn(50_000))
	}
	entries := sortedEntries(keys)
	tree, err := Bulkload(pagestore.NewMem(), entries)
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	for trial := 0; trial < 200; trial++ {
		lo := record.Key(rng.Intn(50_000))
		hi := lo + record.Key(rng.Intn(10_000))
		got, err := tree.AggregateCtx(nil, lo, hi)
		if err != nil {
			t.Fatalf("Aggregate(%d,%d): %v", lo, hi, err)
		}
		if want := refAgg(entries, lo, hi); got.Normalize() != want.Normalize() {
			t.Fatalf("Aggregate(%d,%d) = %v, want %v", lo, hi, got, want)
		}
	}
	// Whole domain and inverted/empty ranges.
	got, err := tree.AggregateCtx(nil, 0, record.KeyDomain)
	if err != nil {
		t.Fatalf("Aggregate full: %v", err)
	}
	if want := refAgg(entries, 0, record.KeyDomain); got.Normalize() != want.Normalize() {
		t.Fatalf("full-domain aggregate = %v, want %v", got, want)
	}
	if got, _ := tree.AggregateCtx(nil, 10, 5); !got.Empty() {
		t.Fatalf("inverted range aggregate = %v, want empty", got)
	}
}

func TestAggregateMaintenanceRandomized(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	live := map[Entry]bool{}
	next := 0
	for step := 0; step < 6000; step++ {
		if len(live) == 0 || rng.Intn(3) != 0 {
			e := Entry{Key: record.Key(rng.Intn(2_000)), RID: ridFor(next)}
			next++
			if err := tree.InsertCtx(nil, e, struct{}{}); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			live[e] = true
		} else {
			for e := range live {
				if err := tree.DeleteCtx(nil, e); err != nil {
					t.Fatalf("Delete: %v", err)
				}
				delete(live, e)
				break
			}
		}
	}
	// Validate recomputes every annotation bottom-up.
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after workload: %v", err)
	}
	entries := make([]Entry, 0, len(live))
	for e := range live {
		entries = append(entries, e)
	}
	for trial := 0; trial < 100; trial++ {
		lo := record.Key(rng.Intn(2_000))
		hi := lo + record.Key(rng.Intn(500))
		got, err := tree.AggregateCtx(nil, lo, hi)
		if err != nil {
			t.Fatalf("Aggregate(%d,%d): %v", lo, hi, err)
		}
		if want := refAgg(entries, lo, hi); got.Normalize() != want.Normalize() {
			t.Fatalf("Aggregate(%d,%d) = %v, want %v", lo, hi, got, want)
		}
	}
}

func TestAggregateTouchesLogNodes(t *testing.T) {
	// 100K keys, ~1000-key range: the canonical cover must read O(log n)
	// nodes, not the O(result/LeafCapacity) a leaf scan would.
	entries := make([]Entry, 100_000)
	for i := range entries {
		entries[i] = Entry{Key: record.Key(i), RID: ridFor(i)}
	}
	tree, err := Bulkload(pagestore.NewMem(), entries)
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	ctx := exec.NewContext()
	a, err := tree.AggregateCtx(ctx, 40_000, 41_000)
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	// The canonical cover recurses along at most two root-to-leaf paths.
	if reads := ctx.Stats().Reads; reads > int64(2*tree.Height()) {
		t.Fatalf("aggregate read %d nodes, want <= %d (2*height)", reads, 2*tree.Height())
	}
	scanCtx := exec.NewContext()
	if _, err := tree.RangeAppendCtx(scanCtx, 40_000, 41_000, nil); err != nil {
		t.Fatalf("RangeCtx: %v", err)
	}
	if ctx.Stats().Reads >= scanCtx.Stats().Reads {
		t.Fatalf("aggregate reads (%d) not below scan reads (%d)", ctx.Stats().Reads, scanCtx.Stats().Reads)
	}
	if a.Count != 1001 || a.Min != 40_000 || a.Max != 41_000 {
		t.Fatalf("Aggregate = %v, want count=1001 min=40000 max=41000", a)
	}
	if a.Sum != 1001*40_500 {
		t.Fatalf("Sum = %d, want %d", a.Sum, 1001*40_500)
	}
}
