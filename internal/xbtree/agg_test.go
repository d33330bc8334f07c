package xbtree

import (
	"math/rand"
	"testing"

	"sae/internal/agg"
	"sae/internal/pagestore"
	"sae/internal/record"
)

// refAgg computes the expected aggregate by brute force over the reference.
func refAgg(r *reference, lo, hi record.Key) agg.Agg {
	var a agg.Agg
	for k, ts := range r.byKey {
		if k >= lo && k <= hi {
			a = a.Merge(agg.OfKey(k, uint64(len(ts))))
		}
	}
	return a
}

func checkAggs(t *testing.T, tree *Tree, ref *reference, domain int, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		lo := record.Key(rng.Intn(domain))
		hi := lo + record.Key(rng.Intn(domain/4+1))
		got, err := tree.AggregateCtx(nil, lo, hi)
		if err != nil {
			t.Fatalf("Aggregate(%d,%d): %v", lo, hi, err)
		}
		if want := refAgg(ref, lo, hi); got.Normalize() != want.Normalize() {
			t.Fatalf("Aggregate(%d,%d) = %v, want %v", lo, hi, got, want)
		}
	}
}

func TestAggregateParityBulkload(t *testing.T) {
	ref := populate(3000, 10_000, 31)
	tree, err := Bulkload(pagestore.NewMem(), ref.bulkItems())
	if err != nil {
		t.Fatalf("Bulkload: %v", err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	checkAggs(t, tree, ref, 10_000, 200, 32)
	// Full domain, point range, empty range.
	got, err := tree.AggregateCtx(nil, 0, record.KeyDomain)
	if err != nil {
		t.Fatalf("Aggregate full: %v", err)
	}
	if want := refAgg(ref, 0, record.KeyDomain); got.Normalize() != want.Normalize() {
		t.Fatalf("full aggregate = %v, want %v", got, want)
	}
	if got, _ := tree.AggregateCtx(nil, 9, 3); !got.Empty() {
		t.Fatalf("inverted range aggregate = %v, want empty", got)
	}
}

func TestAggregateMaintenanceRandomized(t *testing.T) {
	tree, err := New(pagestore.NewMem())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ref := newReference()
	rng := rand.New(rand.NewSource(33))
	var nextID record.ID
	type live struct {
		k  record.Key
		id record.ID
	}
	var tuples []live
	for step := 0; step < 5000; step++ {
		if len(tuples) == 0 || rng.Intn(3) != 0 {
			k := record.Key(rng.Intn(1500))
			tup := tupleFor(nextID)
			nextID++
			if err := tree.InsertCtx(nil, k, tup); err != nil {
				t.Fatalf("Insert: %v", err)
			}
			ref.insert(k, tup)
			tuples = append(tuples, live{k: k, id: tup.ID})
		} else {
			i := rng.Intn(len(tuples))
			v := tuples[i]
			if err := tree.DeleteCtx(nil, v.k, v.id); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			ref.remove(v.k, v.id)
			tuples = append(tuples[:i], tuples[i+1:]...)
		}
	}
	if err := tree.Validate(); err != nil {
		t.Fatalf("Validate after workload: %v", err)
	}
	checkAggs(t, tree, ref, 1500, 150, 34)
}
