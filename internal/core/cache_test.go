// Golden test of the node-access accounting contract: a tree's nodes live
// as objects in its node table, and every access is charged as the page
// access it stands for. The counters below are what the parties counted
// when every node still had a page image behind a decoded-node cache, on
// the same interleaved queries, inserts and deletes; the paper's Figures
// 5-8 rest on them.
package core

import (
	"testing"

	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/workload"
)

func TestCacheAccessParitySAE(t *testing.T) {
	const n = 20_000
	ds, err := workload.Generate(workload.UNF, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Queries(64, workload.DefaultExtent, 3)
	sys, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatal(err)
	}

	// Interleave queries with updates so splits, appends and deletes are
	// all exercised.
	records := 0
	for i, q := range queries {
		out, err := sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if out.VerifyErr != nil {
			t.Fatalf("query %d failed verification: %v", i, out.VerifyErr)
		}
		records += len(out.Result)
		key := record.Key((i * 104729) % record.KeyDomain)
		rec, err := sys.Insert(key)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := sys.Delete(rec.ID); err != nil {
				t.Fatal(err)
			}
		}
	}

	if records != 6378 {
		t.Errorf("queries returned %d records, want 6378", records)
	}
	if got, want := sys.SP.Stats(), (pagestore.Stats{Reads: 3766, Writes: 2873, Allocs: 2592}); got != want {
		t.Errorf("SP access counters %+v, want %+v", got, want)
	}
	if got, want := sys.TE.Stats(), (pagestore.Stats{Reads: 647, Writes: 714, Allocs: 394}); got != want {
		t.Errorf("TE access counters %+v, want %+v", got, want)
	}
	if s := sys.SP.CacheStats(); s.Hits == 0 || s.Misses != 0 {
		t.Errorf("SP cache stats %+v, want every node read a hit", s)
	}
	if err := sys.TE.Validate(); err != nil {
		t.Errorf("TE invalid after workload: %v", err)
	}
}
