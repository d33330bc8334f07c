// Golden test of the node-access accounting contract under TOM: the
// MB-Tree's nodes live as objects in its node table, and every access is
// charged as the page access it stands for. The counters below are what
// the provider counted when every node still had a page image behind a
// decoded-node cache, on the same interleaved queries and inserts.
package tom

import (
	"testing"

	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/workload"
)

func TestCacheAccessParityTOM(t *testing.T) {
	const n = 10_000
	ds, err := workload.Generate(workload.UNF, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Queries(32, workload.DefaultExtent, 4)
	sys, err := NewSystem(ds.Records)
	if err != nil {
		t.Fatal(err)
	}

	nextID := record.ID(5_000_000)
	voBytes := 0
	for i, q := range queries {
		out, err := sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if out.VerifyErr != nil {
			t.Fatalf("query %d failed verification: %v", i, out.VerifyErr)
		}
		voBytes += out.VO.Size()
		key := record.Key((i * 7919) % record.KeyDomain)
		if _, err := sys.Insert(key, nextID); err != nil {
			t.Fatal(err)
		}
		nextID++
	}

	if voBytes != 198990 {
		t.Errorf("VOs took %d bytes, want 198990", voBytes)
	}
	if got, want := sys.Provider.Stats(), (pagestore.Stats{Reads: 536, Writes: 1531, Allocs: 1334}); got != want {
		t.Errorf("provider access counters %+v, want %+v", got, want)
	}
}
