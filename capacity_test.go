// Sized-cache behavioral test: the flat DefaultCapacity trails the index
// working set of large datasets, so a big party thrashes its LRU.
// bufpool.CapacityFor sizes each party's decoded-node cache from the
// dataset (or, sharded, from each partition) at load time; this test
// builds a deployment whose index working set exceeds DefaultCapacity and
// proves the sized caches serve a warmed sweep without a single miss or
// eviction where the flat default keeps faulting.
package sae

import (
	"testing"

	"sae/internal/bufpool"
	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/workload"
)

// The caches hold index nodes only (heap pages are served from their page
// bytes), and the TE's XB-Tree is the densest index at 120 entries per
// leaf: thrashN records give it ~1 500 nodes, past DefaultCapacity (1024),
// while the SP's B+-tree (~450 nodes) fits either way.
const thrashN = 180_000

// sweep runs one full pass of narrow verified range queries covering the
// whole key domain. The queries' boundaries fall every ~5 500 keys,
// closer than the ~6 700 keys an XB-Tree leaf spans, so the token
// descents touch every TE leaf; each query's leaf-chain walk stays well
// under exec.ScanThreshold, so every node goes through normal LRU
// admission.
func sweep(t *testing.T, sys *core.System) {
	t.Helper()
	const width = 11_000 // ~200 records per query
	for lo := 0; lo < record.KeyDomain; lo += width {
		hi := min(lo+width-1, record.KeyDomain-1)
		out, err := sys.Query(record.Range{Lo: record.Key(lo), Hi: record.Key(hi)})
		if err != nil {
			t.Fatal(err)
		}
		if out.VerifyErr != nil {
			t.Fatal(out.VerifyErr)
		}
	}
}

// cacheStats sums both parties' cache counters.
func cacheStats(sys *core.System) bufpool.Stats {
	sp, te := sys.SP.CacheStats(), sys.TE.CacheStats()
	return bufpool.Stats{
		Hits:      sp.Hits + te.Hits,
		Misses:    sp.Misses + te.Misses,
		Evictions: sp.Evictions + te.Evictions,
	}
}

func TestSizedCacheStopsThrashing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 180K-record deployment")
	}
	ds, err := workload.Generate(workload.UNF, thrashN, 314)
	if err != nil {
		t.Fatal(err)
	}
	build := func(pages int) *core.System {
		sys, err := core.NewSystemCache(ds.Records, pages, bufpool.ChargeAllAccesses)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// Flat default: working set > capacity, so a warmed sequential sweep
	// still faults (the classic LRU sweep pathology).
	flat := build(bufpool.DefaultCapacity)
	sweep(t, flat) // warm
	warm := cacheStats(flat)
	sweep(t, flat)
	flatMisses := cacheStats(flat).Misses - warm.Misses
	if flatMisses == 0 {
		t.Fatalf("flat default did not thrash at n=%d; raise thrashN so the regression stays observable", thrashN)
	}

	// Sized from the dataset: the whole working set fits, so the second
	// sweep is all hits — no misses, no evictions.
	sized := build(bufpool.CapacityFor(thrashN))
	sweep(t, sized) // warm
	warm = cacheStats(sized)
	sweep(t, sized)
	after := cacheStats(sized)
	if d := after.Misses - warm.Misses; d != 0 {
		t.Fatalf("sized cache missed %d times on a warmed sweep (flat default: %d)", d, flatMisses)
	}
	if d := after.Evictions - warm.Evictions; d != 0 {
		t.Fatalf("sized cache evicted %d nodes on a warmed sweep", d)
	}
	t.Logf("warmed sweep misses: flat default %d, sized 0", flatMisses)
}
