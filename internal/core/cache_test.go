// Parity tests for the decoded-node cache's accounting contract: every
// hit is charged, so every node-access counter must be bit-identical to
// an uncached run — queries, token generation and updates alike — and
// all results must verify. This is what keeps the paper's Figures 5-8
// shapes intact while the cache removes the CPU cost. The benchmarks
// below make the same contract visible as accesses/op.
package core

import (
	"fmt"
	"testing"

	"sae/internal/record"
	"sae/internal/workload"
)

// buildSystem is NewSystem, with both parties' caches detached unless
// cached: every access then reads and decodes its page — the reference
// the cached path is held to.
func buildSystem(tb testing.TB, sorted []record.Record, cached bool) *System {
	tb.Helper()
	sys, err := NewSystem(sorted)
	if err != nil {
		tb.Fatal(err)
	}
	if !cached {
		sys.SP.index.UseCache(nil)
		sys.TE.tree.UseCache(nil)
	}
	return sys
}

func TestCacheAccessParitySAE(t *testing.T) {
	const n = 20_000
	ds, err := workload.Generate(workload.UNF, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Queries(64, workload.DefaultExtent, 3)
	cached, uncached := buildSystem(t, ds.Records, true), buildSystem(t, ds.Records, false)

	// Interleave queries with updates so splits, appends and deletes are
	// exercised on both systems identically.
	for i, q := range queries {
		rc, err := cached.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		ru, err := uncached.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if rc.VerifyErr != nil || ru.VerifyErr != nil {
			t.Fatalf("query %d failed verification: cached=%v uncached=%v", i, rc.VerifyErr, ru.VerifyErr)
		}
		if len(rc.Result) != len(ru.Result) {
			t.Fatalf("query %d: cached %d records, uncached %d", i, len(rc.Result), len(ru.Result))
		}
		if rc.VT != ru.VT {
			t.Fatalf("query %d: verification tokens diverged", i)
		}
		key := record.Key((i * 104729) % record.KeyDomain)
		rec1, err := cached.Insert(key)
		if err != nil {
			t.Fatal(err)
		}
		rec2, err := uncached.Insert(key)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := cached.Delete(rec1.ID); err != nil {
				t.Fatal(err)
			}
			if err := uncached.Delete(rec2.ID); err != nil {
				t.Fatal(err)
			}
		}
	}

	if got, want := cached.SP.Stats(), uncached.SP.Stats(); got != want {
		t.Errorf("SP access counters diverged: cached %+v, uncached %+v", got, want)
	}
	if got, want := cached.TE.Stats(), uncached.TE.Stats(); got != want {
		t.Errorf("TE access counters diverged: cached %+v, uncached %+v", got, want)
	}
	if cached.SP.CacheStats().Hits == 0 || cached.TE.CacheStats().Hits == 0 {
		t.Error("a cached party reported zero hits — cache not engaged, parity is vacuous")
	}
	if s := uncached.SP.CacheStats(); s.Hits+s.Misses != 0 {
		t.Errorf("detached SP cache still consulted: %+v", s)
	}
	if err := cached.TE.Validate(); err != nil {
		t.Errorf("cached TE invalid after workload: %v", err)
	}
}

// benchN is the dataset cardinality for the cache benchmarks.
const benchN = 100_000

// BenchmarkBufpoolQuery measures the two SAE query paths of the figure
// benchmarks — the TE's token generation and the SP's range query — with
// and without the decoded-node cache. accesses/op must be identical
// between the two; TOM's query is benchmarked in package tom.
func BenchmarkBufpoolQuery(b *testing.B) {
	ds, err := workload.Generate(workload.UNF, benchN, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Queries(256, workload.DefaultExtent, 2)
	for _, cached := range []bool{false, true} {
		sys, name := buildSystem(b, ds.Records, cached), cacheName(cached)
		b.Run(fmt.Sprintf("%s/SAE-TE-VT", name), func(b *testing.B) {
			before := sys.TE.Stats()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.TE.GenerateVT(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			d := sys.TE.Stats().Sub(before)
			b.ReportMetric(float64(d.Accesses())/float64(b.N), "accesses/op")
		})
		b.Run(fmt.Sprintf("%s/SAE-SP-query", name), func(b *testing.B) {
			before := sys.SP.Stats()
			for i := 0; i < b.N; i++ {
				if _, _, err := sys.SP.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			d := sys.SP.Stats().Sub(before)
			b.ReportMetric(float64(d.Accesses())/float64(b.N), "accesses/op")
		})
	}
}

// BenchmarkBufpoolUpdate measures owner-driven inserts flowing through
// both SAE parties (B+-tree + heap at the SP, XB-Tree at the TE) with and
// without the decoded-node cache.
func BenchmarkBufpoolUpdate(b *testing.B) {
	ds, err := workload.Generate(workload.UNF, 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, cached := range []bool{false, true} {
		b.Run(cacheName(cached), func(b *testing.B) {
			sys := buildSystem(b, ds.Records, cached)
			spBefore := sys.SP.Stats()
			teBefore := sys.TE.Stats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sys.Insert(record.Key(i % record.KeyDomain)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			total := sys.SP.Stats().Sub(spBefore).Accesses() + sys.TE.Stats().Sub(teBefore).Accesses()
			b.ReportMetric(float64(total)/float64(b.N), "accesses/op")
		})
	}
}

func cacheName(cached bool) string {
	if cached {
		return "cached"
	}
	return "uncached"
}
