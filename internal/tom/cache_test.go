// Parity test for the decoded-node cache's accounting contract under
// TOM: every hit is charged, so the provider's node-access counters must
// be bit-identical to an uncached run, and every VO the same size.
package tom

import (
	"testing"

	"sae/internal/record"
	"sae/internal/workload"
)

// buildSystem is NewSystem, with the provider's cache detached unless
// cached: every access then reads and decodes its page — the reference
// the cached path is held to.
func buildSystem(tb testing.TB, sorted []record.Record, cached bool) *System {
	tb.Helper()
	sys, err := NewSystem(sorted)
	if err != nil {
		tb.Fatal(err)
	}
	if !cached {
		sys.Provider.tree.UseCache(nil)
	}
	return sys
}

func TestCacheAccessParityTOM(t *testing.T) {
	const n = 10_000
	ds, err := workload.Generate(workload.UNF, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.Queries(32, workload.DefaultExtent, 4)
	cached, uncached := buildSystem(t, ds.Records, true), buildSystem(t, ds.Records, false)

	nextID := record.ID(5_000_000)
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
		if rc.VO.Size() != ru.VO.Size() {
			t.Fatalf("query %d: VO sizes diverged (%d vs %d)", i, rc.VO.Size(), ru.VO.Size())
		}
		key := record.Key((i * 7919) % record.KeyDomain)
		if _, err := cached.Insert(key, nextID); err != nil {
			t.Fatal(err)
		}
		if _, err := uncached.Insert(key, nextID); err != nil {
			t.Fatal(err)
		}
		nextID++
	}

	if got, want := cached.Provider.Stats(), uncached.Provider.Stats(); got != want {
		t.Errorf("provider access counters diverged: cached %+v, uncached %+v", got, want)
	}
	if cached.Provider.CacheStats().Hits == 0 {
		t.Error("cached provider reported zero hits — parity is vacuous")
	}
	if s := uncached.Provider.CacheStats(); s.Hits+s.Misses != 0 {
		t.Errorf("detached provider cache still consulted: %+v", s)
	}
}

// BenchmarkBufpoolQuery measures the TOM provider's VO-building query
// with and without the decoded-node cache; accesses/op must be identical
// between the two.
func BenchmarkBufpoolQuery(b *testing.B) {
	ds, err := workload.Generate(workload.UNF, 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Queries(256, workload.DefaultExtent, 2)
	for _, cached := range []bool{false, true} {
		name := "uncached/TOM-SP-query"
		if cached {
			name = "cached/TOM-SP-query"
		}
		sys := buildSystem(b, ds.Records, cached)
		b.Run(name, func(b *testing.B) {
			before := sys.Provider.Stats()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := sys.Provider.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			d := sys.Provider.Stats().Sub(before)
			b.ReportMetric(float64(d.Accesses())/float64(b.N), "accesses/op")
		})
	}
}
