// Before/after benchmarks for the decoded-node buffer manager
// (internal/bufpool). Each operation runs against three storage
// configurations of the same dataset:
//
//	uncached          the seed's original behavior (every access reads
//	                  and decodes a page)
//	charge-all        decoded-node cache on, hits still charged — the
//	                  node-access counters match "uncached" exactly
//	charge-misses     decoded-node cache on, hits free — a conventional
//	                  buffer pool's accounting
//
// The accesses/op metric makes the accounting contract visible: it must
// be identical between "uncached" and "charge-all", and collapse under
// "charge-misses" to the index nodes that miss plus, for the SP queries,
// every heap page: the heap file is never cached, so its pages always
// count as reads.
package sae

import (
	"fmt"
	"testing"

	"sae/internal/bufpool"
	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/tom"
	"sae/internal/workload"
)

type cacheConfig struct {
	name   string
	pages  int
	policy bufpool.ChargePolicy
}

var cacheConfigs = []cacheConfig{
	{"uncached", 0, bufpool.ChargeAllAccesses},
	{"charge-all", bufpool.DefaultCapacity, bufpool.ChargeAllAccesses},
	{"charge-misses", bufpool.DefaultCapacity, bufpool.ChargeMissesOnly},
}

// BenchmarkBufpoolQuery measures the three query paths of the figure
// benchmarks — the TE's token generation, the SAE SP's range query and
// the TOM SP's VO-building query — under each cache configuration.
func BenchmarkBufpoolQuery(b *testing.B) {
	ds, err := workload.Generate(workload.UNF, benchN, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Queries(256, workload.DefaultExtent, 2)
	for _, cfg := range cacheConfigs {
		saeSys, err := core.NewSystemCache(ds.Records, cfg.pages, cfg.policy)
		if err != nil {
			b.Fatal(err)
		}
		tomSys, err := tom.NewSystemCache(ds.Records, cfg.pages, cfg.policy)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s/SAE-TE-VT", cfg.name), func(b *testing.B) {
			before := saeSys.TE.Stats()
			for i := 0; i < b.N; i++ {
				if _, _, err := saeSys.TE.GenerateVT(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			d := saeSys.TE.Stats().Sub(before)
			b.ReportMetric(float64(d.Accesses())/float64(b.N), "accesses/op")
		})
		b.Run(fmt.Sprintf("%s/SAE-SP-query", cfg.name), func(b *testing.B) {
			before := saeSys.SP.Stats()
			for i := 0; i < b.N; i++ {
				if _, _, err := saeSys.SP.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			d := saeSys.SP.Stats().Sub(before)
			b.ReportMetric(float64(d.Accesses())/float64(b.N), "accesses/op")
		})
		b.Run(fmt.Sprintf("%s/TOM-SP-query", cfg.name), func(b *testing.B) {
			before := tomSys.Provider.Stats()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := tomSys.Provider.Query(queries[i%len(queries)]); err != nil {
					b.Fatal(err)
				}
			}
			d := tomSys.Provider.Stats().Sub(before)
			b.ReportMetric(float64(d.Accesses())/float64(b.N), "accesses/op")
		})
	}
}

// BenchmarkBufpoolUpdate measures owner-driven inserts flowing through
// both SAE parties (B+-tree + heap at the SP, XB-Tree at the TE) under
// each cache configuration.
func BenchmarkBufpoolUpdate(b *testing.B) {
	ds, err := workload.Generate(workload.UNF, 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range cacheConfigs {
		b.Run(cfg.name, func(b *testing.B) {
			sys, err := core.NewSystemCache(ds.Records, cfg.pages, cfg.policy)
			if err != nil {
				b.Fatal(err)
			}
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
