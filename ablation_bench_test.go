// Ablation and extension benchmarks: design choices DESIGN.md calls out
// that the paper's figures do not directly measure — the in-memory TE
// index, the effect of a buffer pool at the SP, update costs under both
// models, and the primitive operations everything is built from.
package sae

import (
	"testing"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/memxb"
	"sae/internal/pagestore"
	"sae/internal/record"
	"sae/internal/tom"
	"sae/internal/workload"
	"sae/internal/xbtree"
)

// BenchmarkTEIndexAblation compares token generation on the disk-based
// XB-Tree (charged node accesses) against the main-memory XOR-Fenwick
// index (pure CPU) — the paper's §IV suggestion that the TE fits in RAM.
func BenchmarkTEIndexAblation(b *testing.B) {
	ds, err := workload.Generate(workload.UNF, benchN, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Queries(256, workload.DefaultExtent, 2)

	b.Run("disk-xbtree", func(b *testing.B) {
		counting := pagestore.NewCounting(pagestore.NewMem())
		var items []xbtree.KeyTuples
		for i := range ds.Records {
			r := &ds.Records[i]
			tup := xbtree.Tuple{ID: r.ID, Digest: digest.OfRecord(r)}
			if len(items) > 0 && items[len(items)-1].Key == r.Key {
				items[len(items)-1].Tuples = append(items[len(items)-1].Tuples, tup)
			} else {
				items = append(items, xbtree.KeyTuples{Key: r.Key, Tuples: []xbtree.Tuple{tup}})
			}
		}
		tree, err := xbtree.Bulkload(counting, items)
		if err != nil {
			b.Fatal(err)
		}
		counting.Reset()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, err := tree.GenerateVTCtx(nil, q.Lo, q.Hi); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(counting.Stats().Accesses())/float64(b.N), "accesses/op")
	})

	b.Run("mem-fenwick", func(b *testing.B) {
		items := map[record.Key][]memxb.Tuple{}
		for i := range ds.Records {
			r := &ds.Records[i]
			items[r.Key] = append(items[r.Key], memxb.Tuple{ID: r.ID, Digest: digest.OfRecord(r)})
		}
		idx := memxb.New(items)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			_ = idx.GenerateVT(q.Lo, q.Hi)
		}
		b.ReportMetric(0, "accesses/op")
		b.ReportMetric(float64(idx.Bytes())/(1<<20), "index-MB")
	})
}

// BenchmarkBufferPoolAblation measures how much of a query stream's page
// reads a buffer pool holding the SAE SP's whole index would absorb. The
// B+-tree's node table holds every node, and the SP counts each node read
// as a cache hit. Every access is charged, so reads/op is what the SP
// reads with no pool at all; faults/op (reads less hits, the heap file's
// pages) is what reaches the disk when index reads are free. Headline
// experiments charge every access, because the paper does.
func BenchmarkBufferPoolAblation(b *testing.B) {
	ds, err := workload.Generate(workload.UNF, benchN, 1)
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Queries(256, workload.DefaultExtent, 2)
	counting := pagestore.NewCounting(pagestore.NewMem())
	sp := core.NewServiceProvider(counting)
	if err := sp.Load(ds.Records); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	reads, hits := counting.Stats().Reads, sp.CacheStats().Hits
	for i := 0; i < b.N; i++ {
		if _, _, err := sp.Query(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
	reads, hits = counting.Stats().Reads-reads, sp.CacheStats().Hits-hits
	b.ReportMetric(float64(reads)/float64(b.N), "reads/op")
	b.ReportMetric(float64(reads-hits)/float64(b.N), "faults/op")
}

// BenchmarkUpdates contrasts owner-update costs: SAE forwards to the SP's
// B+-tree and the TE's XB-Tree; TOM rewrites a Merkle path and re-signs
// the root with RSA on every change.
func BenchmarkUpdates(b *testing.B) {
	ds, err := workload.Generate(workload.UNF, 50_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("SAE-insert", func(b *testing.B) {
		sys, err := core.NewSystem(ds.Records)
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
	b.Run("TOM-insert", func(b *testing.B) {
		sys, err := tom.NewSystem(ds.Records)
		if err != nil {
			b.Fatal(err)
		}
		before := sys.Provider.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sys.Insert(record.Key(i%record.KeyDomain), record.ID(5_000_000+i)); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(sys.Provider.Stats().Sub(before).Accesses())/float64(b.N), "accesses/op")
	})
}

// BenchmarkPrimitives covers the crypto and tree building blocks.
func BenchmarkPrimitives(b *testing.B) {
	r := record.Synthesize(1, 42)
	b.Run("digest-record", func(b *testing.B) {
		b.SetBytes(record.Size)
		for i := 0; i < b.N; i++ {
			_ = digest.OfRecord(&r)
		}
	})
	b.Run("digest-xor", func(b *testing.B) {
		d1 := digest.OfBytes([]byte("a"))
		d2 := digest.OfBytes([]byte("b"))
		for i := 0; i < b.N; i++ {
			d1 = d1.XOR(d2)
		}
	})
	b.Run("xbtree-insert", func(b *testing.B) {
		tree, err := xbtree.New(pagestore.NewMem())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tup := xbtree.Tuple{ID: record.ID(i + 1), Digest: digest.OfBytes([]byte{byte(i), byte(i >> 8)})}
			if err := tree.InsertCtx(nil, record.Key(i*7%record.KeyDomain), tup); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("memxb-insert", func(b *testing.B) {
		idx := memxb.New(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx.Insert(record.Key(i*7%record.KeyDomain), memxb.Tuple{ID: record.ID(i + 1)})
		}
	})
}
