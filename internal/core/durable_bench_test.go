package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"sae/internal/record"
	"sae/internal/shard"
	"sae/internal/workload"
)

// BenchmarkOpenDurableSystem measures a primary's open of its partition
// in a fresh directory: the bulk load of the SP's heap file and B+-tree
// and the TE's XB-tree, plus the first checkpoint. The partition is shard
// 0 of the UNF relation of 100 000 records split in two, the deployment
// the end-to-end benchmark launches.
func BenchmarkOpenDurableSystem(b *testing.B) {
	ds, err := workload.Generate(workload.UNF, 100_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	part := shard.PlanFor(ds.Records, 2).Partition(ds.Records)[0]
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := filepath.Join(dir, fmt.Sprint(i))
		sys, err := OpenDurableSystem(sub, part, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := sys.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(sub); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkOpenFresh measures a primary's open the way saenet runs it:
// the packed (key, id) pairs of shard 0 of the UNF relation of 100 000
// records split in two are streamed, each record synthesized straight
// into its heap slot, into a fresh directory. B/op is the start-up's
// allocation bill.
func BenchmarkOpenFresh(b *testing.B) {
	pairs := shard0Pairs(b)
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := filepath.Join(dir, fmt.Sprint(i))
		sys, err := OpenDurableFrom(sub, len(pairs), workload.Reader(pairs), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := sys.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(sub); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// shard0Pairs returns the pairs of shard 0 of the UNF relation of
// 100 000 records (seed 1) split in two.
func shard0Pairs(tb testing.TB) []uint64 {
	pairs, err := workload.Keys(workload.UNF, 100_000, 1)
	if err != nil {
		tb.Fatal(err)
	}
	key := func(i int) record.Key { k, _ := workload.Unpack(pairs[i]); return k }
	span := shard.PlanForKeys(len(pairs), key, 2).Span(0)
	hi := sort.Search(len(pairs), func(i int) bool { return key(i) > span.Hi })
	return pairs[:hi]
}
