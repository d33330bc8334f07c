package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

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
