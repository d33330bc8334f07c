// Package sae's root benchmarks regenerate the measurements behind every
// figure of the paper's evaluation (Figures 5-8), one benchmark per figure,
// plus micro-benchmarks for the primitives. Custom metrics carry the
// figures' units:
//
//	go test -bench=Fig -benchmem          # the four figures
//	go test -bench=. -benchmem            # everything
//
// Absolute numbers come from this machine and the simulated 10 ms/node
// charge; the paper's shapes (who wins, by how much, what stays flat) are
// the reproduction target. For the paper's full 100K-1M grid use
// cmd/saebench -scale paper.
package sae

import (
	"fmt"
	"sync"
	"testing"

	"sae/internal/core"
	"sae/internal/record"
	"sae/internal/tom"
	"sae/internal/workload"
)

// benchN is the dataset cardinality for the figure benchmarks: large enough
// for multi-level trees and paper-shaped results, small enough to build in
// a couple of seconds.
const benchN = 100_000

type fixture struct {
	sae     *core.System
	tom     *tom.System
	queries []record.Range
}

var (
	fixtures   = map[workload.Distribution]*fixture{}
	fixturesMu sync.Mutex
)

func getFixture(b *testing.B, dist workload.Distribution) *fixture {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if f, ok := fixtures[dist]; ok {
		return f
	}
	ds, err := workload.Generate(dist, benchN, 1)
	if err != nil {
		b.Fatalf("Generate: %v", err)
	}
	saeSys, err := core.NewSystem(ds.Records)
	if err != nil {
		b.Fatalf("core.NewSystem: %v", err)
	}
	tomSys, err := tom.NewSystem(ds.Records)
	if err != nil {
		b.Fatalf("tom.NewSystem: %v", err)
	}
	f := &fixture{
		sae:     saeSys,
		tom:     tomSys,
		queries: workload.Queries(256, workload.DefaultExtent, 2),
	}
	fixtures[dist] = f
	return f
}

// BenchmarkFig5Communication measures the per-query authentication bytes:
// SAE's token is a constant 20 bytes; TOM's VO grows with the result.
func BenchmarkFig5Communication(b *testing.B) {
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		f := getFixture(b, dist)
		b.Run(fmt.Sprintf("%s/SAE-VT", dist), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				q := f.queries[i%len(f.queries)]
				vt, _, err := f.sae.TE.GenerateVT(q)
				if err != nil {
					b.Fatal(err)
				}
				bytes += int64(len(vt))
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "authbytes/op")
		})
		b.Run(fmt.Sprintf("%s/TOM-VO", dist), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				q := f.queries[i%len(f.queries)]
				_, vo, _, err := f.tom.Provider.Query(q)
				if err != nil {
					b.Fatal(err)
				}
				bytes += int64(vo.Size())
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "authbytes/op")
		})
	}
}

// BenchmarkFig6QueryProcessing measures SP query execution (node accesses,
// hence simulated milliseconds at 10 ms each) under both models, and the
// TE's token generation, which stays flat and tiny.
func BenchmarkFig6QueryProcessing(b *testing.B) {
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		f := getFixture(b, dist)
		b.Run(fmt.Sprintf("%s/SAE-SP", dist), func(b *testing.B) {
			var accesses, idx float64
			for i := 0; i < b.N; i++ {
				_, qc, err := f.sae.SP.Query(f.queries[i%len(f.queries)])
				if err != nil {
					b.Fatal(err)
				}
				accesses += qc.Total().Accesses
				idx += qc.Index.Accesses
			}
			b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
			b.ReportMetric(float64(idx)/float64(b.N), "idxaccesses/op")
			b.ReportMetric(float64(accesses)/float64(b.N)*10, "simms/op")
		})
		b.Run(fmt.Sprintf("%s/TOM-SP", dist), func(b *testing.B) {
			var accesses, idx float64
			for i := 0; i < b.N; i++ {
				_, _, qc, err := f.tom.Provider.Query(f.queries[i%len(f.queries)])
				if err != nil {
					b.Fatal(err)
				}
				accesses += qc.Total().Accesses
				idx += qc.Index.Accesses
			}
			b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
			b.ReportMetric(float64(idx)/float64(b.N), "idxaccesses/op")
			b.ReportMetric(float64(accesses)/float64(b.N)*10, "simms/op")
		})
		b.Run(fmt.Sprintf("%s/SAE-TE", dist), func(b *testing.B) {
			var accesses float64
			for i := 0; i < b.N; i++ {
				_, cost, err := f.sae.TE.GenerateVT(f.queries[i%len(f.queries)])
				if err != nil {
					b.Fatal(err)
				}
				accesses += cost.Accesses
			}
			b.ReportMetric(float64(accesses)/float64(b.N), "accesses/op")
			b.ReportMetric(float64(accesses)/float64(b.N)*10, "simms/op")
		})
	}
}

// BenchmarkFig7Verification measures client-side verification CPU: hashing
// the received records plus, for TOM, the Merkle reconstruction and RSA
// check.
func BenchmarkFig7Verification(b *testing.B) {
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		f := getFixture(b, dist)
		// Pre-execute the queries so only verification is timed.
		type saeCase struct {
			q      record.Range
			result []record.Record
			vt     [20]byte
		}
		var saeCases []saeCase
		for _, q := range f.queries[:32] {
			result, _, err := f.sae.SP.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			vt, _, err := f.sae.TE.GenerateVT(q)
			if err != nil {
				b.Fatal(err)
			}
			saeCases = append(saeCases, saeCase{q: q, result: result, vt: vt})
		}
		b.Run(fmt.Sprintf("%s/SAE-client", dist), func(b *testing.B) {
			var recs int64
			for i := 0; i < b.N; i++ {
				c := saeCases[i%len(saeCases)]
				if _, err := f.sae.Client.Verify(c.q, c.result, c.vt); err != nil {
					b.Fatal(err)
				}
				recs += int64(len(c.result))
			}
			b.ReportMetric(float64(recs)/float64(b.N), "records/op")
		})
		b.Run(fmt.Sprintf("%s/TOM-client", dist), func(b *testing.B) {
			b.StopTimer()
			q := f.queries[0]
			result, vo, _, err := f.tom.Provider.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.tom.Client.Verify(q, result, vo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(result)), "records/op")
		})
	}
}

// BenchmarkFig8Storage reports the storage footprints (no timing — the
// figure is a static property of the built systems).
func BenchmarkFig8Storage(b *testing.B) {
	for _, dist := range []workload.Distribution{workload.UNF, workload.SKW} {
		f := getFixture(b, dist)
		b.Run(string(dist), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = f.sae.SP.StorageBytes()
			}
			b.ReportMetric(float64(f.sae.SP.StorageBytes())/(1<<20), "SAE-SP-MB")
			b.ReportMetric(float64(f.tom.Provider.StorageBytes())/(1<<20), "TOM-SP-MB")
			b.ReportMetric(float64(f.sae.TE.StorageBytes())/(1<<20), "SAE-TE-MB")
		})
	}
}
