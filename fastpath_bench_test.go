// Fast-path benchmarks: the zero-copy, parallel-crypto serve→wire→verify
// chain against the seed's materialize-copy-hash chain.
//
//	go test -bench=ClientVerify -benchmem   # Fig 7 client verification
//	go test -bench=SPServe -benchmem        # SP serve-and-encode path
//	go test -bench=Fastpath -benchmem       # everything below
//
// "seed" variants reproduce the exact pre-fastpath pipeline (decode the
// wire payload into records, re-serialize each record to hash it, grow
// fresh result/frame buffers per query); "fast" variants run the new
// chain (heap-page byte runs copied into pooled frames, in-place SHA-NI
// hashing of wire bytes). Worker-suffixed variants fan the crypto out —
// on a single-core container they measure the pool's overhead, not a
// speedup; see BENCH_fastpath.json for the recorded numbers.
package sae

import (
	"crypto/sha1"
	"fmt"
	"testing"

	"sae/internal/core"
	"sae/internal/digest"
	"sae/internal/exec"
	"sae/internal/record"
	"sae/internal/wire"
	"sae/internal/workload"
)

// verifyFixtureSize is the result cardinality for the verify benchmarks —
// a mid-size range result (~1000 records, the paper's 10^-4 selectivity
// at 10M would be 1000) dominated by per-record hashing.
const verifyFixtureSize = 1000

// verifyFixture returns a result slice, its wire encoding and its true VT.
func verifyFixture(b *testing.B) (record.Range, []record.Record, []byte, digest.Digest) {
	b.Helper()
	f := getFixture(b, workload.UNF)
	// Take a contiguous run of verifyFixtureSize records from a full scan.
	all, _, err := f.sae.SP.Query(record.Range{Lo: 0, Hi: record.KeyDomain - 1})
	if err != nil {
		b.Fatalf("SP query: %v", err)
	}
	recs := all[:verifyFixtureSize]
	q := record.Range{Lo: recs[0].Key, Hi: recs[len(recs)-1].Key}
	// Clamp to exactly the records inside q (duplicates at the ends).
	var result []record.Record
	for i := range all {
		if q.Contains(all[i].Key) {
			result = append(result, all[i])
		}
	}
	enc := make([]byte, 0, len(result)*record.Size)
	var acc digest.Accumulator
	for i := range result {
		enc = result[i].AppendBinary(enc)
		acc.Add(digest.OfRecord(&result[i]))
	}
	return q, result, enc, acc.Sum()
}

// BenchmarkClientVerify measures the Figure 7 client check per result
// record. The seed variant is byte-for-byte the pre-fastpath client:
// decode the payload into records, then Client.Verify (serialize + hash
// each record with crypto/sha1's schedule under SAE_DISABLE_SHANI, or
// whatever stdlib does here). The fast variant hashes the wire bytes in
// place through the SHA-NI core.
func BenchmarkClientVerify(b *testing.B) {
	q, _, enc, vt := verifyFixture(b)
	payload := make([]byte, 0, 4+len(enc))
	payload = append(payload, 0, 0, 0, 0)
	n := len(enc) / record.Size
	payload[0], payload[1], payload[2], payload[3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	payload = append(payload, enc...)

	// seed replicates the pre-fastpath client byte for byte: decode the
	// payload into fresh records, then re-serialize and hash each through
	// crypto/sha1 (the stdlib schedule the seed used — the new SHA-NI
	// core must not flatter the baseline) and XOR-fold against the token.
	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			recs, _, err := wire.DecodeRecords(payload)
			if err != nil {
				b.Fatal(err)
			}
			var acc digest.Accumulator
			var buf [record.Size]byte
			for j := range recs {
				if !q.Contains(recs[j].Key) {
					b.Fatal("record outside range")
				}
				acc.Add(digest.Digest(sha1.Sum(recs[j].AppendBinary(buf[:0]))))
			}
			if acc.Sum() != vt {
				b.Fatal("token mismatch")
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
	})
	// current-serial is today's shared code on the materialized result
	// (Client.Verify, which also rides the SHA-NI core): the measure of
	// the zero-copy step alone, separate from the digest-core step.
	b.Run("current-serial", func(b *testing.B) {
		var client core.Client
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			recs, _, err := wire.DecodeRecords(payload)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := client.Verify(q, recs, vt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
	})
	b.Run("fast", func(b *testing.B) {
		vp := core.NewVerifyPool(1)
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			if _, err := vp.VerifyEncoded(q, enc, vt); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
	})
	for _, workers := range []int{2, 4} {
		b.Run(fmt.Sprintf("fast-%dworkers", workers), func(b *testing.B) {
			vp := core.NewVerifyPool(workers)
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for i := 0; i < b.N; i++ {
				if _, err := vp.VerifyEncoded(q, enc, vt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
		})
	}
}

// BenchmarkSPServe measures the SP's serve-and-encode path for a ~1000
// record range: what it costs to turn a query into response-frame bytes.
// The seed variant materializes the result slice and EncodeRecords it
// into a fresh payload (the pre-fastpath server); the fast variant
// copies the heap pages' borrowed record runs into one reused frame
// buffer. Compare allocs/op — the acceptance target is a ≥5x reduction.
func BenchmarkSPServe(b *testing.B) {
	f := getFixture(b, workload.UNF)
	q, _, enc, _ := verifyFixture(b)
	frame := make([]byte, 0, 4+len(enc)+1024)

	b.Run("seed", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		for i := 0; i < b.N; i++ {
			recs, _, err := f.sae.SP.QueryCtx(exec.NewContext(), q)
			if err != nil {
				b.Fatal(err)
			}
			payload := wire.EncodeRecords(recs)
			if len(payload) < len(enc) {
				b.Fatal("short payload")
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(enc)))
		// The serving path at n = 1, with the scratch a serve lane holds.
		lane := exec.NewLane(0)
		var sc core.BurstScratch
		qs := []record.Range{q}
		for i := 0; i < b.N; i++ {
			frame = append(frame[:0], 0, 0, 0, 0)
			err := f.sae.SP.ServeBurstCtx(lane.Contexts(1), qs, &sc, func(_ int, enc []byte) error {
				frame = append(frame, enc...)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if len(enc)+4 != len(frame) {
				b.Fatal("frame size mismatch")
			}
		}
	})
}

// BenchmarkVTBurstFastpath measures TE token generation for a 64-range
// burst — what a lane does with 64 pipelined MsgVTRequest frames: one
// read lock, one descent per range.
func BenchmarkVTBurstFastpath(b *testing.B) {
	f := getFixture(b, workload.UNF)
	qs := make([]record.Range, 64)
	for i := range qs {
		lo := record.Key(i * (record.KeyDomain / 70))
		qs[i] = record.Range{Lo: lo, Hi: lo + record.KeyDomain/100}
	}
	lane := exec.NewLane(0)
	vts := make([]digest.Digest, len(qs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.sae.TE.GenerateVTBurst(lane.Contexts(len(qs)), qs, vts); err != nil {
			b.Fatal(err)
		}
	}
}
