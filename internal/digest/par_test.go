package digest

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sae/internal/record"
)

func parRecords(n int, seed int64) []record.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record.Record, n)
	for i := range recs {
		recs[i] = record.Synthesize(record.ID(rng.Int63()), record.Key(rng.Intn(record.KeyDomain)))
	}
	return recs
}

// TestHashPairMatchesStdlib drives the two-lane core (when active)
// against crypto/sha1 over random record pairs.
func TestHashPairMatchesStdlib(t *testing.T) {
	if !Accelerated {
		t.Skip("two-lane SHA core not active on this CPU")
	}
	recs := parRecords(64, 31)
	for i := 0; i+1 < len(recs); i += 2 {
		a, b := recs[i].Marshal(), recs[i+1].Marshal()
		da, db := sumRecordPairNI(a, b)
		if want := Digest(sha1.Sum(a)); da != want {
			t.Fatalf("pair %d lane A mismatch: got %s want %s", i, da, want)
		}
		if want := Digest(sha1.Sum(b)); db != want {
			t.Fatalf("pair %d lane B mismatch: got %s want %s", i, db, want)
		}
	}
}

// TestRecordDigestsParity checks every worker count against serial
// OfRecord, over batch lengths of both parities, every 16-lane tail shape
// (none, one, fifteen), both sides of the kernel crossover and of the
// parallel threshold.
func TestRecordDigestsParity(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 15, 16, 17, 16 + x16Min - 1, 16 + x16Min, 31, 32, 33, 500, 501, parThreshold - 1, parThreshold, parThreshold + 1} {
		recs := parRecords(n, int64(40+n))
		want := make([]Digest, n)
		for i := range recs {
			want[i] = OfRecord(&recs[i])
		}
		for _, workers := range []int{0, 1, 2, 3, 4} {
			got := make([]Digest, n)
			RecordDigests(got, recs, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: digest %d mismatch", n, workers, i)
				}
			}
		}
	}
}

// serialFold is the reference the wire fold is tested against: one
// Accumulator, one single-stream OfWire per 500-byte slice — no 16-lane
// kernel, no pairing, no workers.
func serialFold(enc []byte) Digest {
	var acc Accumulator
	for off := 0; off < len(enc); off += record.Size {
		acc.Add(OfWire(enc[off : off+record.Size]))
	}
	return acc.Sum()
}

// TestXORFoldParity checks the single-payload wire fold against the
// serial reference — and the reference against OfRecord over the decoded
// records — at every worker count.
func TestXORFoldParity(t *testing.T) {
	for _, n := range []int{0, 1, 2, 15, 16, 17, 16 + x16Min - 1, 16 + x16Min, 31, 32, 33, 400, parThreshold - 1, parThreshold, parThreshold + 1, 2*parThreshold + 17} {
		recs := parRecords(n, int64(70+n))
		var ofRecord Accumulator
		enc := make([]byte, 0, n*record.Size)
		for i := range recs {
			ofRecord.Add(OfRecord(&recs[i]))
			enc = recs[i].AppendBinary(enc)
		}
		ref := serialFold(enc)
		if ref != ofRecord.Sum() {
			t.Fatalf("n=%d: serial wire fold != OfRecord fold", n)
		}
		for _, workers := range []int{0, 1, 2, 3, 4} {
			if got := XORFoldWire(enc, workers); got != ref {
				t.Fatalf("n=%d workers=%d: XORFoldWire mismatch", n, workers)
			}
		}
	}
}

func TestXORFoldWirePanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("XORFoldWire accepted a ragged payload")
		}
	}()
	XORFoldWire(make([]byte, record.Size+1), 1)
}

// BenchmarkXORFoldWire folds one payload on one worker: a range_short
// answer (10 records, one part-filled 16-lane pass), one full pass, a
// range_scan answer (500) and 1000 records.
func BenchmarkXORFoldWire(b *testing.B) {
	recs := parRecords(1000, 99)
	enc := make([]byte, 0, len(recs)*record.Size)
	for i := range recs {
		enc = recs[i].AppendBinary(enc)
	}
	for _, n := range []int{10, 16, 500, 1000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			p := enc[:n*record.Size]
			b.SetBytes(int64(len(p)))
			b.ReportAllocs()
			var d Digest
			for i := 0; i < b.N; i++ {
				d = XORFoldWire(p, 1)
			}
			sink = d
		})
	}
}

// TestXORFoldWireBurstParity checks the burst fold — many payloads, one
// worker dispatch split by records — matches the serial fold of each
// payload at every worker count, over payload mixes including empty
// payloads, sizes straddling the parallel threshold and spans that cut
// payloads at both ends.
func TestXORFoldWireBurstParity(t *testing.T) {
	shapes := [][]int{
		{},
		{0},
		{5},
		{0, 3, 0, 7},
		{40, 90, 1, 0, 128},
		{300, 2, 801, 64, 64, 17},
		{1, 1, 1, 1, 1, 1, 1, 1, 200, 1, 1},
	}
	for si, shape := range shapes {
		encs := make([][]byte, len(shape))
		want := make([]Digest, len(shape))
		seed := int64(900 + si)
		for i, n := range shape {
			recs := parRecords(n, seed+int64(i))
			enc := make([]byte, 0, n*record.Size)
			for j := range recs {
				enc = recs[j].AppendBinary(enc)
			}
			encs[i] = enc
			want[i] = serialFold(enc)
		}
		for _, workers := range []int{0, 1, 2, 3, 4, 7} {
			got := make([]Digest, len(shape))
			XORFoldWireBurst(got, encs, workers)
			for i := range shape {
				if got[i] != want[i] {
					t.Fatalf("shape %d workers %d payload %d: burst fold mismatch", si, workers, i)
				}
			}
		}
	}
}

func TestXORFoldWireBurstPanicsOnRagged(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("XORFoldWireBurst accepted a ragged payload")
		}
	}()
	XORFoldWireBurst(make([]Digest, 2), [][]byte{nil, make([]byte, record.Size+2)}, 2)
}

// FuzzXORFoldWireBurst drives the burst fold over arbitrary burst shapes
// — 0–64 payloads of 0–600 records, 1–16 workers — against the serial
// fold of each payload. Every two shape bytes are one payload's record
// count; its bytes are a window of one shared buffer, shifted per
// payload so payloads differ. ragged = k > 0 makes payload k-1 one byte
// longer than whole records, which must panic.
func FuzzXORFoldWireBurst(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 0, 5, 0, 0, 0, 44, 1}, uint8(3), uint8(0))
	f.Add([]byte{88, 2, 1, 0, 1, 0, 200, 0, 1, 0}, uint8(15), uint8(0))
	f.Add([]byte{3, 0, 0, 0}, uint8(1), uint8(2))
	f.Add([]byte{16, 0}, uint8(0), uint8(0))
	f.Add([]byte{17, 0, 16, 0, 33, 0}, uint8(1), uint8(0))
	const maxRecords, maxPayloads = 600, 64
	shared := make([]byte, (maxRecords+1)*record.Size)
	rand.New(rand.NewSource(7)).Read(shared)
	f.Fuzz(func(t *testing.T, shape []byte, workers, ragged uint8) {
		encs := make([][]byte, min(len(shape)/2, maxPayloads))
		want := make([]Digest, len(encs))
		for i := range encs {
			n := int(binary.LittleEndian.Uint16(shape[2*i:])) % (maxRecords + 1)
			off := i * 41 % record.Size
			encs[i] = shared[off : off+n*record.Size]
			want[i] = serialFold(encs[i])
		}
		w := int(workers%16) + 1
		got := make([]Digest, len(encs))
		if k := int(ragged); k > 0 && k <= len(encs) {
			encs[k-1] = shared[:len(encs[k-1])+1]
			defer func() {
				if recover() == nil {
					t.Fatalf("payload %d of %d bytes did not panic", k-1, len(encs[k-1]))
				}
			}()
			XORFoldWireBurst(got, encs, w)
			return
		}
		XORFoldWireBurst(got, encs, w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%d payloads, %d workers: payload %d (%d records) folds to %s, serial %s",
					len(encs), w, i, len(encs[i])/record.Size, got[i], want[i])
			}
		}
	})
}

// TestDefaultWorkersTracksGOMAXPROCS pins the satellite change: the
// crypto pool sizes itself to the scheduler's parallelism, uncapped.
func TestDefaultWorkersTracksGOMAXPROCS(t *testing.T) {
	if got, want := DefaultWorkers(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("DefaultWorkers() = %d, want GOMAXPROCS %d", got, want)
	}
}
