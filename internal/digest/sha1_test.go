package digest

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
	"testing"

	"sae/internal/record"
)

// refSum is the stdlib oracle every implementation must match.
func refSum(b []byte) Digest { return sha1.Sum(b) }

// TestSHA1MatchesStdlib drives sum20 (whichever block function init
// selected) across every buffer length that exercises a distinct padding
// shape, plus larger multi-block messages.
func TestSHA1MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := []int{0}
	for n := 1; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 448, 500, 512, 513, 1000, 4096, 10_000)
	for _, n := range lengths {
		b := make([]byte, n)
		rng.Read(b)
		if got, want := sum20(b), refSum(b); got != want {
			t.Fatalf("sum20 mismatch at len %d: got %s want %s", n, got, want)
		}
	}
}

// TestSHA1BlockImplsAgree runs the NI and generic block functions over the
// same multi-block states and requires identical results, independent of
// which one init picked.
func TestSHA1BlockImplsAgree(t *testing.T) {
	if !Accelerated {
		t.Skip("SHA-NI not active; generic block is already the oracle")
	}
	rng := rand.New(rand.NewSource(11))
	for blocks := 1; blocks <= 9; blocks++ {
		p := make([]byte, 64*blocks)
		rng.Read(p)
		h1 := sha1init
		h2 := sha1init
		sha1blockGenericForTest(&h1, p)
		compress(&h2, p)
		if h1 != h2 {
			t.Fatalf("block mismatch at %d blocks: generic %x, active %x", blocks, h1, h2)
		}
		// Incremental application must equal one-shot application.
		h3 := sha1init
		for off := 0; off < len(p); off += 64 {
			compress(&h3, p[off:off+64])
		}
		if h3 != h2 {
			t.Fatalf("incremental/block mismatch at %d blocks", blocks)
		}
	}
}

func TestGenericBlockMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 119, 128, 500} {
		b := make([]byte, n)
		rng.Read(b)
		if got, want := genericSum(b), refSum(b); got != want {
			t.Fatalf("generic sum mismatch at len %d", n)
		}
	}
}

// genericSum runs the full pad+compress pipeline through the portable
// block only, so the fallback stays covered on SHA-NI hardware too.
func genericSum(b []byte) Digest {
	h := sha1init
	full := len(b) &^ 63
	if full > 0 {
		sha1blockGenericForTest(&h, b[:full])
	}
	var tail [128]byte
	n := copy(tail[:], b[full:])
	tail[n] = 0x80
	end := 64
	if n+9 > 64 {
		end = 128
	}
	binary.BigEndian.PutUint64(tail[end-8:end], uint64(len(b))<<3)
	sha1blockGenericForTest(&h, tail[:end])
	var out Digest
	binary.BigEndian.PutUint32(out[0:4], h[0])
	binary.BigEndian.PutUint32(out[4:8], h[1])
	binary.BigEndian.PutUint32(out[8:12], h[2])
	binary.BigEndian.PutUint32(out[12:16], h[3])
	binary.BigEndian.PutUint32(out[16:20], h[4])
	return out
}

func sha1blockGenericForTest(h *[5]uint32, p []byte) { sha1blockGeneric(h, p) }

func TestOfRecordVariantsAgree(t *testing.T) {
	for i := 0; i < 64; i++ {
		r := record.Synthesize(record.ID(i+1), record.Key(i*37))
		want := refSum(r.Marshal())
		if got := OfRecord(&r); got != want {
			t.Fatalf("OfRecord mismatch for %v", &r)
		}
		if got := OfWire(r.Marshal()); got != want {
			t.Fatalf("OfWire mismatch for %v", &r)
		}
	}
}

func TestOfWirePanicsOnWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("OfWire accepted a short slice")
		}
	}()
	OfWire(make([]byte, record.Size-1))
}

func TestConcatWriterMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{0, 1, 2, 3, 4, 7, 16, 137} {
		ds := make([]Digest, k)
		ref := sha1.New()
		for i := range ds {
			rng.Read(ds[i][:])
			ref.Write(ds[i][:])
		}
		var want Digest
		copy(want[:], ref.Sum(nil))
		if got := Concat(ds...); got != want {
			t.Fatalf("Concat mismatch at %d digests: got %s want %s", k, got, want)
		}
		w := NewConcatWriter()
		for i := range ds {
			w.Add(ds[i])
		}
		if got := w.Sum(); got != want {
			t.Fatalf("ConcatWriter mismatch at %d digests", k)
		}
		// Sum must be repeatable and Reset must restore a fresh state.
		if got := w.Sum(); got != want {
			t.Fatalf("second Sum disturbed state at %d digests", k)
		}
		w.Reset()
		if k > 0 {
			w.Add(ds[0])
			var single Digest
			s := sha1.Sum(ds[0][:])
			copy(single[:], s[:])
			if got := w.Sum(); got != single {
				t.Fatalf("Reset did not clear writer state")
			}
		}
	}
}

func BenchmarkOfRecord(b *testing.B) {
	r := record.Synthesize(1, 2)
	b.SetBytes(record.Size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = OfRecord(&r)
	}
}

func BenchmarkOfWire(b *testing.B) {
	r := record.Synthesize(1, 2)
	enc := r.Marshal()
	b.SetBytes(record.Size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = OfWire(enc)
	}
}

func BenchmarkStdlibSum500(b *testing.B) {
	buf := bytes.Repeat([]byte{0xAB}, record.Size)
	b.SetBytes(record.Size)
	for i := 0; i < b.N; i++ {
		sink = sha1.Sum(buf)
	}
}
