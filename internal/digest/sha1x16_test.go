package digest

import (
	"crypto/sha1"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"sae/internal/record"
)

// requireX16 skips a test of the 16-lane kernel where it is not active,
// saying why, and logs that it ran where it is — so a CI log shows which.
func requireX16(t testing.TB) {
	t.Helper()
	switch {
	case hasX16:
		t.Log("16-lane AVX-512 kernel active")
		return
	case runtime.GOARCH != "amd64":
		t.Skipf("16-lane AVX-512 kernel not built for %s", runtime.GOARCH)
	case os.Getenv("SAE_DISABLE_SHANI") == "1":
		t.Skip("16-lane AVX-512 kernel off: SAE_DISABLE_SHANI=1 turns off all assembly")
	default:
		t.Skip("16-lane AVX-512 kernel off: no AVX512F/AVX512BW, or the OS does not save ZMM state")
	}
}

// checkX16 runs the kernel over the k records packed at p and checks
// every lane against crypto/sha1, and that no digest past lane k-1 was
// written.
func checkX16(t *testing.T, p []byte, k int, where string) {
	t.Helper()
	var out [16]Digest
	for i := range out {
		out[i] = Digest{0: 0xA5, 19: 0x5A}
	}
	sentinel := out[0]
	sha1x16(&out, p[:k*record.Size])
	for i := range out {
		if i < k {
			if want := Digest(sha1.Sum(p[i*record.Size : (i+1)*record.Size])); out[i] != want {
				t.Fatalf("%s, k=%d: lane %d = %s, want %s", where, k, i, out[i], want)
			}
		} else if out[i] != sentinel {
			t.Fatalf("%s, k=%d: lane %d past the last record was written", where, k, i)
		}
	}
}

// TestSHA1x16MatchesStdlib checks every lane of the kernel against
// crypto/sha1 for k = 1..16 records, the group starting at every byte
// offset 0..63 of its buffer: records in a verified result start 40 bytes
// into a pooled payload and are never 64-byte aligned.
func TestSHA1x16MatchesStdlib(t *testing.T) {
	requireX16(t)
	buf := make([]byte, 64+16*record.Size)
	rand.New(rand.NewSource(61)).Read(buf)
	for off := 0; off < 64; off++ {
		for k := 1; k <= 16; k++ {
			checkX16(t, buf[off:], k, fmt.Sprintf("offset %d", off))
		}
	}
}

// BenchmarkSHA1x16 prices one kernel pass at k records against hashing
// the same k through the two-lane pair (and single-stream for an odd
// one out): the crossover x16Min is where the pass wins.
func BenchmarkSHA1x16(b *testing.B) {
	requireX16(b)
	buf := make([]byte, 16*record.Size)
	rand.New(rand.NewSource(62)).Read(buf)
	for _, k := range []int{1, 2, 4, 5, 6, 7, 8, 16} {
		p := buf[:k*record.Size]
		b.Run(fmt.Sprintf("kernel/k=%d", k), func(b *testing.B) {
			var out [16]Digest
			for i := 0; i < b.N; i++ {
				sha1x16(&out, p)
			}
			sink = out[0]
		})
		b.Run(fmt.Sprintf("pair/k=%d", k), func(b *testing.B) {
			var acc Accumulator
			for i := 0; i < b.N; i++ {
				j := 0
				if Accelerated {
					for ; j+1 < k; j += 2 {
						da, db := sumRecordPairNI(p[j*record.Size:(j+1)*record.Size], p[(j+1)*record.Size:(j+2)*record.Size])
						acc.Add(da)
						acc.Add(db)
					}
				}
				for ; j < k; j++ {
					acc.Add(OfWire(p[j*record.Size : (j+1)*record.Size]))
				}
			}
			sink = acc.Sum()
		})
	}
}
