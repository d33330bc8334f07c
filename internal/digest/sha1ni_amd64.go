//go:build amd64

package digest

import (
	"encoding/binary"
	"os"

	"sae/internal/record"
)

// sha1blockNI runs the SHA-NI compression over len(p)/64 blocks.
// len(p) must be a non-zero multiple of 64.
//
//go:noescape
func sha1blockNI(h *[5]uint32, p []byte)

// cpuidx executes CPUID with the given leaf/subleaf.
func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (XGETBV with ECX = 0).
func xgetbv() (eax, edx uint32)

// sha1x16 hashes the k = len(p)/record.Size canonical record encodings
// packed back to back in p, 1 <= k <= 16, into out[:k] in one pass of the
// 16-lane AVX-512 kernel (sha1x16_amd64.s). It reads no byte outside p and
// writes no digest past out[k-1].
//
//go:noescape
func sha1x16(out *[16]Digest, p []byte)

// hasX16 reports whether the batch paths hash through sha1x16; init sets
// it on CPUs (and kernels) with AVX-512.
var hasX16 bool

// detectSHANI reports whether the CPU implements the SHA new instructions
// (CPUID.(EAX=7,ECX=0):EBX bit 29) plus SSSE3 for the byte shuffle
// (CPUID.1:ECX bit 9).
func detectSHANI() bool {
	maxLeaf, _, _, _ := cpuidx(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidx(1, 0)
	if ecx1&(1<<9) == 0 { // SSSE3
		return false
	}
	_, ebx7, _, _ := cpuidx(7, 0)
	return ebx7&(1<<29) != 0 // SHA
}

// detectAVX512 reports whether the 16-lane kernel can run: AVX512F and
// AVX512BW (CPUID.(EAX=7,ECX=0):EBX bits 16 and 30), and an OS that saves
// the opmask and all 32 ZMM registers — OSXSAVE (CPUID.1:ECX bit 27) and
// XCR0 bits 1, 2, 5, 6 and 7.
func detectAVX512() bool {
	maxLeaf, _, _, _ := cpuidx(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidx(1, 0)
	if ecx1&(1<<27) == 0 { // OSXSAVE
		return false
	}
	_, ebx7, _, _ := cpuidx(7, 0)
	if ebx7&(1<<16) == 0 || ebx7&(1<<30) == 0 { // AVX512F, AVX512BW
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&0xE6 == 0xE6
}

// sha1block2NI runs the two-lane SHA-NI compression: h holds two states
// back to back, p1/p2 are equal-length multiples of 64 bytes.
//
//go:noescape
func sha1block2NI(h *[10]uint32, p1, p2 []byte)

// init picks the assembly paths. SAE_DISABLE_SHANI=1 means no assembly at
// all — neither SHA-NI nor the AVX-512 kernel — and is how CI exercises
// the pure-Go and stdlib fallbacks.
func init() {
	if os.Getenv("SAE_DISABLE_SHANI") == "1" {
		return
	}
	Accelerated = detectSHANI()
	hasX16 = detectAVX512()
}

// sumRecordPairNI hashes two canonical record encodings through the
// two-lane core: both bulk sections in one interleaved pass, then both
// padded tails in a second. Fixed record size means the padding layout is
// static. Allocation-free. Batch paths pair records through it (when
// Accelerated) to hide the single-stream compression's dependency-chain
// latency; one-at-a-time callers keep using sum20.
func sumRecordPairNI(a, b []byte) (da, db Digest) {
	const bulk = record.Size &^ 63 // 448
	const rem = record.Size - bulk // 52
	var h [10]uint32
	copy(h[0:5], sha1init[:])
	copy(h[5:10], sha1init[:])
	sha1block2NI(&h, a[:bulk], b[:bulk])
	var tails [128]byte
	copy(tails[0:rem], a[bulk:record.Size])
	tails[rem] = 0x80
	binary.BigEndian.PutUint64(tails[56:64], record.Size<<3)
	copy(tails[64:64+rem], b[bulk:record.Size])
	tails[64+rem] = 0x80
	binary.BigEndian.PutUint64(tails[120:128], record.Size<<3)
	sha1block2NI(&h, tails[:64], tails[64:])
	for i := 0; i < 5; i++ {
		binary.BigEndian.PutUint32(da[4*i:], h[i])
		binary.BigEndian.PutUint32(db[4*i:], h[5+i])
	}
	return da, db
}

// compress dispatches to the SHA-NI block when available. Both callees are
// direct calls (sha1blockNI is //go:noescape), so state and padding
// scratches stay on the caller's stack.
func compress(h *[5]uint32, p []byte) {
	if Accelerated {
		sha1blockNI(h, p)
	} else {
		sha1blockGeneric(h, p)
	}
}
