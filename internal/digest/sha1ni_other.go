//go:build !amd64

package digest

// compress runs the portable block function on architectures without a
// SHA-NI path. Accelerated stays false, so the one-shot sum20 defers to
// crypto/sha1 (which may have its own per-arch assembly).
func compress(h *[5]uint32, p []byte) {
	sha1blockGeneric(h, p)
}

// hasX16 is false off amd64, and so is Accelerated: the batch paths
// never reach the two stubs below.
const hasX16 = false

func sha1x16(out *[16]Digest, p []byte) { panic("digest: no 16-lane kernel on this architecture") }

func sumRecordPairNI(a, b []byte) (da, db Digest) { panic("digest: no SHA-NI on this architecture") }
