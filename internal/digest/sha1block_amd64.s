// SHA-1 block function using the x86 SHA New Instructions
// (SHA1RNDS4/SHA1NEXTE/SHA1MSG1/SHA1MSG2), which crypto/sha1 does not use.
// The record-digest path hashes millions of 500-byte records; on SHA-NI
// hardware this routine runs the compression ~3x faster than the stdlib's
// AVX2 schedule, which is what makes the client-verification fast path
// beat the paper's Figure 7 numbers on a single core.
//
// Register plan:
//
//	X0 = ABCD state (A in bits 127:96 .. D in bits 31:0)
//	X1 = E0, X2 = E1 (E lives in bits 127:96)
//	X3..X6 = MSG0..MSG3 (four message dwords each, W[t] in bits 127:96)
//	X7 = byte-shuffle mask, X8/X9 = per-block state saves
//
// The 20 four-round groups follow the canonical SHA-NI rotation: group g
// consumes MSG[g%4] and E[g%2], while SHA1MSG1/PXOR/SHA1MSG2 pipeline the
// message schedule for groups g+1..g+3.

#include "textflag.h"

DATA shufMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA shufMask<>+8(SB)/8, $0x0001020304050607
GLOBL shufMask<>(SB), RODATA|NOPTR, $16

// func sha1blockNI(h *[5]uint32, p []byte)
// len(p) must be a non-zero multiple of 64.
TEXT ·sha1blockNI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	SHRQ $6, DX
	JZ   done

	MOVOU shufMask<>(SB), X7

	// Load state: h[0..3] reversed into ABCD, h[4] into E0's top dword.
	MOVOU (DI), X0
	PSHUFD $0x1B, X0, X0
	MOVL   16(DI), AX
	MOVQ   AX, X1
	PSLLDQ $12, X1

loop:
	MOVO X0, X8
	MOVO X1, X9

	// Rounds 0-3.
	MOVOU    0(SI), X3
	PSHUFB    X7, X3
	PADDD     X3, X1
	MOVO    X0, X2
	SHA1RNDS4 $0, X1, X0

	// Rounds 4-7.
	MOVOU    16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO    X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	// Rounds 8-11.
	MOVOU    32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO    X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 12-15.
	MOVOU    48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO    X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 16-19.
	SHA1NEXTE X3, X1
	MOVO    X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 20-23.
	SHA1NEXTE X4, X2
	MOVO    X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 24-27.
	SHA1NEXTE X5, X1
	MOVO    X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 28-31.
	SHA1NEXTE X6, X2
	MOVO    X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 32-35.
	SHA1NEXTE X3, X1
	MOVO    X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $1, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 36-39.
	SHA1NEXTE X4, X2
	MOVO    X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $1, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 40-43.
	SHA1NEXTE X5, X1
	MOVO    X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 44-47.
	SHA1NEXTE X6, X2
	MOVO    X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 48-51.
	SHA1NEXTE X3, X1
	MOVO    X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 52-55.
	SHA1NEXTE X4, X2
	MOVO    X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $2, X2, X0
	SHA1MSG1  X4, X3
	PXOR      X4, X6

	// Rounds 56-59.
	SHA1NEXTE X5, X1
	MOVO    X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $2, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	// Rounds 60-63.
	SHA1NEXTE X6, X2
	MOVO    X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $3, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// Rounds 64-67.
	SHA1NEXTE X3, X1
	MOVO    X0, X2
	SHA1MSG2  X3, X4
	SHA1RNDS4 $3, X1, X0
	SHA1MSG1  X3, X6
	PXOR      X3, X5

	// Rounds 68-71.
	SHA1NEXTE X4, X2
	MOVO    X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	// Rounds 72-75.
	SHA1NEXTE X5, X1
	MOVO    X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	// Rounds 76-79.
	SHA1NEXTE X6, X2
	MOVO    X0, X1
	SHA1RNDS4 $3, X2, X0

	// Fold this block's output into the running state.
	SHA1NEXTE X9, X1
	PADDD     X8, X0

	ADDQ $64, SI
	DECQ DX
	JNZ  loop

	// Store state back: ABCD re-reversed, E extracted from the top dword.
	PSHUFD $0x1B, X0, X3
	MOVOU X3, (DI)
	PSRLDQ $12, X1
	MOVQ   X1, AX
	MOVL   AX, 16(DI)

done:
	RET

// Two-lane SHA-NI block function: hashes two independent, equal-length
// messages in one pass. A single SHA-1 stream is latency-bound on the
// SHA1RNDS4 dependency chain; interleaving a second independent chain
// lets the out-of-order core overlap them, which is the batch-digesting
// fast path's per-record win (every query result and TE load hashes many
// independent records).
//
// Lane A: ABCD=X0 E0=X1 E1=X2 MSG0..3=X3..X6
// Lane B: ABCD=X8 E0=X9 E1=X10 MSG0..3=X11..X14
// X7 = shuffle mask. Per-block state saves live on the stack.
//
// The 20 four-round groups alternate lane A / lane B at group
// granularity — well inside the OoO window, so the two sha1rnds4 chains
// overlap without hand-interleaving each instruction.

#define ROUND2(K, EA, EB, CA, CB, MA, MB, M2A, M2B, M1A, M1B, PXA, PXB) \
	SHA1NEXTE MA, EA                                                  \
	MOVO      X0, CA                                                  \
	SHA1MSG2  MA, M2A                                                 \
	SHA1RNDS4 $K, EA, X0                                              \
	SHA1MSG1  MA, M1A                                                 \
	PXOR      MA, PXA                                                 \
	SHA1NEXTE MB, EB                                                  \
	MOVO      X8, CB                                                  \
	SHA1MSG2  MB, M2B                                                 \
	SHA1RNDS4 $K, EB, X8                                              \
	SHA1MSG1  MB, M1B                                                 \
	PXOR      MB, PXB

// func sha1block2NI(h *[10]uint32, p1, p2 []byte)
// h holds two states back to back; len(p1) == len(p2), a non-zero
// multiple of 64.
TEXT ·sha1block2NI(SB), NOSPLIT, $64-56
	MOVQ h+0(FP), DI
	MOVQ p1_base+8(FP), SI
	MOVQ p2_base+32(FP), BX
	MOVQ p1_len+16(FP), DX
	SHRQ $6, DX
	JZ   done2

	MOVOU shufMask<>(SB), X7

	// Lane A state.
	MOVOU  (DI), X0
	PSHUFD $0x1B, X0, X0
	MOVL   16(DI), AX
	MOVQ   AX, X1
	PSLLDQ $12, X1

	// Lane B state.
	MOVOU  20(DI), X8
	PSHUFD $0x1B, X8, X8
	MOVL   36(DI), AX
	MOVQ   AX, X9
	PSLLDQ $12, X9

loop2:
	MOVOU X0, 0(SP)
	MOVOU X1, 16(SP)
	MOVOU X8, 32(SP)
	MOVOU X9, 48(SP)

	// Rounds 0-3.
	MOVOU     0(SI), X3
	PSHUFB    X7, X3
	PADDD     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	MOVOU     0(BX), X11
	PSHUFB    X7, X11
	PADDD     X11, X9
	MOVO      X8, X10
	SHA1RNDS4 $0, X9, X8

	// Rounds 4-7.
	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3
	MOVOU     16(BX), X12
	PSHUFB    X7, X12
	SHA1NEXTE X12, X10
	MOVO      X8, X9
	SHA1RNDS4 $0, X10, X8
	SHA1MSG1  X12, X11

	// Rounds 8-11.
	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3
	MOVOU     32(BX), X13
	PSHUFB    X7, X13
	SHA1NEXTE X13, X9
	MOVO      X8, X10
	SHA1RNDS4 $0, X9, X8
	SHA1MSG1  X13, X12
	PXOR      X13, X11

	// Rounds 12-15.
	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4
	MOVOU     48(BX), X14
	PSHUFB    X7, X14
	SHA1NEXTE X14, X10
	MOVO      X8, X9
	SHA1MSG2  X14, X11
	SHA1RNDS4 $0, X10, X8
	SHA1MSG1  X14, X13
	PXOR      X14, X12

	// Rounds 16-19: E0, M=MSG0.
	ROUND2(0, X1, X9, X2, X10, X3, X11, X4, X12, X6, X14, X5, X13)

	// Rounds 20-23: E1, M=MSG1.
	ROUND2(1, X2, X10, X1, X9, X4, X12, X5, X13, X3, X11, X6, X14)

	// Rounds 24-27: E0, M=MSG2.
	ROUND2(1, X1, X9, X2, X10, X5, X13, X6, X14, X4, X12, X3, X11)

	// Rounds 28-31: E1, M=MSG3.
	ROUND2(1, X2, X10, X1, X9, X6, X14, X3, X11, X5, X13, X4, X12)

	// Rounds 32-35: E0, M=MSG0.
	ROUND2(1, X1, X9, X2, X10, X3, X11, X4, X12, X6, X14, X5, X13)

	// Rounds 36-39: E1, M=MSG1.
	ROUND2(1, X2, X10, X1, X9, X4, X12, X5, X13, X3, X11, X6, X14)

	// Rounds 40-43: E0, M=MSG2.
	ROUND2(2, X1, X9, X2, X10, X5, X13, X6, X14, X4, X12, X3, X11)

	// Rounds 44-47: E1, M=MSG3.
	ROUND2(2, X2, X10, X1, X9, X6, X14, X3, X11, X5, X13, X4, X12)

	// Rounds 48-51: E0, M=MSG0.
	ROUND2(2, X1, X9, X2, X10, X3, X11, X4, X12, X6, X14, X5, X13)

	// Rounds 52-55: E1, M=MSG1.
	ROUND2(2, X2, X10, X1, X9, X4, X12, X5, X13, X3, X11, X6, X14)

	// Rounds 56-59: E0, M=MSG2.
	ROUND2(2, X1, X9, X2, X10, X5, X13, X6, X14, X4, X12, X3, X11)

	// Rounds 60-63: E1, M=MSG3.
	ROUND2(3, X2, X10, X1, X9, X6, X14, X3, X11, X5, X13, X4, X12)

	// Rounds 64-67: E0, M=MSG0.
	ROUND2(3, X1, X9, X2, X10, X3, X11, X4, X12, X6, X14, X5, X13)

	// Rounds 68-71: E1, M=MSG1 (schedule tail: no msg1).
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6
	SHA1NEXTE X12, X10
	MOVO      X8, X9
	SHA1MSG2  X12, X13
	SHA1RNDS4 $3, X10, X8
	PXOR      X12, X14

	// Rounds 72-75: E0, M=MSG2.
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0
	SHA1NEXTE X13, X9
	MOVO      X8, X10
	SHA1MSG2  X13, X14
	SHA1RNDS4 $3, X9, X8

	// Rounds 76-79: E1, M=MSG3.
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0
	SHA1NEXTE X14, X10
	MOVO      X8, X9
	SHA1RNDS4 $3, X10, X8

	// Fold the block outputs into the running states. The saves reload
	// through X15: the SHA/PADDD memory forms are legacy-SSE encoded and
	// demand 16-byte alignment Go stack frames do not guarantee.
	MOVOU     16(SP), X15
	SHA1NEXTE X15, X1
	MOVOU     0(SP), X15
	PADDD     X15, X0
	MOVOU     48(SP), X15
	SHA1NEXTE X15, X9
	MOVOU     32(SP), X15
	PADDD     X15, X8

	ADDQ $64, SI
	ADDQ $64, BX
	DECQ DX
	JNZ  loop2

	// Store both states.
	PSHUFD $0x1B, X0, X3
	MOVOU  X3, (DI)
	PSRLDQ $12, X1
	MOVQ   X1, AX
	MOVL   AX, 16(DI)
	PSHUFD $0x1B, X8, X11
	MOVOU  X11, 20(DI)
	PSRLDQ $12, X9
	MOVQ   X9, AX
	MOVL   AX, 36(DI)

done2:
	RET

// func cpuidx(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidx(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
// Reads XCR0, the register state the OS saves across context switches.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
