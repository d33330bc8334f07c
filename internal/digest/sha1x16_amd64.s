// Sixteen-lane SHA-1 over canonical 500-byte records (AVX-512F/BW).
//
// Batch digesting hashes many independent records of one fixed size, so
// the records can be hashed side by side: lane i of every ZMM register
// carries record i's state, and one pass hashes up to 16 records. A
// 500-byte message pads to exactly eight 64-byte blocks — seven full
// blocks, then 52 message bytes, the 0x80 marker and the 64-bit length
// 4000 — so every lane runs the same eight blocks and the kernel keeps no
// per-lane length.
//
// Register plan:
//
//	Z0..Z4   = A..E (the round macros rotate the names; 80 rounds later
//	           they are back in place)
//	Z5..Z9   = the state at block entry, added back at block exit
//	Z10..Z25 = W[0..15], the rolling message schedule (W[t] in Z10+t%16)
//	Z26, Z27 = round temporaries
//	Z28      = the round constant, broadcast
//	Z29      = the per-dword byte-swap shuffle
//	Z30      = record offsets 0, 500, .., 7500 (gather), later digest
//	           offsets 0, 20, .., 300 (scatter)
//	K2       = the live lanes, (1<<k)-1; K1 is its copy for each
//	           gather/scatter, which clears its mask as it completes
//
// Message words are gathered one word of all 16 records at a time with a
// masked VPGATHERDD at stride 500: lanes past k are masked off and the
// last block gathers only its 13 message words, so the kernel never
// touches a byte past the k-th record. Ch, Parity and Maj are one
// VPTERNLOGD each (0xCA, 0x96, 0xE8); VPROLD does the rotates. The
// digests go out byte-swapped through one masked VPSCATTERDD per state
// word, 20 bytes apart.

#include "textflag.h"

// VPSHUFB mask reversing the bytes of every dword, for all four 128-bit
// lanes.
DATA x16bswap<>+0(SB)/8, $0x0405060700010203
DATA x16bswap<>+8(SB)/8, $0x0c0d0e0f08090a0b
DATA x16bswap<>+16(SB)/8, $0x0405060700010203
DATA x16bswap<>+24(SB)/8, $0x0c0d0e0f08090a0b
DATA x16bswap<>+32(SB)/8, $0x0405060700010203
DATA x16bswap<>+40(SB)/8, $0x0c0d0e0f08090a0b
DATA x16bswap<>+48(SB)/8, $0x0405060700010203
DATA x16bswap<>+56(SB)/8, $0x0c0d0e0f08090a0b
GLOBL x16bswap<>(SB), RODATA|NOPTR, $64

// Byte offset of record i: i*500.
DATA x16rec<>+0(SB)/4, $0
DATA x16rec<>+4(SB)/4, $500
DATA x16rec<>+8(SB)/4, $1000
DATA x16rec<>+12(SB)/4, $1500
DATA x16rec<>+16(SB)/4, $2000
DATA x16rec<>+20(SB)/4, $2500
DATA x16rec<>+24(SB)/4, $3000
DATA x16rec<>+28(SB)/4, $3500
DATA x16rec<>+32(SB)/4, $4000
DATA x16rec<>+36(SB)/4, $4500
DATA x16rec<>+40(SB)/4, $5000
DATA x16rec<>+44(SB)/4, $5500
DATA x16rec<>+48(SB)/4, $6000
DATA x16rec<>+52(SB)/4, $6500
DATA x16rec<>+56(SB)/4, $7000
DATA x16rec<>+60(SB)/4, $7500
GLOBL x16rec<>(SB), RODATA|NOPTR, $64

// Byte offset of digest i: i*20.
DATA x16dig<>+0(SB)/4, $0
DATA x16dig<>+4(SB)/4, $20
DATA x16dig<>+8(SB)/4, $40
DATA x16dig<>+12(SB)/4, $60
DATA x16dig<>+16(SB)/4, $80
DATA x16dig<>+20(SB)/4, $100
DATA x16dig<>+24(SB)/4, $120
DATA x16dig<>+28(SB)/4, $140
DATA x16dig<>+32(SB)/4, $160
DATA x16dig<>+36(SB)/4, $180
DATA x16dig<>+40(SB)/4, $200
DATA x16dig<>+44(SB)/4, $220
DATA x16dig<>+48(SB)/4, $240
DATA x16dig<>+52(SB)/4, $260
DATA x16dig<>+56(SB)/4, $280
DATA x16dig<>+60(SB)/4, $300
GLOBL x16dig<>(SB), RODATA|NOPTR, $64

// LOAD gathers message word OFF/4 of the current block of every live
// record into W, big-endian. Zeroing W first keeps the merge-masked
// gather from waiting on the previous block's schedule.
#define LOAD(OFF, W) \
	VPXORD     W, W, W              \
	KMOVW      K2, K1               \
	VPGATHERDD OFF(SI)(Z30*1), K1, W \
	VPSHUFB    Z29, W, W

// SETK broadcasts the round constant of the next 20 rounds.
#define SETK(K) \
	MOVL         $K, AX \
	VPBROADCASTD AX, Z28

// ROUND is one SHA-1 round on all lanes with round function F (a
// VPTERNLOGD truth table over B, C, D):
// E += ROTL5(A) + F(B, C, D) + K + W; B = ROTL30(B).
#define ROUND(A, B, C, D, E, W, F) \
	VPADDD     W, Z28, Z26   \
	VPADDD     Z26, E, E     \
	VPROLD     $5, A, Z26    \
	VPADDD     Z26, E, E     \
	VMOVDQA32  B, Z27        \
	VPTERNLOGD $F, D, C, Z27 \
	VPADDD     Z27, E, E     \
	VPROLD     $30, B, B

// SROUND is ROUND for t >= 16, extending the schedule first:
// W[t] = ROTL1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]), in W[t-16]'s slot.
#define SROUND(A, B, C, D, E, W, W3, W8, W14, F) \
	VPTERNLOGD $0x96, W14, W8, W \
	VPXORD     W3, W, W          \
	VPROLD     $1, W, W          \
	ROUND(A, B, C, D, E, W, F)

// STORE writes state word H of every live lane to its digest, at byte
// offset OFF of each.
#define STORE(OFF, H) \
	VPSHUFB     Z29, H, H \
	KMOVW       K2, K1    \
	VPSCATTERDD H, K1, OFF(DI)(Z30*1)

// func sha1x16(out *[16]Digest, p []byte)
// len(p) must be k*500 for 1 <= k <= 16.
TEXT ·sha1x16(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ p_base+8(FP), SI

	// k = len(p)/500 live lanes.
	MOVQ p_len+16(FP), AX
	XORL DX, DX
	MOVL $500, CX
	DIVQ CX
	MOVQ AX, CX
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2

	VMOVDQU32 x16bswap<>(SB), Z29
	VMOVDQU32 x16rec<>(SB), Z30

	MOVL         $0x67452301, AX
	VPBROADCASTD AX, Z0
	MOVL         $0xEFCDAB89, AX
	VPBROADCASTD AX, Z1
	MOVL         $0x98BADCFE, AX
	VPBROADCASTD AX, Z2
	MOVL         $0x10325476, AX
	VPBROADCASTD AX, Z3
	MOVL         $0xC3D2E1F0, AX
	VPBROADCASTD AX, Z4

	MOVL $8, BX

block:
	VMOVDQA32 Z0, Z5
	VMOVDQA32 Z1, Z6
	VMOVDQA32 Z2, Z7
	VMOVDQA32 Z3, Z8
	VMOVDQA32 Z4, Z9

	LOAD(0, Z10)
	LOAD(4, Z11)
	LOAD(8, Z12)
	LOAD(12, Z13)
	LOAD(16, Z14)
	LOAD(20, Z15)
	LOAD(24, Z16)
	LOAD(28, Z17)
	LOAD(32, Z18)
	LOAD(36, Z19)
	LOAD(40, Z20)
	LOAD(44, Z21)
	LOAD(48, Z22)
	CMPQ BX, $1
	JEQ  padding
	LOAD(52, Z23)
	LOAD(56, Z24)
	LOAD(60, Z25)
	JMP  rounds

padding:
	// Block 8: message bytes 448..499, then the 0x80 marker and the
	// big-endian bit length 4000.
	MOVL         $0x80000000, AX
	VPBROADCASTD AX, Z23
	VPXORD       Z24, Z24, Z24
	MOVL         $4000, AX
	VPBROADCASTD AX, Z25

rounds:
	// Rounds 0-19.
	SETK(0x5A827999)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z10, 0xCA)
	ROUND(Z4, Z0, Z1, Z2, Z3, Z11, 0xCA)
	ROUND(Z3, Z4, Z0, Z1, Z2, Z12, 0xCA)
	ROUND(Z2, Z3, Z4, Z0, Z1, Z13, 0xCA)
	ROUND(Z1, Z2, Z3, Z4, Z0, Z14, 0xCA)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z15, 0xCA)
	ROUND(Z4, Z0, Z1, Z2, Z3, Z16, 0xCA)
	ROUND(Z3, Z4, Z0, Z1, Z2, Z17, 0xCA)
	ROUND(Z2, Z3, Z4, Z0, Z1, Z18, 0xCA)
	ROUND(Z1, Z2, Z3, Z4, Z0, Z19, 0xCA)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z20, 0xCA)
	ROUND(Z4, Z0, Z1, Z2, Z3, Z21, 0xCA)
	ROUND(Z3, Z4, Z0, Z1, Z2, Z22, 0xCA)
	ROUND(Z2, Z3, Z4, Z0, Z1, Z23, 0xCA)
	ROUND(Z1, Z2, Z3, Z4, Z0, Z24, 0xCA)
	ROUND(Z0, Z1, Z2, Z3, Z4, Z25, 0xCA)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z10, Z23, Z18, Z12, 0xCA)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z11, Z24, Z19, Z13, 0xCA)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z12, Z25, Z20, Z14, 0xCA)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z13, Z10, Z21, Z15, 0xCA)

	// Rounds 20-39.
	SETK(0x6ED9EBA1)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z14, Z11, Z22, Z16, 0x96)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z15, Z12, Z23, Z17, 0x96)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z16, Z13, Z24, Z18, 0x96)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z17, Z14, Z25, Z19, 0x96)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z18, Z15, Z10, Z20, 0x96)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z19, Z16, Z11, Z21, 0x96)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z20, Z17, Z12, Z22, 0x96)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z21, Z18, Z13, Z23, 0x96)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z22, Z19, Z14, Z24, 0x96)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z23, Z20, Z15, Z25, 0x96)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z24, Z21, Z16, Z10, 0x96)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z25, Z22, Z17, Z11, 0x96)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z10, Z23, Z18, Z12, 0x96)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z11, Z24, Z19, Z13, 0x96)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z12, Z25, Z20, Z14, 0x96)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z13, Z10, Z21, Z15, 0x96)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z14, Z11, Z22, Z16, 0x96)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z15, Z12, Z23, Z17, 0x96)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z16, Z13, Z24, Z18, 0x96)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z17, Z14, Z25, Z19, 0x96)

	// Rounds 40-59.
	SETK(0x8F1BBCDC)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z18, Z15, Z10, Z20, 0xE8)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z19, Z16, Z11, Z21, 0xE8)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z20, Z17, Z12, Z22, 0xE8)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z21, Z18, Z13, Z23, 0xE8)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z22, Z19, Z14, Z24, 0xE8)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z23, Z20, Z15, Z25, 0xE8)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z24, Z21, Z16, Z10, 0xE8)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z25, Z22, Z17, Z11, 0xE8)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z10, Z23, Z18, Z12, 0xE8)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z11, Z24, Z19, Z13, 0xE8)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z12, Z25, Z20, Z14, 0xE8)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z13, Z10, Z21, Z15, 0xE8)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z14, Z11, Z22, Z16, 0xE8)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z15, Z12, Z23, Z17, 0xE8)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z16, Z13, Z24, Z18, 0xE8)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z17, Z14, Z25, Z19, 0xE8)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z18, Z15, Z10, Z20, 0xE8)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z19, Z16, Z11, Z21, 0xE8)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z20, Z17, Z12, Z22, 0xE8)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z21, Z18, Z13, Z23, 0xE8)

	// Rounds 60-79.
	SETK(0xCA62C1D6)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z22, Z19, Z14, Z24, 0x96)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z23, Z20, Z15, Z25, 0x96)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z24, Z21, Z16, Z10, 0x96)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z25, Z22, Z17, Z11, 0x96)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z10, Z23, Z18, Z12, 0x96)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z11, Z24, Z19, Z13, 0x96)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z12, Z25, Z20, Z14, 0x96)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z13, Z10, Z21, Z15, 0x96)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z14, Z11, Z22, Z16, 0x96)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z15, Z12, Z23, Z17, 0x96)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z16, Z13, Z24, Z18, 0x96)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z17, Z14, Z25, Z19, 0x96)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z18, Z15, Z10, Z20, 0x96)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z19, Z16, Z11, Z21, 0x96)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z20, Z17, Z12, Z22, 0x96)
	SROUND(Z0, Z1, Z2, Z3, Z4, Z21, Z18, Z13, Z23, 0x96)
	SROUND(Z4, Z0, Z1, Z2, Z3, Z22, Z19, Z14, Z24, 0x96)
	SROUND(Z3, Z4, Z0, Z1, Z2, Z23, Z20, Z15, Z25, 0x96)
	SROUND(Z2, Z3, Z4, Z0, Z1, Z24, Z21, Z16, Z10, 0x96)
	SROUND(Z1, Z2, Z3, Z4, Z0, Z25, Z22, Z17, Z11, 0x96)

	VPADDD Z5, Z0, Z0
	VPADDD Z6, Z1, Z1
	VPADDD Z7, Z2, Z2
	VPADDD Z8, Z3, Z3
	VPADDD Z9, Z4, Z4

	ADDQ $64, SI
	DECQ BX
	JNZ  block

	VMOVDQU32 x16dig<>(SB), Z30
	STORE(0, Z0)
	STORE(4, Z1)
	STORE(8, Z2)
	STORE(12, Z3)
	STORE(16, Z4)

	VZEROUPPER
	RET
