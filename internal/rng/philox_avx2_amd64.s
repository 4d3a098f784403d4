//go:build avx2 && amd64

// AVX2 Philox4x32-10 batch kernels. Eight independent blocks are advanced
// per iteration in structure-of-arrays form: Y0..Y3 hold component c0..c3 of
// all eight blocks. VPMULUDQ multiplies only the even 32-bit lanes, so each
// round does the even lanes in place and the odd lanes through a 32-bit
// shift, then recombines the hi/lo product halves with VPBLENDD. The final
// 4x8 -> 8x4 transpose (VPUNPCK{L,H}DQ, VPUNPCK{L,H}QDQ, VPERM2I128) stores
// the blocks in exactly Block's array-of-blocks output order, so the vector
// path is bit-identical to the scalar generator by construction.
//
// PHILOX_ROUNDS runs the ten rounds on state Y0..Y3 with round keys Y12/Y13
// (clobbered), Y8/Y9 = M0/M1, Y10/Y11 = W0/W1, Y4..Y7 and Y15 as
// temporaries, CX as the round counter:
//   Y4 = even-lane M0*c0, Y5 = odd-lane M0*c0 (then hi1), Y15 = hi0,
//   Y6 = even-lane M1*c2 (then lo1), Y7 = odd-lane M1*c2,
//   c0' = hi1^c1^k0, c1' = lo1, c2' = hi0^c3^k1, c3' = lo0.
// PHILOX_STORE transposes Y0..Y3 into eight consecutive 16-byte blocks at
// (DI) and advances DI, clobbering Y4..Y7.

#include "textflag.h"

DATA ·philoxLaneIota+0(SB)/4, $0
DATA ·philoxLaneIota+4(SB)/4, $1
DATA ·philoxLaneIota+8(SB)/4, $2
DATA ·philoxLaneIota+12(SB)/4, $3
DATA ·philoxLaneIota+16(SB)/4, $4
DATA ·philoxLaneIota+20(SB)/4, $5
DATA ·philoxLaneIota+24(SB)/4, $6
DATA ·philoxLaneIota+28(SB)/4, $7
GLOBL ·philoxLaneIota(SB), RODATA|NOPTR, $32

DATA ·philoxEight+0(SB)/4, $8
DATA ·philoxEight+4(SB)/4, $8
DATA ·philoxEight+8(SB)/4, $8
DATA ·philoxEight+12(SB)/4, $8
DATA ·philoxEight+16(SB)/4, $8
DATA ·philoxEight+20(SB)/4, $8
DATA ·philoxEight+24(SB)/4, $8
DATA ·philoxEight+28(SB)/4, $8
GLOBL ·philoxEight(SB), RODATA|NOPTR, $32

DATA ·philoxM0v+0(SB)/4, $0xD2511F53
DATA ·philoxM0v+4(SB)/4, $0xD2511F53
DATA ·philoxM0v+8(SB)/4, $0xD2511F53
DATA ·philoxM0v+12(SB)/4, $0xD2511F53
DATA ·philoxM0v+16(SB)/4, $0xD2511F53
DATA ·philoxM0v+20(SB)/4, $0xD2511F53
DATA ·philoxM0v+24(SB)/4, $0xD2511F53
DATA ·philoxM0v+28(SB)/4, $0xD2511F53
GLOBL ·philoxM0v(SB), RODATA|NOPTR, $32

DATA ·philoxM1v+0(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+4(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+8(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+12(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+16(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+20(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+24(SB)/4, $0xCD9E8D57
DATA ·philoxM1v+28(SB)/4, $0xCD9E8D57
GLOBL ·philoxM1v(SB), RODATA|NOPTR, $32

DATA ·philoxW0v+0(SB)/4, $0x9E3779B9
DATA ·philoxW0v+4(SB)/4, $0x9E3779B9
DATA ·philoxW0v+8(SB)/4, $0x9E3779B9
DATA ·philoxW0v+12(SB)/4, $0x9E3779B9
DATA ·philoxW0v+16(SB)/4, $0x9E3779B9
DATA ·philoxW0v+20(SB)/4, $0x9E3779B9
DATA ·philoxW0v+24(SB)/4, $0x9E3779B9
DATA ·philoxW0v+28(SB)/4, $0x9E3779B9
GLOBL ·philoxW0v(SB), RODATA|NOPTR, $32

DATA ·philoxW1v+0(SB)/4, $0xBB67AE85
DATA ·philoxW1v+4(SB)/4, $0xBB67AE85
DATA ·philoxW1v+8(SB)/4, $0xBB67AE85
DATA ·philoxW1v+12(SB)/4, $0xBB67AE85
DATA ·philoxW1v+16(SB)/4, $0xBB67AE85
DATA ·philoxW1v+20(SB)/4, $0xBB67AE85
DATA ·philoxW1v+24(SB)/4, $0xBB67AE85
DATA ·philoxW1v+28(SB)/4, $0xBB67AE85
GLOBL ·philoxW1v(SB), RODATA|NOPTR, $32

#define PHILOX_ROUNDS(label)     \
	MOVQ $10, CX                 \
label:                           \
	VPMULUDQ Y0, Y8, Y4          \
	VPSRLQ $32, Y0, Y5           \
	VPMULUDQ Y5, Y8, Y5          \
	VPMULUDQ Y2, Y9, Y6          \
	VPSRLQ $32, Y2, Y7           \
	VPMULUDQ Y7, Y9, Y7          \
	VPSRLQ $32, Y4, Y15          \
	VPBLENDD $0xAA, Y5, Y15, Y15 \
	VPSLLQ $32, Y5, Y5           \
	VPBLENDD $0xAA, Y5, Y4, Y4   \
	VPSRLQ $32, Y6, Y5           \
	VPBLENDD $0xAA, Y7, Y5, Y5   \
	VPSLLQ $32, Y7, Y7           \
	VPBLENDD $0xAA, Y7, Y6, Y6   \
	VPXOR Y5, Y1, Y0             \
	VPXOR Y12, Y0, Y0            \
	VPXOR Y15, Y3, Y2            \
	VPXOR Y13, Y2, Y2            \
	VMOVDQA Y6, Y1               \
	VMOVDQA Y4, Y3               \
	VPADDD Y10, Y12, Y12         \
	VPADDD Y11, Y13, Y13         \
	DECQ CX                      \
	JNZ label

#define PHILOX_STORE             \
	VPUNPCKLDQ Y1, Y0, Y4        \
	VPUNPCKHDQ Y1, Y0, Y5        \
	VPUNPCKLDQ Y3, Y2, Y6        \
	VPUNPCKHDQ Y3, Y2, Y7        \
	VPUNPCKLQDQ Y6, Y4, Y0       \
	VPUNPCKHQDQ Y6, Y4, Y1       \
	VPUNPCKLQDQ Y7, Y5, Y2       \
	VPUNPCKHQDQ Y7, Y5, Y3       \
	VPERM2I128 $0x20, Y1, Y0, Y4 \
	VPERM2I128 $0x20, Y3, Y2, Y5 \
	VPERM2I128 $0x31, Y1, Y0, Y6 \
	VPERM2I128 $0x31, Y3, Y2, Y7 \
	VMOVDQU Y4, (DI)             \
	VMOVDQU Y5, 32(DI)           \
	VMOVDQU Y6, 64(DI)           \
	VMOVDQU Y7, 96(DI)           \
	ADDQ $128, DI

// func blockRowAVX2(dst *uint32, n uint64, ctr Counter, key Key)
TEXT ·blockRowAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), SI
	VMOVDQU ·philoxM0v(SB), Y8
	VMOVDQU ·philoxM1v(SB), Y9
	VMOVDQU ·philoxW0v(SB), Y10
	VMOVDQU ·philoxW1v(SB), Y11

	// Y14 = running c3 vector: broadcast ctr[3] + {0..7}, advanced by 8
	// per iteration (wrapping mod 2^32 like the scalar counter walk).
	VPBROADCASTD ctr+28(FP), Y14
	VPADDD ·philoxLaneIota(SB), Y14, Y14

rowloop:
	VPBROADCASTD ctr+16(FP), Y0
	VPBROADCASTD ctr+20(FP), Y1
	VPBROADCASTD ctr+24(FP), Y2
	VMOVDQA Y14, Y3
	VPBROADCASTD key+32(FP), Y12
	VPBROADCASTD key+36(FP), Y13
	PHILOX_ROUNDS(rowround)
	PHILOX_STORE
	VPADDD ·philoxEight(SB), Y14, Y14
	SUBQ $8, SI
	JNZ rowloop
	VZEROUPPER
	RET

// func blockLanesAVX2(dst *uint32, n uint64, ctr Counter, k0s, k1s *uint32)
TEXT ·blockLanesAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), SI
	MOVQ k0s+32(FP), R8
	MOVQ k1s+40(FP), R9
	VMOVDQU ·philoxM0v(SB), Y8
	VMOVDQU ·philoxM1v(SB), Y9
	VMOVDQU ·philoxW0v(SB), Y10
	VMOVDQU ·philoxW1v(SB), Y11

laneloop:
	VPBROADCASTD ctr+16(FP), Y0
	VPBROADCASTD ctr+20(FP), Y1
	VPBROADCASTD ctr+24(FP), Y2
	VPBROADCASTD ctr+28(FP), Y3
	VMOVDQU (R8), Y12
	VMOVDQU (R9), Y13
	PHILOX_ROUNDS(laneround)
	PHILOX_STORE
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $8, SI
	JNZ laneloop
	VZEROUPPER
	RET

// Fused accept-mask kernels (see accept.go). Both run PHILOX_ROUNDS exactly
// as above, but instead of transposing and storing the blocks they compare
// the round registers Y0..Y3 (component c of the eight blocks) against the
// thresholds on sign-flipped words — signed VPCMPGTD then orders like the
// unsigned compare — and emit only the acceptance bits.

DATA ·acceptSignBit+0(SB)/4, $0x80000000
DATA ·acceptSignBit+4(SB)/4, $0x80000000
DATA ·acceptSignBit+8(SB)/4, $0x80000000
DATA ·acceptSignBit+12(SB)/4, $0x80000000
DATA ·acceptSignBit+16(SB)/4, $0x80000000
DATA ·acceptSignBit+20(SB)/4, $0x80000000
DATA ·acceptSignBit+24(SB)/4, $0x80000000
DATA ·acceptSignBit+28(SB)/4, $0x80000000
GLOBL ·acceptSignBit(SB), RODATA|NOPTR, $32

// acceptPackIdx gathers dwords 0, 4, 1, 5 after the two saturating packs of
// acceptRowAVX2: the a4 bytes of blocks 0..3 and 4..7, then the a8 bytes.
DATA ·acceptPackIdx+0(SB)/4, $0
DATA ·acceptPackIdx+4(SB)/4, $4
DATA ·acceptPackIdx+8(SB)/4, $1
DATA ·acceptPackIdx+12(SB)/4, $5
DATA ·acceptPackIdx+16(SB)/4, $0
DATA ·acceptPackIdx+20(SB)/4, $0
DATA ·acceptPackIdx+24(SB)/4, $0
DATA ·acceptPackIdx+28(SB)/4, $0
GLOBL ·acceptPackIdx(SB), RODATA|NOPTR, $32

// acceptNarrowIdx splits four uint64 thresholds into their low dwords (low
// half) and high dwords (high half).
DATA ·acceptNarrowIdx+0(SB)/4, $0
DATA ·acceptNarrowIdx+4(SB)/4, $2
DATA ·acceptNarrowIdx+8(SB)/4, $4
DATA ·acceptNarrowIdx+12(SB)/4, $6
DATA ·acceptNarrowIdx+16(SB)/4, $1
DATA ·acceptNarrowIdx+20(SB)/4, $3
DATA ·acceptNarrowIdx+24(SB)/4, $5
DATA ·acceptNarrowIdx+28(SB)/4, $7
GLOBL ·acceptNarrowIdx(SB), RODATA|NOPTR, $32

// ROW_ACCEPT_FIRST / ROW_ACCEPT fold component c (register Yc) of a word's
// eight blocks into the a4 (Y12) and a8 (Y13) byte vectors: lane b of Yc is
// site 4b+c, so its accept bit is bit 2c+p of byte b. With R9 pointing at
// rowAcceptConsts (s4 at 0, s8 at 32, k4[c] at 64+32c, k8[c] at 192+32c),
// accept = !(u' > s') and the mask k places the bit (k = 0 when t = 0).
#define ROW_ACCEPT_FIRST(Yc) \
	VPCMPGTD 0(R9), Yc, Y4    \
	VPANDN 64(R9), Y4, Y12    \
	VPCMPGTD 32(R9), Yc, Y5   \
	VPANDN 192(R9), Y5, Y13

#define ROW_ACCEPT(Yc, k4, k8) \
	VPCMPGTD 0(R9), Yc, Y4     \
	VPANDN k4(R9), Y4, Y4      \
	VPOR Y4, Y12, Y12          \
	VPCMPGTD 32(R9), Yc, Y5    \
	VPANDN k8(R9), Y5, Y5      \
	VPOR Y5, Y13, Y13

#define SIGN_FLIP_STATE                    \
	VPXOR ·acceptSignBit(SB), Y0, Y0 \
	VPXOR ·acceptSignBit(SB), Y1, Y1 \
	VPXOR ·acceptSignBit(SB), Y2, Y2 \
	VPXOR ·acceptSignBit(SB), Y3, Y3

// func acceptRowAVX2(a4, a8 *uint64, n uint64, ctr Counter, key Key, c *rowAcceptConsts)
//
// One word per iteration: its eight blocks are exactly one vector of
// counters, so there is no scalar tail.
TEXT ·acceptRowAVX2(SB), NOSPLIT, $0-56
	MOVQ a4+0(FP), DI
	MOVQ a8+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ c+48(FP), R9
	VMOVDQU ·philoxM0v(SB), Y8
	VMOVDQU ·philoxM1v(SB), Y9
	VMOVDQU ·philoxW0v(SB), Y10
	VMOVDQU ·philoxW1v(SB), Y11
	VPBROADCASTD ctr+36(FP), Y14
	VPADDD ·philoxLaneIota(SB), Y14, Y14

acceptrowloop:
	VPBROADCASTD ctr+24(FP), Y0
	VPBROADCASTD ctr+28(FP), Y1
	VPBROADCASTD ctr+32(FP), Y2
	VMOVDQA Y14, Y3
	VPBROADCASTD key+40(FP), Y12
	VPBROADCASTD key+44(FP), Y13
	PHILOX_ROUNDS(acceptrowround)
	SIGN_FLIP_STATE
	ROW_ACCEPT_FIRST(Y0)
	ROW_ACCEPT(Y1, 96, 224)
	ROW_ACCEPT(Y2, 128, 256)
	ROW_ACCEPT(Y3, 160, 288)
	// Each dword of Y12/Y13 holds one byte; pack them to bytes and gather
	// the a4 bytes into the low qword, the a8 bytes into the high one.
	VPACKUSDW Y13, Y12, Y4
	VPACKUSWB Y4, Y4, Y4
	VMOVDQU ·acceptPackIdx(SB), Y5
	VPERMD Y4, Y5, Y4
	VMOVQ X4, (DI)
	VPEXTRQ $1, X4, (SI)
	ADDQ $8, DI
	ADDQ $8, SI
	VPADDD ·philoxEight(SB), Y14, Y14
	DECQ DX
	JNZ acceptrowloop
	VZEROUPPER
	RET

// LANE_THRESHOLDS loads the eight uint64 thresholds at (ptr) as Y12 = the
// sign-flipped low dwords and Y13 = the high dwords shifted into the sign
// bit (set only for t = 2^32, which accepts every u). Needs Y14 =
// acceptNarrowIdx.
#define LANE_THRESHOLDS(ptr)            \
	VPERMD (ptr), Y14, Y4            \
	VPERMD 32(ptr), Y14, Y5          \
	VPERM2I128 $0x20, Y5, Y4, Y12    \
	VPERM2I128 $0x31, Y5, Y4, Y13    \
	VPXOR ·acceptSignBit(SB), Y12, Y12 \
	VPSLLD $31, Y13, Y13

// LANE_ACCEPT writes byte off(dst) = the accept bits (lane l at bit l) of
// component Yc against the thresholds in Y12/Y13: u < t <=> t_lo' > u' or
// t = 2^32.
#define LANE_ACCEPT(Yc, off, dst) \
	VPCMPGTD Yc, Y12, Y4       \
	VPOR Y13, Y4, Y4           \
	VMOVMSKPS Y4, AX           \
	MOVB AX, off(dst)

// func acceptLanesAVX2(a4, a8 *[4]uint64, n uint64, ctr Counter, k0s, k1s *uint32, t4s, t8s *uint64)
//
// Eight lanes per iteration; iteration i writes byte i of every a4[c] and
// a8[c] word (little-endian, so lane 8i+l lands at bit 8i+l).
TEXT ·acceptLanesAVX2(SB), NOSPLIT, $0-72
	MOVQ a4+0(FP), DI
	MOVQ a8+8(FP), SI
	MOVQ n+16(FP), DX
	MOVQ k0s+40(FP), R8
	MOVQ k1s+48(FP), R9
	MOVQ t4s+56(FP), R10
	MOVQ t8s+64(FP), R11
	VMOVDQU ·philoxM0v(SB), Y8
	VMOVDQU ·philoxM1v(SB), Y9
	VMOVDQU ·philoxW0v(SB), Y10
	VMOVDQU ·philoxW1v(SB), Y11
	VMOVDQU ·acceptNarrowIdx(SB), Y14

acceptlaneloop:
	VPBROADCASTD ctr+24(FP), Y0
	VPBROADCASTD ctr+28(FP), Y1
	VPBROADCASTD ctr+32(FP), Y2
	VPBROADCASTD ctr+36(FP), Y3
	VMOVDQU (R8), Y12
	VMOVDQU (R9), Y13
	PHILOX_ROUNDS(acceptlaneround)
	SIGN_FLIP_STATE
	LANE_THRESHOLDS(R10)
	LANE_ACCEPT(Y0, 0, DI)
	LANE_ACCEPT(Y1, 8, DI)
	LANE_ACCEPT(Y2, 16, DI)
	LANE_ACCEPT(Y3, 24, DI)
	LANE_THRESHOLDS(R11)
	LANE_ACCEPT(Y0, 0, SI)
	LANE_ACCEPT(Y1, 8, SI)
	LANE_ACCEPT(Y2, 16, SI)
	LANE_ACCEPT(Y3, 24, SI)
	ADDQ $32, R8
	ADDQ $32, R9
	ADDQ $64, R10
	ADDQ $64, R11
	INCQ DI
	INCQ SI
	SUBQ $8, DX
	JNZ acceptlaneloop
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (ax, bx, cx, dx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, ax+8(FP)
	MOVL BX, bx+12(FP)
	MOVL CX, cx+16(FP)
	MOVL DX, dx+20(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	MOVL DX, ret+4(FP)
	RET
