//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernel for gemmBlock's four-row quads. Each lane runs the scalar
// sequence of the pure-Go kernel: accumulators start at +0, k ascends,
// every product is one VMULPD (weight first, as MULSD has it) and every
// accumulation one VADDPD (product first, as ADDSD has it) — never a fused
// multiply-add — so every output bit, NaN payloads included, equals
// gemmBlockGo's.
//
// Zero-skip: the four broadcast values of a quad are tested together.
// All zero skips k; none zero takes the plain path; a mix blends each zero
// row's product to −0.0 before the add, and x + (−0.0) is x for every x
// (+0, −0, ±Inf and NaN included), which is the scalar skip.
//
// Register use:
//   Y0–Y7  accumulators, row r in Y(2r) (columns j..j+3) and Y(2r+1)
//          (columns j+4..j+7)
//   Y8,Y9  W[k][j:j+8]        Y10 broadcast src[r][k]   Y11 product
//   Y12    quad zero mask     Y13 row zero mask         Y14 +0   Y15 −0
//   AX src[0][k]  BX j*8  CX scratch  DX w  SI src quad  DI dst quad
//   R8 quads left  R9 3·inW·8  R10 inW·8  R11 outW·8  R12 &W[k][j]  R13 k left

DATA negzero<>+0(SB)/8, $0x8000000000000000
GLOBL negzero<>(SB), RODATA|NOPTR, $8

// QUADMASK sets CX to the 4-bit mask of the rows whose src[r][k] is ±0.
#define QUADMASK \
	VMOVSD       (AX), X12; \
	VMOVHPD      (AX)(R10*1), X12, X12; \
	VMOVSD       (AX)(R10*2), X13; \
	VMOVHPD      (AX)(R9*1), X13, X13; \
	VINSERTF128  $1, X13, Y12, Y12; \
	VCMPPD       $0, Y14, Y12, Y12; \
	VMOVMSKPD    Y12, CX

// MULADD adds src[r][k]·W (already broadcast into Y10) to one accumulator.
#define MULADD(wk, acc) \
	VMULPD Y10, wk, Y11; \
	VADDPD acc, Y11, acc

// MULADDZ is MULADD with the product replaced by −0.0 where Y13 is set.
#define MULADDZ(wk, acc) \
	VMULPD    Y10, wk, Y11; \
	VBLENDVPD Y13, Y15, Y11, Y11; \
	VADDPD    acc, Y11, acc

#define ROW8(addr, a0, a1) \
	VBROADCASTSD addr, Y10; \
	MULADD(Y8, a0); \
	MULADD(Y9, a1)

#define ROW8Z(addr, a0, a1) \
	VBROADCASTSD addr, Y10; \
	VCMPPD       $0, Y14, Y10, Y13; \
	MULADDZ(Y8, a0); \
	MULADDZ(Y9, a1)

#define ROW4(addr, a0) \
	VBROADCASTSD addr, Y10; \
	MULADD(Y8, a0)

#define ROW4Z(addr, a0) \
	VBROADCASTSD addr, Y10; \
	VCMPPD       $0, Y14, Y10, Y13; \
	MULADDZ(Y8, a0)

// func gemmQuadsAVX2(dst, src, w []float64, rows, inW, outW int)
// Requires rows%4 == 0, rows > 0, outW%4 == 0, outW > 0 and slices long
// enough for the shapes; writes dst = src·w for those rows (no bias).
TEXT ·gemmQuadsAVX2(SB), NOSPLIT, $0-96
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         w_base+48(FP), DX
	MOVQ         rows+72(FP), R8
	SHRQ         $2, R8
	MOVQ         inW+80(FP), R10
	SHLQ         $3, R10
	LEAQ         (R10)(R10*2), R9
	MOVQ         outW+88(FP), R11
	SHLQ         $3, R11
	VXORPD       Y14, Y14, Y14
	VBROADCASTSD negzero<>(SB), Y15

quad:
	XORQ BX, BX

cols8:
	LEAQ   64(BX), CX
	CMPQ   CX, R11
	JGT    cols4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, AX
	LEAQ   (DX)(BX*1), R12
	MOVQ   inW+80(FP), R13
	TESTQ  R13, R13
	JEQ    store8

k8:
	QUADMASK
	CMPQ    CX, $15
	JEQ     next8
	VMOVUPD (R12), Y8
	VMOVUPD 32(R12), Y9
	TESTQ   CX, CX
	JNE     mixed8
	ROW8((AX), Y0, Y1)
	ROW8((AX)(R10*1), Y2, Y3)
	ROW8((AX)(R10*2), Y4, Y5)
	ROW8((AX)(R9*1), Y6, Y7)

next8:
	ADDQ $8, AX
	ADDQ R11, R12
	DECQ R13
	JNE  k8

store8:
	LEAQ    (DI)(BX*1), CX
	VMOVUPD Y0, (CX)
	VMOVUPD Y1, 32(CX)
	ADDQ    R11, CX
	VMOVUPD Y2, (CX)
	VMOVUPD Y3, 32(CX)
	ADDQ    R11, CX
	VMOVUPD Y4, (CX)
	VMOVUPD Y5, 32(CX)
	ADDQ    R11, CX
	VMOVUPD Y6, (CX)
	VMOVUPD Y7, 32(CX)
	ADDQ    $64, BX
	JMP     cols8

mixed8:
	ROW8Z((AX), Y0, Y1)
	ROW8Z((AX)(R10*1), Y2, Y3)
	ROW8Z((AX)(R10*2), Y4, Y5)
	ROW8Z((AX)(R9*1), Y6, Y7)
	JMP next8

	// At most one four-column block is left, since outW%4 == 0.
cols4:
	CMPQ   BX, R11
	JGE    nextquad
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	MOVQ   SI, AX
	LEAQ   (DX)(BX*1), R12
	MOVQ   inW+80(FP), R13
	TESTQ  R13, R13
	JEQ    store4

k4:
	QUADMASK
	CMPQ    CX, $15
	JEQ     next4
	VMOVUPD (R12), Y8
	TESTQ   CX, CX
	JNE     mixed4
	ROW4((AX), Y0)
	ROW4((AX)(R10*1), Y2)
	ROW4((AX)(R10*2), Y4)
	ROW4((AX)(R9*1), Y6)

next4:
	ADDQ $8, AX
	ADDQ R11, R12
	DECQ R13
	JNE  k4

store4:
	LEAQ    (DI)(BX*1), CX
	VMOVUPD Y0, (CX)
	ADDQ    R11, CX
	VMOVUPD Y2, (CX)
	ADDQ    R11, CX
	VMOVUPD Y4, (CX)
	ADDQ    R11, CX
	VMOVUPD Y6, (CX)

nextquad:
	LEAQ (SI)(R10*4), SI
	LEAQ (DI)(R11*4), DI
	DECQ R8
	JNE  quad
	VZEROUPPER
	RET

mixed4:
	ROW4Z((AX), Y0)
	ROW4Z((AX)(R10*1), Y2)
	ROW4Z((AX)(R10*2), Y4)
	ROW4Z((AX)(R9*1), Y6)
	JMP next4

// func cpuHasAVX2() bool
// AVX2 in CPUID leaf 7, and AVX with OSXSAVE in leaf 1 and XMM and YMM
// state enabled in XCR0, so the OS saves the upper halves on a switch.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	BTL   $5, BX
	JCC   no
	MOVB  $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
