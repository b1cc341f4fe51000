//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels of the NNP hop kernel: feature staging (stageRowAVX2),
// gemmBlock's four-row quads (gemmQuadsAVX2) and the bias/ReLU pass
// (biasActAVX2). Each lane runs the scalar sequence of the pure-Go code it
// replaces, one IEEE operation per scalar operation with the same operand
// order and never a fused multiply-add, so every output bit, NaN payloads
// included, equals the pure-Go result.
//
// gemmQuadsAVX2: accumulators start at +0, k ascends, every product is one
// VMULPD (weight first, as MULSD has it) and every accumulation one VADDPD
// (product first, as ADDSD has it).
//
// Zero-skip: the four broadcast values of a quad are tested together.
// All zero skips k; none zero takes the plain path; a mix blends each zero
// row's product to −0.0 before the add, and x + (−0.0) is x for every x
// (+0, −0, ±Inf and NaN included), which is the scalar skip.
//
// Register use:
//   Y0–Y7  accumulators, row r in Y(2r) (columns j..j+3) and Y(2r+1)
//          (columns j+4..j+7); the 1-wide head accumulates row r in lane r
//          of Y0
//   Y8,Y9  W[k][j:j+8]        Y10 broadcast src[r][k]   Y11 product
//   Y12    quad src[·][k]     Y13 zero mask             Y14 +0   Y15 −0
//   AX src[0][k]  BX j*8  CX scratch  DX w  SI src quad  DI dst quad
//   R8 quads left  R9 3·inW·8  R10 inW·8  R11 outW·8  R12 &W[k][j]  R13 k left

DATA negzero<>+0(SB)/8, $0x8000000000000000
GLOBL negzero<>(SB), RODATA|NOPTR, $8

// QUADMASK gathers the quad's four src[r][k] into Y12 (row r in lane r),
// sets Y13 to all ones in the lanes that are ±0 and CX to the same 4-bit
// mask.
#define QUADMASK \
	VMOVSD       (AX), X12; \
	VMOVHPD      (AX)(R10*1), X12, X12; \
	VMOVSD       (AX)(R10*2), X13; \
	VMOVHPD      (AX)(R9*1), X13, X13; \
	VINSERTF128  $1, X13, Y12, Y12; \
	VCMPPD       $0, Y14, Y12, Y13; \
	VMOVMSKPD    Y13, CX

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
// Requires rows%4 == 0, rows > 0, outW%4 == 0 or outW == 1, and slices
// long enough for the shapes; writes dst = src·w for those rows (no bias).
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
	CMPQ         R11, $8
	JEQ          head

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

	// outW == 1, the energy head: lane r of Y0 is row r of the quad, and
	// QUADMASK's gather is the quad's input column. The products are the
	// same VMULPD (W[k] first) and, in a mixed quad, the same −0.0 blend.
	// The quad's four outputs are adjacent in dst, so one store writes
	// them.
head:
	VXORPD Y0, Y0, Y0
	MOVQ   SI, AX
	MOVQ   DX, R12
	MOVQ   inW+80(FP), R13
	TESTQ  R13, R13
	JEQ    storeh

kh:
	QUADMASK
	CMPQ         CX, $15
	JEQ          nexth
	VBROADCASTSD (R12), Y8
	VMULPD       Y12, Y8, Y11
	TESTQ        CX, CX
	JEQ          addh
	VBLENDVPD    Y13, Y15, Y11, Y11

addh:
	VADDPD Y0, Y11, Y0

nexth:
	ADDQ $8, AX
	ADDQ $8, R12
	DECQ R13
	JNE  kh

storeh:
	VMOVUPD Y0, (DI)
	LEAQ    (SI)(R10*4), SI
	ADDQ    $32, DI
	DECQ    R8
	JNE     head
	VZEROUPPER
	RET

// STAGE adds TABLE[shell][off/8 : off/8+4]·count (count broadcast in Y8)
// to one accumulator: the table value first, then the product first, as
// RowFromCounts' MULSD and ADDSD have them.
#define STAGE(off, acc) \
	VMOVUPD off(R12), Y9; \
	VMULPD  Y8, Y9, Y9; \
	VADDPD  acc, Y9, acc

// NORM writes (acc − mean)/std for four channels to dst: a subtraction and
// then a true division, as normalizeInto has it — never a reciprocal.
#define NORM(off, acc) \
	VSUBPD  off(R9), acc, acc; \
	VDIVPD  off(R10), acc, acc; \
	VMOVUPD acc, off(DI)

// func stageRowAVX2(dst []float64, cnt []uint16, tab, mean, std []float64)
// Requires len(dst) a positive multiple of 32, len(tab) a positive
// multiple of 32, len(cnt) ≥ len(dst)/32 · len(tab)/32 and len(mean),
// len(std) ≥ len(dst). Writes dst = (cnt×TABLE − mean)/std: dst holds
// len(dst)/32 element blocks of 32 channels, tab is TABLE with len(tab)/32
// shells, and cnt[el·nShells+shell] counts the atoms of element el in that
// shell. Per element block the eight accumulators Y0–Y7 start at +0 and
// take count·TABLE[shell] for every occupied shell in ascending order —
// feature.Table.RowFromCounts' order — then are normalised and stored
// once.
//   AX count  DX &TABLE[0]  SI &cnt  DI &dst block  R8 blocks left
//   R9 &mean block  R10 &std block  R11 shells  R12 &TABLE[shell]
//   R13 shells left  Y8 broadcast count  Y9 product  X15 +0
TEXT ·stageRowAVX2(SB), NOSPLIT, $0-120
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), R8
	SHRQ   $5, R8
	MOVQ   cnt_base+24(FP), SI
	MOVQ   tab_base+48(FP), DX
	MOVQ   tab_len+56(FP), R11
	SHRQ   $5, R11
	MOVQ   mean_base+72(FP), R9
	MOVQ   std_base+96(FP), R10
	VXORPD X15, X15, X15

block:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   DX, R12
	MOVQ   R11, R13

shell:
	MOVWQZX      (SI), AX
	TESTQ        AX, AX
	JEQ          nextshell
	VCVTSI2SDQ   AX, X15, X8
	VBROADCASTSD X8, Y8
	STAGE(0, Y0)
	STAGE(32, Y1)
	STAGE(64, Y2)
	STAGE(96, Y3)
	STAGE(128, Y4)
	STAGE(160, Y5)
	STAGE(192, Y6)
	STAGE(224, Y7)

nextshell:
	ADDQ $2, SI
	ADDQ $256, R12
	DECQ R13
	JNE  shell

	NORM(0, Y0)
	NORM(32, Y1)
	NORM(64, Y2)
	NORM(96, Y3)
	NORM(128, Y4)
	NORM(160, Y5)
	NORM(192, Y6)
	NORM(224, Y7)
	ADDQ $256, DI
	ADDQ $256, R9
	ADDQ $256, R10
	DECQ R8
	JNE  block
	VZEROUPPER
	RET

// func biasActAVX2(dst, b []float64, rows int, relu bool)
// Requires len(b) a positive multiple of four, rows > 0 and len(dst) ≥
// rows·len(b). Adds b to each row of dst — bias first, as biasActGo's
// ADDSD has it — then, with relu, takes VMAXPD with +0 as the first
// source: that returns the second source (the sum) unless +0 > sum, so a
// negative sum becomes +0 while −0 and NaN pass through unchanged, which
// is the scalar `if v < 0 { v = 0 }`.
//   BX j*8  DI dst row  SI b  R8 rows left  R11 len(b)·8  Y14 +0
TEXT ·biasActAVX2(SB), NOSPLIT, $0-57
	MOVQ   dst_base+0(FP), DI
	MOVQ   b_base+24(FP), SI
	MOVQ   b_len+32(FP), R11
	SHLQ   $3, R11
	MOVQ   rows+48(FP), R8
	VXORPD Y14, Y14, Y14
	CMPB   relu+56(FP), $0
	JEQ    addrow

relurow:
	XORQ BX, BX

relucol:
	VMOVUPD (SI)(BX*1), Y0
	VADDPD  (DI)(BX*1), Y0, Y0
	VMAXPD  Y0, Y14, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R11
	JLT     relucol
	ADDQ    R11, DI
	DECQ    R8
	JNE     relurow
	VZEROUPPER
	RET

addrow:
	XORQ BX, BX

addcol:
	VMOVUPD (SI)(BX*1), Y0
	VADDPD  (DI)(BX*1), Y0, Y0
	VMOVUPD Y0, (DI)(BX*1)
	ADDQ    $32, BX
	CMPQ    BX, R11
	JLT     addcol
	ADDQ    R11, DI
	DECQ    R8
	JNE     addrow
	VZEROUPPER
	RET

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
