// AVX2+FMA kernels for the batched NN hot path. Selected at runtime via
// cpuHasAVX2FMA (CPUID + XGETBV); the pure-Go scalar kernels in batch.go
// remain the portable fallback. Accumulation order inside each routine is
// fixed, so results are bit-identical run to run on the same machine.

#include "textflag.h"

// func cpuHasAVX2FMA() bool
// True when the CPU supports FMA, AVX2 and the OS saves YMM state.
TEXT ·cpuHasAVX2FMA(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	CPUID
	// ECX bit 12 = FMA, bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL	CX, R8
	ANDL	$0x18001000, R8
	CMPL	R8, $0x18001000
	JNE	no
	// XCR0 bits 1:2 — SSE and YMM state enabled by the OS.
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	no
	// Leaf 7 EBX bit 5 = AVX2.
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	ANDL	$0x20, BX
	JZ	no
	MOVB	$1, ret+0(FP)
	RET
no:
	MOVB	$0, ret+0(FP)
	RET

// func dotAsm(a, b []float64) float64
// Dot product over len(a) elements (caller guarantees len(b) >= len(a)).
// Four 4-wide FMA accumulators, reduced in a fixed order.
TEXT ·dotAsm(SB), NOSPLIT, $0-56
	MOVQ	a_base+0(FP), SI
	MOVQ	b_base+24(FP), DI
	MOVQ	a_len+8(FP), CX
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	MOVQ	CX, DX
	SHRQ	$4, DX
	JZ	dot_tail4
dot_loop16:
	VMOVUPD	(SI), Y4
	VMOVUPD	32(SI), Y5
	VMOVUPD	64(SI), Y6
	VMOVUPD	96(SI), Y7
	VFMADD231PD	(DI), Y4, Y0
	VFMADD231PD	32(DI), Y5, Y1
	VFMADD231PD	64(DI), Y6, Y2
	VFMADD231PD	96(DI), Y7, Y3
	ADDQ	$128, SI
	ADDQ	$128, DI
	DECQ	DX
	JNZ	dot_loop16
dot_tail4:
	ANDQ	$15, CX
	MOVQ	CX, DX
	SHRQ	$2, DX
	JZ	dot_tail1
dot_loop4:
	VMOVUPD	(SI), Y4
	VFMADD231PD	(DI), Y4, Y0
	ADDQ	$32, SI
	ADDQ	$32, DI
	DECQ	DX
	JNZ	dot_loop4
dot_tail1:
	ANDQ	$3, CX
	// Reduce the four accumulators: ((Y0+Y1)+(Y2+Y3)), then lanes.
	VADDPD	Y1, Y0, Y0
	VADDPD	Y3, Y2, Y2
	VADDPD	Y2, Y0, Y0
	VEXTRACTF128	$1, Y0, X1
	VADDPD	X1, X0, X0
	VHADDPD	X0, X0, X0
	JZ	dot_done
dot_scalar:
	VMOVSD	(SI), X2
	VMOVSD	(DI), X3
	VFMADD231SD	X3, X2, X0
	ADDQ	$8, SI
	ADDQ	$8, DI
	DECQ	CX
	JNZ	dot_scalar
dot_done:
	VMOVSD	X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyRowsAsm(dst, x, d []float64, in, dstride, n int)
// For k = 0..n-1 in order: dst[i] = fma(d[k*dstride], x[k*in+i], dst[i])
// for every i < len(dst), skipping each k whose d is ±0 (a NaN d is not
// skipped, as with Go's d != 0). Caller guarantees len(x) >= (n-1)*in +
// len(dst) and len(d) > (n-1)*dstride. Each element sees the same FMAs in
// the same order as n calls of a one-row axpy, so the result is bit for bit
// theirs; the difference is that a 32-wide dst tile stays in eight
// registers across all n rows, and is loaded and stored once per pass.
// A width that is not a multiple of 32 ends with one pass over the last
// 1-31 lanes: plain loads for a first full 16 lanes, masked loads and
// stores for the rest, so nothing past len(dst) lanes of dst or of an x row
// is read or written.
TEXT ·axpyRowsAsm(SB), NOSPLIT, $0-96
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), BX
	MOVQ	x_base+24(FP), SI
	MOVQ	d_base+48(FP), DX
	MOVQ	in+72(FP), R8
	SHLQ	$3, R8
	MOVQ	dstride+80(FP), R9
	SHLQ	$3, R9
	MOVQ	n+88(FP), R10
	TESTQ	R10, R10
	JZ	axr_done
axr_tile32:
	CMPQ	BX, $32
	JLT	axr_tail
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	VMOVUPD	128(DI), Y4
	VMOVUPD	160(DI), Y5
	VMOVUPD	192(DI), Y6
	VMOVUPD	224(DI), Y7
	MOVQ	SI, AX
	MOVQ	DX, R11
	MOVQ	R10, CX
axr_loop32:
	// Doubling the bits of d shifts its sign out: zero exactly at ±0.
	VBROADCASTSD	(R11), Y8
	VMOVQ	X8, R12
	ADDQ	R12, R12
	JZ	axr_skip32
	VFMADD231PD	(AX), Y8, Y0
	VFMADD231PD	32(AX), Y8, Y1
	VFMADD231PD	64(AX), Y8, Y2
	VFMADD231PD	96(AX), Y8, Y3
	VFMADD231PD	128(AX), Y8, Y4
	VFMADD231PD	160(AX), Y8, Y5
	VFMADD231PD	192(AX), Y8, Y6
	VFMADD231PD	224(AX), Y8, Y7
axr_skip32:
	ADDQ	R8, AX
	ADDQ	R9, R11
	DECQ	CX
	JNZ	axr_loop32
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VMOVUPD	Y4, 128(DI)
	VMOVUPD	Y5, 160(DI)
	VMOVUPD	Y6, 192(DI)
	VMOVUPD	Y7, 224(DI)
	ADDQ	$256, DI
	ADDQ	$256, SI
	SUBQ	$32, BX
	JMP	axr_tile32
axr_tail:
	TESTQ	BX, BX
	JZ	axr_done
	CMPQ	BX, $16
	JLE	axr_tail16
	// 17-31 lanes: 16 plain, then masks for the remaining BX-16. The
	// masks for lanes 16..31 are axrmask<>[32-BX:48-BX].
	MOVQ	$32, R12
	SUBQ	BX, R12
	LEAQ	axrmask<>(SB), R13
	LEAQ	(R13)(R12*8), R13
	VMOVUPD	(R13), Y12
	VMOVUPD	32(R13), Y13
	VMOVUPD	64(R13), Y14
	VMOVUPD	96(R13), Y15
	VMOVUPD	(DI), Y0
	VMOVUPD	32(DI), Y1
	VMOVUPD	64(DI), Y2
	VMOVUPD	96(DI), Y3
	VMASKMOVPD	128(DI), Y12, Y4
	VMASKMOVPD	160(DI), Y13, Y5
	VMASKMOVPD	192(DI), Y14, Y6
	VMASKMOVPD	224(DI), Y15, Y7
	MOVQ	SI, AX
	MOVQ	DX, R11
	MOVQ	R10, CX
axr_loop31:
	VBROADCASTSD	(R11), Y8
	VMOVQ	X8, R12
	ADDQ	R12, R12
	JZ	axr_skip31
	VFMADD231PD	(AX), Y8, Y0
	VFMADD231PD	32(AX), Y8, Y1
	VFMADD231PD	64(AX), Y8, Y2
	VFMADD231PD	96(AX), Y8, Y3
	VMASKMOVPD	128(AX), Y12, Y9
	VMASKMOVPD	160(AX), Y13, Y10
	VMASKMOVPD	192(AX), Y14, Y11
	VFMADD231PD	Y9, Y8, Y4
	VFMADD231PD	Y10, Y8, Y5
	VFMADD231PD	Y11, Y8, Y6
	VMASKMOVPD	224(AX), Y15, Y9
	VFMADD231PD	Y9, Y8, Y7
axr_skip31:
	ADDQ	R8, AX
	ADDQ	R9, R11
	DECQ	CX
	JNZ	axr_loop31
	VMOVUPD	Y0, (DI)
	VMOVUPD	Y1, 32(DI)
	VMOVUPD	Y2, 64(DI)
	VMOVUPD	Y3, 96(DI)
	VMASKMOVPD	Y4, Y12, 128(DI)
	VMASKMOVPD	Y5, Y13, 160(DI)
	VMASKMOVPD	Y6, Y14, 192(DI)
	VMASKMOVPD	Y7, Y15, 224(DI)
	JMP	axr_done
axr_tail16:
	// 1-16 lanes, all masked: axrmask<>[16-BX:32-BX].
	MOVQ	$16, R12
	SUBQ	BX, R12
	LEAQ	axrmask<>(SB), R13
	LEAQ	(R13)(R12*8), R13
	VMOVUPD	(R13), Y12
	VMOVUPD	32(R13), Y13
	VMOVUPD	64(R13), Y14
	VMOVUPD	96(R13), Y15
	VMASKMOVPD	(DI), Y12, Y0
	VMASKMOVPD	32(DI), Y13, Y1
	VMASKMOVPD	64(DI), Y14, Y2
	VMASKMOVPD	96(DI), Y15, Y3
	MOVQ	SI, AX
	MOVQ	DX, R11
	MOVQ	R10, CX
axr_loop16:
	VBROADCASTSD	(R11), Y8
	VMOVQ	X8, R12
	ADDQ	R12, R12
	JZ	axr_skip16
	VMASKMOVPD	(AX), Y12, Y4
	VMASKMOVPD	32(AX), Y13, Y5
	VMASKMOVPD	64(AX), Y14, Y6
	VMASKMOVPD	96(AX), Y15, Y7
	VFMADD231PD	Y4, Y8, Y0
	VFMADD231PD	Y5, Y8, Y1
	VFMADD231PD	Y6, Y8, Y2
	VFMADD231PD	Y7, Y8, Y3
axr_skip16:
	ADDQ	R8, AX
	ADDQ	R9, R11
	DECQ	CX
	JNZ	axr_loop16
	VMASKMOVPD	Y0, Y12, (DI)
	VMASKMOVPD	Y1, Y13, 32(DI)
	VMASKMOVPD	Y2, Y14, 64(DI)
	VMASKMOVPD	Y3, Y15, 96(DI)
axr_done:
	VZEROUPPER
	RET

// Lane masks for axpyRowsAsm's tail: 16 all-ones qwords, then 16 zeros.
// The 16 qwords from index 16-r on enable exactly the first r lanes.
#define ONES4(off) \
	DATA axrmask<>+(off)(SB)/8, $-1; \
	DATA axrmask<>+(off+8)(SB)/8, $-1; \
	DATA axrmask<>+(off+16)(SB)/8, $-1; \
	DATA axrmask<>+(off+24)(SB)/8, $-1
ONES4(0)
ONES4(32)
ONES4(64)
ONES4(96)
GLOBL axrmask<>(SB), RODATA|NOPTR, $256

// func dotRowsAsm(dst, w, x []float64, in int)
// dst[o] = dot(w[o*in : o*in+in], x[:in]) for every o < len(dst) (caller
// guarantees len(w) >= len(dst)*in and len(x) >= in). Rows run two per
// pass against one load of x; each row keeps dotAsm's four accumulators,
// 16/4/1 tails and reduction order, so every dst[o] is bit-identical to
// dotAsm(w[o*in:o*in+in], x).
TEXT ·dotRowsAsm(SB), NOSPLIT, $0-80
	MOVQ	dst_base+0(FP), DI
	MOVQ	dst_len+8(FP), BX
	MOVQ	w_base+24(FP), SI
	MOVQ	x_base+48(FP), R8
	MOVQ	in+72(FP), R9
	LEAQ	(R9*8), R10
rows_pair:
	CMPQ	BX, $2
	JLT	rows_single
	MOVQ	SI, AX
	LEAQ	(SI)(R10*1), R11
	MOVQ	R8, DX
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VXORPD	Y4, Y4, Y4
	VXORPD	Y5, Y5, Y5
	VXORPD	Y6, Y6, Y6
	VXORPD	Y7, Y7, Y7
	MOVQ	R9, CX
	MOVQ	CX, R12
	SHRQ	$4, R12
	JZ	pair_tail4
pair_loop16:
	VMOVUPD	(DX), Y8
	VMOVUPD	32(DX), Y9
	VMOVUPD	64(DX), Y10
	VMOVUPD	96(DX), Y11
	VFMADD231PD	(AX), Y8, Y0
	VFMADD231PD	32(AX), Y9, Y1
	VFMADD231PD	64(AX), Y10, Y2
	VFMADD231PD	96(AX), Y11, Y3
	VFMADD231PD	(R11), Y8, Y4
	VFMADD231PD	32(R11), Y9, Y5
	VFMADD231PD	64(R11), Y10, Y6
	VFMADD231PD	96(R11), Y11, Y7
	ADDQ	$128, AX
	ADDQ	$128, R11
	ADDQ	$128, DX
	DECQ	R12
	JNZ	pair_loop16
pair_tail4:
	ANDQ	$15, CX
	MOVQ	CX, R12
	SHRQ	$2, R12
	JZ	pair_tail1
pair_loop4:
	VMOVUPD	(DX), Y8
	VFMADD231PD	(AX), Y8, Y0
	VFMADD231PD	(R11), Y8, Y4
	ADDQ	$32, AX
	ADDQ	$32, R11
	ADDQ	$32, DX
	DECQ	R12
	JNZ	pair_loop4
pair_tail1:
	ANDQ	$3, CX
	VADDPD	Y1, Y0, Y0
	VADDPD	Y3, Y2, Y2
	VADDPD	Y2, Y0, Y0
	VEXTRACTF128	$1, Y0, X1
	VADDPD	X1, X0, X0
	VHADDPD	X0, X0, X0
	VADDPD	Y5, Y4, Y4
	VADDPD	Y7, Y6, Y6
	VADDPD	Y6, Y4, Y4
	VEXTRACTF128	$1, Y4, X5
	VADDPD	X5, X4, X4
	VHADDPD	X4, X4, X4
	JZ	pair_store
pair_scalar:
	VMOVSD	(DX), X8
	VFMADD231SD	(AX), X8, X0
	VFMADD231SD	(R11), X8, X4
	ADDQ	$8, AX
	ADDQ	$8, R11
	ADDQ	$8, DX
	DECQ	CX
	JNZ	pair_scalar
pair_store:
	VMOVSD	X0, (DI)
	VMOVSD	X4, 8(DI)
	ADDQ	$16, DI
	LEAQ	(SI)(R10*2), SI
	SUBQ	$2, BX
	JMP	rows_pair
rows_single:
	TESTQ	BX, BX
	JZ	rows_done
	// One row left: dotAsm's loop verbatim.
	MOVQ	SI, AX
	MOVQ	R8, DX
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	MOVQ	R9, CX
	MOVQ	CX, R12
	SHRQ	$4, R12
	JZ	one_tail4
one_loop16:
	VMOVUPD	(DX), Y8
	VMOVUPD	32(DX), Y9
	VMOVUPD	64(DX), Y10
	VMOVUPD	96(DX), Y11
	VFMADD231PD	(AX), Y8, Y0
	VFMADD231PD	32(AX), Y9, Y1
	VFMADD231PD	64(AX), Y10, Y2
	VFMADD231PD	96(AX), Y11, Y3
	ADDQ	$128, AX
	ADDQ	$128, DX
	DECQ	R12
	JNZ	one_loop16
one_tail4:
	ANDQ	$15, CX
	MOVQ	CX, R12
	SHRQ	$2, R12
	JZ	one_tail1
one_loop4:
	VMOVUPD	(DX), Y8
	VFMADD231PD	(AX), Y8, Y0
	ADDQ	$32, AX
	ADDQ	$32, DX
	DECQ	R12
	JNZ	one_loop4
one_tail1:
	ANDQ	$3, CX
	VADDPD	Y1, Y0, Y0
	VADDPD	Y3, Y2, Y2
	VADDPD	Y2, Y0, Y0
	VEXTRACTF128	$1, Y0, X1
	VADDPD	X1, X0, X0
	VHADDPD	X0, X0, X0
	JZ	one_store
one_scalar:
	VMOVSD	(DX), X8
	VFMADD231SD	(AX), X8, X0
	ADDQ	$8, AX
	ADDQ	$8, DX
	DECQ	CX
	JNZ	one_scalar
one_store:
	VMOVSD	X0, (DI)
rows_done:
	VZEROUPPER
	RET

// Constants for tanhAsm, each splatted across a 32-byte slot so it can be
// a ymm memory operand. The bit patterns are math.tanh's (tanhP, tanhQ,
// 0.5*MAXLOG, 0.625) and math.archExp's (LOG2E, LN2U, LN2L and the Taylor
// coefficients).
#define SPLAT(off, bits) \
	DATA tanhc<>+(off)(SB)/8, bits; \
	DATA tanhc<>+(off+8)(SB)/8, bits; \
	DATA tanhc<>+(off+16)(SB)/8, bits; \
	DATA tanhc<>+(off+24)(SB)/8, bits

SPLAT(0, $0x7fffffffffffffff)   // |x| mask
SPLAT(32, $0x8000000000000000)  // sign mask
SPLAT(64, $0x3ff0000000000000)  // 1
SPLAT(96, $0x4000000000000000)  // 2
SPLAT(128, $0x404601e678fc457b) // 0.5*MAXLOG
SPLAT(160, $0x3fe4000000000000) // 0.625
SPLAT(192, $0xbfeedc5baafd6f4b) // tanhP[0]
SPLAT(224, $0xc058d26a0e26682d) // tanhP[1]
SPLAT(256, $0xc0993ac030580563) // tanhP[2]
SPLAT(288, $0x405c33f28a581b86) // tanhQ[0]
SPLAT(320, $0x40a176fa0e5535fa) // tanhQ[1]
SPLAT(352, $0x40b2ec102442040c) // tanhQ[2]
SPLAT(384, $0x3ff71547652b82fe) // LOG2E
SPLAT(416, $0x3fe62e42fefa3000) // LN2U
SPLAT(448, $0x3d53de6af278ece6) // LN2L
SPLAT(480, $0x3fb0000000000000) // 0.0625
SPLAT(512, $0x3efa01a01a01a01a) // 1/8!
SPLAT(544, $0x3f2a01a01a01a01a) // 1/7!
SPLAT(576, $0x3f56c16c16c16c17) // 1/6!
SPLAT(608, $0x3f81111111111111) // 1/5!
SPLAT(640, $0x3fa5555555555555) // 1/4!
SPLAT(672, $0x3fc5555555555555) // 1/3!
SPLAT(704, $0x3fe0000000000000) // 1/2
SPLAT(736, $0x00000000000003ff) // exponent bias (int64 lanes)
GLOBL tanhc<>(SB), RODATA|NOPTR, $768

#define ABSMASK tanhc<>+0(SB)
#define SIGNMASK tanhc<>+32(SB)
#define ONE tanhc<>+64(SB)
#define TWO tanhc<>+96(SB)
#define HALFMAXLOG tanhc<>+128(SB)
#define RATLIMIT tanhc<>+160(SB)
#define TP0 tanhc<>+192(SB)
#define TP1 tanhc<>+224(SB)
#define TP2 tanhc<>+256(SB)
#define TQ0 tanhc<>+288(SB)
#define TQ1 tanhc<>+320(SB)
#define TQ2 tanhc<>+352(SB)
#define LOG2E tanhc<>+384(SB)
#define LN2U tanhc<>+416(SB)
#define LN2L tanhc<>+448(SB)
#define SIXTEENTH tanhc<>+480(SB)
#define E8 tanhc<>+512(SB)
#define E7 tanhc<>+544(SB)
#define E6 tanhc<>+576(SB)
#define E5 tanhc<>+608(SB)
#define E4 tanhc<>+640(SB)
#define E3 tanhc<>+672(SB)
#define E2 tanhc<>+704(SB)
#define EXPBIAS tanhc<>+736(SB)

// func tanhAsm(xs []float64)
// xs[i] = math.Tanh(xs[i]) for i < len(xs)&^3, four lanes at a time and bit
// for bit: each lane replays math.tanh — the rational form below 0.625,
// 1 - 2/(exp(2|x|)+1) up to 0.5*MAXLOG with exp computed exactly as
// math.archExp's FMA branch, ±1 beyond, x itself at ±0 — as the same IEEE
// operations in the same order. The |x| >= 0.625 mask is tested once per
// quad: the exp formula runs only when some lane needs it and the rational
// formula only when some lane does not, and the branch masks then pick one
// result per lane. A formula that was skipped leaves a stale register that
// no lane picks.
TEXT ·tanhAsm(SB), NOSPLIT, $0-24
	MOVQ	xs_base+0(FP), SI
	MOVQ	xs_len+8(FP), CX
	SHRQ	$2, CX
	JZ	tanh_done
	VXORPD	Y14, Y14, Y14
tanh_loop:
	VMOVUPD	(SI), Y0
	VANDPD	ABSMASK, Y0, Y1          // z = |x|
	VANDPD	SIGNMASK, Y0, Y9         // sign of x
	VCMPPD	$0x1d, RATLIMIT, Y1, Y10 // z >= 0.625 (false at NaN)
	VMOVMSKPD	Y10, AX
	CMPL	AX, $15
	JEQ	tanh_exp                 // every lane takes the exp formula

	// Rational branch: x + x*s*P(s)/Q(s), s = x*x.
	VMULPD	Y0, Y0, Y2               // s
	VMULPD	TP0, Y2, Y3
	VADDPD	TP1, Y3, Y3
	VMULPD	Y2, Y3, Y3
	VADDPD	TP2, Y3, Y3              // P = (P0*s+P1)*s+P2
	VADDPD	TQ0, Y2, Y4
	VMULPD	Y2, Y4, Y4
	VADDPD	TQ1, Y4, Y4
	VMULPD	Y2, Y4, Y4
	VADDPD	TQ2, Y4, Y4              // Q = ((s+Q0)*s+Q1)*s+Q2
	VMULPD	Y2, Y0, Y5               // x*s
	VMULPD	Y3, Y5, Y5               // x*s*P
	VDIVPD	Y4, Y5, Y5               // x*s*P/Q
	VADDPD	Y5, Y0, Y5               // rational result
	TESTL	AX, AX
	JZ	tanh_pick                // no lane takes the exp formula

tanh_exp:
	// Exp branch: e = exp(a), a = 2z, as archExp's FMA path.
	VADDPD	Y1, Y1, Y6               // a = 2z (exact)
	VMULPD	LOG2E, Y6, Y7
	VCVTPD2DQY	Y7, X8               // n = round(a*LOG2E)
	VCVTDQ2PD	X8, Y7
	VFNMADD231PD	LN2U, Y7, Y6     // a -= n*LN2U (fused)
	VFNMADD231PD	LN2L, Y7, Y6     // a -= n*LN2L (fused)
	VMULPD	SIXTEENTH, Y6, Y6        // r = a/16
	VMOVUPD	E8, Y7
	VFMADD213PD	E7, Y6, Y7
	VFMADD213PD	E6, Y6, Y7
	VFMADD213PD	E5, Y6, Y7
	VFMADD213PD	E4, Y6, Y7
	VFMADD213PD	E3, Y6, Y7
	VFMADD213PD	E2, Y6, Y7
	VFMADD213PD	ONE, Y6, Y7
	VMULPD	Y7, Y6, Y6               // r*p(r) = exp(r)-1
	VADDPD	TWO, Y6, Y7              // four squarings of 1+(...)
	VMULPD	Y7, Y6, Y6
	VADDPD	TWO, Y6, Y7
	VMULPD	Y7, Y6, Y6
	VADDPD	TWO, Y6, Y7
	VMULPD	Y7, Y6, Y6
	VADDPD	TWO, Y6, Y7
	VFMADD213PD	ONE, Y7, Y6
	VPMOVSXDQ	X8, Y8               // scale by 2**n
	VPADDQ	EXPBIAS, Y8, Y8
	VPSLLQ	$52, Y8, Y8
	VMULPD	Y8, Y6, Y6               // s = exp(2z)
	VADDPD	ONE, Y6, Y6
	VMOVUPD	TWO, Y7
	VDIVPD	Y6, Y7, Y7               // 2/(s+1)
	VMOVUPD	ONE, Y6
	VSUBPD	Y7, Y6, Y6               // 1 - 2/(s+1), positive
	VORPD	Y9, Y6, Y6               // negated when x < 0

tanh_pick:
	// Pick one branch per lane.
	VBLENDVPD	Y10, Y6, Y5, Y5            // z >= 0.625
	VORPD	ONE, Y9, Y9                // ±1
	VCMPPD	$0x1e, HALFMAXLOG, Y1, Y10 // z > 0.5*MAXLOG
	VBLENDVPD	Y10, Y9, Y5, Y5
	VCMPPD	$0x00, Y14, Y0, Y10        // x == ±0
	VBLENDVPD	Y10, Y0, Y5, Y5
	VMOVUPD	Y5, (SI)
	ADDQ	$32, SI
	DECQ	CX
	JNZ	tanh_loop
tanh_done:
	VZEROUPPER
	RET

// func adamAsm(p, g, m, v []float64, lr, b1, b2, eps, c1, c2 float64)
// adamUpdate's loop for i < len(g)&^3, four lanes at a time (caller
// guarantees len(p), len(m), len(v) >= len(g)):
//	m = b1*m + (1-b1)*g
//	v = b2*v + ((1-b2)*g)*g
//	p -= (lr*(m/c1)) / (sqrt(v/c2) + eps)
// Each lane runs the scalar loop's IEEE operations in its order, unfused
// and with true divides and square root, so it is bit for bit the scalar
// loop. Every operation takes its first source operand where the Go
// compiler's code for that loop does (for an add, the g term), so when
// both operands are NaN the result carries the same payload.
TEXT ·adamAsm(SB), NOSPLIT, $0-144
	MOVQ	p_base+0(FP), DI
	MOVQ	g_base+24(FP), SI
	MOVQ	g_len+32(FP), CX
	MOVQ	m_base+48(FP), R8
	MOVQ	v_base+72(FP), R9
	SHRQ	$2, CX
	JZ	adam_done
	VBROADCASTSD	lr+96(FP), Y8
	VBROADCASTSD	b1+104(FP), Y9
	VBROADCASTSD	b2+112(FP), Y10
	VBROADCASTSD	eps+120(FP), Y11
	VBROADCASTSD	c1+128(FP), Y12
	VBROADCASTSD	c2+136(FP), Y13
	VBROADCASTSD	tanhc<>+64(SB), Y14 // 1
	VSUBPD	Y9, Y14, Y15             // 1-b1
	VSUBPD	Y10, Y14, Y14            // 1-b2
adam_loop:
	VMOVUPD	(SI), Y0                 // g
	VMOVUPD	(R8), Y1
	VMULPD	Y9, Y1, Y1               // m*b1
	VMULPD	Y0, Y15, Y2              // (1-b1)*g
	VADDPD	Y1, Y2, Y1               // m
	VMOVUPD	Y1, (R8)
	VMOVUPD	(R9), Y3
	VMULPD	Y10, Y3, Y3              // v*b2
	VMULPD	Y0, Y14, Y4              // (1-b2)*g
	VMULPD	Y4, Y0, Y4               // g*((1-b2)*g)
	VADDPD	Y3, Y4, Y3               // v
	VMOVUPD	Y3, (R9)
	VDIVPD	Y12, Y1, Y1              // m/c1
	VDIVPD	Y13, Y3, Y3              // v/c2
	VSQRTPD	Y3, Y3
	VADDPD	Y11, Y3, Y3              // sqrt(v/c2)+eps
	VMULPD	Y8, Y1, Y1               // (m/c1)*lr
	VDIVPD	Y3, Y1, Y1
	VMOVUPD	(DI), Y2
	VSUBPD	Y1, Y2, Y2               // p - step
	VMOVUPD	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	ADDQ	$32, R8
	ADDQ	$32, R9
	DECQ	CX
	JNZ	adam_loop
adam_done:
	VZEROUPPER
	RET
