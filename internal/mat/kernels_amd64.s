#include "textflag.h"

// func axpy4AVX(di, b *float32, stride, n int, a *float32)
//
// di[j] += a[0]*b0[j] + a[1]*b1[j] + a[2]*b2[j] + a[3]*b3[j]
// for j in [0, n&^7), b row i starting at b + i*stride floats.
// The caller handles the scalar tail.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-40
	MOVQ di+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ stride+16(FP), CX
	SHLQ $2, CX                   // stride in bytes
	MOVQ n+24(FP), BX
	MOVQ a+32(FP), AX
	VBROADCASTSS 0(AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3
	LEAQ (SI)(CX*1), R9           // b1
	LEAQ (SI)(CX*2), R10          // b2
	LEAQ (R9)(CX*2), R11          // b3
	ANDQ $-8, BX                  // vector span: n &^ 7
	JE   a4done
	XORQ DX, DX                   // j
	MOVQ BX, R8
	ANDQ $-16, R8                 // 2x-unrolled span: n &^ 15
	JE   a4x8

a4x16:
	VMOVUPS (DI)(DX*4), Y4
	VMOVUPS 32(DI)(DX*4), Y5
	VFMADD231PS (SI)(DX*4), Y0, Y4
	VFMADD231PS 32(SI)(DX*4), Y0, Y5
	VFMADD231PS (R9)(DX*4), Y1, Y4
	VFMADD231PS 32(R9)(DX*4), Y1, Y5
	VFMADD231PS (R10)(DX*4), Y2, Y4
	VFMADD231PS 32(R10)(DX*4), Y2, Y5
	VFMADD231PS (R11)(DX*4), Y3, Y4
	VFMADD231PS 32(R11)(DX*4), Y3, Y5
	VMOVUPS Y4, (DI)(DX*4)
	VMOVUPS Y5, 32(DI)(DX*4)
	ADDQ $16, DX
	CMPQ DX, R8
	JLT  a4x16

a4x8:
	CMPQ DX, BX
	JGE  a4done
	VMOVUPS (DI)(DX*4), Y4
	VFMADD231PS (SI)(DX*4), Y0, Y4
	VFMADD231PS (R9)(DX*4), Y1, Y4
	VFMADD231PS (R10)(DX*4), Y2, Y4
	VFMADD231PS (R11)(DX*4), Y3, Y4
	VMOVUPS Y4, (DI)(DX*4)
	ADDQ $8, DX
	JMP  a4x8

a4done:
	VZEROUPPER
	RET

// func axpy1AVX(di, b *float32, n int, a float32)
//
// di[j] += a*b[j] for j in [0, n&^7). The caller handles the scalar tail.
TEXT ·axpy1AVX(SB), NOSPLIT, $0-28
	MOVQ di+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), BX
	VBROADCASTSS a+24(FP), Y0
	ANDQ $-8, BX
	JE   a1done
	XORQ DX, DX

a1loop:
	VMOVUPS (DI)(DX*4), Y4
	VFMADD231PS (SI)(DX*4), Y0, Y4
	VMOVUPS Y4, (DI)(DX*4)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  a1loop

a1done:
	VZEROUPPER
	RET

// func dotQ8AVX(w, x *int8, n int) int32
//
// Returns sum(int32(w[j])*int32(x[j])) for j in [0, n&^15). Codes are
// sign-extended to int16 and multiply-accumulated pairwise into int32 lanes
// (VPMADDWD); |codes| <= 127 keeps every intermediate far from overflow.
// Integer addition is associative, so the result is bit-identical to the
// scalar loop. The caller handles the tail.
TEXT ·dotQ8AVX(SB), NOSPLIT, $0-28
	MOVQ w+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), BX
	VPXOR Y0, Y0, Y0
	ANDQ $-16, BX
	JE   q8sum
	XORQ DX, DX

q8loop:
	VPMOVSXBW (SI)(DX*1), Y1
	VPMOVSXBW (DI)(DX*1), Y2
	VPMADDWD Y2, Y1, Y3
	VPADDD Y3, Y0, Y0
	ADDQ $16, DX
	CMPQ DX, BX
	JLT  q8loop

q8sum:
	VEXTRACTI128 $1, Y0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPADDD X1, X0, X0
	VPSHUFD $0xB1, X0, X1
	VPADDD X1, X0, X0
	VMOVD X0, AX
	MOVL AX, ret+24(FP)
	VZEROUPPER
	RET

// Vectorized activation kernels. Both share an exp core: with x clamped to
// [-87, 88], t = x*log2(e) splits into n = round(t) and r = t-n, so
// e^x = 2^n * e^(r*ln2) with r*ln2 in [-0.347, 0.347]; a degree-6 Taylor
// polynomial (Horner, FMA) covers that range to ~2e-7 relative error, and
// the 2^n scale is an integer add into the float exponent bits. Accuracy is
// bounded by the relative-error tests in simd_test.go.

DATA sigConst<>+0(SB)/4, $0x3FB8AA3B  // log2(e)
DATA sigConst<>+4(SB)/4, $0x3F317218  // ln(2)
DATA sigConst<>+8(SB)/4, $0xC2AE0000  // clamp lo: -87
DATA sigConst<>+12(SB)/4, $0x42B00000 // clamp hi: +88
GLOBL sigConst<>(SB), RODATA, $16

DATA c6x8<>+0(SB)/4, $0x3AB60B61 // 1/720
DATA c6x8<>+4(SB)/4, $0x3AB60B61
DATA c6x8<>+8(SB)/4, $0x3AB60B61
DATA c6x8<>+12(SB)/4, $0x3AB60B61
DATA c6x8<>+16(SB)/4, $0x3AB60B61
DATA c6x8<>+20(SB)/4, $0x3AB60B61
DATA c6x8<>+24(SB)/4, $0x3AB60B61
DATA c6x8<>+28(SB)/4, $0x3AB60B61
GLOBL c6x8<>(SB), RODATA, $32

DATA c5x8<>+0(SB)/4, $0x3C088889 // 1/120
DATA c5x8<>+4(SB)/4, $0x3C088889
DATA c5x8<>+8(SB)/4, $0x3C088889
DATA c5x8<>+12(SB)/4, $0x3C088889
DATA c5x8<>+16(SB)/4, $0x3C088889
DATA c5x8<>+20(SB)/4, $0x3C088889
DATA c5x8<>+24(SB)/4, $0x3C088889
DATA c5x8<>+28(SB)/4, $0x3C088889
GLOBL c5x8<>(SB), RODATA, $32

DATA c4x8<>+0(SB)/4, $0x3D2AAAAB // 1/24
DATA c4x8<>+4(SB)/4, $0x3D2AAAAB
DATA c4x8<>+8(SB)/4, $0x3D2AAAAB
DATA c4x8<>+12(SB)/4, $0x3D2AAAAB
DATA c4x8<>+16(SB)/4, $0x3D2AAAAB
DATA c4x8<>+20(SB)/4, $0x3D2AAAAB
DATA c4x8<>+24(SB)/4, $0x3D2AAAAB
DATA c4x8<>+28(SB)/4, $0x3D2AAAAB
GLOBL c4x8<>(SB), RODATA, $32

DATA c3x8<>+0(SB)/4, $0x3E2AAAAB // 1/6
DATA c3x8<>+4(SB)/4, $0x3E2AAAAB
DATA c3x8<>+8(SB)/4, $0x3E2AAAAB
DATA c3x8<>+12(SB)/4, $0x3E2AAAAB
DATA c3x8<>+16(SB)/4, $0x3E2AAAAB
DATA c3x8<>+20(SB)/4, $0x3E2AAAAB
DATA c3x8<>+24(SB)/4, $0x3E2AAAAB
DATA c3x8<>+28(SB)/4, $0x3E2AAAAB
GLOBL c3x8<>(SB), RODATA, $32

DATA c2x8<>+0(SB)/4, $0x3F000000 // 1/2
DATA c2x8<>+4(SB)/4, $0x3F000000
DATA c2x8<>+8(SB)/4, $0x3F000000
DATA c2x8<>+12(SB)/4, $0x3F000000
DATA c2x8<>+16(SB)/4, $0x3F000000
DATA c2x8<>+20(SB)/4, $0x3F000000
DATA c2x8<>+24(SB)/4, $0x3F000000
DATA c2x8<>+28(SB)/4, $0x3F000000
GLOBL c2x8<>(SB), RODATA, $32

DATA onex8<>+0(SB)/4, $0x3F800000 // 1.0
DATA onex8<>+4(SB)/4, $0x3F800000
DATA onex8<>+8(SB)/4, $0x3F800000
DATA onex8<>+12(SB)/4, $0x3F800000
DATA onex8<>+16(SB)/4, $0x3F800000
DATA onex8<>+20(SB)/4, $0x3F800000
DATA onex8<>+24(SB)/4, $0x3F800000
DATA onex8<>+28(SB)/4, $0x3F800000
GLOBL onex8<>(SB), RODATA, $32

DATA twox8<>+0(SB)/4, $0x40000000 // 2.0
DATA twox8<>+4(SB)/4, $0x40000000
DATA twox8<>+8(SB)/4, $0x40000000
DATA twox8<>+12(SB)/4, $0x40000000
DATA twox8<>+16(SB)/4, $0x40000000
DATA twox8<>+20(SB)/4, $0x40000000
DATA twox8<>+24(SB)/4, $0x40000000
DATA twox8<>+28(SB)/4, $0x40000000
GLOBL twox8<>(SB), RODATA, $32

// exp core: Y1 = e^Y1, expects Y8=log2e, Y9=ln2, Y10=lo, Y11=hi broadcast;
// clobbers Y2-Y4.
#define EXP8 \
	VMAXPS Y10, Y1, Y1 \
	VMINPS Y11, Y1, Y1 \
	VMULPS Y8, Y1, Y2 \
	VROUNDPS $0, Y2, Y3 \
	VSUBPS Y3, Y2, Y2 \
	VMULPS Y9, Y2, Y2 \
	VMOVUPS c6x8<>(SB), Y4 \
	VFMADD213PS c5x8<>(SB), Y2, Y4 \
	VFMADD213PS c4x8<>(SB), Y2, Y4 \
	VFMADD213PS c3x8<>(SB), Y2, Y4 \
	VFMADD213PS c2x8<>(SB), Y2, Y4 \
	VFMADD213PS onex8<>(SB), Y2, Y4 \
	VFMADD213PS onex8<>(SB), Y2, Y4 \
	VCVTPS2DQ Y3, Y3 \
	VPSLLD $23, Y3, Y3 \
	VPADDD Y3, Y4, Y1

#define LOADEXPCONST \
	VBROADCASTSS sigConst<>+0(SB), Y8 \
	VBROADCASTSS sigConst<>+4(SB), Y9 \
	VBROADCASTSS sigConst<>+8(SB), Y10 \
	VBROADCASTSS sigConst<>+12(SB), Y11

// func vsigmoidAVX(x *float32, n int)
// x[j] = 1/(1+e^(-x[j])) for j in [0, n&^7). The caller handles the tail.
TEXT ·vsigmoidAVX(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), BX
	ANDQ $-8, BX
	JE   sgdone
	LOADEXPCONST
	XORQ DX, DX

sgloop:
	VMOVUPS (DI)(DX*4), Y1
	VXORPS Y5, Y5, Y5
	VSUBPS Y1, Y5, Y1          // -x
	EXP8                       // e^(-x)
	VADDPS onex8<>(SB), Y1, Y1 // 1 + e^(-x)
	VMOVUPS onex8<>(SB), Y5
	VDIVPS Y1, Y5, Y1          // 1 / (1 + e^(-x))
	VMOVUPS Y1, (DI)(DX*4)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  sgloop

sgdone:
	VZEROUPPER
	RET

// func vtanhAVX(x *float32, n int)
// x[j] = tanh(x[j]) = 1 - 2/(e^(2x[j])+1) for j in [0, n&^7).
TEXT ·vtanhAVX(SB), NOSPLIT, $0-16
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), BX
	ANDQ $-8, BX
	JE   thdone
	LOADEXPCONST
	XORQ DX, DX

thloop:
	VMOVUPS (DI)(DX*4), Y1
	VADDPS Y1, Y1, Y1          // 2x
	EXP8                       // e^(2x)
	VADDPS onex8<>(SB), Y1, Y1 // e^(2x) + 1
	VMOVUPS twox8<>(SB), Y5
	VDIVPS Y1, Y5, Y1          // 2 / (e^(2x)+1)
	VMOVUPS onex8<>(SB), Y5
	VSUBPS Y1, Y5, Y1          // 1 - 2/(e^(2x)+1)
	VMOVUPS Y1, (DI)(DX*4)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  thloop

thdone:
	VZEROUPPER
	RET

// Int8 quantization + multi-row dot kernels. All arithmetic mirrors the
// portable loops operation-for-operation (same single-rounding float32
// multiply, same add-half-then-truncate rounding, exact integer sums), so
// these paths stay bit-identical to scalar — pinned by simd_test.go.

DATA qConst<>+0(SB)/4, $0x80000000  // sign mask
DATA qConst<>+4(SB)/4, $0x3F000000  // 0.5
DATA qConst<>+8(SB)/4, $0x42FE0000  // +127
DATA qConst<>+12(SB)/4, $0xC2FE0000 // -127
DATA qConst<>+16(SB)/4, $0x7FFFFFFF // abs mask
GLOBL qConst<>(SB), RODATA, $20

// func maxAbs8AVX(x *float32, n int) float32
// Returns max |x[j]| over j in [0, n&^7); 0 when the span is empty.
TEXT ·maxAbs8AVX(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), BX
	VBROADCASTSS qConst<>+16(SB), Y9
	VXORPS Y1, Y1, Y1
	ANDQ $-8, BX
	JE   madone
	XORQ DX, DX

maloop:
	VMOVUPS (SI)(DX*4), Y2
	VANDPS Y9, Y2, Y2
	VMAXPS Y2, Y1, Y1
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  maloop

madone:
	VEXTRACTF128 $1, Y1, X2
	VMAXPS X2, X1, X1
	VPSHUFD $0x4E, X1, X2
	VMAXPS X2, X1, X1
	VPSHUFD $0xB1, X1, X2
	VMAXPS X2, X1, X1
	VMOVSS X1, ret+16(FP)
	VZEROUPPER
	RET

// func quantVec8AVX(dst *int8, x *float32, n int, inv float32)
// dst[j] = int8(trunc(clamp(x[j]*inv ± 0.5, ±127))) for j in [0, n&^7) —
// the same round-half-away-from-zero the scalar QuantizeVec8 loop computes.
TEXT ·quantVec8AVX(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), BX
	VBROADCASTSS inv+24(FP), Y8
	VBROADCASTSS qConst<>+0(SB), Y9
	VBROADCASTSS qConst<>+4(SB), Y10
	VBROADCASTSS qConst<>+8(SB), Y11
	VBROADCASTSS qConst<>+12(SB), Y12
	ANDQ $-8, BX
	JE   qvdone
	XORQ DX, DX

qvloop:
	VMOVUPS (SI)(DX*4), Y1
	VMULPS Y8, Y1, Y1
	VANDPS Y9, Y1, Y2  // sign of r
	VORPS Y10, Y2, Y2  // ±0.5 matching r's sign
	VADDPS Y2, Y1, Y1
	VMINPS Y11, Y1, Y1
	VMAXPS Y12, Y1, Y1
	VCVTTPS2DQ Y1, Y1
	VEXTRACTI128 $1, Y1, X2
	VPACKSSDW X2, X1, X1
	VPACKSSWB X1, X1, X1
	MOVQ X1, (DI)(DX*1)
	ADDQ $8, DX
	CMPQ DX, BX
	JLT  qvloop

qvdone:
	VZEROUPPER
	RET

// func dotQ8x4AVX(w *int8, stride int, x *int8, n int, out *int32)
// out[i] = Σ w_i[j]·x[j] over j in [0, n&^15) for the four rows starting at
// w, w+stride, w+2·stride, w+3·stride. One x load feeds all four rows.
TEXT ·dotQ8x4AVX(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), SI
	MOVQ stride+8(FP), R8
	MOVQ x+16(FP), DI
	MOVQ n+24(FP), BX
	MOVQ out+32(FP), R12
	LEAQ (SI)(R8*1), R9
	LEAQ (SI)(R8*2), R10
	LEAQ (R9)(R8*2), R11
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	ANDQ $-16, BX
	JE   d4done
	XORQ DX, DX
	MOVQ BX, CX
	ANDQ $-32, CX
	JE   d4loop16

d4loop32:
	VPMOVSXBW (DI)(DX*1), Y0
	VPMOVSXBW 16(DI)(DX*1), Y7
	VPMOVSXBW (SI)(DX*1), Y5
	VPMOVSXBW 16(SI)(DX*1), Y6
	VPMADDWD Y0, Y5, Y5
	VPMADDWD Y7, Y6, Y6
	VPADDD Y5, Y1, Y1
	VPADDD Y6, Y1, Y1
	VPMOVSXBW (R9)(DX*1), Y5
	VPMOVSXBW 16(R9)(DX*1), Y6
	VPMADDWD Y0, Y5, Y5
	VPMADDWD Y7, Y6, Y6
	VPADDD Y5, Y2, Y2
	VPADDD Y6, Y2, Y2
	VPMOVSXBW (R10)(DX*1), Y5
	VPMOVSXBW 16(R10)(DX*1), Y6
	VPMADDWD Y0, Y5, Y5
	VPMADDWD Y7, Y6, Y6
	VPADDD Y5, Y3, Y3
	VPADDD Y6, Y3, Y3
	VPMOVSXBW (R11)(DX*1), Y5
	VPMOVSXBW 16(R11)(DX*1), Y6
	VPMADDWD Y0, Y5, Y5
	VPMADDWD Y7, Y6, Y6
	VPADDD Y5, Y4, Y4
	VPADDD Y6, Y4, Y4
	ADDQ $32, DX
	CMPQ DX, CX
	JLT  d4loop32
	CMPQ DX, BX
	JGE  d4done

d4loop16:
	VPMOVSXBW (DI)(DX*1), Y0
	VPMOVSXBW (SI)(DX*1), Y5
	VPMADDWD Y0, Y5, Y5
	VPADDD Y5, Y1, Y1
	VPMOVSXBW (R9)(DX*1), Y5
	VPMADDWD Y0, Y5, Y5
	VPADDD Y5, Y2, Y2
	VPMOVSXBW (R10)(DX*1), Y5
	VPMADDWD Y0, Y5, Y5
	VPADDD Y5, Y3, Y3
	VPMOVSXBW (R11)(DX*1), Y5
	VPMADDWD Y0, Y5, Y5
	VPADDD Y5, Y4, Y4
	ADDQ $16, DX
	CMPQ DX, BX
	JLT  d4loop16

d4done:
	VEXTRACTI128 $1, Y1, X5
	VPADDD X5, X1, X1
	VPSHUFD $0x4E, X1, X5
	VPADDD X5, X1, X1
	VPSHUFD $0xB1, X1, X5
	VPADDD X5, X1, X1
	VMOVD X1, AX
	MOVL AX, (R12)
	VEXTRACTI128 $1, Y2, X5
	VPADDD X5, X2, X2
	VPSHUFD $0x4E, X2, X5
	VPADDD X5, X2, X2
	VPSHUFD $0xB1, X2, X5
	VPADDD X5, X2, X2
	VMOVD X2, AX
	MOVL AX, 4(R12)
	VEXTRACTI128 $1, Y3, X5
	VPADDD X5, X3, X3
	VPSHUFD $0x4E, X3, X5
	VPADDD X5, X3, X3
	VPSHUFD $0xB1, X3, X5
	VPADDD X5, X3, X3
	VMOVD X3, AX
	MOVL AX, 8(R12)
	VEXTRACTI128 $1, Y4, X5
	VPADDD X5, X4, X4
	VPSHUFD $0x4E, X4, X5
	VPADDD X5, X4, X4
	VPSHUFD $0xB1, X4, X5
	VPADDD X5, X4, X4
	VMOVD X4, AX
	MOVL AX, 12(R12)
	VZEROUPPER
	RET

// func mulExactAVX(d, w *float64, stride int, x *float64, k, n, add int)
//
// d[j] = Σ_kk x[kk]*w[kk*stride+j]  (add == 0)
// d[j] += Σ_kk x[kk]*w[kk*stride+j] (add != 0)
// for j in [0, n&^3). Each sum starts at +0 and accumulates in kk order
// through VMULPD then VADDPD (never fused), one output per lane: the exact
// rounding sequence of the scalar mat-vec loop. Outputs go 32 at a time
// (eight accumulators hide the add latency), then 4 at a time.
TEXT ·mulExactAVX(SB), NOSPLIT, $0-56
	MOVQ d+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ stride+16(FP), CX
	SHLQ $3, CX                   // stride in bytes
	MOVQ x+24(FP), R8
	MOVQ k+32(FP), R9
	MOVQ n+40(FP), BX
	MOVQ add+48(FP), R12
	ANDQ $-4, BX                  // vector span: n &^ 3
	XORQ DX, DX                   // j

me32:
	MOVQ BX, AX
	SUBQ DX, AX
	CMPQ AX, $32
	JLT  me4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ (SI)(DX*8), R10          // &w[0][j]
	XORQ R11, R11                 // kk

me32k:
	VBROADCASTSD (R8)(R11*8), Y8
	VMULPD (R10), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R10), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R10), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R10), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(R10), Y8, Y13
	VADDPD Y13, Y4, Y4
	VMULPD 160(R10), Y8, Y14
	VADDPD Y14, Y5, Y5
	VMULPD 192(R10), Y8, Y15
	VADDPD Y15, Y6, Y6
	VMULPD 224(R10), Y8, Y9
	VADDPD Y9, Y7, Y7
	ADDQ CX, R10
	INCQ R11
	CMPQ R11, R9
	JLT  me32k

	TESTQ R12, R12
	JE   me32st
	VADDPD (DI)(DX*8), Y0, Y0
	VADDPD 32(DI)(DX*8), Y1, Y1
	VADDPD 64(DI)(DX*8), Y2, Y2
	VADDPD 96(DI)(DX*8), Y3, Y3
	VADDPD 128(DI)(DX*8), Y4, Y4
	VADDPD 160(DI)(DX*8), Y5, Y5
	VADDPD 192(DI)(DX*8), Y6, Y6
	VADDPD 224(DI)(DX*8), Y7, Y7

me32st:
	VMOVUPD Y0, (DI)(DX*8)
	VMOVUPD Y1, 32(DI)(DX*8)
	VMOVUPD Y2, 64(DI)(DX*8)
	VMOVUPD Y3, 96(DI)(DX*8)
	VMOVUPD Y4, 128(DI)(DX*8)
	VMOVUPD Y5, 160(DI)(DX*8)
	VMOVUPD Y6, 192(DI)(DX*8)
	VMOVUPD Y7, 224(DI)(DX*8)
	ADDQ $32, DX
	JMP  me32

me4:
	CMPQ DX, BX
	JGE  medone
	VXORPD Y0, Y0, Y0
	LEAQ (SI)(DX*8), R10
	XORQ R11, R11

me4k:
	VBROADCASTSD (R8)(R11*8), Y8
	VMULPD (R10), Y8, Y9
	VADDPD Y9, Y0, Y0
	ADDQ CX, R10
	INCQ R11
	CMPQ R11, R9
	JLT  me4k

	TESTQ R12, R12
	JE   me4st
	VADDPD (DI)(DX*8), Y0, Y0

me4st:
	VMOVUPD Y0, (DI)(DX*8)
	ADDQ $4, DX
	JMP  me4

medone:
	VZEROUPPER
	RET
