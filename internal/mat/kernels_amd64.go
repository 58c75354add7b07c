package mat

// Assembly kernel declarations (kernels_amd64.s). Each processes the largest
// vector-aligned prefix; callers finish the tail with portable Go. The int8
// kernel is integer arithmetic throughout, and the float64 kernel keeps the
// scalar operation order, so both return bit-identical results to the
// portable loops; the float32 FMA kernel rounds differently than
// scalar code (fused multiply-add, 8-lane accumulation) — scoring is
// deterministic per platform, and all correctness gates are relative
// (batch==single, parity vs float64), never golden float32 bits.

// axpy4AVX computes di[j] += a[0]·b0[j] + a[1]·b1[j] + a[2]·b2[j] + a[3]·b3[j]
// for j in [0, n&^7), where b row i starts at b+i·stride floats.
//
//go:noescape
func axpy4AVX(di, b *float32, stride, n int, a *float32)

// mulExactAVX computes d[j] = Σ_k x[k]·w[k*stride+j] (add=0) or
// d[j] += Σ_k x[k]·w[k*stride+j] (add=1) for j in [0, n&^3), each sum
// started at +0 and accumulated in k order with VMULPD then VADDPD — never
// FMA — so every output rounds exactly like the scalar mat-vec loop.
//
//go:noescape
func mulExactAVX(d, w *float64, stride int, x *float64, k, n, add int)

// axpy1AVX computes di[j] += a·b[j] for j in [0, n&^7).
//
//go:noescape
func axpy1AVX(di, b *float32, n int, a float32)

// dotQ8AVX returns Σ w[j]·x[j] over j in [0, n&^15) in int32.
//
//go:noescape
func dotQ8AVX(w, x *int8, n int) int32

// dotQ8x4AVX computes out[i] = Σ w_i[j]·x[j] over j in [0, n&^15) for the
// four int8 rows starting at w, w+stride, w+2·stride, w+3·stride, sharing one
// load of x across rows. Exact integer sums — bit-identical to scalar.
//
//go:noescape
func dotQ8x4AVX(w *int8, stride int, x *int8, n int, out *int32)

// maxAbs8AVX returns max |x[j]| over j in [0, n&^7); 0 for an empty span.
//
//go:noescape
func maxAbs8AVX(x *float32, n int) float32

// quantVec8AVX quantizes x[j]*inv with round-half-away-from-zero and ±127
// clamping into dst for j in [0, n&^7) — operation-for-operation the scalar
// QuantizeVec8 loop, so codes are bit-identical to the portable path.
//
//go:noescape
func quantVec8AVX(dst *int8, x *float32, n int, inv float32)

// vsigmoidAVX computes x[j] = 1/(1+e^(-x[j])) in place for j in [0, n&^7)
// with a degree-6 polynomial exp core (~2e-7 relative error).
//
//go:noescape
func vsigmoidAVX(x *float32, n int)

// vtanhAVX computes x[j] = tanh(x[j]) in place for j in [0, n&^7) via
// 1 - 2/(e^(2x)+1) on the same exp core.
//
//go:noescape
func vtanhAVX(x *float32, n int)
