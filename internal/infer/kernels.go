package infer

import (
	"math"

	"mdes/internal/mat"
)

// float is the activation element type of an engine format: float64 for the
// reference format, float32 for the f32 and int8 formats (int8 quantizes
// only the GEMM weights; activations stay float32).
type float interface{ float32 | float64 }

// dense is a row-major activation or embedding matrix. Its layout matches
// mat.Matrix32 (T = float32) and mat.Matrix (T = float64) field for field,
// so the kernel sets hand it to the mat kernels by pointer conversion.
type dense[T float] struct {
	Rows, Cols int
	Data       []T
}

// Row returns a view (no copy) of row i.
func (d *dense[T]) Row(i int) []T { return d.Data[i*d.Cols : (i+1)*d.Cols] }

// kernels is the per-format kernel set the shared decode walk runs on. Each
// method is one row-independent operation: output row b of every call
// depends only on input row b, which is what makes batched scores
// bit-identical to single-sentence scores in every format.
type kernels[T float] interface {
	// arena returns the workspace arena of this format's element type.
	arena(w *ws) *arena[T]
	// mul computes dst = x·wᵀ (add=false) or dst += x·wᵀ (add=true) for a
	// B×in activation matrix against a frozen out×in weight.
	mul(w *ws, dst, x *dense[T], wt *weight, add bool)
	// bias adds a bias vector to one output row.
	bias(b, dst []T)
	dot(a, b []T) T
	axpy(alpha T, x, dst []T)
	softmax(x []T)
	tanh(x []T)
	gates(g []T, h int)
	argMax(x []T) int
}

// k64 is the float64 reference kernel set. Every operation is the one the
// training model (internal/nmt) runs at inference time, in the same order:
// mat-vec products accumulate each output from +0 over j = 0..n−1 (MulVec),
// the recurrent product adds its finished sum (MulVecAdd), biases land via
// Axpy(1, b, ·). Scores are therefore bit-identical to nmt.ScoreSentence.
type k64 struct{}

func (k64) arena(w *ws) *arena[float64] { return &w.a64 }

//mdes:noalloc
func (k64) mul(_ *ws, dst, x *dense[float64], wt *weight, add bool) {
	if add {
		(*mat.Matrix)(x).MulMatExactAdd((*mat.Matrix)(dst), wt.f)
	} else {
		(*mat.Matrix)(x).MulMatExact((*mat.Matrix)(dst), wt.f)
	}
}

func (k64) bias(b, dst []float64)                { mat.Axpy(1, b, dst) }
func (k64) dot(a, b []float64) float64           { return mat.Dot(a, b) }
func (k64) axpy(alpha float64, x, dst []float64) { mat.Axpy(alpha, x, dst) }
func (k64) softmax(x []float64)                  { mat.Softmax(x, x) }
func (k64) tanh(x []float64)                     { mat.Tanh(x) }
func (k64) gates(g []float64, h int)             { mat.SigTanhGates(g, h) }
func (k64) argMax(x []float64) int               { return mat.ArgMax(x) }

// k32 is the reduced-precision kernel set: float32 activations against
// float32 (pre-transposed) or int8 (row-quantized) weights.
type k32 struct{}

func (k32) arena(w *ws) *arena[float32] { return &w.a32 }

// mul dispatches on the weight's storage. The int8 path quantizes each
// activation row on the fly.
//
//mdes:noalloc
func (k32) mul(w *ws, dst, x *dense[float32], wt *weight, add bool) {
	d, a := (*mat.Matrix32)(dst), (*mat.Matrix32)(x)
	if wt.t != nil {
		if add {
			a.MulMatAdd(d, wt.t)
		} else {
			a.MulMat(d, wt.t)
		}
		return
	}
	b, n := x.Rows, x.Cols
	qbuf, qscales := w.quantScratch(b, n)
	for i := 0; i < b; i++ {
		qscales[i] = mat.QuantizeVec8(qbuf[i*n:(i+1)*n], x.Row(i))
	}
	if add {
		wt.q.MulMatQ8Add(d, qbuf, qscales)
	} else {
		wt.q.MulMatQ8(d, qbuf, qscales)
	}
}

func (k32) bias(b, dst []float32)                { mat.Add32(b, dst) }
func (k32) dot(a, b []float32) float32           { return mat.Dot32(a, b) }
func (k32) axpy(alpha float32, x, dst []float32) { mat.Axpy32(alpha, x, dst) }
func (k32) softmax(x []float32)                  { mat.Softmax32(x, x) }
func (k32) tanh(x []float32)                     { mat.Tanh32(x) }
func (k32) gates(g []float32, h int)             { mat.SigTanhGates32(g, h) }
func (k32) argMax(x []float32) int               { return mat.ArgMax32(x) }

var negInf = math.Inf(-1)
