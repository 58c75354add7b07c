package mat

import (
	"math"
	"math/rand"
	"testing"
)

// naiveMulMat is the reference triple loop the blocked GEMM must match bit
// for bit (k innermost, increasing — the order mulMatRow preserves).
func naiveMulMat(dst, a, b *Matrix, add bool) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			if add {
				s = dst.At(i, j)
			}
			for k := 0; k < a.Cols; k++ {
				if a.At(i, k) == 0 {
					continue
				}
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		if rng.Intn(7) == 0 {
			m.Data[i] = 0 // exercise the zero-skip block fallback
		}
	}
	return m
}

func TestMulMatMatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{{1, 1, 1}, {3, 5, 2}, {4, 4, 4}, {7, 9, 5}, {8, 13, 16}, {16, 6, 1}}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		got := New(m, n)
		want := New(m, n)
		a.MulMat(got, b)
		naiveMulMat(want, a, b, false)
		for i, v := range got.Data {
			if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
				t.Fatalf("MulMat %dx%dx%d element %d: got %v want %v", m, k, n, i, v, want.Data[i])
			}
		}
		// Accumulating variant on a non-zero destination.
		acc := randMatrix(rng, m, n)
		accWant := acc.Clone()
		a.MulMatAdd(acc, b)
		naiveMulMat(accWant, a, b, true)
		for i, v := range acc.Data {
			if math.Float64bits(v) != math.Float64bits(accWant.Data[i]) {
				t.Fatalf("MulMatAdd %dx%dx%d element %d: got %v want %v", m, k, n, i, v, accWant.Data[i])
			}
		}
	}
}

// TestMulMatMatchesMulVec pins the property the batched scorer relies on:
// row i of a GEMM equals MulVec on row i alone, bit for bit.
func TestMulMatMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randMatrix(rng, 6, 11)
	b := randMatrix(rng, 11, 9)
	got := New(6, 9)
	a.MulMat(got, b)
	// b's transpose applied per row: dst_row = bT · a_row.
	bt := New(b.Cols, b.Rows)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	row := make([]float64, 9)
	for i := 0; i < 6; i++ {
		bt.MulVec(row, a.Row(i))
		for j, v := range row {
			if math.Abs(v-got.At(i, j)) > 1e-12 {
				t.Fatalf("row %d col %d: GEMM %v vs per-row %v", i, j, got.At(i, j), v)
			}
		}
	}
}

func TestMulMatSpecialValues(t *testing.T) {
	// Zero coefficients must skip Inf/NaN weights exactly like the naive
	// zero-skip loop; non-zero coefficients must propagate them.
	a := FromSlice(1, 4, []float64{0, 1, 0, 2})
	b := FromSlice(4, 2, []float64{
		math.Inf(1), math.NaN(),
		3, 4,
		math.NaN(), math.Inf(-1),
		5, 6,
	})
	dst := New(1, 2)
	a.MulMat(dst, b)
	if dst.At(0, 0) != 13 || dst.At(0, 1) != 16 {
		t.Fatalf("zero-skip broken: got %v", dst.Data)
	}
}

func TestMulMatShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	a, b := New(2, 3), New(4, 2)
	a.MulMat(New(2, 2), b)
}

// TestMulMatExactMatchesMulVec pins the float64 reference GEMM against the
// per-row mat-vec order exactly: with wt = Wᵀ, row b of x·wt must equal
// W.MulVec on row b (and the Add variant W.MulVecAdd) bit for bit, across
// every remainder of the 32- and 4-output blocking, with zeros, signed zeros
// and Inf/NaN in both operands, on the AVX2 and the portable kernel. NaN
// results must stay NaN; their payload follows operand order inside the
// FPU, which no Go source order pins.
func TestMulMatExactMatchesMulVec(t *testing.T) {
	prev := SIMDEnabled()
	defer SetSIMD(prev)
	rng := rand.New(rand.NewSource(11))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-310}
	for _, simd := range []bool{false, true} {
		SetSIMD(simd)
		if simd && !SIMDEnabled() {
			continue // no AVX2 here: the portable pass covered the kernel
		}
		for _, rows := range []int{1, 2, 3, 5} {
			for _, outs := range []int{1, 3, 4, 5, 8, 13, 32, 37, 64, 71} {
				for _, in := range []int{1, 2, 7, 16} {
					for _, sp := range []bool{false, true} {
						w := randMatrix(rng, outs, in)
						x := randMatrix(rng, rows, in)
						if sp {
							for i := 0; i < 3; i++ {
								w.Data[rng.Intn(len(w.Data))] = special[rng.Intn(len(special))]
								x.Data[rng.Intn(len(x.Data))] = special[rng.Intn(len(special))]
							}
						}
						wt := New(in, outs)
						for i := 0; i < outs; i++ {
							for j := 0; j < in; j++ {
								wt.Set(j, i, w.At(i, j))
							}
						}
						got := New(rows, outs)
						for i := range got.Data {
							got.Data[i] = math.NaN() // MulMatExact must overwrite, not accumulate
						}
						x.MulMatExact(got, wt)
						acc := randMatrix(rng, rows, outs)
						accWant := acc.Clone()
						x.MulMatExactAdd(acc, wt)
						want := make([]float64, outs)
						for b := 0; b < rows; b++ {
							w.MulVec(want, x.Row(b))
							if !sameFloats(got.Row(b), want) {
								t.Fatalf("simd=%v MulMatExact %dx%d·%dx%d sp=%v row %d: %v != %v",
									simd, rows, in, in, outs, sp, b, got.Row(b), want)
							}
							w.MulVecAdd(accWant.Row(b), x.Row(b))
						}
						if !sameFloats(acc.Data, accWant.Data) {
							t.Fatalf("simd=%v MulMatExactAdd %dx%d·%dx%d sp=%v: %v != %v",
								simd, rows, in, in, outs, sp, acc.Data, accWant.Data)
						}
					}
				}
			}
		}
	}
}

// sameFloats is bitEqual with every NaN equal to every other NaN.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !(math.IsNaN(a[i]) && math.IsNaN(b[i])) && math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestMulMatExactShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	x, wt := New(2, 3), New(4, 3)
	x.MulMatExact(New(2, 3), wt)
}

func BenchmarkMulMatExact16x64x256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMatrix(rng, 16, 64)
	wt := randMatrix(rng, 64, 256)
	dst := New(16, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.MulMatExact(dst, wt)
	}
}

func BenchmarkMulMat64x64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 64, 64)
	m := randMatrix(rng, 64, 64)
	dst := New(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulMat(dst, m)
	}
}
