package mat

import "fmt"

// GEMM kernels. Like the mat-vec kernels these are blocked for locality but
// keep the per-element accumulation order identical to the naive triple loop:
// dst[i][j] sees contributions in strictly increasing k, so blocked and naive
// products are bit-identical (gemm_test.go pins this). The loop is the
// row-major ikj ("axpy") form — each pass streams one row of b against a
// handful of scalars from a — which touches dst and b sequentially instead of
// striding down b's columns.

// MulMat computes dst = m · b where m is R×K, b is K×C, and dst is R×C.
// dst must not alias m or b.
//
//mdes:noalloc
func (m *Matrix) MulMat(dst, b *Matrix) {
	checkGEMM("MulMat", dst.Rows, dst.Cols, m.Rows, m.Cols, b.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		di := dst.Row(i)
		for j := range di {
			di[j] = 0
		}
		m.mulMatRow(di, m.Row(i), b)
	}
}

// MulMatAdd computes dst += m · b.
//
//mdes:noalloc
func (m *Matrix) MulMatAdd(dst, b *Matrix) {
	checkGEMM("MulMatAdd", dst.Rows, dst.Cols, m.Rows, m.Cols, b.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		m.mulMatRow(dst.Row(i), m.Row(i), b)
	}
}

// mulMatRow accumulates di += ai · b for one output row, four b-rows per
// pass. The fused update di[j] += a0·b0[j] + … + a3·b3[j] evaluates left to
// right (Go never reassociates floating-point expressions), so each di[j]
// accumulates over k in exactly the naive order.
//
//mdes:noalloc
func (m *Matrix) mulMatRow(di, ai []float64, b *Matrix) {
	n := b.Cols
	k := 0
	for ; k+4 <= b.Rows; k += 4 {
		a0, a1, a2, a3 := ai[k], ai[k+1], ai[k+2], ai[k+3]
		b0 := b.Data[(k+0)*n : (k+0)*n+n]
		b1 := b.Data[(k+1)*n : (k+1)*n+n]
		b2 := b.Data[(k+2)*n : (k+2)*n+n]
		b3 := b.Data[(k+3)*n : (k+3)*n+n]
		if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
			// Zero coefficients must contribute nothing at all (adding 0·w
			// could flip a −0 or turn an Inf weight into NaN) — the same
			// short-circuit the transposed mat-vec kernels take.
			for kk := k; kk < k+4; kk++ {
				akk := ai[kk]
				if akk == 0 {
					continue
				}
				row := b.Data[kk*n : kk*n+n]
				for j, w := range row {
					di[j] += akk * w
				}
			}
			continue
		}
		for j := range di {
			s := di[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			di[j] = s
		}
	}
	for ; k < b.Rows; k++ {
		ak := ai[k]
		if ak == 0 {
			continue
		}
		row := b.Data[k*n : k*n+n]
		for j, w := range row {
			di[j] += ak * w
		}
	}
}

// checkGEMM panics on shape mismatches shared by the GEMM kernels.
func checkGEMM(op string, dr, dc, ar, ac, br, bc int) {
	if ac != br || dr != ar || dc != bc {
		panic(fmt.Sprintf("mat: %s shape mismatch %dx%d · %dx%d -> %dx%d",
			op, ar, ac, br, bc, dr, dc))
	}
}

// MulMatExact computes dst = x · wt for an R×K activation matrix x and a
// K×C weight wt stored pre-transposed (wt = Wᵀ for a C×K weight W). Unlike
// MulMat it keeps the mat-vec accumulation order exactly: every output is
// its own sum, started at +0 and accumulated over k = 0..K−1 with no zero
// skipping, so row b of dst equals W.MulVec(·, x.Row(b)) bit for bit
// (signed zeros and Inf/NaN included; gemm_test.go pins this). This is the
// float64 reference kernel of the inference engine. On amd64 with AVX2 the
// vector-aligned outputs run through mulExactAVX, four outputs per lane
// group, with separate multiply and add instructions — never fused — so the
// rounding is the scalar loop's.
//
//mdes:noalloc
func (x *Matrix) MulMatExact(dst, wt *Matrix) {
	checkGEMM("MulMatExact", dst.Rows, dst.Cols, x.Rows, x.Cols, wt.Rows, wt.Cols)
	for b := 0; b < x.Rows; b++ {
		mulExactRow(dst.Row(b), x.Row(b), wt, false)
	}
}

// MulMatExactAdd computes dst += x · wt, adding each output's finished sum
// to dst exactly as MulVecAdd does.
//
//mdes:noalloc
func (x *Matrix) MulMatExactAdd(dst, wt *Matrix) {
	checkGEMM("MulMatExactAdd", dst.Rows, dst.Cols, x.Rows, x.Cols, wt.Rows, wt.Cols)
	for b := 0; b < x.Rows; b++ {
		mulExactRow(dst.Row(b), x.Row(b), wt, true)
	}
}

// mulExactRow computes one output row: d[j] (+)= Σ_k xr[k]·wt[k][j].
//
//mdes:noalloc
func mulExactRow(d, xr []float64, wt *Matrix, add bool) {
	n, k := wt.Cols, wt.Rows
	j := 0
	if simdOn && n >= 4 && k > 0 {
		addFlag := 0
		if add {
			addFlag = 1
		}
		mulExactAVX(&d[0], &wt.Data[0], n, &xr[0], k, n, addFlag)
		j = n &^ 3
	}
	// Without AVX2, four outputs per pass over the transposed weight run
	// about twice as fast as the one-output loop, which finishes the tail.
	for ; j+4 <= n; j += 4 {
		var s0, s1, s2, s3 float64
		for kk, a := range xr[:k] {
			w := wt.Data[kk*n+j : kk*n+j+4]
			s0 += w[0] * a
			s1 += w[1] * a
			s2 += w[2] * a
			s3 += w[3] * a
		}
		if add {
			d[j], d[j+1], d[j+2], d[j+3] = d[j]+s0, d[j+1]+s1, d[j+2]+s2, d[j+3]+s3
		} else {
			d[j], d[j+1], d[j+2], d[j+3] = s0, s1, s2, s3
		}
	}
	for ; j < n; j++ {
		var s float64
		for kk, a := range xr[:k] {
			s += wt.Data[kk*n+j] * a
		}
		if add {
			d[j] += s
		} else {
			d[j] = s
		}
	}
}
