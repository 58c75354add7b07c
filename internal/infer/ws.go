package infer

import (
	"mdes/internal/bleu"
)

// ws is the per-call scratch arena of the inference engine — the inference
// counterpart of nn.Workspace. Activation matrices (one arena per element
// type), token buffers, and quantisation scratch for one ScoreBatch call are
// bump-allocated out of reusable slabs; matrix headers come from free lists.
// Steady-state batched scoring allocates nothing (pinned by
// TestScoreBatchSteadyStateAllocs).
//
// Lifetime contract: everything handed out is valid until the next reset. A
// ws is not safe for concurrent use; models pool them (sync.Pool) so
// concurrent ScoreBatch calls each get their own.
type ws struct {
	a32 arena[float32]
	a64 arena[float64]

	ints   []int
	intOff int

	// key is the translation-cache key scratch (see transKey).
	key []byte

	// hyps is the reusable outer slice for decoded hypotheses (inner slices
	// point into the int slab or the translation cache).
	hyps [][]int

	// qbuf/qscales hold one GEMM call's quantized activations (int8 path).
	qbuf    []int8
	qscales []float32

	// src1/ref1/out1 back the single-sentence entry points.
	src1, ref1 [1][]int
	out1       [1]float64

	scorer *bleu.Scorer
}

// arena hands out the activation matrices of one element type.
type arena[T float] struct {
	slab []T
	off  int
	// spill holds slabs that filled up since the last reset; their capacity
	// is folded into one right-sized slab on the next reset so the steady
	// state is a single slab and zero allocations.
	spill      [][]T
	spillElems int

	mats []*dense[T]
	matN int

	// hs/cs hold the per-layer LSTM state matrices of the group currently
	// being decoded.
	hs, cs []*dense[T]
}

func newWS() *ws { return &ws{scorer: bleu.NewScorer()} }

const minSlab = 4096

// reset recycles everything handed out since the previous reset.
func (w *ws) reset() {
	w.a32.reset()
	w.a64.reset()
	w.intOff = 0
	w.src1[0], w.ref1[0] = nil, nil
}

func (a *arena[T]) reset() {
	if len(a.spill) > 0 {
		total := a.spillElems + len(a.slab)
		a.slab = make([]T, total)
		a.spill = a.spill[:0]
		a.spillElems = 0
	}
	a.off = 0
	a.matN = 0
}

// vec returns a zeroed length-n slice valid until the next reset.
//
//mdes:noalloc
func (a *arena[T]) vec(n int) []T {
	if a.off+n > len(a.slab) {
		a.grow(n)
	}
	v := a.slab[a.off : a.off+n : a.off+n]
	a.off += n
	for i := range v {
		v[i] = 0
	}
	return v
}

func (a *arena[T]) grow(n int) {
	if len(a.slab) > 0 {
		a.spill = append(a.spill, a.slab)
		a.spillElems += len(a.slab)
	}
	size := 2 * len(a.slab)
	if size < minSlab {
		size = minSlab
	}
	if size < n {
		size = n
	}
	a.slab = make([]T, size)
	a.off = 0
}

// matrix returns a zeroed rows×cols matrix backed by the slab, with its
// header drawn from the free list.
//
//mdes:noalloc
func (a *arena[T]) matrix(rows, cols int) *dense[T] {
	var m *dense[T]
	//mdes:allow(noalloc) header free-list growth: amortised to zero once the list is warm
	if a.matN < len(a.mats) {
		m = a.mats[a.matN]
	} else {
		m = &dense[T]{}
		a.mats = append(a.mats, m)
	}
	a.matN++
	m.Rows, m.Cols = rows, cols
	m.Data = a.vec(rows * cols)
	return m
}

// states sizes hs/cs to layers zeroed B×h state matrices.
//
//mdes:noalloc
func (a *arena[T]) states(layers, b, h int) {
	a.hs = resizeOuterMat(a.hs, layers)
	a.cs = resizeOuterMat(a.cs, layers)
	for l := 0; l < layers; l++ {
		a.hs[l] = a.matrix(b, h)
		a.cs[l] = a.matrix(b, h)
	}
}

// intsBuf returns a zeroed length-n int slice valid until the next reset.
//
//mdes:noalloc
func (w *ws) intsBuf(n int) []int {
	// Old int slabs are dropped (outstanding slices keep them alive); growth
	// reaches steady state after the first call of the largest shape.
	//mdes:allow(noalloc) slab growth: amortised to zero at steady state
	if w.intOff+n > len(w.ints) {
		size := 2 * len(w.ints)
		if size < minSlab/4 {
			size = minSlab / 4
		}
		if size < n {
			size = n
		}
		w.ints = make([]int, size)
		w.intOff = 0
	}
	v := w.ints[w.intOff : w.intOff+n : w.intOff+n]
	w.intOff += n
	for i := range v {
		v[i] = 0
	}
	return v
}

// quantScratch returns int8/scale buffers for one quantized GEMM call (B
// activation rows of length n). The buffers are persistent — the next call
// overwrites them — so one pair serves every GEMM in a step.
//
//mdes:noalloc
func (w *ws) quantScratch(b, n int) ([]int8, []float32) {
	if cap(w.qbuf) < b*n {
		//mdes:allow(noalloc) grow-once scratch: amortised to zero at steady state
		w.qbuf = make([]int8, b*n)
	}
	if cap(w.qscales) < b {
		//mdes:allow(noalloc) grow-once scratch: amortised to zero at steady state
		w.qscales = make([]float32, b)
	}
	return w.qbuf[:b*n], w.qscales[:b]
}

// resizeOuterMat grows an outer matrix-pointer slice to length n.
//
//mdes:noalloc
func resizeOuterMat[T float](prev []*dense[T], n int) []*dense[T] {
	if cap(prev) < n {
		//mdes:allow(noalloc) grow-once outer slice: amortised to zero at steady state
		return make([]*dense[T], n)
	}
	return prev[:n]
}

// resizeOuterInts grows an outer [][]int to length n with nil elements.
//
//mdes:noalloc
func resizeOuterInts(prev [][]int, n int) [][]int {
	if cap(prev) < n {
		//mdes:allow(noalloc) grow-once outer slice: amortised to zero at steady state
		return make([][]int, n)
	}
	prev = prev[:n]
	for i := range prev {
		prev[i] = nil
	}
	return prev
}
