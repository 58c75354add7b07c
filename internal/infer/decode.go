package infer

import (
	"encoding/binary"
	"fmt"

	"mdes/internal/bleu"
	"mdes/internal/nmt"
	"mdes/internal/nn"
)

// transCacheCap mirrors the training model's cache bound: when full, the whole
// map is dropped (cheap, and repeat-heavy event languages re-warm instantly).
const transCacheCap = 4096

// transKey packs a token sequence into the workspace's key scratch (same
// varint scheme as the training model's cache) and returns it. Callers index
// the cache with string(key), which Go performs without allocating on
// lookups; only inserting a new translation copies the key.
func (w *ws) transKey(toks []int) []byte {
	buf := w.key[:0]
	for _, t := range toks {
		buf = binary.AppendVarint(buf, int64(t))
	}
	w.key = buf
	return buf
}

// ScoreBatch scores n sentences against this pair model: out[i] is the
// smoothed sentence BLEU of the greedy translation of srcs[i] against
// refs[i] — batched f(i,j) of Algorithm 2. Sentences of equal source length
// are decoded together through GEMM kernels; because every kernel is
// row-independent, each score is bit-identical to ScoreSentence on the same
// input. Safe for concurrent use.
func (m *Model) ScoreBatch(srcs, refs [][]int, out []float64) {
	if len(refs) != len(srcs) || len(out) != len(srcs) {
		panic(fmt.Sprintf("infer: ScoreBatch length mismatch: %d srcs, %d refs, %d out",
			len(srcs), len(refs), len(out)))
	}
	if len(srcs) == 0 {
		return
	}
	w := m.getWS()
	defer m.putWS(w)
	m.scoreBatch(w, srcs, refs, out)
}

// ScoreSentence scores one sentence (a batch of one).
func (m *Model) ScoreSentence(src, ref []int) float64 {
	w := m.getWS()
	defer m.putWS(w)
	w.src1[0], w.ref1[0] = src, ref
	m.scoreBatch(w, w.src1[:], w.ref1[:], w.out1[:])
	return w.out1[0]
}

// Translate greedily decodes one source sentence, returning target token ids
// (no BOS/EOS) in a fresh slice the caller may keep. Matches the training
// model's Translate exactly at F64, up to precision at F32 and Int8.
func (m *Model) Translate(src []int) []int {
	if len(src) == 0 {
		return nil
	}
	w := m.getWS()
	defer m.putWS(w)
	w.src1[0] = src
	w.hyps = resizeOuterInts(w.hyps, 1)
	group := w.intsBuf(1)
	m.translateGroup(w, w.src1[:], group, w.hyps)
	return append([]int(nil), w.hyps[0]...)
}

// scoreBatch is ScoreBatch on a caller-held workspace.
//
//mdes:noalloc
func (m *Model) scoreBatch(w *ws, srcs, refs [][]int, out []float64) {
	n := len(srcs)
	// Group sentences by source length: each equal-length run decodes as one
	// rectangular GEMM batch. Insertion sort on indices is stable (original
	// order within a run), alloc-free, and cheap at serving batch sizes.
	idx := w.intsBuf(n)
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && len(srcs[idx[j-1]]) > len(srcs[idx[j]]); j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
	w.hyps = resizeOuterInts(w.hyps, n)
	hyps := w.hyps
	for lo := 0; lo < n; {
		hi := lo + 1
		l := len(srcs[idx[lo]])
		for hi < n && len(srcs[idx[hi]]) == l {
			hi++
		}
		if l > 0 {
			// Empty sources translate to nothing; their hyps stay nil.
			m.translateGroup(w, srcs, idx[lo:hi], hyps)
		}
		lo = hi
	}
	for i := range out {
		out[i] = m.scoreOne(w, refs[i], hyps[i])
	}
}

// translateGroup fills hyps[i] for every i in group (all sources the same
// nonzero length), consulting the translation cache around one batched
// decode. Cached hypotheses are cache-owned; decoded ones live in the
// workspace until reset. Either way they are read-only for the caller.
func (m *Model) translateGroup(w *ws, srcs [][]int, group []int, hyps [][]int) {
	miss := group
	m.transMu.Lock()
	cacheOn := !m.transOff
	if cacheOn {
		miss = w.intsBuf(len(group))[:0]
		for _, i := range group {
			if hyp, ok := m.trans[string(w.transKey(srcs[i]))]; ok {
				hyps[i] = hyp
			} else {
				miss = append(miss, i)
			}
		}
	}
	m.transMu.Unlock()
	if len(miss) == 0 {
		return
	}
	if m.p64 != nil {
		decodeGroup[float64, k64](m, m.p64, w, srcs, miss, hyps)
	} else {
		decodeGroup[float32, k32](m, m.p32, w, srcs, miss, hyps)
	}
	if !cacheOn {
		return
	}
	m.transMu.Lock()
	if !m.transOff {
		for _, i := range miss {
			if len(m.trans) >= transCacheCap {
				m.trans = nil
			}
			if m.trans == nil {
				m.trans = make(map[string][]int, transCacheCap/4)
			}
			m.trans[string(w.transKey(srcs[i]))] = append([]int(nil), hyps[i]...)
		}
	}
	m.transMu.Unlock()
}

// decodeGroup greedily decodes a batch of equal-length sources in lockstep:
// one GEMM per weight per step instead of one GEMV per sentence per step.
// Output row b of every kernel depends only on input row b, so each
// hypothesis is exactly what a batch of one would produce. The walk is the
// same for every weight format; K supplies the format's kernels.
//
//mdes:noalloc
func decodeGroup[T float, K kernels[T]](m *Model, p *params[T], w *ws, srcs [][]int, group []int, hyps [][]int) {
	var k K
	a := k.arena(w)
	bN := len(group)
	sN := len(srcs[group[0]])
	h, layers := m.cfg.Hidden, m.cfg.Layers
	maxLen := m.cfg.MaxDecodeLen

	x := a.matrix(bN, m.cfg.Embed) // current-step input embeddings
	g := a.matrix(bN, 4*h)         // packed LSTM gate activations
	a.states(layers, bN, h)

	// Encoder: top-layer hidden per (sentence, source position), laid out so
	// sentence b's positions are the contiguous rows [b*sN, (b+1)*sN).
	encTop := a.matrix(bN*sN, h)
	for s := 0; s < sN; s++ {
		for b, i := range group {
			copy(x.Row(b), p.srcEmb.Row(m.clampSrc(srcs[i][s])))
		}
		stepStack(k, w, a, x, p.enc, g)
		top := a.hs[layers-1]
		for b := 0; b < bN; b++ {
			copy(encTop.Row(b*sN+s), top.Row(b))
		}
	}

	// General attention scores h·(Wa·h̄_s); Wa·h̄_s is decode-invariant, so
	// project the whole encoding once per sentence instead of once per step.
	var waEnc *dense[T]
	if m.kind == nn.AttentionGeneral {
		waEnc = a.matrix(bN*sN, h)
		k.mul(w, waEnc, encTop, &p.wa, false)
	}
	var pair, pre *dense[T]
	if m.kind == nn.AttentionConcat {
		pair = a.matrix(bN*sN, 2*h)
		pre = a.matrix(bN*sN, h)
	}

	// The decoder starts from the encoder's final state and the encoder never
	// steps again, so the arena's hs/cs carry over in place.
	scores := a.matrix(bN, sN)
	ctx := a.matrix(bN, h)
	cat := a.matrix(bN, 2*h)
	htl := a.matrix(bN, h)
	logits := a.matrix(bN, m.cfg.TgtVocab)

	tok := w.intsBuf(bN)
	done := w.intsBuf(bN)
	lens := w.intsBuf(bN)
	outTok := w.intsBuf(bN * maxLen)
	for b := range tok {
		tok[b] = nmt.BosID
	}
	remaining := bN
	for t := 0; t < maxLen && remaining > 0; t++ {
		// Finished rows keep stepping with their last token so the batch
		// stays rectangular; their outputs are ignored below.
		for b := range tok {
			copy(x.Row(b), p.tgtEmb.Row(m.clampTgt(tok[b])))
		}
		stepStack(k, w, a, x, p.dec, g)
		hTop := a.hs[layers-1]

		// Attention scores against every source position.
		switch m.kind {
		case nn.AttentionDot:
			for b := 0; b < bN; b++ {
				hb := hTop.Row(b)
				sc := scores.Row(b)
				for s := 0; s < sN; s++ {
					sc[s] = k.dot(hb, encTop.Row(b*sN+s))
				}
			}
		case nn.AttentionConcat:
			for b := 0; b < bN; b++ {
				hb := hTop.Row(b)
				for s := 0; s < sN; s++ {
					pr := pair.Row(b*sN + s)
					copy(pr[:h], hb)
					copy(pr[h:], encTop.Row(b*sN+s))
				}
			}
			k.mul(w, pre, pair, &p.wa, false)
			k.tanh(pre.Data)
			for b := 0; b < bN; b++ {
				sc := scores.Row(b)
				for s := 0; s < sN; s++ {
					sc[s] = k.dot(p.va, pre.Row(b*sN+s))
				}
			}
		default: // nn.AttentionGeneral
			for b := 0; b < bN; b++ {
				hb := hTop.Row(b)
				sc := scores.Row(b)
				for s := 0; s < sN; s++ {
					sc[s] = k.dot(hb, waEnc.Row(b*sN+s))
				}
			}
		}

		// Context, combine, output logits.
		for b := 0; b < bN; b++ {
			sc := scores.Row(b)
			k.softmax(sc)
			cr := ctx.Row(b)
			for j := range cr {
				cr[j] = 0
			}
			for s := 0; s < sN; s++ {
				k.axpy(sc[s], encTop.Row(b*sN+s), cr)
			}
			cc := cat.Row(b)
			copy(cc[:h], cr)
			copy(cc[h:], hTop.Row(b))
		}
		k.mul(w, htl, cat, &p.wc, false)
		for b := 0; b < bN; b++ {
			k.bias(p.wcB, htl.Row(b))
		}
		k.tanh(htl.Data)
		k.mul(w, logits, htl, &p.outW, false)

		for b := 0; b < bN; b++ {
			if done[b] != 0 {
				continue
			}
			lr := logits.Row(b)
			k.bias(p.outB, lr)
			// Never emit BOS; treat it as masked out.
			lr[nmt.BosID] = T(negInf)
			nt := k.argMax(lr)
			if nt == nmt.EosID {
				done[b] = 1
				remaining--
				continue
			}
			outTok[b*maxLen+lens[b]] = nt
			lens[b]++
			tok[b] = nt
		}
	}
	for b, i := range group {
		hyps[i] = outTok[b*maxLen : b*maxLen+lens[b]]
	}
}

// stepStack advances a stacked LSTM one step for the whole batch: for each
// layer, gates = in·Wxᵀ + hPrev·Whᵀ + b through the fused gate
// nonlinearities, then the cell and hidden state matrices in the arena's
// hs/cs update in place.
//
//mdes:noalloc
func stepStack[T float, K kernels[T]](k K, w *ws, a *arena[T], x *dense[T], cells []cell[T], g *dense[T]) {
	in := x
	for l := range cells {
		c := &cells[l]
		h := c.hid
		k.mul(w, g, in, &c.wx, false)
		k.mul(w, g, a.hs[l], &c.wh, true)
		hl, cl := a.hs[l], a.cs[l]
		for b := 0; b < g.Rows; b++ {
			gr := g.Row(b)
			k.bias(c.b, gr)
			k.gates(gr, h)
			cr, hr := cl.Row(b), hl.Row(b)
			for j := 0; j < h; j++ {
				// C = f·C_prev + i·g̃ ; H = o·tanh(C), gates packed i|f|g̃|o.
				cj := gr[h+j]*cr[j] + gr[j]*gr[2*h+j]
				cr[j] = cj
				hr[j] = cj
			}
			k.tanh(hr)
			for j := 0; j < h; j++ {
				hr[j] *= gr[3*h+j]
			}
		}
		in = hl
	}
}

// scoreOne computes smoothed sentence BLEU of hyp against ref, masking
// unknown reference tokens with per-position sentinels exactly like
// nmt.ScoreSentence (an unknown observed state must never count as
// correctly predicted).
//
//mdes:noalloc
func (m *Model) scoreOne(w *ws, ref, hyp []int) float64 {
	if len(ref) == 0 || len(hyp) == 0 {
		return 0
	}
	masked := ref
	copied := false
	for i, t := range ref {
		if t == nmt.UnkID {
			if !copied {
				mr := w.intsBuf(len(ref))
				copy(mr, ref)
				masked = mr
				copied = true
			}
			masked[i] = -(i + 1)
		}
	}
	return w.scorer.SentenceIDs(masked, hyp, bleu.MaxOrder, bleu.SmoothAddOne)
}
