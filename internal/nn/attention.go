package nn

import (
	"math/rand"

	"mdes/internal/mat"
)

// AttentionKind selects Luong et al.'s three global-attention scoring
// functions.
type AttentionKind int

const (
	// AttentionGeneral scores with h_tᵀ·Wa·h̄_s (the paper's default).
	AttentionGeneral AttentionKind = iota + 1
	// AttentionDot scores with h_tᵀ·h̄_s (no parameters).
	AttentionDot
	// AttentionConcat scores with vᵀ·tanh(Wa·[h_t; h̄_s]).
	AttentionConcat
)

// String names the attention kind.
func (k AttentionKind) String() string {
	switch k {
	case AttentionGeneral:
		return "general"
	case AttentionDot:
		return "dot"
	case AttentionConcat:
		return "concat"
	default:
		return "unknown"
	}
}

// LuongAttention implements Luong et al.'s global attention: the decoder
// hidden state h_t is scored against every encoder state h̄_s (dot, general,
// or concat scoring), the scores are softmax-normalised into weights, the
// weighted context is concatenated with h_t and squashed through
// tanh(Wc·[c; h_t]) to yield the attentional hidden state h̃_t.
type LuongAttention struct {
	Kind   AttentionKind
	Wa     *Param  // general: H×H bilinear; concat: H×2H projection
	Va     *Param  // concat: 1×H scoring vector
	Wc     *Linear // combines [context; hidden] -> Hidden
	Hidden int
}

// NewLuongAttention registers the paper-default "general" attention.
func NewLuongAttention(p *Params, name string, hidden int, rng *rand.Rand) *LuongAttention {
	return NewLuongAttentionKind(p, name, hidden, AttentionGeneral, rng)
}

// NewLuongAttentionKind registers attention with an explicit scoring kind.
func NewLuongAttentionKind(p *Params, name string, hidden int, kind AttentionKind, rng *rand.Rand) *LuongAttention {
	a := &LuongAttention{
		Kind:   kind,
		Wc:     NewLinear(p, name+".Wc", 2*hidden, hidden, rng),
		Hidden: hidden,
	}
	switch kind {
	case AttentionGeneral:
		a.Wa = p.New(name+".Wa", hidden, hidden)
		a.Wa.W.XavierFill(rng)
	case AttentionConcat:
		a.Wa = p.New(name+".Wa", hidden, 2*hidden)
		a.Wa.W.XavierFill(rng)
		a.Va = p.New(name+".va", 1, hidden)
		a.Va.W.UniformFill(rng, 0.1)
	case AttentionDot:
		// no scoring parameters
	default:
		panic("nn: unknown attention kind")
	}
	return a
}

// AttnStep caches one attention application for backprop.
type AttnStep struct {
	Enc     [][]float64 // encoder top-layer states (referenced)
	H       []float64   // decoder hidden input (referenced)
	WaEnc   [][]float64 // general: Wa·h̄_s per source position
	Pair    [][]float64 // concat: [h; h̄_s] per source position
	TanhPre [][]float64 // concat: tanh(Wa·[h; h̄_s]) per source position
	Weights []float64   // softmax attention weights
	Ctx     []float64
	Concat  []float64
	HTilde  []float64
}

// ForwardWS computes the attentional hidden state h̃ for decoder hidden h
// over the encoder states enc (each of length Hidden), drawing the
// weights/context/score buffers from ws. enc must be non-empty. The
// returned cache is valid until ws.Reset.
//
//mdes:noalloc
func (a *LuongAttention) ForwardWS(ws *Workspace, enc [][]float64, h []float64) *AttnStep {
	checkLen("attention h", len(h), a.Hidden)
	n := len(enc)
	st := ws.attnStep()
	st.Enc, st.H = enc, h
	st.Weights = ws.Vec(n)
	st.Ctx = ws.Vec(a.Hidden)
	st.Concat = ws.Vec(2 * a.Hidden)
	st.HTilde = ws.Vec(a.Hidden)
	scores := ws.Vec(n)
	switch a.Kind {
	case AttentionDot:
		for s, es := range enc {
			scores[s] = mat.Dot(h, es)
		}
	case AttentionConcat:
		st.Pair = resizeSlices(st.Pair, n)
		st.TanhPre = resizeSlices(st.TanhPre, n)
		for s, es := range enc {
			pair := ws.Vec(2 * a.Hidden)
			copy(pair[:a.Hidden], h)
			copy(pair[a.Hidden:], es)
			pre := ws.Vec(a.Hidden)
			a.Wa.W.MulVec(pre, pair)
			mat.Tanh(pre)
			st.Pair[s] = pair
			st.TanhPre[s] = pre
			scores[s] = mat.Dot(a.Va.W.Data, pre)
		}
	default: // AttentionGeneral
		st.WaEnc = resizeSlices(st.WaEnc, n)
		for s, es := range enc {
			we := ws.Vec(a.Hidden)
			a.Wa.W.MulVec(we, es)
			st.WaEnc[s] = we
			scores[s] = mat.Dot(h, we)
		}
	}
	mat.Softmax(st.Weights, scores)
	for s, es := range enc {
		mat.Axpy(st.Weights[s], es, st.Ctx)
	}
	copy(st.Concat[:a.Hidden], st.Ctx)
	copy(st.Concat[a.Hidden:], h)
	a.Wc.Forward(st.HTilde, st.Concat)
	mat.Tanh(st.HTilde)
	return st
}

// BackwardWS backpropagates dL/dh̃, drawing scratch buffers from ws. It
// accumulates parameter gradients, adds dL/dh into dh, and adds dL/dh̄_s
// into dEnc[s].
//
//mdes:noalloc
func (a *LuongAttention) BackwardWS(ws *Workspace, st *AttnStep, dHTilde []float64, dh []float64, dEnc [][]float64) {
	checkLen("attention dHTilde", len(dHTilde), a.Hidden)
	checkLen("attention dh", len(dh), a.Hidden)
	n := len(st.Enc)

	dPre := ws.Vec(a.Hidden)
	for i, v := range dHTilde {
		dPre[i] = v * (1 - st.HTilde[i]*st.HTilde[i])
	}
	dConcat := ws.Vec(2 * a.Hidden)
	a.Wc.Backward(dConcat, st.Concat, dPre)
	dCtx := dConcat[:a.Hidden]
	mat.Axpy(1, dConcat[a.Hidden:], dh)

	// Context is Σ w_s·h̄_s.
	dW := ws.Vec(n)
	for s, es := range st.Enc {
		dW[s] = mat.Dot(dCtx, es)
		mat.Axpy(st.Weights[s], dCtx, dEnc[s])
	}

	// Softmax Jacobian: dScore_s = w_s (dW_s − Σ_k w_k dW_k).
	var mix float64
	for s, w := range st.Weights {
		mix += w * dW[s]
	}
	dScores := ws.Vec(n)
	for s, w := range st.Weights {
		dScores[s] = w * (dW[s] - mix)
	}

	switch a.Kind {
	case AttentionDot:
		// score_s = hᵀ·h̄_s.
		for s, es := range st.Enc {
			g := dScores[s]
			if g == 0 {
				continue
			}
			mat.Axpy(g, es, dh)
			mat.Axpy(g, st.H, dEnc[s])
		}
	case AttentionConcat:
		// score_s = vᵀ·tanh(Wa·[h; h̄_s]).
		dPair := ws.Vec(2 * a.Hidden)
		dPreBuf := ws.Vec(a.Hidden)
		for s := range st.Enc {
			g := dScores[s]
			if g == 0 {
				continue
			}
			th := st.TanhPre[s]
			mat.Axpy(g, th, a.Va.Grad.Data)
			for i := range dPreBuf {
				dPreBuf[i] = g * a.Va.W.Data[i] * (1 - th[i]*th[i])
			}
			a.Wa.Grad.AddOuter(dPreBuf, st.Pair[s])
			a.Wa.W.MulVecT(dPair, dPreBuf)
			mat.Axpy(1, dPair[:a.Hidden], dh)
			mat.Axpy(1, dPair[a.Hidden:], dEnc[s])
		}
	default: // AttentionGeneral
		// score_s = hᵀ·(Wa·h̄_s).
		buf := ws.Vec(a.Hidden)
		for s, es := range st.Enc {
			g := dScores[s]
			if g == 0 {
				continue
			}
			mat.Axpy(g, st.WaEnc[s], dh)
			a.Wa.Grad.AddOuter(scaled(buf, g, st.H), es)
			a.Wa.W.MulVecTAdd(dEnc[s], scaled(buf, g, st.H))
		}
	}
}

// scaled writes g*x into buf and returns buf.
func scaled(buf []float64, g float64, x []float64) []float64 {
	for i, v := range x {
		buf[i] = g * v
	}
	return buf
}
