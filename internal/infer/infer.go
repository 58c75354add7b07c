// Package infer is the batched inference engine for trained NMT pair
// models: every f(i,j) score in the system runs through it. Training stays
// in internal/nmt; at publish time a model's weights are frozen into one of
// three formats — float64 (the training weights unrounded, the paper's
// reference), float32 (GEMM weights stored pre-transposed) or int8
// (row-quantized with per-row scales) — and scoring runs through
// ScoreBatch, which packs many sentences against one pair model into GEMM
// calls over pooled workspaces. One decode walk serves all three formats,
// parameterised by a per-format kernel set.
//
// Three invariants make the engine safe to deploy:
//
//   - Batched == single, bit for bit. Every kernel is row-independent, so a
//     sentence scored in a batch of 64 gets exactly the score it gets alone
//     (TestScoreBatchMatchesSingle). Cross-tenant batching in the serving
//     pool is therefore invisible to scores.
//   - F64 == nmt, bit for bit. The float64 kernels keep the training
//     model's accumulation order, so F64 scores and translations equal
//     nmt.ScoreSentence/Translate exactly (TestF64MatchesNMT).
//   - Reduced precision preserves the BLEU ranking. f32/int8 scores differ
//     from float64 in low-order digits; flagged-day parity on the golden
//     quick-plant trajectory is asserted by internal/experiments.
package infer

import (
	"fmt"
	"sync"

	"mdes/internal/mat"
	"mdes/internal/nmt"
	"mdes/internal/nn"
)

// Precision selects the weight format of the scoring engine. F64 is the
// paper-faithful reference: the float64 training weights, scored bit for
// bit like nmt.ScoreSentence. F32 and Int8 are the reduced-precision
// formats frozen at publish time.
type Precision int

const (
	F64 Precision = iota
	F32
	Int8
)

// String names the precision the way the -score-precision flag spells it.
func (p Precision) String() string {
	switch p {
	case F64:
		return "f64"
	case F32:
		return "f32"
	case Int8:
		return "int8"
	default:
		return fmt.Sprintf("precision(%d)", int(p))
	}
}

// ParsePrecision parses the -score-precision flag values.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "f64", "float64":
		return F64, nil
	case "f32", "float32":
		return F32, nil
	case "int8", "q8":
		return Int8, nil
	default:
		return 0, fmt.Errorf("infer: unknown precision %q (want f64, f32, or int8)", s)
	}
}

// weight is one frozen GEMM weight in the engine's format. Exactly one of
// f/t/q is set: float64 and float32 weights are stored pre-transposed
// (in×out) so batched products Y = X·Wᵀ stream rows of both operands; int8
// weights stay out×in because the integer kernel is row-dot-shaped and its
// per-row scales align with output channels.
type weight struct {
	out, in int
	f       *mat.Matrix
	t       *mat.Matrix32
	q       *mat.MatrixQ8
}

// bytes reports the resident size of the frozen weight.
func (w *weight) bytes() int {
	switch {
	case w.q != nil:
		return len(w.q.Data) + 4*len(w.q.Scales)
	case w.t != nil:
		return 4 * len(w.t.Data)
	case w.f != nil:
		return 8 * len(w.f.Data)
	}
	return 0
}

// cell is one frozen LSTM layer.
type cell[T float] struct {
	wx, wh  weight
	b       []T
	in, hid int
}

// params holds one engine's frozen tensors. Activations, embeddings and
// biases share the element type T; GEMM weights carry their own format.
type params[T float] struct {
	srcEmb, tgtEmb dense[T] // vocab×embed
	enc, dec       []cell[T]
	wa             weight // general: h×h; concat: h×2h (unused for dot)
	va             []T    // concat scoring vector
	wc             weight // h×2h combine projection
	wcB            []T
	outW           weight // V×h output projection
	outB           []T
}

// bytes reports the resident size of the tensors, at elem bytes per
// activation-typed element.
func (p *params[T]) bytes(elem int) int {
	total := elem * (len(p.srcEmb.Data) + len(p.tgtEmb.Data))
	total += elem * (len(p.va) + len(p.wcB) + len(p.outB))
	for _, cs := range [][]cell[T]{p.enc, p.dec} {
		for i := range cs {
			total += cs[i].wx.bytes() + cs[i].wh.bytes() + elem*len(cs[i].b)
		}
	}
	return total + p.wa.bytes() + p.wc.bytes() + p.outW.bytes()
}

// Model is a frozen inference model built from a trained nmt.Model's state,
// in one of three weight formats. It scores; it never trains. Safe for
// concurrent use.
type Model struct {
	cfg  nmt.Config
	prec Precision
	kind nn.AttentionKind

	// Exactly one is set: p64 for F64, p32 for F32 and Int8.
	p64 *params[float64]
	p32 *params[float32]

	wsPool sync.Pool

	// Greedy decoding is deterministic and discrete event languages repeat
	// sentences constantly, so translations are memoised exactly like the
	// training model's cache (same key scheme, same full-drop eviction).
	transMu  sync.Mutex
	trans    map[string][]int
	transOff bool
}

// FromState freezes a trained model snapshot into an inference model at the
// given precision. F64 keeps the float64 values (GEMM weights transposed,
// embeddings and biases in place: the engine takes ownership of st.Weights
// and never writes them); F32 and Int8 convert them.
func FromState(st nmt.State, prec Precision) (*Model, error) {
	m := &Model{cfg: st.Config, prec: prec}
	var err error
	switch prec {
	case F64:
		m.kind, m.p64, err = build[float64](st.Config, &refSource{stateWeights: stateWeights{weights: st.Weights}})
	case F32, Int8:
		m.kind, m.p32, err = build[float32](st.Config, &quantSource{stateWeights: stateWeights{weights: st.Weights}, prec: prec})
	default:
		return nil, fmt.Errorf("infer: %v is not an inference precision (want f64, f32, or int8)", prec)
	}
	if err != nil {
		return nil, err
	}
	return m, nil
}

// tensorSource hands build one named tensor at a time. The state-weight
// sources read training weights; the persisted source validates stored
// tensors.
type tensorSource[T float] interface {
	// gemm returns the frozen out×in GEMM weight registered under name.
	gemm(name string, out, in int) (weight, error)
	// matrix returns a rows×cols matrix (embeddings).
	matrix(name string, rows, cols int) (dense[T], error)
	// vec returns a length-n vector (biases, scoring vectors).
	vec(name string, n int) ([]T, error)
	// finish reports tensors the source holds that build never asked for.
	finish() error
}

// build assembles an engine's tensors by walking the architecture implied
// by cfg and pulling each tensor from src. FromState and Load share this
// walk, so the persisted-layout validation can never drift from the
// conversion step.
func build[T float](cfg nmt.Config, src tensorSource[T]) (nn.AttentionKind, *params[T], error) {
	if err := cfg.Validate(); err != nil {
		return 0, nil, err
	}
	kind := cfg.Attention
	if kind == 0 {
		kind = nn.AttentionGeneral
	}
	p := &params[T]{}
	var err error
	fail := func(e error) bool {
		if e != nil && err == nil {
			err = e
		}
		return err != nil
	}
	get := func(w *weight, name string, out, in int) {
		v, e := src.gemm(name, out, in)
		if !fail(e) {
			*w = v
		}
	}
	vec := func(v *[]T, name string, n int) {
		if err == nil {
			*v, err = src.vec(name, n)
		}
	}
	if p.srcEmb, err = src.matrix("src_emb", cfg.SrcVocab, cfg.Embed); err != nil {
		return 0, nil, err
	}
	if p.tgtEmb, err = src.matrix("tgt_emb", cfg.TgtVocab, cfg.Embed); err != nil {
		return 0, nil, err
	}
	h := cfg.Hidden
	for _, stack := range []struct {
		name  string
		cells *[]cell[T]
	}{{"enc", &p.enc}, {"dec", &p.dec}} {
		*stack.cells = make([]cell[T], cfg.Layers)
		for l := 0; l < cfg.Layers; l++ {
			in := cfg.Embed
			if l > 0 {
				in = h
			}
			c := &(*stack.cells)[l]
			c.in, c.hid = in, h
			prefix := fmt.Sprintf("%s.l%d", stack.name, l)
			get(&c.wx, prefix+".Wx", 4*h, in)
			get(&c.wh, prefix+".Wh", 4*h, h)
			vec(&c.b, prefix+".b", 4*h)
		}
	}
	switch kind {
	case nn.AttentionGeneral:
		get(&p.wa, "attn.Wa", h, h)
	case nn.AttentionConcat:
		get(&p.wa, "attn.Wa", h, 2*h)
		vec(&p.va, "attn.va", h)
	case nn.AttentionDot:
		// no scoring parameters
	default:
		return 0, nil, fmt.Errorf("infer: unknown attention kind %d", kind)
	}
	get(&p.wc, "attn.Wc.W", h, 2*h)
	vec(&p.wcB, "attn.Wc.b", h)
	get(&p.outW, "out.W", cfg.TgtVocab, h)
	vec(&p.outB, "out.b", cfg.TgtVocab)
	if err != nil {
		return 0, nil, err
	}
	if err := src.finish(); err != nil {
		return 0, nil, err
	}
	return kind, p, nil
}

// stateWeights is the part of the training-weight sources shared across
// formats: name/shape lookup and the unused-tensor check.
type stateWeights struct {
	weights map[string][]float64
	used    int
}

func (s *stateWeights) fetch(name string, want int) ([]float64, error) {
	data, ok := s.weights[name]
	if !ok {
		return nil, fmt.Errorf("infer: weight %q missing from model state", name)
	}
	if len(data) != want {
		return nil, fmt.Errorf("infer: weight %q has %d elements, want %d", name, len(data), want)
	}
	s.used++
	return data, nil
}

func (s *stateWeights) finish() error {
	if s.used != len(s.weights) {
		return fmt.Errorf("infer: model state has %d weights, architecture uses %d", len(s.weights), s.used)
	}
	return nil
}

// refSource hands float64 training weights to the F64 engine unrounded.
type refSource struct{ stateWeights }

func (s *refSource) gemm(name string, out, in int) (weight, error) {
	data, err := s.fetch(name, out*in)
	if err != nil {
		return weight{}, err
	}
	return weight{out: out, in: in, f: mat.FromSlice(out, in, data).T()}, nil
}

func (s *refSource) matrix(name string, rows, cols int) (dense[float64], error) {
	data, err := s.fetch(name, rows*cols)
	return dense[float64]{Rows: rows, Cols: cols, Data: data}, err
}

func (s *refSource) vec(name string, n int) ([]float64, error) { return s.fetch(name, n) }

// quantSource freezes float64 training weights into F32 or Int8.
type quantSource struct {
	stateWeights
	prec Precision
}

func (s *quantSource) gemm(name string, out, in int) (weight, error) {
	data, err := s.fetch(name, out*in)
	if err != nil {
		return weight{}, err
	}
	w := weight{out: out, in: in}
	src := mat.FromSlice(out, in, data)
	if s.prec == Int8 {
		w.q = mat.QuantizeQ8(src)
	} else {
		w.t = src.T32()
	}
	return w, nil
}

func (s *quantSource) matrix(name string, rows, cols int) (dense[float32], error) {
	data, err := s.fetch(name, rows*cols)
	if err != nil {
		return dense[float32]{}, err
	}
	return dense[float32](*mat.FromSlice(rows, cols, data).To32()), nil
}

func (s *quantSource) vec(name string, n int) ([]float32, error) {
	data, err := s.fetch(name, n)
	if err != nil {
		return nil, err
	}
	out := make([]float32, n)
	for i, v := range data {
		out[i] = float32(v)
	}
	return out, nil
}

// Precision reports the engine's numeric format.
func (m *Model) Precision() Precision { return m.prec }

// Config returns the underlying NMT configuration.
func (m *Model) Config() nmt.Config { return m.cfg }

// MemoryBytes reports the resident size of the frozen weights — the number
// the ~4× model-memory reduction claim in BENCH_score.json is measured on.
func (m *Model) MemoryBytes() int {
	if m.p64 != nil {
		return m.p64.bytes(8)
	}
	return m.p32.bytes(4)
}

// SetTranslationCaching toggles the per-model translation cache (on by
// default). Turning it off also drops cached translations.
func (m *Model) SetTranslationCaching(on bool) {
	m.transMu.Lock()
	m.transOff = !on
	m.trans = nil
	m.transMu.Unlock()
}

func (m *Model) getWS() *ws {
	if v := m.wsPool.Get(); v != nil {
		return v.(*ws)
	}
	return newWS()
}

func (m *Model) putWS(w *ws) {
	w.reset()
	m.wsPool.Put(w)
}

func (m *Model) clampSrc(tok int) int {
	if tok < 0 || tok >= m.cfg.SrcVocab {
		return nmt.UnkID
	}
	return tok
}

func (m *Model) clampTgt(tok int) int {
	if tok < 0 || tok >= m.cfg.TgtVocab {
		return nmt.UnkID
	}
	return tok
}
