package infer

import (
	"errors"
	"fmt"

	"mdes/internal/mat"
	"mdes/internal/nmt"
)

// ErrCorrupt reports a persisted inference model that fails structural
// validation — wrong shapes, missing or unknown tensors, or a precision the
// engine cannot serve. Model loading surfaces it (wrapped) so callers can
// distinguish corruption from I/O failure.
var ErrCorrupt = errors.New("infer: corrupt inference model state")

// Tensor is one frozen named tensor in persisted form. Exactly one of F32 or
// Q8 is populated. F32 tensors persist in their stored layout — GEMM weights
// are pre-transposed (Rows=in, Cols=out), embeddings natural, vectors as one
// row. Q8 tensors are out×in int8 codes plus per-row scales.
type Tensor struct {
	Name   string    `json:"name"`
	Rows   int       `json:"rows"`
	Cols   int       `json:"cols"`
	F32    []float32 `json:"f32,omitempty"`
	Q8     []byte    `json:"q8,omitempty"` // int8 codes, byte-cast (base64 in JSON)
	Scales []float32 `json:"scales,omitempty"`
}

// State is the serialisable form of an inference Model. Tensors appear in
// deterministic architecture order, so encoding the same model twice yields
// identical bytes.
type State struct {
	Config    nmt.Config `json:"config"`
	Precision string     `json:"precision"`
	Tensors   []Tensor   `json:"tensors"`
}

// State snapshots the frozen weights of an F32 or Int8 engine for
// persistence. An F64 engine is the training weights themselves, which
// persist as their nmt.State; calling State on one is a bug and panics.
func (m *Model) State() State {
	p := m.p32
	if p == nil {
		panic("infer: State of an f64 engine; persist its nmt.State instead")
	}
	st := State{Config: m.cfg, Precision: m.prec.String()}
	addW := func(name string, w *weight) {
		if w.q != nil {
			q8 := make([]byte, len(w.q.Data))
			for i, v := range w.q.Data {
				q8[i] = byte(v)
			}
			st.Tensors = append(st.Tensors, Tensor{
				Name: name, Rows: w.q.Rows, Cols: w.q.Cols,
				Q8: q8, Scales: append([]float32(nil), w.q.Scales...),
			})
			return
		}
		st.Tensors = append(st.Tensors, Tensor{
			Name: name, Rows: w.t.Rows, Cols: w.t.Cols,
			F32: append([]float32(nil), w.t.Data...),
		})
	}
	addM := func(name string, v *dense[float32]) {
		st.Tensors = append(st.Tensors, Tensor{
			Name: name, Rows: v.Rows, Cols: v.Cols,
			F32: append([]float32(nil), v.Data...),
		})
	}
	addV := func(name string, v []float32) {
		st.Tensors = append(st.Tensors, Tensor{
			Name: name, Rows: 1, Cols: len(v),
			F32: append([]float32(nil), v...),
		})
	}
	addM("src_emb", &p.srcEmb)
	addM("tgt_emb", &p.tgtEmb)
	for si, cs := range [][]cell[float32]{p.enc, p.dec} {
		stack := [2]string{"enc", "dec"}[si]
		for l := range cs {
			prefix := fmt.Sprintf("%s.l%d", stack, l)
			addW(prefix+".Wx", &cs[l].wx)
			addW(prefix+".Wh", &cs[l].wh)
			addV(prefix+".b", cs[l].b)
		}
	}
	if p.wa.out > 0 {
		addW("attn.Wa", &p.wa)
	}
	if p.va != nil {
		addV("attn.va", p.va)
	}
	addW("attn.Wc.W", &p.wc)
	addV("attn.Wc.b", p.wcB)
	addW("out.W", &p.outW)
	addV("out.b", p.outB)
	return st
}

// Load reconstructs an inference Model from a persisted State, validating
// precision, tensor names, and every shape against the architecture implied
// by the config. Any mismatch returns an error wrapping ErrCorrupt.
func Load(st State) (*Model, error) {
	prec, err := ParsePrecision(st.Precision)
	if err != nil || (prec != F32 && prec != Int8) {
		return nil, fmt.Errorf("%w: precision %q is not servable", ErrCorrupt, st.Precision)
	}
	if err := st.Config.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	src := &stateSource{prec: prec, tensors: make(map[string]*Tensor, len(st.Tensors))}
	for i := range st.Tensors {
		t := &st.Tensors[i]
		if _, dup := src.tensors[t.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate tensor %q", ErrCorrupt, t.Name)
		}
		src.tensors[t.Name] = t
	}
	kind, p, err := build[float32](st.Config, src)
	if err != nil {
		if errors.Is(err, ErrCorrupt) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &Model{cfg: st.Config, prec: prec, kind: kind, p32: p}, nil
}

// stateSource feeds build from persisted tensors, enforcing exact shapes.
type stateSource struct {
	prec    Precision
	tensors map[string]*Tensor
	used    int
}

func (s *stateSource) fetch(name string) (*Tensor, error) {
	t, ok := s.tensors[name]
	if !ok {
		return nil, fmt.Errorf("%w: tensor %q missing", ErrCorrupt, name)
	}
	s.used++
	return t, nil
}

func (s *stateSource) gemm(name string, out, in int) (weight, error) {
	t, err := s.fetch(name)
	if err != nil {
		return weight{}, err
	}
	w := weight{out: out, in: in}
	if s.prec == Int8 {
		if t.Rows != out || t.Cols != in || len(t.F32) != 0 ||
			len(t.Q8) != out*in || len(t.Scales) != out {
			return weight{}, fmt.Errorf("%w: tensor %q: want %dx%d int8 (+%d scales), got %dx%d with %d codes, %d scales, %d f32",
				ErrCorrupt, name, out, in, out, t.Rows, t.Cols, len(t.Q8), len(t.Scales), len(t.F32))
		}
		q := &mat.MatrixQ8{Rows: out, Cols: in, Data: make([]int8, len(t.Q8)), Scales: t.Scales}
		for i, b := range t.Q8 {
			q.Data[i] = int8(b)
		}
		w.q = q
		return w, nil
	}
	// f32 weights persist pre-transposed: in×out.
	if t.Rows != in || t.Cols != out || len(t.F32) != in*out || len(t.Q8) != 0 {
		return weight{}, fmt.Errorf("%w: tensor %q: want %dx%d f32 (transposed), got %dx%d with %d f32, %d codes",
			ErrCorrupt, name, in, out, t.Rows, t.Cols, len(t.F32), len(t.Q8))
	}
	w.t = &mat.Matrix32{Rows: in, Cols: out, Data: t.F32}
	return w, nil
}

func (s *stateSource) matrix(name string, rows, cols int) (dense[float32], error) {
	t, err := s.fetch(name)
	if err != nil {
		return dense[float32]{}, err
	}
	if t.Rows != rows || t.Cols != cols || len(t.F32) != rows*cols || len(t.Q8) != 0 {
		return dense[float32]{}, fmt.Errorf("%w: tensor %q: want %dx%d f32, got %dx%d with %d f32, %d codes",
			ErrCorrupt, name, rows, cols, t.Rows, t.Cols, len(t.F32), len(t.Q8))
	}
	return dense[float32]{Rows: rows, Cols: cols, Data: t.F32}, nil
}

func (s *stateSource) vec(name string, n int) ([]float32, error) {
	t, err := s.fetch(name)
	if err != nil {
		return nil, err
	}
	if len(t.F32) != n || len(t.Q8) != 0 {
		return nil, fmt.Errorf("%w: tensor %q: want %d-vector, got %d f32, %d codes",
			ErrCorrupt, name, n, len(t.F32), len(t.Q8))
	}
	return t.F32, nil
}

func (s *stateSource) finish() error {
	if s.used != len(s.tensors) {
		return fmt.Errorf("%w: state has %d tensors, architecture uses %d", ErrCorrupt, len(s.tensors), s.used)
	}
	return nil
}
