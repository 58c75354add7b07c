package mdes

import (
	"fmt"

	"mdes/internal/infer"
	"mdes/internal/nmt"
)

// Precision selects the weight format pair models score with. Training is
// always float64; every precision scores through the batched inference
// engine (internal/infer).
type Precision = infer.Precision

// The scoring precisions. PrecisionF64 is the zero value: the engine runs on
// the float64 training weights and scores bit for bit like the paper's
// reference path. PrecisionF32 and PrecisionInt8 are the reduced-precision
// formats.
const (
	PrecisionF64  = infer.F64
	PrecisionF32  = infer.F32
	PrecisionInt8 = infer.Int8
)

// ParsePrecision parses a -score-precision style flag value ("f64", "f32",
// "int8" and common aliases).
func ParsePrecision(s string) (Precision, error) { return infer.ParsePrecision(s) }

// Quantize rebuilds every pair model's scoring engine at precision p — the
// publish step of the f64-train/serve boundary. The float64 training
// weights stay untouched; scoring entry points (ScoreJob.Run, TestScores,
// Detect, streams) use the engines of the active precision until Quantize
// is called again. Asking for the active precision is a no-op: the engines
// are a pure function of the unchanged training weights.
//
// Quantize is not safe to call concurrently with scoring; publish before
// serving traffic.
func (m *Model) Quantize(p Precision) error {
	if p == m.prec && m.engines != nil {
		return nil
	}
	engines := make(map[[2]string]*infer.Model, len(m.pairs))
	for key, pm := range m.pairs {
		if err := addEngine(engines, key, pm.State(), p); err != nil {
			return err
		}
	}
	m.engines = engines
	m.prec = p
	return nil
}

// addEngine builds one pair's engine from its training state. At F64 the
// engine takes ownership of st.Weights, so st must not be shared.
func addEngine(engines map[[2]string]*infer.Model, key [2]string, st nmt.State, p Precision) error {
	im, err := infer.FromState(st, p)
	if err != nil {
		return fmt.Errorf("mdes: quantize pair %s->%s: %w", key[0], key[1], err)
	}
	engines[key] = im
	return nil
}

// ScorePrecision reports the active scoring precision.
func (m *Model) ScorePrecision() Precision { return m.prec }

// PairModelBytes reports the resident weight memory of all pair-model
// engines at the active scoring precision — the per-tenant cost of keeping
// this model servable.
func (m *Model) PairModelBytes() int64 {
	var total int64
	for _, im := range m.engines {
		total += int64(im.MemoryBytes())
	}
	return total
}
