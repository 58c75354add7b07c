package mdes

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"mdes/internal/nmt"
)

// mutateModelJSON round-trips a saved model through raw JSON, letting a test
// corrupt one top-level field the way a truncated or hand-edited file would.
func mutateModelJSON(t *testing.T, m *Model, mutate func(map[string]json.RawMessage)) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	mutate(raw)
	out, err := json.Marshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewBuffer(out)
}

// TestLoadRejectsMissingConfig is the divide-by-zero regression: a model
// file with a missing (zero) config used to Load fine, and the first
// Stream.Push then panicked with an integer divide by zero because the
// sentence stride computed from the zero language config was 0. Load must
// reject the file instead.
func TestLoadRejectsMissingConfig(t *testing.T) {
	model := trainTiny(t)

	// Positive control: the unmodified file loads, and its stream pushes.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := good.NewStream().Push(map[string]string{"a": "ON", "b": "ON", "c": "ON"}); err != nil {
		t.Fatalf("control stream push: %v", err)
	}

	corrupted := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		delete(raw, "config")
	})
	if _, err := Load(corrupted); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("config-less model: err = %v, want ErrCorruptModel", err)
	}
}

// TestLoadRejectsDanglingReferences covers edges and pairs that name sensors
// with no language — undetectable before, then a nil-map lookup or encode
// failure deep inside detection.
func TestLoadRejectsDanglingReferences(t *testing.T) {
	model := trainTiny(t)

	missingLang := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		var langs map[string]json.RawMessage
		if err := json.Unmarshal(raw["languages"], &langs); err != nil {
			t.Fatal(err)
		}
		delete(langs, "a")
		out, err := json.Marshal(langs)
		if err != nil {
			t.Fatal(err)
		}
		raw["languages"] = out
	})
	if _, err := Load(missingLang); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("dangling edge: err = %v, want ErrCorruptModel", err)
	}

	ghostPair := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		var pairs map[string]json.RawMessage
		if err := json.Unmarshal(raw["pairs"], &pairs); err != nil {
			t.Fatal(err)
		}
		var any json.RawMessage
		for _, st := range pairs {
			any = st
			break
		}
		pairs["ghost\x1fa"] = any
		out, err := json.Marshal(pairs)
		if err != nil {
			t.Fatal(err)
		}
		raw["pairs"] = out
	})
	if _, err := Load(ghostPair); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("ghost pair: err = %v, want ErrCorruptModel", err)
	}
}

// TestLoadRejectsOversizedAlphabet guards the loader against a persisted
// alphabet larger than the byte-rank encryption can represent: NewStream
// would rebuild a rank table with wrapped, colliding characters.
func TestLoadRejectsOversizedAlphabet(t *testing.T) {
	model := trainTiny(t)
	oversized := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		var langs map[string]json.RawMessage
		if err := json.Unmarshal(raw["languages"], &langs); err != nil {
			t.Fatal(err)
		}
		var pl map[string]json.RawMessage
		if err := json.Unmarshal(langs["a"], &pl); err != nil {
			t.Fatal(err)
		}
		wide := make([]string, 200)
		for i := range wide {
			wide[i] = string(rune('A' + i))
		}
		out, err := json.Marshal(wide)
		if err != nil {
			t.Fatal(err)
		}
		pl["alphabet"] = out
		if langs["a"], err = json.Marshal(pl); err != nil {
			t.Fatal(err)
		}
		if raw["languages"], err = json.Marshal(langs); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := Load(oversized); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("oversized alphabet: err = %v, want ErrCorruptModel", err)
	}
}

// TestLoadRejectsMalformedPairKey keeps the pre-existing malformed-key check
// matchable via ErrCorruptModel.
func TestLoadRejectsMalformedPairKey(t *testing.T) {
	model := trainTiny(t)
	malformed := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		var pairs map[string]json.RawMessage
		if err := json.Unmarshal(raw["pairs"], &pairs); err != nil {
			t.Fatal(err)
		}
		var any json.RawMessage
		for _, st := range pairs {
			any = st
			break
		}
		pairs["nosep"] = any
		out, err := json.Marshal(pairs)
		if err != nil {
			t.Fatal(err)
		}
		raw["pairs"] = out
	})
	if _, err := Load(malformed); !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("malformed pair key: err = %v, want ErrCorruptModel", err)
	}
}

// TestLoadRejectsExtraPairTensor: Load builds each pair's float64 scoring
// engine from the persisted state, and a tensor the architecture does not use
// is a corrupt pair, reported as ErrCorruptModel like every other Load
// validation failure.
func TestLoadRejectsExtraPairTensor(t *testing.T) {
	model := trainTiny(t)
	extra := mutateModelJSON(t, model, func(raw map[string]json.RawMessage) {
		var pairs map[string]nmt.State
		if err := json.Unmarshal(raw["pairs"], &pairs); err != nil {
			t.Fatal(err)
		}
		for key, st := range pairs {
			st.Weights["bogus"] = []float64{1}
			pairs[key] = st
			break
		}
		out, err := json.Marshal(pairs)
		if err != nil {
			t.Fatal(err)
		}
		raw["pairs"] = out
	})
	_, err := Load(extra)
	if !errors.Is(err, ErrCorruptModel) {
		t.Fatalf("extra pair tensor: err = %v, want ErrCorruptModel", err)
	}
	if !strings.Contains(err.Error(), "->") {
		t.Fatalf("extra pair tensor: err = %v, want it to name the pair", err)
	}
}

// mutateQuant rewrites the quant section of a quantized model's save file.
// The mutate callback receives the decoded section (precision + raw pairs)
// and returns the replacement; returning nil deletes the section.
func mutateQuant(t *testing.T, m *Model, mutate func(prec string, pairs map[string]json.RawMessage) any) *bytes.Buffer {
	t.Helper()
	return mutateModelJSON(t, m, func(raw map[string]json.RawMessage) {
		var q struct {
			Precision string                     `json:"precision"`
			Pairs     map[string]json.RawMessage `json:"pairs"`
		}
		if err := json.Unmarshal(raw["quant"], &q); err != nil {
			t.Fatal(err)
		}
		repl := mutate(q.Precision, q.Pairs)
		if repl == nil {
			delete(raw, "quant")
			return
		}
		out, err := json.Marshal(repl)
		if err != nil {
			t.Fatal(err)
		}
		raw["quant"] = out
	})
}

type quantSection struct {
	Precision string                     `json:"precision"`
	Pairs     map[string]json.RawMessage `json:"pairs"`
}

// TestLoadRejectsCorruptQuantSection covers the published-model failure
// modes: a quant section that parses as JSON but is internally inconsistent
// must fail Load with ErrCorruptModel rather than serve at a silently wrong
// or mixed precision.
func TestLoadRejectsCorruptQuantSection(t *testing.T) {
	model := trainTiny(t)
	if err := model.Quantize(PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	defer model.Quantize(PrecisionF64)

	// Positive control: the untouched quantized file loads at int8.
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if good.ScorePrecision() != PrecisionInt8 {
		t.Fatalf("control precision = %v, want int8", good.ScorePrecision())
	}

	cases := []struct {
		name   string
		mutate func(prec string, pairs map[string]json.RawMessage) any
	}{
		{"unknown precision", func(prec string, pairs map[string]json.RawMessage) any {
			return quantSection{Precision: "f16", Pairs: pairs}
		}},
		{"f64 precision", func(prec string, pairs map[string]json.RawMessage) any {
			return quantSection{Precision: "f64", Pairs: pairs}
		}},
		{"missing pair", func(prec string, pairs map[string]json.RawMessage) any {
			for k := range pairs {
				delete(pairs, k)
				break
			}
			return quantSection{Precision: prec, Pairs: pairs}
		}},
		{"ghost pair", func(prec string, pairs map[string]json.RawMessage) any {
			var any json.RawMessage
			for _, st := range pairs {
				any = st
				break
			}
			pairs["ghost\x1fa"] = any
			return quantSection{Precision: prec, Pairs: pairs}
		}},
		{"malformed pair key", func(prec string, pairs map[string]json.RawMessage) any {
			var any json.RawMessage
			for k, st := range pairs {
				any = st
				delete(pairs, k)
				break
			}
			pairs["nosep"] = any
			return quantSection{Precision: prec, Pairs: pairs}
		}},
		{"pair precision mismatch", func(prec string, pairs map[string]json.RawMessage) any {
			for k, st := range pairs {
				var pair map[string]json.RawMessage
				if err := json.Unmarshal(st, &pair); err != nil {
					t.Fatal(err)
				}
				pair["precision"] = json.RawMessage(`"f32"`)
				out, err := json.Marshal(pair)
				if err != nil {
					t.Fatal(err)
				}
				pairs[k] = out
				break
			}
			return quantSection{Precision: prec, Pairs: pairs}
		}},
		{"pair config mismatch", func(prec string, pairs map[string]json.RawMessage) any {
			for k, st := range pairs {
				var pair map[string]json.RawMessage
				if err := json.Unmarshal(st, &pair); err != nil {
					t.Fatal(err)
				}
				var cfg map[string]json.RawMessage
				if err := json.Unmarshal(pair["config"], &cfg); err != nil {
					t.Fatal(err)
				}
				cfg["Hidden"] = json.RawMessage(`8`)
				out, err := json.Marshal(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pair["config"] = out
				if pairs[k], err = json.Marshal(pair); err != nil {
					t.Fatal(err)
				}
				break
			}
			return quantSection{Precision: prec, Pairs: pairs}
		}},
		{"truncated tensor payload", func(prec string, pairs map[string]json.RawMessage) any {
			for k, st := range pairs {
				var pair struct {
					Config    json.RawMessage   `json:"config"`
					Precision string            `json:"precision"`
					Tensors   []json.RawMessage `json:"tensors"`
				}
				if err := json.Unmarshal(st, &pair); err != nil {
					t.Fatal(err)
				}
				if len(pair.Tensors) == 0 {
					t.Fatal("quant pair has no tensors")
				}
				var tensor map[string]json.RawMessage
				if err := json.Unmarshal(pair.Tensors[0], &tensor); err != nil {
					t.Fatal(err)
				}
				// Halve the payload, whichever representation it uses.
				for _, field := range []string{"f32", "q8", "scales"} {
					raw, ok := tensor[field]
					if !ok {
						continue
					}
					if field == "q8" {
						var b64 string
						if err := json.Unmarshal(raw, &b64); err != nil {
							t.Fatal(err)
						}
						out, err := json.Marshal(b64[:len(b64)/2&^3])
						if err != nil {
							t.Fatal(err)
						}
						tensor[field] = out
						continue
					}
					var vals []float32
					if err := json.Unmarshal(raw, &vals); err != nil {
						t.Fatal(err)
					}
					out, err := json.Marshal(vals[:len(vals)/2])
					if err != nil {
						t.Fatal(err)
					}
					tensor[field] = out
				}
				out, err := json.Marshal(tensor)
				if err != nil {
					t.Fatal(err)
				}
				pair.Tensors[0] = out
				if pairs[k], err = json.Marshal(pair); err != nil {
					t.Fatal(err)
				}
				break
			}
			return quantSection{Precision: prec, Pairs: pairs}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			corrupted := mutateQuant(t, model, tc.mutate)
			if _, err := Load(corrupted); !errors.Is(err, ErrCorruptModel) {
				t.Fatalf("err = %v, want ErrCorruptModel", err)
			}
		})
	}

	// Deleting the whole section is not corruption: the float64 weights are
	// intact, so the model loads and scores at f64.
	stripped := mutateQuant(t, model, func(string, map[string]json.RawMessage) any { return nil })
	plain, err := Load(stripped)
	if err != nil {
		t.Fatalf("quant-stripped model failed to load: %v", err)
	}
	if plain.ScorePrecision() != PrecisionF64 {
		t.Fatalf("quant-stripped precision = %v, want f64", plain.ScorePrecision())
	}
}
