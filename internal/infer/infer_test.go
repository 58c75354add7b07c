package infer

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mdes/internal/nmt"
	"mdes/internal/nn"
)

func testConfig(kind nn.AttentionKind) nmt.Config {
	return nmt.Config{
		SrcVocab: 12, TgtVocab: 12,
		Embed: 8, Hidden: 8, Layers: 2, Dropout: 0.2,
		LearningRate: 5e-3, ClipNorm: 5,
		TrainSteps: 10, BatchSize: 8, MaxDecodeLen: 10,
		Attention: kind,
	}
}

func testState(t testing.TB, kind nn.AttentionKind, seed int64) nmt.State {
	t.Helper()
	m, err := nmt.NewModel(testConfig(kind), seed)
	if err != nil {
		t.Fatal(err)
	}
	return m.State()
}

func randSentences(rng *rand.Rand, n, maxLen, vocab int) [][]int {
	out := make([][]int, n)
	for i := range out {
		s := make([]int, rng.Intn(maxLen+1))
		for j := range s {
			s[j] = rng.Intn(vocab)
			if rng.Intn(10) == 0 {
				s[j] = nmt.UnkID // exercise reference masking
			}
		}
		out[i] = s
	}
	return out
}

// TestScoreBatchMatchesSingle pins the load-bearing batching invariant: a
// sentence scored inside a batch gets the bit-identical score it gets alone,
// in every format, with the translation cache on and off.
func TestScoreBatchMatchesSingle(t *testing.T) {
	for _, kind := range []nn.AttentionKind{nn.AttentionGeneral, nn.AttentionDot, nn.AttentionConcat} {
		st := testState(t, kind, 11)
		for _, prec := range []Precision{F64, F32, Int8} {
			for _, cache := range []bool{false, true} {
				m, err := FromState(st, prec)
				if err != nil {
					t.Fatal(err)
				}
				m.SetTranslationCaching(cache)
				rng := rand.New(rand.NewSource(23))
				srcs := randSentences(rng, 37, 9, 12)
				refs := randSentences(rng, 37, 9, 12)
				got := make([]float64, len(srcs))
				m.ScoreBatch(srcs, refs, got)
				for i := range srcs {
					want := m.ScoreSentence(srcs[i], refs[i])
					if math.Float64bits(want) != math.Float64bits(got[i]) {
						t.Fatalf("kind=%v prec=%v cache=%v sentence %d: batch %v single %v",
							kind, prec, cache, i, got[i], want)
					}
				}
				// Repeated batch (fully cached when cache=true) must agree.
				again := make([]float64, len(srcs))
				m.ScoreBatch(srcs, refs, again)
				for i := range got {
					if math.Float64bits(again[i]) != math.Float64bits(got[i]) {
						t.Fatalf("kind=%v prec=%v cache=%v sentence %d: rescore %v first %v",
							kind, prec, cache, i, again[i], got[i])
					}
				}
			}
		}
	}
}

// TestInferMatchesF64 pins agreement between the f32 engine and the float64
// reference on a fixed random model: identical greedy translations and
// near-identical sentence scores. Deterministic seeds make the exact
// assertions stable.
func TestInferMatchesF64(t *testing.T) {
	for _, kind := range []nn.AttentionKind{nn.AttentionGeneral, nn.AttentionDot, nn.AttentionConcat} {
		st := testState(t, kind, 5)
		ref64, err := nmt.LoadModel(st)
		if err != nil {
			t.Fatal(err)
		}
		m, err := FromState(st, F32)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(41))
		srcs := randSentences(rng, 25, 9, 12)
		refs := randSentences(rng, 25, 9, 12)
		for i := range srcs {
			want := ref64.Translate(srcs[i])
			got := m.Translate(srcs[i])
			if len(got) != len(want) {
				t.Fatalf("kind=%v sentence %d: f32 hyp %v, f64 hyp %v", kind, i, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("kind=%v sentence %d: f32 hyp %v, f64 hyp %v", kind, i, got, want)
				}
			}
			s64 := nmt.ScoreSentence(ref64, srcs[i], refs[i])
			s32 := m.ScoreSentence(srcs[i], refs[i])
			if math.Abs(s64-s32) > 1e-3 {
				t.Fatalf("kind=%v sentence %d: f32 score %v, f64 score %v", kind, i, s32, s64)
			}
		}
	}
}

// TestScoreBatchSteadyStateAllocs pins the hot-path contract: with the
// translation cache off (the configuration the throughput benchmarks run),
// warmed batched scoring allocates nothing.
func TestScoreBatchSteadyStateAllocs(t *testing.T) {
	for _, prec := range []Precision{F64, F32, Int8} {
		m, err := FromState(testState(t, nn.AttentionGeneral, 11), prec)
		if err != nil {
			t.Fatal(err)
		}
		m.SetTranslationCaching(false)
		rng := rand.New(rand.NewSource(7))
		srcs := randSentences(rng, 16, 8, 12)
		refs := randSentences(rng, 16, 8, 12)
		for i := range srcs {
			if len(srcs[i]) == 0 {
				srcs[i] = []int{3}
			}
		}
		out := make([]float64, len(srcs))
		m.ScoreBatch(srcs, refs, out) // warm the pooled workspace
		allocs := testing.AllocsPerRun(100, func() {
			m.ScoreBatch(srcs, refs, out)
		})
		if allocs != 0 {
			t.Fatalf("prec=%v: ScoreBatch allocates %v/op, want 0", prec, allocs)
		}
	}
}

// TestStateRoundTrip pins that persisting and reloading a quantized model
// preserves scoring bit for bit, through JSON like the on-disk model file.
func TestStateRoundTrip(t *testing.T) {
	for _, prec := range []Precision{F32, Int8} {
		orig, err := FromState(testState(t, nn.AttentionGeneral, 3), prec)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(orig.State())
		if err != nil {
			t.Fatal(err)
		}
		var st State
		if err := json.Unmarshal(blob, &st); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(st)
		if err != nil {
			t.Fatalf("prec=%v: Load: %v", prec, err)
		}
		if loaded.Precision() != prec {
			t.Fatalf("precision %v after round trip, want %v", loaded.Precision(), prec)
		}
		if got, want := loaded.MemoryBytes(), orig.MemoryBytes(); got != want {
			t.Fatalf("MemoryBytes %d after round trip, want %d", got, want)
		}
		rng := rand.New(rand.NewSource(13))
		srcs := randSentences(rng, 20, 9, 12)
		refs := randSentences(rng, 20, 9, 12)
		want := make([]float64, len(srcs))
		got := make([]float64, len(srcs))
		orig.ScoreBatch(srcs, refs, want)
		loaded.ScoreBatch(srcs, refs, got)
		for i := range want {
			if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
				t.Fatalf("prec=%v sentence %d: loaded %v original %v", prec, i, got[i], want[i])
			}
		}
	}
}

// TestLoadRejectsCorruptState pins structural validation of persisted
// inference weights: every class of damage surfaces ErrCorrupt.
func TestLoadRejectsCorruptState(t *testing.T) {
	base, err := FromState(testState(t, nn.AttentionGeneral, 3), Int8)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(st *State)
	}{
		{"bad precision", func(st *State) { st.Precision = "f17" }},
		{"f64 precision not servable", func(st *State) { st.Precision = "f64" }},
		{"missing tensor", func(st *State) { st.Tensors = st.Tensors[1:] }},
		{"duplicate tensor", func(st *State) { st.Tensors = append(st.Tensors, st.Tensors[0]) }},
		{"unknown tensor", func(st *State) {
			extra := st.Tensors[0]
			extra.Name = "dec.l9.Wx"
			st.Tensors = append(st.Tensors, extra)
		}},
		{"truncated codes", func(st *State) {
			for i := range st.Tensors {
				if len(st.Tensors[i].Q8) > 0 {
					st.Tensors[i].Q8 = st.Tensors[i].Q8[:len(st.Tensors[i].Q8)-1]
					return
				}
			}
		}},
		{"scales length mismatch", func(st *State) {
			for i := range st.Tensors {
				if len(st.Tensors[i].Scales) > 0 {
					st.Tensors[i].Scales = st.Tensors[i].Scales[:len(st.Tensors[i].Scales)-1]
					return
				}
			}
		}},
		{"embedding shape lies", func(st *State) {
			for i := range st.Tensors {
				if st.Tensors[i].Name == "src_emb" {
					st.Tensors[i].Rows++
					return
				}
			}
		}},
		{"precision/payload mismatch", func(st *State) { st.Precision = "f32" }},
		{"invalid config", func(st *State) { st.Config.Hidden = -1 }},
	}
	for _, tc := range cases {
		st := base.State()
		tc.mut(&st)
		if _, err := Load(st); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: Load error %v, want ErrCorrupt", tc.name, err)
		}
	}
	// The untouched state must still load.
	if _, err := Load(base.State()); err != nil {
		t.Fatalf("pristine state failed to load: %v", err)
	}
}

// TestFromStateRejectsUnknownPrecision pins that only the three weight
// formats build an engine.
func TestFromStateRejectsUnknownPrecision(t *testing.T) {
	if _, err := FromState(testState(t, nn.AttentionGeneral, 3), Precision(9)); err == nil {
		t.Fatal("FromState(9) succeeded, want error")
	}
}

// eosShy returns st with the EOS logit pushed far down, so greedy decodes
// run to MaxDecodeLen.
func eosShy(st nmt.State) nmt.State {
	w := make(map[string][]float64, len(st.Weights))
	for name, v := range st.Weights {
		w[name] = append([]float64(nil), v...)
	}
	w["out.b"][nmt.EosID] = -100
	return nmt.State{Config: st.Config, Weights: w}
}

// TestF64MatchesNMT pins the reference contract of the F64 engine: with
// both translation caches off, every translation and every score equals
// the training model's, compared with ==, for each attention variant —
// including references masked with <unk> and decodes that run to
// MaxDecodeLen.
func TestF64MatchesNMT(t *testing.T) {
	for _, kind := range []nn.AttentionKind{nn.AttentionGeneral, nn.AttentionDot, nn.AttentionConcat} {
		for _, long := range []bool{false, true} {
			st := testState(t, kind, 5)
			if long {
				st = eosShy(st)
			}
			ref, err := nmt.LoadModel(st)
			if err != nil {
				t.Fatal(err)
			}
			ref.SetTranslationCaching(false)
			m, err := FromState(st, F64)
			if err != nil {
				t.Fatal(err)
			}
			m.SetTranslationCaching(false)
			rng := rand.New(rand.NewSource(41))
			srcs := randSentences(rng, 40, 9, 12)
			refs := randSentences(rng, 40, 9, 12)
			unk, full := 0, 0
			got := make([]float64, len(srcs))
			m.ScoreBatch(srcs, refs, got)
			for i := range srcs {
				want := ref.Translate(srcs[i])
				hyp := m.Translate(srcs[i])
				if len(hyp) != len(want) {
					t.Fatalf("kind=%v long=%v sentence %d: engine hyp %v, nmt hyp %v", kind, long, i, hyp, want)
				}
				for j := range hyp {
					if hyp[j] != want[j] {
						t.Fatalf("kind=%v long=%v sentence %d: engine hyp %v, nmt hyp %v", kind, long, i, hyp, want)
					}
				}
				if len(hyp) == st.Config.MaxDecodeLen {
					full++
				}
				for _, tok := range refs[i] {
					if tok == nmt.UnkID {
						unk++
						break
					}
				}
				s := nmt.ScoreSentence(ref, srcs[i], refs[i])
				if got[i] != s || m.ScoreSentence(srcs[i], refs[i]) != s {
					t.Fatalf("kind=%v long=%v sentence %d: engine score %v (single %v), nmt score %v",
						kind, long, i, got[i], m.ScoreSentence(srcs[i], refs[i]), s)
				}
			}
			if unk == 0 {
				t.Fatalf("kind=%v: no reference exercised <unk> masking", kind)
			}
			if long && full == 0 {
				t.Fatalf("kind=%v: no decode ran to MaxDecodeLen", kind)
			}
		}
	}
}

// TestMemoryCompression pins the resident-size ordering of the formats and
// that GEMM weights compress ~4×/~8× vs the float64 training weights.
func TestMemoryCompression(t *testing.T) {
	st := testState(t, nn.AttentionGeneral, 3)
	var f64Bytes int
	for _, wts := range st.Weights {
		f64Bytes += 8 * len(wts)
	}
	f32m, err := FromState(st, F32)
	if err != nil {
		t.Fatal(err)
	}
	q8m, err := FromState(st, Int8)
	if err != nil {
		t.Fatal(err)
	}
	if !(q8m.MemoryBytes() < f32m.MemoryBytes() && f32m.MemoryBytes() < f64Bytes) {
		t.Fatalf("sizes not ordered: int8 %d, f32 %d, f64 %d",
			q8m.MemoryBytes(), f32m.MemoryBytes(), f64Bytes)
	}
	if 2*f32m.MemoryBytes() != f64Bytes {
		t.Fatalf("f32 size %d, want exactly half of f64 %d", f32m.MemoryBytes(), f64Bytes)
	}
	f64m, err := FromState(st, F64)
	if err != nil {
		t.Fatal(err)
	}
	if f64m.MemoryBytes() != f64Bytes {
		t.Fatalf("f64 engine size %d, want the training weights' %d", f64m.MemoryBytes(), f64Bytes)
	}
}

func TestParsePrecision(t *testing.T) {
	for in, want := range map[string]Precision{"f64": F64, "f32": F32, "int8": Int8, "q8": Int8} {
		got, err := ParsePrecision(in)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePrecision("fp16"); err == nil {
		t.Fatal("ParsePrecision accepted fp16")
	}
	if F64.String() != "f64" || F32.String() != "f32" || Int8.String() != "int8" {
		t.Fatal("Precision.String mismatch")
	}
}
