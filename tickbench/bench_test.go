package main

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain runs from the checkout root, where run.sh runs the benchmark, so
// the tests share its model fixtures; it also serves the fixture build that
// ensureModel starts as a child process of the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-build-model" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestPercentileRule(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	if got := percentile(ds, 50); got != 500*time.Millisecond {
		t.Errorf("p50 = %v, want 500ms", got)
	}
	if got := percentile(ds, 99); got != 990*time.Millisecond {
		t.Errorf("p99 = %v, want 990ms", got)
	}
	if got := percentile(ds[:1], 99); got != time.Millisecond {
		t.Errorf("p99 of one sample = %v", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := supportedPercentile(c.n); got != c.want {
			t.Errorf("supportedPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 && beyond(c.n, c.want) < 10 {
			t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond(c.n, c.want), c.want)
		}
	}
}

const expoBefore = `# HELP mdes_serve_score_latency_seconds x
# TYPE mdes_serve_score_latency_seconds histogram
mdes_serve_score_latency_seconds_bucket{le="0.0005"} 10
mdes_serve_score_latency_seconds_bucket{le="0.001"} 12
mdes_serve_score_latency_seconds_bucket{le="0.0025"} 20
mdes_serve_score_latency_seconds_bucket{le="+Inf"} 20
mdes_serve_score_latency_seconds_sum 0.01
mdes_serve_score_latency_seconds_count 20
mdes_serve_requests_rejected_total 3
`

const expoAfter = `mdes_serve_score_latency_seconds_bucket{le="0.0005"} 40
mdes_serve_score_latency_seconds_bucket{le="0.001"} 62
mdes_serve_score_latency_seconds_bucket{le="0.0025"} 120
mdes_serve_score_latency_seconds_bucket{le="+Inf"} 120
mdes_serve_score_latency_seconds_sum 0.07
mdes_serve_score_latency_seconds_count 120
mdes_serve_requests_rejected_total 5
`

func TestHistogramDiff(t *testing.T) {
	before, err := parseExposition(strings.NewReader(expoBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseExposition(strings.NewReader(expoAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := scrape{}
	after.diffInto(before, d)
	if got := d["mdes_serve_requests_rejected_total"]; got != 2 {
		t.Errorf("counter diff = %g, want 2", got)
	}
	h := histOf(d, "mdes_serve_score_latency_seconds")
	wantBounds := []float64{0.0005, 0.001, 0.0025, math.Inf(1)}
	wantCum := []float64{30, 50, 100, 100}
	if len(h.bounds) != len(wantBounds) {
		t.Fatalf("bounds %v, want %v", h.bounds, wantBounds)
	}
	for i := range wantBounds {
		if h.bounds[i] != wantBounds[i] || h.cum[i] != wantCum[i] {
			t.Fatalf("bucket %d = (%g, %g), want (%g, %g)", i, h.bounds[i], h.cum[i], wantBounds[i], wantCum[i])
		}
	}
	if h.count != 100 || math.Abs(h.sum-0.06) > 1e-12 {
		t.Errorf("count/sum = %g/%g, want 100/0.06", h.count, h.sum)
	}
	// The mean comes from _sum/_count, not from the buckets.
	if m := h.mean(); math.Abs(m-0.0006) > 1e-12 {
		t.Errorf("mean = %g, want 0.0006", m)
	}
	// Rank 50 closes the second bucket exactly; rank 75 sits halfway
	// through the third.
	if q := h.quantile(0.5); math.Abs(q-0.001) > 1e-12 {
		t.Errorf("p50 = %g, want 0.001", q)
	}
	if q := h.quantile(0.75); math.Abs(q-0.00175) > 1e-12 {
		t.Errorf("p75 = %g, want 0.00175", q)
	}
	if q := (hist{}).quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g", q)
	}
}

func TestNamesAndManifest(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q invalid or reused", d.Name)
			}
			seen[d.Name] = true
			if !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %s: unit %q invalid", d.Name, d.Unit)
			}
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("metric %s: better %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q invalid or reused", w.name)
		}
		seen[w.name] = true
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with -manifest:\n%s", want)
	}
}

func TestTenantOffsets(t *testing.T) {
	const ticks = 30 * 1440
	for _, n := range []int{16, 32, 64} {
		offs, limit := tenantOffsets(n, ticks, rand.New(rand.NewSource(int64(n))))
		if limit < 10*stride {
			t.Fatalf("n=%d: slice of %d ticks", n, limit)
		}
		for i, a := range offs {
			if a < 0 || a+limit > ticks {
				t.Fatalf("n=%d: tenant %d slice [%d,%d) outside the log", n, i, a, a+limit)
			}
			for j, b := range offs[:i] {
				overlap := a < b+limit && b < a+limit
				if a == b || (overlap && (a-b)%stride == 0) {
					t.Errorf("n=%d: tenants %d and %d replay the same sentence windows (%d, %d)", n, j, i, b, a)
				}
			}
		}
	}
}

// TestSmoke runs every workload for a second of short episodes, untraced
// and traced, and checks that each run is correct and emits every metric
// its mode names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds model fixtures and runs every workload")
	}
	for _, w := range workloads {
		w.measureTicks = 5 * w.ticksPerReq
		for _, traced := range []bool{false, true} {
			res, err := bench(w, 1, 1, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v", w.name, traced, d.Name, v)
				}
			}
			if traced {
				// Request ids must stay unique across episodes, or handler
				// times pair with other episodes' requests.
				for _, n := range []string{"serve.handler_us_per_request", "serve.transport_us_per_request"} {
					if v := res.Metrics[n].Value; v <= 0 {
						t.Errorf("%s: %s = %g, want > 0", w.name, n, v)
					}
				}
			} else {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}
