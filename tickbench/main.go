// Command tickbench is the end-to-end benchmark of the online tick path:
// sensor ticks go in over HTTP, detection points come out, on a
// paper-shaped model (128 plantgen sensors, embed/hidden 64, 2 layers,
// word 10 / sentence 20 / stride 20).
//
// One run is a series of episodes. Each episode sets up mdes-serve
// replicas in-process on loopback, drives the same fixed work (every
// tenant's warm-up, then its next measureTicks ticks) from two closed-loop
// clients (each with at most one request in flight, cycling over its half
// of the tenants), tears the replicas down and checks every output.
// Episodes repeat until about --seconds have been measured, and the run
// prints the metrics, medians over the episodes, as one JSON object on the
// last line of stdout:
//
//	bash tickbench/run.sh --workload bulk-durable --seed 1 --seconds 40 --trace 0
//
// With --trace 0 the end-to-end metrics are reported; with --trace 1 the
// run records spans at the layer seams (Server.ServeHTTP, Options.FS,
// Options.ClusterClient, Stream.SetScorer) and reports per-layer metrics
// instead. State that outlives a run (the model fixtures, the build)
// lives under .bench_build in the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"

	"mdes"
)

// workload is one traffic mix. Every field is fixed per workload; the seed
// only picks the tenants' slices of the plant log and the replay-checked
// tenants.
type workload struct {
	name, why   string
	tenants     int
	ticksPerReq int
	// measureTicks is each tenant's measured work in one episode, after
	// its warm-up; sized so that an episode lasts several seconds.
	measureTicks int
	prec         mdes.Precision
	pairs        int  // relationships in the model (screening TopK)
	durable      bool // 2 clustered replicas with SnapshotDir + StandbyDir
}

// workloads leaves out two traffic mixes. tick-durable (1 tick/request,
// 64 tenants, otherwise as bulk-durable): over ten seeds its ticks_per_s and
// request_p99_ms spread by half their median or more (fsync latency on a
// shared disk), wider than any bound the benchmark may set; bulk-durable
// keeps the persist and replication layers measured. score-int8 (one
// sentence per request, 32 tenants, int8, 64-relationship model): its
// 5-s model load, done once per episode, would leave room for no more than
// 25-s runs of three workloads in the time all runs may take, and at that
// length the host's own speed swings spread every workload's figures
// across most of their bounds; bulk-durable keeps the quantized infer/mat
// path and the score pool measured, score-f64 the scoring-bound mix.
var workloads = []workload{
	{
		name:    "bulk-durable",
		why:     "200 ticks/request, 16 tenants, f32, 2 replicas with snapshots and standby on disk: persist and replication per request, wire decode and Stream.Push per tick",
		tenants: 16, ticksPerReq: 200, measureTicks: 5000, prec: mdes.PrecisionF32, pairs: 8, durable: true,
	},
	{
		name:    "score-f64",
		why:     "one sentence per request, 16 tenants, float64, 8-relationship model, memory-only: nmt.ScoreSentence in the unbatched f64 pool path takes most of the handler time",
		tenants: 16, ticksPerReq: 20, measureTicks: 3300, prec: mdes.PrecisionF64, pairs: 8,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef declares one reported metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics carry
// none.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64
}

// endToEnd is measured with tracing off. Every metric here is nonzero on a
// healthy run: failures are reported as ok_share (1 − failed/attempted), not
// as a failed share that would read 0.
var endToEnd = []metricDef{
	{"ticks_per_s", "ticks/s", "higher", 0.25},
	{"request_p50_ms", "ms", "lower", 0.25},
	{"request_p99_ms", "ms", "lower", 0.25},
	{"cpu_us_per_tick", "us/tick", "lower", 0.25},
	{"ok_share", "share", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.2},
}

// perLayer comes from the traced run. The comment on each group names the
// end-to-end metric and workload it should move.
var perLayer = []metricDef{
	// serve: request_p50_ms on every workload.
	{"serve.handler_us_per_request", "us", "lower", 0},
	{"serve.transport_us_per_request", "us", "lower", 0},
	{"serve.requests_rejected", "count", "lower", 0},
	// serve score pool: ticks_per_s on both workloads.
	{"serve.score_jobs_per_batch", "jobs/batch", "higher", 0},
	{"serve.score_us_per_job", "us", "lower", 0},
	{"serve.score_share", "share", "lower", 0},
	// faultfs: ticks_per_s and request_p99_ms on bulk-durable.
	{"faultfs.snapshot_fsyncs_per_request", "fsyncs/req", "lower", 0},
	{"faultfs.snapshot_us_per_request", "us", "lower", 0},
	{"faultfs.snapshot_bytes_per_tick", "B/tick", "lower", 0},
	{"faultfs.standby_fsyncs_per_request", "fsyncs/req", "lower", 0},
	{"faultfs.standby_us_per_request", "us", "lower", 0},
	{"faultfs.standby_bytes_per_tick", "B/tick", "lower", 0},
	// cluster: cpu_us_per_tick and ticks_per_s on bulk-durable.
	{"cluster.repl_ships_per_request", "ships/req", "lower", 0},
	{"cluster.repl_bytes_per_tick", "B/tick", "lower", 0},
	{"cluster.repl_us_per_ship", "us", "lower", 0},
	{"cluster.repl_lag_p50_ms", "ms", "lower", 0},
	{"cluster.repl_coalesced_share", "share", "higher", 0},
	{"cluster.repl_dropped_share", "share", "lower", 0},
	{"cluster.redirects", "count", "lower", 0},
	// mdes: ticks_per_s on bulk-durable.
	{"mdes.push_us_per_tick", "us", "lower", 0},
	{"mdes.jobs_per_point", "jobs", "lower", 0},
	// infer: ticks_per_s on bulk-durable; the last two are input properties
	// that guard the amount of work, not targets.
	{"infer.score_us_per_sentence", "us", "lower", 0},
	{"infer.tokens_per_sentence", "tokens", "higher", 0},
	{"infer.repeat_share", "share", "lower", 0},
	// nmt: ticks_per_s on score-f64.
	{"nmt.score_us_per_sentence", "us", "lower", 0},
	// runtime: cpu_us_per_tick on bulk-durable; rss_peak_mb.
	{"runtime.allocs_per_tick", "allocs/tick", "lower", 0},
	{"runtime.gc_cpu_share", "share", "lower", 0},
	{"runtime.heap_mb_after_setup", "MB", "lower", 0},
	// setup: setup_s and rss_peak_mb.
	{"setup.load_s", "s", "lower", 0},
	{"setup.quantize_s", "s", "lower", 0},
	{"setup.start_s", "s", "lower", 0},
	{"setup.model_file_mb", "MB", "lower", 0},
	{"setup.pair_model_mb", "MB", "lower", 0},
	// bench: report only.
	{"bench.trace_overhead_share", "share", "lower", 0},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// manifest renders BENCHMARK.json from the tables above.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "tickbench/run.sh"},
		Paths:      []string{"tickbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// runSeconds is the measured length of one run: long enough that
// bulk-durable (the workload with the fewest requests per second) has well
// over ten request samples beyond p99, and that the medians over episodes
// average over the host's own speed swings.
const runSeconds = 40

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tickbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed: picks the tenants' slices of the plant log and the replay-checked tenants")
	seconds := fs.Float64("seconds", runSeconds, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	buildModel := fs.String("build-model", "", "write the model fixture to this path and exit (run as a child process)")
	pairs := fs.Int("pairs", 8, "relationships in the -build-model fixture")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printManifest:
		out, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "tickbench:", err)
			return 1
		}
		_, _ = stdout.Write(out)
		return 0
	case *buildModel != "":
		if err := writeModelFixture(*buildModel, *pairs); err != nil {
			fmt.Fprintln(stderr, "tickbench: build model:", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*wlName)
	if !ok {
		fmt.Fprintf(stderr, "tickbench: unknown workload %q\n", *wlName)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "tickbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	res, err := bench(w, *seed, *seconds, *trace == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "tickbench:", err)
		return 1
	}
	printTable(stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "tickbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill copies the values of the metrics defs names into the result, failing
// on a metric the run did not produce.
func (r *result) fill(defs []metricDef, vals map[string]float64) error {
	r.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return nil
}

func printTable(w io.Writer, r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
}
