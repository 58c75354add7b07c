package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"mdes"
)

const (
	// minEpisodes is the fewest episodes a run makes (each with its own
	// set-up, so setup_s is a median of at least this many); a traced run
	// makes at least minTracedEpisodes, two traced and two untraced.
	// maxEpisodes caps them when the program gets so fast that short
	// episodes would otherwise multiply set-ups.
	minEpisodes       = 3
	minTracedEpisodes = 4
	maxEpisodes       = 12
	// sampledTenants get the byte-exact reference replay, one per client.
	sampledTenants = clients
	// maxTranslate bounds the Translate calls behind tokens_per_sentence.
	maxTranslate = 400
)

// episode is one set-up system driven through a fixed amount of work: every
// tenant's warm-up, then its next measureTicks, from a fresh deployment
// (empty sessions, empty translation caches, new durable directories).
// Every episode of a run replays the same slices, so episodes differ only
// by the host's speed, and the run reports medians over them.
type episode struct {
	traced      bool
	lr          *loadRun
	setup       setupTimes
	heapMB      float64 // live heap after set-up
	start, end  time.Time
	cpu         time.Duration // process CPU over the measured phase
	mallocs     uint64
	gcCPU, rCPU float64 // runtime/metrics CPU estimates (GC, total)
	metrics     scrape  // /metrics diff over the measured phase, summed over replicas
	ticks, reqs int     // successful measured requests
}

func (e *episode) seconds() float64 { return e.end.Sub(e.start).Seconds() }

// benchRun is the state of one benchmark run.
type benchRun struct {
	w         workload
	stderr    io.Writer
	modelFile string
	log       *plantLog
	offs      []int
	sampled   []int
	tr        *tracer
	eps       []*episode
	ids       atomic.Uint64 // request ids
	refs      map[[2]int][]byte
	rs        replayStats
	cr        checkResult
	model     *mdes.Model // the last episode's, for the per-layer input statistics
	rssMB     float64
}

func bench(w workload, seed int64, seconds float64, traced bool, stderr io.Writer) (result, error) {
	b := &benchRun{w: w, stderr: stderr, refs: map[[2]int][]byte{}, cr: checkResult{failed: map[uint64]bool{}}}
	var err error
	if b.modelFile, err = ensureModel(w.pairs); err != nil {
		return result{}, err
	}
	if b.log, err = genPlantLog(); err != nil {
		return result{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	var limit int
	b.offs, limit = tenantOffsets(w.tenants, b.log.ticks(), rng)
	if need := warmTicks(w.tenants-1, w.tenants, w.ticksPerReq) + w.measureTicks; need > limit {
		return result{}, fmt.Errorf("an episode needs %d ticks per tenant, the slices hold %d", need, limit)
	}
	for c := 0; c < sampledTenants; c++ {
		b.sampled = append(b.sampled, c+clients*rng.Intn((w.tenants-c+clients-1)/clients))
	}
	if traced {
		b.tr = newTracer()
	}

	runDir := filepath.Join(stateDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	// Episodes run until the measured time reaches the requested seconds:
	// another one starts only while it would end nearer to them than not.
	least := minEpisodes
	if traced {
		least = minTracedEpisodes
	}
	var measured float64
	for k := 0; k < maxEpisodes; k++ {
		if k >= least && measured+measured/float64(k)/2 >= seconds {
			break
		}
		// A traced run alternates untraced and traced episodes, so that
		// the tracing overhead compares like with like.
		e, err := b.episode(k, filepath.Join(runDir, fmt.Sprint(k)), traced && k%2 == 1)
		if err != nil {
			return result{}, fmt.Errorf("episode %d: %w", k, err)
		}
		b.eps = append(b.eps, e)
		measured += e.seconds()
	}
	if b.rssMB, err = peakRSSMB(); err != nil {
		return result{}, err
	}
	for _, p := range b.cr.problems {
		fmt.Fprintln(stderr, "check:", p)
	}
	var res result
	for _, e := range b.eps {
		for c := 0; c < clients; c++ {
			res.Attempted += len(e.lr.recs[c])
		}
	}
	res.Failed = min(len(b.cr.failed), res.Attempted)
	res.Correct = len(b.cr.failed) == 0 && res.Attempted > 0
	if !traced {
		vals, err := b.endToEnd(res)
		if err != nil {
			return res, err
		}
		return res, res.fill(endToEnd, vals)
	}
	vals, err := b.perLayer()
	if err != nil {
		return res, err
	}
	return res, res.fill(perLayer, vals)
}

// episode sets the system up under dir, drives one episode, tears the
// system down and checks the episode's outputs.
func (b *benchRun) episode(k int, dir string, traced bool) (*episode, error) {
	// Drop the previous episode's model before the next set-up so that
	// their memory never stacks.
	b.model = nil
	runtime.GC()
	d, st, err := setUp(b.w, b.modelFile, dir, b.tr)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer os.RemoveAll(dir)
	live := true
	defer func() {
		if live {
			_ = d.tearDown() // error path; the first error is reported
		}
	}()
	e := &episode{traced: traced, setup: st}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	tenants, err := b.tenants(d)
	if err != nil {
		return nil, err
	}
	e.lr = newLoadRun(b.log, tenants, b.w.ticksPerReq, b.w.measureTicks, b.tr, &b.ids)
	if err := b.drive(d, e); err != nil {
		return nil, err
	}
	serverTicks, err := serverTickCounts(context.Background(), d, tenants)
	if err != nil {
		return nil, err
	}
	live = false
	if err := d.tearDown(); err != nil {
		return nil, err
	}

	checkStart := time.Now()
	cr, rs, err := check(e.lr, serverTicks, d.model, b.sampled, b.refs, b.tr)
	if err != nil {
		return nil, err
	}
	b.rs.add(rs)
	for id := range cr.failed {
		b.cr.failed[id] = true
	}
	for _, p := range cr.problems {
		if len(b.cr.problems) < 20 {
			b.cr.problems = append(b.cr.problems, fmt.Sprintf("episode %d: %s", k, p))
		}
	}
	b.model = d.model
	tag := ""
	if traced {
		tag = " traced"
	}
	fmt.Fprintf(b.stderr, "episode %d%s: set-up %.3fs (load %.3fs quantize %.3fs start %.3fs), measured %.2fs: %d requests, %d ticks, %.0f ticks/s, %.1f us CPU/tick; check %.2fs\n",
		k, tag, st.total().Seconds(), st.load.Seconds(), st.quantize.Seconds(), st.start.Seconds(),
		e.seconds(), e.reqs, e.ticks, float64(e.ticks)/e.seconds(), float64(e.cpu.Microseconds())/float64(e.ticks), time.Since(checkStart).Seconds())
	return e, nil
}

// tenants names the tenants and routes each to its owning replica.
func (b *benchRun) tenants(d *deployment) ([]*tenant, error) {
	hc := noRedirect(http.DefaultTransport)
	tenants := make([]*tenant, b.w.tenants)
	for i := range tenants {
		name := fmt.Sprintf("t%03d", i)
		owner, err := d.ownerOf(context.Background(), hc, name)
		if err != nil {
			return nil, err
		}
		tenants[i] = &tenant{
			name: name, url: d.reps[owner].url + "/v1/streams/" + name + "/ticks",
			off: b.offs[i], warm: warmTicks(i, b.w.tenants, b.w.ticksPerReq),
		}
	}
	return tenants, nil
}

// drive runs the episode's closed loop: warm-up, then the measured phase,
// bracketed by /metrics scrapes and process and runtime counters. The
// measured phase runs from the release of the clients to the end of the
// last request.
func (b *benchRun) drive(d *deployment, e *episode) error {
	lr := e.lr
	wait := lr.start()
	released := false
	defer func() {
		if !released {
			lr.stop.Store(true)
			close(lr.measure)
			wait()
		}
	}()
	for c := range lr.warmed {
		<-lr.warmed[c]
	}

	hc := noRedirect(http.DefaultTransport)
	scrapeAll := func() (scrape, error) {
		sum := scrape{}
		for _, r := range d.reps {
			s, err := fetchMetrics(context.Background(), hc, r.url)
			if err != nil {
				return nil, err
			}
			for k, v := range s {
				sum[k] += v
			}
		}
		return sum, nil
	}
	rt := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	var ms runtime.MemStats
	before, err := scrapeAll()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	metrics.Read(rt)
	gc0, cpu0 := rt[0].Value.Float64(), rt[1].Value.Float64()
	if b.tr != nil {
		b.tr.on.Store(e.traced)
	}
	cpu := cpuTime()
	e.start = time.Now()
	released = true
	close(lr.measure)
	wait()
	e.end = time.Now()
	e.cpu = cpuTime() - cpu
	if b.tr != nil {
		b.tr.on.Store(false)
	}
	runtime.ReadMemStats(&ms)
	e.mallocs = ms.Mallocs - mallocs
	metrics.Read(rt)
	e.gcCPU, e.rCPU = rt[0].Value.Float64()-gc0, rt[1].Value.Float64()-cpu0
	after, err := scrapeAll()
	if err != nil {
		return err
	}
	e.metrics = scrape{}
	after.diffInto(before, e.metrics)
	for c := 0; c < clients; c++ {
		for _, r := range lr.recs[c] {
			if r.measured && r.status == http.StatusOK {
				e.ticks += r.ticks
				e.reqs++
			}
		}
	}
	if e.ticks == 0 {
		return fmt.Errorf("no request completed in the measured phase")
	}
	return nil
}

// endToEnd computes the untraced metrics, each a median over the episodes:
// throughput, CPU per tick, set-up time, and the latency percentiles of
// each episode's measured requests. A median of per-episode percentiles
// leaves out an episode whose tail a stall of the host (a slow fsync, a busy
// neighbour) stretched, where a percentile over the whole run would follow
// its worst second.
func (b *benchRun) endToEnd(res result) (map[string]float64, error) {
	var rates, cpus, setups, p50s, p99s []float64
	var secs float64
	var reqs, ticks int
	fewest := math.MaxInt
	for _, e := range b.eps {
		lat := sortedDurations(e.lr)
		fewest = min(fewest, len(lat))
		p50s = append(p50s, ms64(percentile(lat, 50)))
		p99s = append(p99s, ms64(percentile(lat, 99)))
		rates = append(rates, float64(e.ticks)/e.seconds())
		cpus = append(cpus, float64(e.cpu.Microseconds())/float64(e.ticks))
		setups = append(setups, e.setup.total().Seconds())
		secs, reqs, ticks = secs+e.seconds(), reqs+e.reqs, ticks+e.ticks
	}
	fmt.Fprintf(b.stderr, "measured %.2fs in %d episodes: %d requests, %d ticks; per episode at least %d requests, the highest percentile with >=10 samples beyond: p%g\n",
		secs, len(b.eps), reqs, ticks, fewest, supportedPercentile(fewest))
	return map[string]float64{
		"ticks_per_s":     median(rates),
		"request_p50_ms":  median(p50s),
		"request_p99_ms":  median(p99s),
		"cpu_us_per_tick": median(cpus),
		"ok_share":        1 - float64(res.Failed)/float64(res.Attempted),
		"setup_s":         median(setups),
		"rss_peak_mb":     b.rssMB,
	}, nil
}

// perLayer computes the traced run's metrics: seam totals and /metrics diffs
// over the traced episodes, runtime counters over the untraced ones (the
// tracer itself allocates), and the direct replay's layer split.
func (b *benchRun) perLayer() (map[string]float64, error) {
	var tTicks, tReqs, uTicks int
	var tSecs, uSecs float64
	var uMallocs uint64
	var uGC, uCPU float64
	var loads, quants, starts, heaps []float64
	tm := scrape{}
	for _, e := range b.eps {
		if e.traced {
			tTicks, tReqs, tSecs = tTicks+e.ticks, tReqs+e.reqs, tSecs+e.seconds()
			for k, v := range e.metrics {
				tm[k] += v
			}
		} else {
			uTicks, uSecs = uTicks+e.ticks, uSecs+e.seconds()
			uMallocs += e.mallocs
			uGC, uCPU = uGC+e.gcCPU, uCPU+e.rCPU
		}
		loads = append(loads, e.setup.load.Seconds())
		quants = append(quants, e.setup.quantize.Seconds())
		starts = append(starts, e.setup.start.Seconds())
		heaps = append(heaps, e.heapMB)
	}
	if tReqs == 0 || uTicks == 0 {
		return nil, fmt.Errorf("no request completed in a traced or untraced episode")
	}
	tr := b.tr
	var transport time.Duration
	var matched int
	tr.mu.Lock()
	for _, e := range b.eps {
		if !e.traced {
			continue
		}
		for c := 0; c < clients; c++ {
			for _, r := range e.lr.recs[c] {
				if h, ok := tr.handlerDur[r.id]; ok && r.measured {
					transport += r.dur - h
					matched++
				}
			}
		}
	}
	tr.mu.Unlock()
	rs := b.rs
	score := histOf(tm, "mdes_serve_score_latency_seconds")
	perReq := func(v int64) float64 { return float64(v) / float64(tReqs) }
	perTick := func(v int64) float64 { return float64(v) / float64(tTicks) }
	vals := map[string]float64{
		"serve.handler_us_per_request":   safeDiv(float64(tr.handlerNs.Load())/1e3, float64(tr.handlerN.Load())),
		"serve.transport_us_per_request": safeDiv(float64(transport.Nanoseconds())/1e3, float64(matched)),
		"serve.requests_rejected":        tm["mdes_serve_requests_rejected_total"],
		"serve.score_jobs_per_batch":     safeDiv(tm["mdes_serve_score_batch_jobs_total"], tm["mdes_serve_score_batches_total"]),
		"serve.score_us_per_job":         score.mean() * 1e6,
		"serve.score_share":              safeDiv(score.sum, float64(tr.handlerNs.Load())/1e9),
		"cluster.repl_ships_per_request": perReq(tr.shipN.Load()),
		"cluster.repl_bytes_per_tick":    perTick(tr.shipBytes.Load()),
		"cluster.repl_us_per_ship":       safeDiv(float64(tr.shipNs.Load())/1e3, float64(tr.shipN.Load())),
		"cluster.repl_lag_p50_ms":        histOf(tm, "mdes_serve_repl_lag_seconds").quantile(0.5) * 1e3,
		"cluster.repl_coalesced_share":   safeDiv(tm["mdes_serve_repl_coalesced_total"], tm["mdes_serve_repl_enqueued_total"]),
		"cluster.repl_dropped_share":     safeDiv(tm["mdes_serve_repl_dropped_total"], tm["mdes_serve_repl_enqueued_total"]),
		"cluster.redirects":              tm["mdes_serve_cluster_redirects_total"],
		"mdes.push_us_per_tick":          safeDiv(float64(rs.pushNs-rs.scorerNs)/1e3, float64(rs.ticks)),
		"mdes.jobs_per_point":            safeDiv(float64(rs.jobs), float64(rs.points)),
		"infer.score_us_per_sentence":    safeDiv(float64(rs.inferNs)/1e3, float64(rs.inferN)),
		"nmt.score_us_per_sentence":      safeDiv(float64(rs.nmtNs)/1e3, float64(rs.nmtN)),
		"runtime.allocs_per_tick":        float64(uMallocs) / float64(uTicks),
		"runtime.gc_cpu_share":           safeDiv(uGC, uCPU),
		"runtime.heap_mb_after_setup":    median(heaps),
		"setup.load_s":                   median(loads),
		"setup.quantize_s":               median(quants),
		"setup.start_s":                  median(starts),
		"setup.pair_model_mb":            float64(b.model.PairModelBytes()) / 1e6,
		"bench.trace_overhead_share":     1 - (float64(tTicks)/tSecs)/(float64(uTicks)/uSecs),
	}
	for i, name := range []string{"snapshot", "standby"} {
		tot := &tr.io[i]
		vals["faultfs."+name+"_fsyncs_per_request"] = perReq(tot.fsyncs.Load())
		vals["faultfs."+name+"_us_per_request"] = perReq(tot.ns.Load()) / 1e3
		vals["faultfs."+name+"_bytes_per_tick"] = perTick(tot.bytes.Load())
	}
	fi, err := os.Stat(b.modelFile)
	if err != nil {
		return nil, err
	}
	vals["setup.model_file_mb"] = float64(fi.Size()) / 1e6

	last := b.eps[len(b.eps)-1].lr
	offs, lens := make([]int, len(last.tenants)), make([]int, len(last.tenants))
	for i, t := range last.tenants {
		offs[i], lens[i] = t.off, t.sent
	}
	repeat, tokens, err := sentenceStats(b.model, b.log, offs, lens, maxTranslate)
	if err != nil {
		return nil, err
	}
	vals["infer.repeat_share"], vals["infer.tokens_per_sentence"] = repeat, tokens

	path := filepath.Join(stateDir, "traces", b.w.name+".jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(b.stderr, "%d spans written to %s (%d dropped)\n", len(tr.spans), path, tr.dropped)
	return vals, nil
}

func ms64(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
