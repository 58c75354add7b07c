package serve

import (
	"errors"
	"sync"
	"time"

	"mdes"
	"mdes/internal/infer"
)

// ErrScoreDeadline reports that a sentence window could not be scored within
// the configured per-tick deadline. The stream wraps it; handlers match it
// with errors.Is to answer the tick degraded instead of stalling the NDJSON
// stream.
var ErrScoreDeadline = errors.New("serve: scoring deadline exceeded")

// scorePool fans pairwise relationship scoring out across the sessions
// currently processing a tick. Each completed sentence window produces one
// ScoreJob per valid relationship; all sessions share the same bounded worker
// set, so concurrency is governed globally rather than per tenant.
//
// Every job carries its pair's scoring engine, at whatever precision the
// served model is published, and the pool batches them: a dispatcher
// goroutine groups queued jobs by engine — across tenants, which all share
// the same *infer.Model for a given registry model — and hands workers whole
// batches that score through one ScoreBatch GEMM call instead of many
// matrix-vector passes. Batched and per-job scores are bit-identical (every
// engine kernel is row-independent), so grouping is invisible to tenants.
type scorePool struct {
	dispatch chan scoreTask  // submissions, consumed by the dispatcher
	jobs     chan scoreBatch // ready work, consumed by workers
	quit     chan struct{}   // unblocks a dispatcher stuck on a dead worker set
	wg       sync.WaitGroup  // workers
	dwg      sync.WaitGroup  // dispatcher
	met      *metrics

	workers  int
	batchMax int           // max jobs fused into one ScoreBatch call
	linger   time.Duration // how long a short batch may wait for company

	// taskbuf recycles the []scoreTask batches travel in; pack recycles the
	// per-batch sentence/score packing arrays; dscratch recycles the
	// deadline path's job copies and shadow rows. All three keep the
	// steady-state scoring path allocation-free.
	taskbuf  sync.Pool
	pack     sync.Pool
	dscratch sync.Pool
}

// scoreTask is one job plus the row to store its score in and the barrier
// that releases the submitting session once the whole window is scored.
type scoreTask struct {
	job  *mdes.ScoreJob
	row  []float64
	done *sync.WaitGroup
}

// scoreBatch is one unit of worker work: a group of same-engine jobs scored
// with one ScoreBatch call.
type scoreBatch struct {
	inf   *infer.Model
	tasks *[]scoreTask
}

// packScratch is a worker's batch-packing workspace: sentence views in, one
// score column out.
type packScratch struct {
	src, tgt [][]int
	out      []float64
}

// deadlineScratch is the scoreWithin working set: a private copy of the jobs
// and a shadow row, reused across deadline calls instead of allocated per
// emit. It is only returned to the pool after every worker touching it has
// finished, so an abandoned batch can never race the next borrower.
type deadlineScratch struct {
	jobs   []mdes.ScoreJob
	shadow []float64
}

func newScorePool(workers, batchMax int, linger time.Duration, met *metrics) *scorePool {
	if batchMax <= 0 {
		batchMax = 64
	}
	p := &scorePool{
		// Buffer a few batches' worth of jobs so sessions rarely block while
		// handing work out; admission control bounds total exposure.
		dispatch: make(chan scoreTask, workers*4),
		jobs:     make(chan scoreBatch, workers*2),
		quit:     make(chan struct{}),
		met:      met,
		workers:  workers,
		batchMax: batchMax,
		linger:   linger,
	}
	p.taskbuf.New = func() any { s := make([]scoreTask, 0, batchMax); return &s }
	p.pack.New = func() any {
		return &packScratch{
			src: make([][]int, batchMax),
			tgt: make([][]int, batchMax),
			out: make([]float64, batchMax),
		}
	}
	p.dscratch.New = func() any { return new(deadlineScratch) }
	p.dwg.Add(1)
	go p.dispatcher()
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// dispatcher is the batching scheduler. Jobs accumulate per engine until
// the batch is full, the linger window expires, or — with no linger
// configured — the submission channel runs dry, whichever comes first. A
// full system degrades gracefully: the dispatcher blocks handing a batch to
// the workers, new submissions queue in the dispatch buffer, and sessions
// feel backpressure.
func (p *scorePool) dispatcher() {
	defer p.dwg.Done()
	defer close(p.jobs)
	pending := make(map[*infer.Model]*[]scoreTask)
	npending := 0
	timer := time.NewTimer(time.Hour)
	// The linger dance below re-arms and drains the timer inline, but the
	// dispatcher can return with it armed (quit while a linger window is
	// open); without this defer that exit path leaks an armed timer.
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	timerOn := false
	clearTimer := func() {
		if timerOn && !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timerOn = false
	}

	// forward blocks until workers accept the batch; quit covers the
	// degenerate zero-worker pool, where nothing ever would. It reports
	// whether the batch was handed off.
	forward := func(b scoreBatch) bool {
		select {
		case p.jobs <- b:
			return true
		case <-p.quit:
			return false
		}
	}
	settle := func(b scoreBatch) {
		for _, t := range *b.tasks {
			t.done.Done()
		}
	}
	flush := func(inf *infer.Model) bool {
		buf := pending[inf]
		delete(pending, inf)
		npending -= len(*buf)
		b := scoreBatch{inf: inf, tasks: buf}
		if !forward(b) {
			settle(b)
			return false
		}
		return true
	}
	flushAll := func() bool {
		for inf := range pending {
			if !flush(inf) {
				for m := range pending {
					settle(scoreBatch{tasks: pending[m]})
					delete(pending, m)
				}
				npending = 0
				return false
			}
		}
		clearTimer()
		return true
	}
	enqueue := func(t scoreTask) {
		inf := t.job.BatchModel()
		buf, ok := pending[inf]
		if !ok {
			buf = p.taskbuf.Get().(*[]scoreTask)
			pending[inf] = buf
		}
		*buf = append(*buf, t)
		npending++
		if len(*buf) >= p.batchMax {
			flush(inf)
			if npending == 0 {
				clearTimer()
			}
		}
	}

	for {
		if npending == 0 {
			t, ok := <-p.dispatch
			if !ok {
				return
			}
			enqueue(t)
			continue
		}
		if p.linger <= 0 {
			// Greedy batching: fuse whatever is already queued, flush the
			// moment the channel runs dry. Zero added latency; batches form
			// naturally whenever sessions outnumber workers.
			select {
			case t, ok := <-p.dispatch:
				if !ok {
					flushAll()
					return
				}
				enqueue(t)
			default:
				flushAll()
			}
			continue
		}
		if !timerOn {
			timer.Reset(p.linger)
			timerOn = true
		}
		select {
		case t, ok := <-p.dispatch:
			if !ok {
				flushAll()
				return
			}
			enqueue(t)
		case <-timer.C:
			timerOn = false
			flushAll()
		}
	}
}

// worker scores batches until the pool closes.
func (p *scorePool) worker() {
	defer p.wg.Done()
	for b := range p.jobs {
		p.runBatch(b)
	}
}

// runBatch packs a same-model group into one ScoreBatch call and scatters the
// scores back to each task's row. The observed latency is amortized per job,
// so the histogram stays comparable across batch sizes.
func (p *scorePool) runBatch(b scoreBatch) {
	tasks := *b.tasks
	n := len(tasks)
	ps := p.pack.Get().(*packScratch)
	if cap(ps.out) < n {
		ps.src = make([][]int, n)
		ps.tgt = make([][]int, n)
		ps.out = make([]float64, n)
	}
	src, tgt, out := ps.src[:n], ps.tgt[:n], ps.out[:n]
	for i, t := range tasks {
		src[i], tgt[i] = t.job.Sentences()
	}
	start := time.Now()
	b.inf.ScoreBatch(src, tgt, out)
	per := time.Since(start) / time.Duration(n)
	for i, t := range tasks {
		t.row[t.job.Index()] = out[i]
		p.met.scoreLatency.observe(per)
		t.done.Done()
	}
	for i := range src {
		src[i], tgt[i] = nil, nil // drop token-slice references while pooled
	}
	p.pack.Put(ps)
	p.met.scoreBatches.Add(1)
	p.met.scoreBatchJobs.Add(int64(n))
	*b.tasks = tasks[:0]
	p.taskbuf.Put(b.tasks)
}

// score is installed as each stream's scorer (Stream.SetScorer): it submits
// every job and waits for the batch. Workers never block on anything other
// than the job channel, so submission always drains — sessions hold their own
// mutex while in here, but no pool worker ever takes a session mutex.
func (p *scorePool) score(jobs []mdes.ScoreJob, row []float64) error {
	var done sync.WaitGroup
	done.Add(len(jobs))
	for i := range jobs {
		p.dispatch <- scoreTask{job: &jobs[i], row: row, done: &done}
	}
	done.Wait()
	return nil
}

// scoreWithin is score with a deadline: if the batch is not fully scored
// within d it returns ErrScoreDeadline and the caller's scratch is left
// untouched. The jobs and row the stream hands a scorer are reused on the
// next emit, so the deadline path works on pooled copies: abandoned workers
// finish into the shadow row and their results are discarded, never racing
// the stream's next window. The scratch only returns to the pool once every
// abandoned worker is done with it.
func (p *scorePool) scoreWithin(jobs []mdes.ScoreJob, row []float64, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	sc := p.dscratch.Get().(*deadlineScratch)
	sc.jobs = append(sc.jobs[:0], jobs...)
	if cap(sc.shadow) < len(row) {
		sc.shadow = make([]float64, len(row))
	}
	shadow := sc.shadow[:len(row)]
	var done sync.WaitGroup
	done.Add(len(sc.jobs))
	for i := range sc.jobs {
		select {
		case p.dispatch <- scoreTask{job: &sc.jobs[i], row: shadow, done: &done}:
		case <-timer.C:
			// Unsubmitted tasks will never run; settle their barrier entries
			// so the reclaim goroutine below terminates.
			submitted := i
			for ; i < len(sc.jobs); i++ {
				done.Done()
			}
			if submitted == 0 {
				p.dscratch.Put(sc)
			} else {
				go func() { done.Wait(); p.dscratch.Put(sc) }()
			}
			return ErrScoreDeadline
		}
	}
	finished := make(chan struct{})
	go func() { done.Wait(); close(finished) }()
	select {
	case <-finished:
		copy(row, shadow)
		p.dscratch.Put(sc)
		return nil
	case <-timer.C:
		go func() { <-finished; p.dscratch.Put(sc) }()
		return ErrScoreDeadline
	}
}

// depth reports how many submitted jobs the dispatcher has not yet picked up.
func (p *scorePool) depth() int { return len(p.dispatch) }

// close stops the dispatcher and workers after the queue drains. Callers must
// guarantee no further score calls.
func (p *scorePool) close() {
	if p.workers == 0 {
		// Degenerate test-only configuration: nothing drains the job
		// channel, so release the dispatcher before closing submissions.
		close(p.quit)
	}
	close(p.dispatch)
	p.dwg.Wait()
	p.wg.Wait()
}
