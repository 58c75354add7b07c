package main

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed loop's width: each client has at most one request
// in flight and cycles over its share of the tenants.
const clients = 2

// tenant is one replayed stream. Only its client goroutine touches it while
// the load runs.
type tenant struct {
	name string
	url  string // tick endpoint on the owning replica
	off  int    // first log tick
	sent int    // ticks the server consumed (200 responses)
	warm int    // ticks to consume before the measured phase
	resp bytes.Buffer
	// reqEnd[i] is the end offset in resp of this tenant's i-th successful
	// request; reqIdx[i] its index in the client's record list.
	reqEnd []int
	reqIdx []int
	broken bool // a request failed in a way that leaves the position unknown
}

// record is one request as the client saw it.
type record struct {
	tenant   int
	ticks    int
	id       uint64
	measured bool // false during warm-up
	start    time.Time
	dur      time.Duration
	status   int // 0 on a transport error
	failNote string
}

// loadRun drives one episode's closed loop in two phases. In warm-up every
// tenant sends its warm ticks; each client then reports on warmed and waits
// for measure to close, after which it sends every tenant's next
// measureTicks and returns. The work of both phases is fixed, so every
// episode of a workload does the same work whatever the host's speed.
type loadRun struct {
	log          *plantLog
	tenants      []*tenant
	perReq       int
	measureTicks int
	tr           *tracer
	ids          *atomic.Uint64 // request ids, unique across the run's episodes
	stop         atomic.Bool    // set on an error path: clients return early

	warmed  [clients]chan struct{}
	measure chan struct{}
	recs    [clients][]record
}

func newLoadRun(log *plantLog, tenants []*tenant, perReq, measureTicks int, tr *tracer, ids *atomic.Uint64) *loadRun {
	lr := &loadRun{log: log, tenants: tenants, perReq: perReq, measureTicks: measureTicks, tr: tr, ids: ids, measure: make(chan struct{})}
	for c := range lr.warmed {
		lr.warmed[c] = make(chan struct{})
	}
	return lr
}

// start starts the clients and returns a function that waits for them.
// Every client returns once it has sent its tenants' work, or after its
// current request once stop is set and measure closed.
func (lr *loadRun) start() (wait func()) {
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lr.client(c)
		}(c)
	}
	return wg.Wait
}

func (lr *loadRun) client(c int) {
	hc := noRedirect(&http.Transport{
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	})
	defer hc.CloseIdleConnections()
	var mine []int
	for i := c; i < len(lr.tenants); i += clients {
		mine = append(mine, i)
	}
	lr.phase(hc, c, mine, false)
	close(lr.warmed[c])
	<-lr.measure
	lr.phase(hc, c, mine, true)
}

// phase cycles over the client's tenants, one request at a time, until each
// has consumed its warm-up (or, measured, its warm-up plus measureTicks) or
// is broken.
func (lr *loadRun) phase(hc *http.Client, c int, mine []int, measured bool) {
	for next := 0; !lr.stop.Load(); next++ {
		ti := -1
		for k := 0; k < len(mine); k++ {
			cand := mine[(next+k)%len(mine)]
			t := lr.tenants[cand]
			goal := t.warm
			if measured {
				goal += lr.measureTicks
			}
			if !t.broken && t.sent < goal {
				ti, next = cand, next+k
				break
			}
		}
		if ti < 0 {
			return // every tenant is done or broken
		}
		lr.recs[c] = append(lr.recs[c], lr.send(hc, c, ti, measured))
	}
}

// warmTicks is tenant i of n's warm-up: its first sentence window filled,
// plus a stagger of i/n of the sentence stride, so that sessions emit
// points at different requests instead of all in the same wave. Rounded up
// to whole requests.
func warmTicks(i, n, perReq int) int {
	need := span + i*stride/n
	return (need + perReq - 1) / perReq * perReq
}

// send posts the tenant's next pre-encoded batch and reads the whole
// response; the latency runs from send to the last response byte.
func (lr *loadRun) send(hc *http.Client, c, ti int, measured bool) record {
	t := lr.tenants[ti]
	from := t.off + t.sent
	body := lr.log.body(from, from+lr.perReq)
	rec := record{tenant: ti, ticks: lr.perReq, id: lr.ids.Add(1), measured: measured}
	req, err := http.NewRequest(http.MethodPost, t.url, bytes.NewReader(body))
	if err != nil {
		rec.failNote = err.Error()
		t.broken = true
		return rec
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if lr.tr != nil {
		req.Header.Set(requestIDHeader, strconv.FormatUint(rec.id, 10))
	}
	if lr.tr != nil {
		lr.tr.setCurrent(t.name, rec.id)
	}
	mark := t.resp.Len()
	rec.start = time.Now()
	resp, err := hc.Do(req)
	if err == nil {
		_, err = t.resp.ReadFrom(resp.Body)
		_ = resp.Body.Close() // read to EOF or failed; err says which
	}
	rec.dur = time.Since(rec.start)
	if lr.tr != nil {
		lr.tr.clientSpan(rec.id, rec.start, rec.dur)
	}
	switch {
	case err != nil:
		// The server may or may not have consumed the batch.
		rec.failNote = err.Error()
		t.broken = true
		t.resp.Truncate(mark)
	case resp.StatusCode != http.StatusOK:
		rec.status = resp.StatusCode
		rec.failNote = "status " + resp.Status
		t.resp.Truncate(mark)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.broken = true // refused with 429 means nothing was consumed
		}
	default:
		rec.status = http.StatusOK
		t.sent += lr.perReq
		t.reqEnd = append(t.reqEnd, t.resp.Len())
		t.reqIdx = append(t.reqIdx, len(lr.recs[c]))
	}
	return rec
}
