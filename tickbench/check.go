package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"mdes"
	"mdes/internal/serve"
)

// checkResult collects output problems. failed holds the ids of the requests
// that failed or were refused, or whose output is wrong.
type checkResult struct {
	failed   map[uint64]bool
	problems []string
}

func (c *checkResult) fail(id uint64, format string, args ...any) {
	c.failed[id] = true
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// check verifies one episode:
//   - every request answered 200 (non-200, 429 and transport errors fail);
//   - every response line is a wire point with no error trailer and no
//     degraded point, the points of a tenant are numbered 0, 1, 2, … and
//     there are exactly as many as its ticks should emit;
//   - the server-side tick count of every tenant equals the ticks sent;
//   - the response bytes of the sampled tenants equal a direct mdes.Stream
//     replay at the same precision, request by request.
//
// serverTicks maps tenant index to the count the owning replica reports.
// Every episode replays the same slices, so the reference replays are kept
// in refs (by tenant and tick count) and made only once; the returned stats
// cover the replays this call made.
func check(lr *loadRun, serverTicks []int, model *mdes.Model, sampled []int, refs map[[2]int][]byte, tr *tracer) (checkResult, replayStats, error) {
	cr := checkResult{failed: map[uint64]bool{}}
	for c := 0; c < clients; c++ {
		for _, r := range lr.recs[c] {
			if r.status != http.StatusOK {
				cr.fail(r.id, "%s: request %d: %s", lr.tenants[r.tenant].name, r.id, r.failNote)
			}
		}
	}
	for ti, t := range lr.tenants {
		recs := lr.recs[ti%clients]
		if serverTicks[ti] != t.sent {
			id := uint64(0)
			if n := len(t.reqIdx); n > 0 {
				id = recs[t.reqIdx[n-1]].id
			}
			cr.fail(id, "%s: server holds %d ticks, client sent %d", t.name, serverTicks[ti], t.sent)
		}
		checkPoints(&cr, t, recs)
	}

	var todo []int
	for _, ti := range sampled {
		if _, ok := refs[[2]int{ti, lr.tenants[ti].sent}]; !ok {
			todo = append(todo, ti)
		}
	}
	// Reference replays, one goroutine per sampled tenant. The translation
	// caches are emptied first so the reference decodes for itself instead
	// of reading what the serving path cached.
	if len(todo) > 0 {
		for _, inf := range inferModels(model, lr.log, lr.tenants[0].off) {
			inf.SetTranslationCaching(false)
			inf.SetTranslationCaching(true)
		}
	}
	type out struct {
		ref []byte
		st  replayStats
		err error
	}
	outs := make([]out, len(todo))
	var wg sync.WaitGroup
	for k, ti := range todo {
		wg.Add(1)
		go func(k int, t *tenant) {
			defer wg.Done()
			o := &outs[k]
			o.ref, o.st, o.err = replay(model, lr.log, t.off, t.sent, tr)
		}(k, lr.tenants[ti])
	}
	wg.Wait()
	var total replayStats
	for k, ti := range todo {
		if outs[k].err != nil {
			return cr, total, outs[k].err
		}
		total.add(outs[k].st)
		refs[[2]int{ti, lr.tenants[ti].sent}] = outs[k].ref
	}
	for _, ti := range sampled {
		t := lr.tenants[ti]
		compareBytes(&cr, t, lr.recs[ti%clients], refs[[2]int{ti, t.sent}])
	}
	return cr, total, nil
}

// checkPoints decodes a tenant's responses request by request.
func checkPoints(cr *checkResult, t *tenant, recs []record) {
	body := t.resp.Bytes()
	next, from := 0, 0
	for i, end := range t.reqEnd {
		id := recs[t.reqIdx[i]].id
		sc := bufio.NewScanner(bytes.NewReader(body[from:end]))
		sc.Buffer(nil, 1<<24)
		for sc.Scan() {
			dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
			dec.DisallowUnknownFields() // an error trailer is {"error": …}
			var p serve.WirePoint
			if err := dec.Decode(&p); err != nil {
				cr.fail(id, "%s: bad response line %.80q: %v", t.name, sc.Text(), err)
				continue
			}
			if p.Degraded {
				cr.fail(id, "%s: point %d degraded", t.name, p.T)
			}
			if p.T != next {
				cr.fail(id, "%s: point %d where %d was due", t.name, p.T, next)
			}
			next = p.T + 1
		}
		if err := sc.Err(); err != nil {
			cr.fail(id, "%s: %v", t.name, err)
		}
		from = end
	}
	if want := emitsFor(t.sent); next != want && len(t.reqEnd) > 0 {
		cr.fail(recs[t.reqIdx[len(t.reqIdx)-1]].id, "%s: %d points for %d ticks, want %d", t.name, next, t.sent, want)
	}
}

// compareBytes matches the tenant's responses against the reference stream,
// failing each request whose bytes differ.
func compareBytes(cr *checkResult, t *tenant, recs []record, ref []byte) {
	body := t.resp.Bytes()
	from := 0
	for i, end := range t.reqEnd {
		if end > len(ref) || !bytes.Equal(body[from:end], ref[from:end]) {
			cr.fail(recs[t.reqIdx[i]].id, "%s: response of request %d differs from the direct replay", t.name, i)
		}
		from = end
	}
	if len(body) != len(ref) {
		cr.fail(0, "%s: %d response bytes, replay has %d", t.name, len(body), len(ref))
	}
}

// serverTickCounts asks each tenant's owner how many ticks it consumed.
func serverTickCounts(ctx context.Context, d *deployment, tenants []*tenant) ([]int, error) {
	hc := noRedirect(http.DefaultTransport)
	counts := make([]int, len(tenants))
	for i, t := range tenants {
		base, _, _ := strings.Cut(t.url, "/v1/")
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/streams/"+t.name, nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // fully read
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusNotFound {
			continue // never created: zero ticks
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("session %s: %s", t.name, resp.Status)
		}
		var info serve.SessionInfo
		if err := json.Unmarshal(data, &info); err != nil {
			return nil, fmt.Errorf("session %s: %w", t.name, err)
		}
		counts[i] = info.Ticks
	}
	return counts, nil
}

// sortedDurations returns the latencies of the episode's successful
// measured requests, ascending.
func sortedDurations(lr *loadRun) []time.Duration {
	var out []time.Duration
	for c := 0; c < clients; c++ {
		for _, r := range lr.recs[c] {
			if r.measured && r.status == http.StatusOK {
				out = append(out, r.dur)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
