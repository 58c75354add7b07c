package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"mdes"
	"mdes/internal/serve"
)

// modelName is the registry name every session runs.
const modelName = "plant"

// replica is one in-process mdes-serve instance on a loopback listener.
type replica struct {
	url        string
	snapDir    string
	standbyDir string
	srv        *serve.Server
	hs         *http.Server
	served     chan error
}

// deployment is one set-up system under test.
type deployment struct {
	model *mdes.Model
	reps  []*replica
}

// setupTimes splits one set-up: model Load, Quantize, and serve.New of every
// replica through the first /readyz 200 on all of them.
type setupTimes struct {
	load, quantize, start time.Duration
}

func (s setupTimes) total() time.Duration { return s.load + s.quantize + s.start }

// setUp loads the model fixture and starts the workload's replicas under
// dir. With a tracer, every replica's handler, filesystem and cluster client
// pass through its wrappers.
func setUp(w workload, modelFile, dir string, tr *tracer) (*deployment, setupTimes, error) {
	n := 1
	if w.durable {
		n = 2
	}
	reps := make([]*replica, n)
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range reps {
		reps[i] = &replica{}
		if w.durable {
			reps[i].snapDir = filepath.Join(dir, fmt.Sprintf("r%d", i), "snap")
			reps[i].standbyDir = filepath.Join(dir, fmt.Sprintf("r%d", i), "standby")
			for _, d := range []string{reps[i].snapDir, reps[i].standbyDir} {
				if err := os.MkdirAll(d, 0o755); err != nil {
					return nil, setupTimes{}, err
				}
			}
		}
	}
	closeAll := func() {
		for _, ln := range lns {
			if ln != nil {
				_ = ln.Close() // set-up failed; the listener never served
			}
		}
	}

	var st setupTimes
	t0 := time.Now()
	f, err := os.Open(modelFile)
	if err != nil {
		return nil, st, err
	}
	model, err := mdes.Load(bufio.NewReaderSize(f, 1<<20))
	_ = f.Close() // read-only; Load's error is the one that matters
	if err != nil {
		return nil, st, fmt.Errorf("load %s: %w", modelFile, err)
	}
	t1 := time.Now()
	if err := model.Quantize(w.prec); err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	st.load, st.quantize = t1.Sub(t0), t2.Sub(t1)

	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, st, err
		}
		lns[i] = ln
		peers[i] = "http://" + ln.Addr().String()
	}
	d := &deployment{model: model, reps: reps}
	for i, r := range reps {
		opts := serve.Options{Models: map[string]*mdes.Model{modelName: model}}
		if w.durable {
			opts.SnapshotDir, opts.StandbyDir = r.snapDir, r.standbyDir
			opts.Peers, opts.Advertise = peers, peers[i]
		}
		if tr != nil {
			opts.FS = tr.fs(r.snapDir, r.standbyDir)
			if w.durable {
				opts.ClusterClient = tr.clusterClient()
			}
		}
		srv, err := serve.New(opts)
		if err != nil {
			closeAll()
			d.stopServers(i)
			return nil, st, err
		}
		var h http.Handler = srv
		if tr != nil {
			h = tr.handler(srv)
		}
		r.url, r.srv = peers[i], srv
		r.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	}
	for i, r := range reps {
		r.served = make(chan error, 1)
		go func(r *replica, ln net.Listener) { r.served <- r.hs.Serve(ln) }(r, lns[i])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, r := range reps {
		if err := waitReady(ctx, r.url); err != nil {
			d.tearDown()
			return nil, st, err
		}
	}
	st.start = time.Since(t2)
	return d, st, nil
}

// stopServers shuts down the serve.Servers of the first n replicas (used
// when set-up fails before any listener serves).
func (d *deployment) stopServers(n int) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, r := range d.reps[:n] {
		_ = r.srv.Shutdown(ctx) // set-up already failed; that error is reported
	}
}

// tearDown stops every replica and waits for its serve loop to return. The
// servers stop first so replication in flight is cancelled rather than
// retried against a closed listener; no client request is in flight.
func (d *deployment) tearDown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, r := range d.reps {
		keep(r.srv.Shutdown(ctx))
	}
	for _, r := range d.reps {
		keep(r.hs.Shutdown(ctx))
		if err := <-r.served; !errors.Is(err, http.ErrServerClosed) {
			keep(err)
		}
	}
	return first
}

// ownerOf is the index of the replica that owns tenant: the one whose
// /v1/streams/{tenant} does not redirect.
func (d *deployment) ownerOf(ctx context.Context, hc *http.Client, tenant string) (int, error) {
	if len(d.reps) == 1 {
		return 0, nil
	}
	for i, r := range d.reps {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/v1/streams/"+tenant, nil)
		if err != nil {
			return 0, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return 0, err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close() // fully read
		if resp.StatusCode != http.StatusTemporaryRedirect {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no replica owns tenant %q", tenant)
}

// noRedirect is an HTTP client that reports redirects instead of following
// them, so a misrouted request counts as the failure it is.
func noRedirect(t http.RoundTripper) *http.Client {
	return &http.Client{
		Transport:     t,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
}

func waitReady(ctx context.Context, url string) error {
	hc := noRedirect(http.DefaultTransport)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close() // fully read
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", url, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}
