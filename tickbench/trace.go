package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdes/internal/cluster"
	"mdes/internal/faultfs"
)

// requestIDHeader carries the client's request id to the handler wrapper in
// traced runs, linking the handler span to the client span.
const requestIDHeader = "X-Tickbench-Request"

// maxSpans bounds the in-memory trace; spans beyond it are counted, not kept.
const maxSpans = 1 << 20

// traceSpan is one timed call at a layer seam. Parent is the id of the client
// request that caused it (0 when unknown).
type traceSpan struct {
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// ioTotals accumulates one store's filesystem work.
type ioTotals struct {
	ns, fsyncs, bytes atomic.Int64
}

// The stores persist IO is attributed to.
const (
	storeSnapshot = iota
	storeStandby
	stores
)

// tracer records spans and per-layer totals while on is set. Its wrappers
// stay installed for the whole traced run, so untraced episodes pay only an
// atomic load per call.
type tracer struct {
	on   atomic.Bool
	base time.Time

	mu      sync.Mutex
	spans   []traceSpan
	dropped int
	cur     map[string]uint64 // tenant -> its in-flight (or last) request
	// tmp maps a temp file to the spans it produced before its rename
	// revealed the tenant; syncDir queues, per directory, the parents of
	// renames whose directory fsync is still to come.
	tmp        map[string][]int
	syncDir    map[string][]uint64
	handlerDur map[uint64]time.Duration // request id -> handler time

	io                       [stores]ioTotals
	handlerNs, handlerN      atomic.Int64
	shipN, shipBytes, shipNs atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		base:       time.Now(),
		cur:        map[string]uint64{},
		tmp:        map[string][]int{},
		syncDir:    map[string][]uint64{},
		handlerDur: map[uint64]time.Duration{},
	}
}

// add records a span and returns its index (-1 when the buffer is full).
// Caller holds t.mu.
func (t *tracer) addLocked(s traceSpan) int {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

func (t *tracer) setCurrent(tenant string, id uint64) {
	t.mu.Lock()
	t.cur[tenant] = id
	t.mu.Unlock()
}

func (t *tracer) clientSpan(id uint64, start time.Time, dur time.Duration) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.addLocked(traceSpan{ID: id, Name: "client.request", Start: t.ns(start), End: t.ns(start.Add(dur))})
	t.mu.Unlock()
}

// handler wraps Server.ServeHTTP, timing the tick path only.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() || r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/ticks") {
			next.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		d := end.Sub(start)
		t.handlerNs.Add(int64(d))
		t.handlerN.Add(1)
		t.mu.Lock()
		t.handlerDur[id] = d
		t.addLocked(traceSpan{Name: "serve.handler", Parent: id, Start: t.ns(start), End: t.ns(end)})
		t.mu.Unlock()
	})
}

// fs wraps the replica's filesystem seam; paths under snapDir and
// standbyDir are attributed to those stores.
func (t *tracer) fs(snapDir, standbyDir string) faultfs.FS {
	return &traceFS{t: t, inner: faultfs.OS, dirs: [stores]string{snapDir, standbyDir}}
}

type traceFS struct {
	t     *tracer
	inner faultfs.FS
	dirs  [stores]string
}

func (f *traceFS) store(path string) int {
	dir := filepath.Dir(path)
	for i, d := range f.dirs {
		if d != "" && (dir == d || path == d) {
			return i
		}
	}
	return -1
}

// tenantOf decodes the tenant from a snapshot (<hex>.snap) or standby
// (<owner hex>-<tenant hex>.standby) file name.
func tenantOf(path string) (string, bool) {
	base := filepath.Base(path)
	var h string
	if s, ok := strings.CutSuffix(base, ".snap"); ok {
		h = s
	} else if s, ok := strings.CutSuffix(base, ".standby"); ok {
		_, h, _ = strings.Cut(s, "-")
	} else {
		return "", false
	}
	raw, err := hex.DecodeString(h)
	return string(raw), err == nil
}

// op records one filesystem call. file names the temp file the call worked
// on when the tenant is not known yet.
func (f *traceFS) op(name, path, file string, parent uint64, start time.Time, n int, fsync bool) {
	t := f.t
	if !t.on.Load() {
		return
	}
	end := time.Now()
	st := f.store(path)
	if st < 0 {
		return
	}
	tot := &t.io[st]
	tot.ns.Add(int64(end.Sub(start)))
	tot.bytes.Add(int64(n))
	if fsync {
		tot.fsyncs.Add(1)
	}
	t.mu.Lock()
	i := t.addLocked(traceSpan{Name: "faultfs." + name, Parent: parent, Start: t.ns(start), End: t.ns(end)})
	if file != "" && i >= 0 {
		t.tmp[file] = append(t.tmp[file], i)
	}
	t.mu.Unlock()
}

func (f *traceFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	start := time.Now()
	file, err := f.inner.OpenFile(name, flag, perm)
	f.op("open", name, "", f.t.parentOf(name), start, 0, false)
	if err != nil {
		return nil, err
	}
	return &traceFile{File: file, fs: f}, nil
}

func (f *traceFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	start := time.Now()
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		f.op("create_temp", filepath.Join(dir, pattern), "", 0, start, 0, false)
		return nil, err
	}
	f.op("create_temp", file.Name(), file.Name(), 0, start, 0, false)
	return &traceFile{File: file, fs: f}, nil
}

func (f *traceFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := f.inner.ReadFile(name)
	f.op("read_file", name, "", f.t.parentOf(name), start, 0, false)
	return data, err
}

// Rename reveals the tenant of a temp file: its earlier spans are
// re-parented to the tenant's request, and the directory fsync that follows
// is queued to inherit it too.
func (f *traceFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := f.inner.Rename(oldpath, newpath)
	parent := f.t.parentOf(newpath)
	f.op("rename", newpath, "", parent, start, 0, false)
	t := f.t
	t.mu.Lock()
	for _, i := range t.tmp[oldpath] {
		t.spans[i].Parent = parent
	}
	delete(t.tmp, oldpath)
	if err == nil && t.on.Load() {
		dir := filepath.Dir(newpath)
		t.syncDir[dir] = append(t.syncDir[dir], parent)
	}
	t.mu.Unlock()
	return err
}

func (f *traceFS) Remove(name string) error {
	start := time.Now()
	err := f.inner.Remove(name)
	f.op("remove", name, "", f.t.parentOf(name), start, 0, false)
	f.t.mu.Lock()
	delete(f.t.tmp, name)
	f.t.mu.Unlock()
	return err
}

func (f *traceFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

// SyncDir inherits the parent of the oldest rename queued on the directory.
// Two requests persisting into one directory at once may swap parents; the
// per-store totals do not depend on it.
func (f *traceFS) SyncDir(dir string) error {
	start := time.Now()
	err := f.inner.SyncDir(dir)
	t := f.t
	var parent uint64
	t.mu.Lock()
	if q := t.syncDir[dir]; len(q) > 0 {
		parent = q[0]
		t.syncDir[dir] = q[1:]
	}
	t.mu.Unlock()
	f.op("sync_dir", dir, "", parent, start, 0, true)
	return err
}

// parentOf is the current request of the tenant named by path, if any.
func (t *tracer) parentOf(path string) uint64 {
	tenant, ok := tenantOf(path)
	if !ok {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur[tenant]
}

type traceFile struct {
	faultfs.File
	fs *traceFS
}

func (f *traceFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.op("write", f.Name(), f.Name(), 0, start, n, false)
	return n, err
}

func (f *traceFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.op("sync", f.Name(), f.Name(), 0, start, 0, true)
	return err
}

func (f *traceFile) Close() error {
	start := time.Now()
	err := f.File.Close()
	f.fs.op("close", f.Name(), f.Name(), 0, start, 0, false)
	return err
}

// clusterClient is the replica's cluster HTTP client with the replication
// ships timed, from send to the end of the acknowledgement body.
func (t *tracer) clusterClient() *http.Client {
	return &http.Client{Transport: &shipTransport{t: t, inner: http.DefaultTransport}}
}

type shipTransport struct {
	t     *tracer
	inner http.RoundTripper
}

func (s *shipTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !s.t.on.Load() || req.URL.Path != cluster.ReplicatePath {
		return s.inner.RoundTrip(req)
	}
	start := time.Now()
	n := req.ContentLength
	resp, err := s.inner.RoundTrip(req)
	if err != nil {
		s.t.ship(start, n)
		return nil, err
	}
	resp.Body = &shipBody{ReadCloser: resp.Body, done: func() { s.t.ship(start, n) }}
	return resp, nil
}

func (t *tracer) ship(start time.Time, n int64) {
	end := time.Now()
	t.shipN.Add(1)
	t.shipBytes.Add(n)
	t.shipNs.Add(int64(end.Sub(start)))
	t.mu.Lock()
	t.addLocked(traceSpan{Name: "cluster.replicate", Start: t.ns(start), End: t.ns(end)})
	t.mu.Unlock()
}

// shipBody reports the ship's end when the acknowledgement is closed.
type shipBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *shipBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// addSpan records a span from outside the seams (the direct replay).
func (t *tracer) addSpan(name string, start, end time.Time) {
	t.mu.Lock()
	t.addLocked(traceSpan{Name: name, Start: t.ns(start), End: t.ns(end)})
	t.mu.Unlock()
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		_ = f.Close() // the encode error is the one reported
		return err
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // the flush error is the one reported
		return err
	}
	return f.Close()
}
