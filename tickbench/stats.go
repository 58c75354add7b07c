package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The epsilon keeps p·n/100 that is an integer in decimal (99.9 · 10000)
// from rounding up past it in binary.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// beyond counts the samples strictly after the nearest-rank p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// supportedPercentile is the highest of the customary percentiles that has
// at least ten samples beyond it, or 0 when even the median has not.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 95, 99, 99.9, 99.99} {
		if beyond(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// scrape is one /metrics exposition: series (name plus labels, as printed)
// to value.
type scrape map[string]float64

func parseExposition(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		s[line[:sp]] = v
	}
	return s, sc.Err()
}

func fetchMetrics(ctx context.Context, hc *http.Client, url string) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: %s", url, resp.Status)
	}
	return parseExposition(resp.Body)
}

// diff is after − before for every series in after, summed into acc.
func (after scrape) diffInto(before, acc scrape) {
	for k, v := range after {
		acc[k] += v - before[k]
	}
}

// hist is a cumulative histogram read from a scrape (or a diff of two).
type hist struct {
	bounds []float64 // ascending upper bounds, +Inf last
	cum    []float64
	sum    float64
	count  float64
}

// histOf extracts histogram name from s.
func histOf(s scrape, name string) hist {
	type bucket struct {
		bound float64
		cum   float64
	}
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range s {
		le, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		b := math.Inf(1)
		if le = strings.TrimSuffix(le, `"}`); le != "+Inf" {
			f, err := strconv.ParseFloat(le, 64)
			if err != nil {
				continue
			}
			b = f
		}
		bs = append(bs, bucket{b, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].bound < bs[j].bound })
	h := hist{sum: s[name+"_sum"], count: s[name+"_count"]}
	for _, b := range bs {
		h.bounds = append(h.bounds, b.bound)
		h.cum = append(h.cum, b.cum)
	}
	return h
}

// mean is _sum/_count: the exact average, unlike a bucket-interpolated
// quantile.
func (h hist) mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile interpolates linearly inside the bucket holding rank q·count
// (the histogram_quantile convention). Only meaningful where buckets are
// fine relative to the values; the +Inf bucket clamps to the last bound.
func (h hist) quantile(q float64) float64 {
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * h.count
	lo, below := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			hi := h.bounds[i]
			if math.IsInf(hi, 1) {
				return lo
			}
			if c == below {
				return hi
			}
			return lo + (hi-lo)*(rank-below)/(c-below)
		}
		lo, below = h.bounds[i], c
	}
	return lo
}

// cpuTime is this process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is VmHWM, the process's peak resident set, in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
