package serve

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mdes"
)

// quantizedCopy clones the shared test model (which other tests use at
// float64) and publishes it at precision prec.
func quantizedCopy(t testing.TB, prec mdes.Precision) *mdes.Model {
	var buf bytes.Buffer
	if err := testModel(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := mdes.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Quantize(prec); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestScorePoolBatchesQuantizedJobs drives several concurrent tenant streams
// of an int8 model through the batching pool and checks the two
// load-bearing properties: batching is invisible (every tenant's scores are
// bit-identical to the same model scored without the pool — the batch==single
// kernel invariant, end to end) and batches actually fuse. Jobs group by pair
// model, and each window emits one job per pair, so fusion is inherently
// cross-tenant: four streams lingering on the same pairs must produce
// multi-job ScoreBatch calls.
func TestScorePoolBatchesQuantizedJobs(t *testing.T) {
	checkPoolBatches(t, mdes.PrecisionInt8)
}

// TestScorePoolBatchesFloat64Jobs is the same check at float64: reference
// jobs batch across tenants like reduced-precision ones, and their scores
// stay bit-identical to in-line scoring.
func TestScorePoolBatchesFloat64Jobs(t *testing.T) {
	checkPoolBatches(t, mdes.PrecisionF64)
}

func checkPoolBatches(t *testing.T, prec mdes.Precision) {
	model := quantizedCopy(t, prec)
	rng := rand.New(rand.NewSource(321))
	ds := coupledDataset(rng, 200)
	readings := make([]map[string]string, ds.Ticks())
	for tick := range readings {
		r := make(map[string]string, len(ds.Sequences))
		for _, s := range ds.Sequences {
			r[s.Sensor] = s.Events[tick]
		}
		readings[tick] = r
	}

	run := func(s *mdes.Stream) ([]mdes.Point, error) {
		var points []mdes.Point
		for _, r := range readings {
			pt, err := s.Push(r)
			if err != nil {
				return nil, err
			}
			if pt != nil {
				points = append(points, *pt)
			}
		}
		return points, nil
	}

	ref, err := run(model.NewStream()) // in-line scorer, no pool
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference stream emitted nothing")
	}

	var met metrics
	met.scoreLatency = newHistogram(scoreBuckets)
	p := newScorePool(2, 64, 5*time.Millisecond, &met)
	defer p.close()

	const tenants = 4
	points := make([][]mdes.Point, tenants)
	errs := make([]error, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		stream := model.NewStream()
		stream.SetScorer(p.score)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			points[i], errs[i] = run(stream)
		}(i)
	}
	wg.Wait()

	for i := 0; i < tenants; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(points[i]) != len(ref) {
			t.Fatalf("tenant %d: %d points, reference %d", i, len(points[i]), len(ref))
		}
		for j := range ref {
			if points[i][j].Score != ref[j].Score {
				t.Fatalf("tenant %d point %d: pooled score %v != reference %v",
					i, j, points[i][j].Score, ref[j].Score)
			}
		}
	}
	batches, jobs := met.scoreBatches.Load(), met.scoreBatchJobs.Load()
	if batches == 0 || jobs == 0 {
		t.Fatalf("no batched scoring recorded: %d batches, %d jobs", batches, jobs)
	}
	if n := met.scoreLatency.n.Load(); n != jobs {
		t.Fatalf("%d per-job latency observations for %d batched jobs", n, jobs)
	}
	// Four tenants emit the same pair's job within each linger window, so at
	// least some calls must have fused >1 job.
	if jobs <= batches {
		t.Fatalf("no cross-tenant fusion: %d jobs over %d batches", jobs, batches)
	}
}

// BenchmarkScorePoolThroughput measures end-to-end stream scoring through the
// shared pool at each serving precision: ticks in, points out, the scoring
// fan-out and (for reduced precisions) batching all live. The headline
// metric is ns/point — one fully scored sentence window across every
// relationship.
func BenchmarkScorePoolThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	ds := coupledDataset(rng, 4000)
	readings := make([]map[string]string, ds.Ticks())
	for tick := range readings {
		r := make(map[string]string, len(ds.Sequences))
		for _, s := range ds.Sequences {
			r[s.Sensor] = s.Events[tick]
		}
		readings[tick] = r
	}

	for _, prec := range []mdes.Precision{mdes.PrecisionF64, mdes.PrecisionF32, mdes.PrecisionInt8} {
		b.Run(prec.String(), func(b *testing.B) {
			model := quantizedCopy(b, prec)
			var met metrics
			met.scoreLatency = newHistogram(scoreBuckets)
			p := newScorePool(2, 64, 0, &met)
			defer p.close()
			stream := model.NewStream()
			stream.SetScorer(p.score)

			points := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pt, err := stream.Push(readings[i%len(readings)])
				if err != nil {
					b.Fatal(err)
				}
				if pt != nil {
					points++
				}
			}
			b.StopTimer()
			if points > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
			}
			if batches := met.scoreBatches.Load(); batches > 0 {
				b.ReportMetric(float64(met.scoreBatchJobs.Load())/float64(batches), "jobs/batch")
			}
		})
	}
}
