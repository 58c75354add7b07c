package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"mdes"
	"mdes/internal/infer"
	"mdes/internal/serve"
)

// replayStats times a direct Stream replay through the SetScorer seam: Push
// time net of the scorer callback is the mdes layer; ScoreBatch per job the
// infer layer; ScoreJob.Run (float64 jobs) the nmt layer.
type replayStats struct {
	ticks, points, jobs int
	pushNs, scorerNs    int64
	inferN, inferNs     int64
	nmtN, nmtNs         int64
}

func (a *replayStats) add(b replayStats) {
	a.ticks += b.ticks
	a.points += b.points
	a.jobs += b.jobs
	a.pushNs += b.pushNs
	a.scorerNs += b.scorerNs
	a.inferN += b.inferN
	a.inferNs += b.inferNs
	a.nmtN += b.nmtN
	a.nmtNs += b.nmtNs
}

// replay pushes ticks [off, off+n) of the log through a fresh stream on
// model and returns the NDJSON the server must have answered with: every
// point through serve.PointWire and a json.Encoder, as the handler writes
// them.
func replay(model *mdes.Model, log *plantLog, off, n int, tr *tracer) ([]byte, replayStats, error) {
	var st replayStats
	one := struct {
		src, ref [][]int
		out      []float64
	}{make([][]int, 1), make([][]int, 1), make([]float64, 1)}
	s := model.NewStream()
	s.SetScorer(func(jobs []mdes.ScoreJob, row []float64) error {
		t0 := time.Now()
		for i := range jobs {
			j := &jobs[i]
			js := time.Now()
			if inf := j.BatchModel(); inf != nil {
				one.src[0], one.ref[0] = j.Sentences()
				inf.ScoreBatch(one.src, one.ref, one.out)
				row[j.Index()] = one.out[0]
				st.inferN++
				st.inferNs += int64(time.Since(js))
			} else {
				row[j.Index()] = j.Run()
				st.nmtN++
				st.nmtNs += int64(time.Since(js))
			}
		}
		st.jobs += len(jobs)
		st.scorerNs += int64(time.Since(t0))
		return nil
	})
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	tick := make(map[string]string, len(log.names))
	for t := off; t < off+n; t++ {
		log.fill(t, tick)
		t0 := time.Now()
		p, err := s.Push(tick)
		t1 := time.Now()
		st.pushNs += int64(t1.Sub(t0))
		if tr != nil && p != nil {
			tr.addSpan("mdes.push_emit", t0, t1)
		}
		if err != nil {
			return nil, st, fmt.Errorf("replay tick %d: %w", t, err)
		}
		if p != nil {
			st.points++
			if err := enc.Encode(serve.PointWire(*p)); err != nil {
				return nil, st, err
			}
		}
	}
	st.ticks = n
	return buf.Bytes(), st, nil
}

// inferModels returns the model's frozen pair models (none at float64).
func inferModels(model *mdes.Model, log *plantLog, off int) []*infer.Model {
	var out []*infer.Model
	s := model.NewStream()
	s.SetScorer(func(jobs []mdes.ScoreJob, row []float64) error {
		for i := range jobs {
			if inf := jobs[i].BatchModel(); inf != nil {
				out = append(out, inf)
			}
		}
		return nil
	})
	tick := make(map[string]string, len(log.names))
	for t := off; t < off+span; t++ {
		log.fill(t, tick)
		if _, err := s.Push(tick); err != nil {
			return nil
		}
	}
	return out
}

// sentenceStats walks the given tenant slices through streams that record
// instead of score: the share of (pair, source sentence) jobs that repeat an
// earlier one anywhere in the workload (the translation cache's
// opportunity), and the mean greedy translation length over the first
// maxTranslate jobs (a decode that stops early would shrink the work).
func sentenceStats(model *mdes.Model, log *plantLog, offs, lens []int, maxTranslate int) (repeatShare, tokens float64, err error) {
	seen := map[string]struct{}{}
	var jobs, repeats, translated, toks int
	key := make([]byte, 0, 128)
	for ti := range offs {
		s := model.NewStream()
		s.SetScorer(func(js []mdes.ScoreJob, row []float64) error {
			for i := range js {
				j := &js[i]
				src, _ := j.Sentences()
				key = append(key[:0], byte(j.Index()), byte(j.Index()>>8))
				for _, tok := range src {
					key = append(key, byte(tok), byte(tok>>8), byte(tok>>16))
				}
				if _, ok := seen[string(key)]; ok {
					repeats++
				} else {
					seen[string(key)] = struct{}{}
				}
				jobs++
				if inf := j.BatchModel(); inf != nil && translated < maxTranslate {
					toks += len(inf.Translate(src))
					translated++
				}
			}
			return nil
		})
		tick := make(map[string]string, len(log.names))
		for t := offs[ti]; t < offs[ti]+lens[ti]; t++ {
			log.fill(t, tick)
			if _, err := s.Push(tick); err != nil {
				return 0, 0, err
			}
		}
	}
	if jobs > 0 {
		repeatShare = float64(repeats) / float64(jobs)
	}
	if translated > 0 {
		tokens = float64(toks) / float64(translated)
	}
	return repeatShare, tokens, nil
}
