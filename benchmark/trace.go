package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are
// nanoseconds since the tracer's epoch; Parent indexes the span that
// caused this one in the trace's span list (-1 for a root); Op names
// the operation (rep, campaign cell, job id) all its spans share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
}

// aggregate folds every span of one name: call count, total and self
// time, the longest call and a log2 histogram of durations. A
// 312k-transition search makes ~2.5M spans, so the traced DFS driver
// folds at record time instead of keeping them.
type aggregate struct {
	Calls   int64   `json:"calls"`
	TotalNS int64   `json:"total_ns"`
	SelfNS  int64   `json:"self_ns"`
	MaxNS   int64   `json:"max_ns"`
	Log2    []int64 `json:"log2_hist"`
}

func (a *aggregate) add(dur, self int64) {
	a.Calls++
	a.TotalNS += dur
	a.SelfNS += self
	if dur > a.MaxNS {
		a.MaxNS = dur
	}
	b := bits.Len64(uint64(dur))
	for len(a.Log2) <= b {
		a.Log2 = append(a.Log2, 0)
	}
	a.Log2[b]++
}

// meanSelfNS is the mean self time of one call (0 with no calls).
func (a *aggregate) meanSelfNS() float64 {
	if a == nil || a.Calls == 0 {
		return 0
	}
	return float64(a.SelfNS) / float64(a.Calls)
}

// sampleEvery is the folding sample rate: one folded span in this many
// is also kept whole, so the written trace shows real intervals.
const sampleEvery = 1024

// tracer records spans in memory and writes them when the run ends.
// begin/end are safe for concurrent use (service clients run in
// parallel); fold is the single-goroutine hot path of the DFS driver.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	covered []int64 // per kept span: time its direct children cover
	aggs    map[string]*aggregate
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), aggs: make(map[string]*aggregate)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// agg returns the aggregate for name, creating it.
func (t *tracer) agg(name string) *aggregate {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil {
		a = &aggregate{}
		t.aggs[name] = a
	}
	return a
}

// begin opens a span that is kept whole and returns its id.
func (t *tracer) begin(name, op string, parent int) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, Parent: parent, Op: op})
	t.covered = append(t.covered, 0)
	return len(t.spans) - 1
}

// end closes a kept span: its duration goes to its name's aggregate,
// minus what its children covered as self time, and to its parent's
// covered time. It returns the duration.
func (t *tracer) end(id int) time.Duration {
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = end
	dur := end - s.Start
	self := dur - t.covered[id]
	if self < 0 {
		// Children that ran concurrently (two service clients under
		// one loop span) cover more than the parent's wall.
		self = 0
	}
	a := t.aggs[s.Name]
	if a == nil {
		a = &aggregate{}
		t.aggs[s.Name] = a
	}
	a.add(dur, self)
	if s.Parent >= 0 {
		t.covered[s.Parent] += dur
	}
	return time.Duration(dur)
}

// setOp names the operation of a kept span after the fact (a service
// job learns its id from the reply its submit span times).
func (t *tracer) setOp(id int, op string) {
	t.mu.Lock()
	t.spans[id].Op = op
	t.mu.Unlock()
}

// fold records one leaf span into a without keeping it, except for the
// 1-in-sampleEvery kept whole. Not safe for concurrent use.
func (t *tracer) fold(a *aggregate, name, op string, parent int, start, end int64) {
	dur := end - start
	a.add(dur, dur)
	t.covered[parent] += dur
	if a.Calls%sampleEvery == 1 {
		t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
		t.covered = append(t.covered, 0)
	}
}

// traceFile is the document written as trace-<workload>.json.
type traceFile struct {
	Workload   string                `json:"workload"`
	Seed       int64                 `json:"seed"`
	SampleRate int                   `json:"folded_sample_rate"`
	Aggregates map[string]*aggregate `json:"aggregates"`
	Spans      []span                `json:"spans"`
	Metrics    map[string]float64    `json:"metrics"`
}

func (t *tracer) write(dir, workload string, seed int64, metrics map[string]float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := traceFile{Workload: workload, Seed: seed, SampleRate: sampleEvery,
		Aggregates: t.aggs, Spans: t.spans, Metrics: metrics}
	return writeJSON(filepath.Join(dir, "trace-"+workload+".json"), doc)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
