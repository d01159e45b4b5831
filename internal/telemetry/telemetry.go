// Package telemetry is the zero-dependency metrics and tracing layer
// behind the search engines' deep instrumentation: a registry of atomic
// counters, gauges and fixed-bucket histograms, plus a bounded
// structured trace-event stream (trace.go), a serializable snapshot
// (snapshot.go) and stdlib HTTP introspection endpoints (http.go).
//
// The design contract is that a *disabled* registry costs ~zero on the
// engines' hot paths: every metric handle is nil-receiver safe, so
// instrumentation sites compile to a single nil check when no registry
// is attached (nice.WithTelemetry unset). BenchmarkTelemetryOverhead at
// the repo root proves the bound, and CI gates the *enabled* cost at
// <5% states/sec on the gated pyswitch workload.
//
// Handles are resolved once per search (Registry.Counter and friends
// take a lock), then updated lock-free with atomics; per-engine Scope
// prefixes ("dfs.", "parallel.", ...) keep concurrent engines apart.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonic (or engine-synced) int64 metric. All methods
// are safe on a nil receiver — the disabled fast path.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Store overwrites the value — engines that already keep their own
// atomic counters sync them into the registry at snapshot time instead
// of double-counting on the hot path.
func (c *Counter) Store(n int64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous int64 metric; nil-receiver safe.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// SetMax lifts the gauge to n when n is larger (peak tracking).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket distribution: observation v lands in the
// first bucket whose bound is >= v, with one overflow bucket past the
// last bound. Bounds are fixed at registration; nil-receiver safe.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last = overflow
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	// The bucket counts are small and fixed; a linear scan beats a
	// binary search at these sizes.
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count is the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum is the total of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshot captures the histogram under no lock: counts may lag the sum
// by in-flight observations, which Snapshot.Validate tolerates.
func (h *Histogram) snapshot() HistogramSnapshot {
	hs := HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
		Count:  h.n.Load(),
	}
	for i := range h.counts {
		hs.Counts[i] = h.counts[i].Load()
	}
	return hs
}

// Registry holds named metrics and the trace stream. The zero value is
// not usable; build with New. A nil *Registry is the disabled state:
// every lookup returns a nil handle and every handle method no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	tracer   tracer
	// credited is the CreditOnce ledger.
	credited map[any]bool
}

// New builds an empty registry with the default trace capacity.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		tracer:   tracer{cap: DefaultTraceCapacity},
	}
}

// Counter returns the named counter, registering it on first use.
// Returns nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it with the given
// bucket bounds on first use (later bounds are ignored — first writer
// wins, so concurrent engines agree).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// CreditOnce reports whether source is new to this registry, and
// records it. A source that folds its running totals into each registry
// it is attached to asks first, so every registry credits it once; the
// ledger lives and dies with the registry, and holds source (a
// comparable key) for as long. Nil-safe (false).
func (r *Registry) CreditOnce(source any) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.credited[source] {
		return false
	}
	if r.credited == nil {
		r.credited = make(map[any]bool)
	}
	r.credited[source] = true
	return true
}

// Emit appends one trace event to the bounded stream (no-op on nil).
func (r *Registry) Emit(scope string, kind TraceKind, n int64, note string) {
	if r == nil {
		return
	}
	r.tracer.emit(scope, kind, n, note)
}

// Trace returns the buffered trace events in emission order (oldest
// surviving event first; the ring evicts the oldest on overflow).
func (r *Registry) Trace() []TraceEvent {
	if r == nil {
		return nil
	}
	return r.tracer.events()
}

// Scope returns a name-prefixing view: Scope("dfs").Counter("x") is
// Counter("dfs.x"). Nil-safe on both ends.
func (r *Registry) Scope(name string) *Scope {
	if r == nil {
		return nil
	}
	return &Scope{reg: r, name: name}
}

// Scope prefixes metric names and trace events with one engine's name,
// keeping concurrently running engines' series apart.
type Scope struct {
	reg  *Registry
	name string
}

// Name is the scope's prefix ("" on nil).
func (s *Scope) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Counter resolves a scoped counter (nil handle on nil scope).
func (s *Scope) Counter(name string) *Counter {
	if s == nil {
		return nil
	}
	return s.reg.Counter(s.name + "." + name)
}

// Gauge resolves a scoped gauge.
func (s *Scope) Gauge(name string) *Gauge {
	if s == nil {
		return nil
	}
	return s.reg.Gauge(s.name + "." + name)
}

// Histogram resolves a scoped histogram.
func (s *Scope) Histogram(name string, bounds []int64) *Histogram {
	if s == nil {
		return nil
	}
	return s.reg.Histogram(s.name+"."+name, bounds)
}

// Emit appends a trace event tagged with the scope's name.
func (s *Scope) Emit(kind TraceKind, n int64, note string) {
	if s == nil {
		return
	}
	s.reg.Emit(s.name, kind, n, note)
}
