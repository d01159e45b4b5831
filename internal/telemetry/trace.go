package telemetry

import (
	"sync"
	"time"
)

// TraceKind classifies a structured trace event.
type TraceKind string

const (
	// TraceSearchStart marks an engine beginning its search.
	TraceSearchStart TraceKind = "search-start"
	// TraceSearchStop marks an engine returning; the note carries the
	// stop reason ("complete" when the space was exhausted) and N the
	// unique-state total.
	TraceSearchStop TraceKind = "search-stop"
	// TraceExpandBatch is a rationed expansion heartbeat: N transitions
	// executed since the previous batch event (emitted at the progress
	// interval, never per transition).
	TraceExpandBatch TraceKind = "expand-batch"
	// TraceViolation marks a property violation as it is recorded.
	TraceViolation TraceKind = "violation"
	// TraceCacheEvict marks discover-cache entries dropped by the LRU
	// capacity bound; N is the entry count evicted.
	TraceCacheEvict TraceKind = "cache-evict"
	// TraceBudget marks a budget or cancellation drawdown aborting a
	// search; the note names the stop reason, N the transition count at
	// abort.
	TraceBudget TraceKind = "budget"
)

// TraceEvent is one structured event in a search's life.
type TraceEvent struct {
	// Seq is the monotonic emission index (survives ring eviction, so
	// gaps reveal dropped history).
	Seq int64 `json:"seq"`
	// WallNS is the emission wall-clock time (UnixNano).
	WallNS int64 `json:"wall_ns"`
	// Scope is the emitting engine or subsystem ("dfs", "parallel",
	// "cache", "campaign", ...).
	Scope string `json:"scope,omitempty"`
	// Kind classifies the event.
	Kind TraceKind `json:"kind"`
	// N is the kind-specific magnitude (transitions in a batch, entries
	// evicted, ...).
	N int64 `json:"n,omitempty"`
	// Note is the kind-specific detail (stop reason, violation
	// property, job label, ...).
	Note string `json:"note,omitempty"`
}

// DefaultTraceCapacity bounds the trace ring: old events are evicted,
// never the search slowed.
const DefaultTraceCapacity = 4096

// tracer is a mutex-guarded ring buffer of trace events. Tracing sits
// off the per-transition hot path (events are rationed by their
// emitters), so a plain mutex is cheap enough and keeps eviction exact.
type tracer struct {
	mu   sync.Mutex
	cap  int
	buf  []TraceEvent
	next int // ring write position once len(buf) == cap
	seq  int64
}

func (t *tracer) emit(scope string, kind TraceKind, n int64, note string) {
	ev := TraceEvent{
		WallNS: time.Now().UnixNano(),
		Scope:  scope, Kind: kind, N: n, Note: note,
	}
	t.mu.Lock()
	ev.Seq = t.seq
	t.seq++
	if len(t.buf) < t.cap {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.next] = ev
		t.next = (t.next + 1) % t.cap
	}
	t.mu.Unlock()
}

// events returns the buffered events oldest-first.
func (t *tracer) events() []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}
