package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Session is one search in flight: everything an engine needs around its
// exploration loop and nothing of the loop itself. It owns the discover
// caches and telemetry handles, the report counters, the stop flag with
// its first-wins reason, the violation set, the context watcher, the
// progress timer and the closing Report.
// An engine is Begin → explore → End; its loop keeps only what differs
// between engines — the frontier, the seen-set and the schedule.
//
// All methods are safe for concurrent use by the engine's workers. The
// counters are exported so a loop can bump the ones with no admission
// logic (Revisits, Truncated) directly; Frontier and Steals are the
// work-stealing frontier's own counters, which it updates through a
// pointer so snapshots read them without a mirrored second atomic.
type Session struct {
	Transitions atomic.Int64
	Unique      atomic.Int64
	Revisits    atomic.Int64
	Truncated   atomic.Int64
	MaxDepth    atomic.Int64 // deepest admitted state
	Frontier    atomic.Int64 // pending work; stays 0 where there is no frontier
	Steals      atomic.Int64

	name   string
	cfg    *Config
	eo     EngineOptions // Caches always set
	tel    *SearchTelemetry
	sysTel *systemTelemetry
	start  time.Time

	stop     atomic.Bool
	reason   atomic.Int32 // index into stopReasons, 0 = none
	onStop   func()
	panicked atomic.Pointer[any]

	viols violationSet
	heap  heapPeak // sampled only by the goroutine currently emitting progress

	unwatch  func() bool // stops the context watcher; nil when none runs
	interval time.Duration
	tickMu   sync.Mutex  // held while a periodic snapshot is emitted
	timer    *time.Timer // nil when nothing streams, and after Close
}

var stopReasons = [...]StopReason{
	StopNone, StopViolation, StopMaxTransitions, StopMaxStates,
	StopDeadline, StopCanceled, StopSymBudget,
}

// contextStopReason maps a done context to its stop reason: StopDeadline
// when the deadline expired, StopCanceled otherwise.
func contextStopReason(ctx context.Context) StopReason {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCanceled
}

// Begin opens a search named name (the engine's registry name: it labels
// the telemetry scope, Progress.Strategy and Report.Strategy). onStop,
// when non-nil, runs on every Abort — an engine whose workers block
// passes its wake-up here; it must be ready before Begin is called,
// because an already-done context aborts synchronously, so a pre-canceled
// search never starts exploring. The search-start trace event is emitted
// before Begin returns and before any progress snapshot.
func Begin(ctx context.Context, name string, cfg *Config, eo EngineOptions, onStop func()) *Session {
	if eo.Caches == nil {
		eo.Caches = NewCaches()
	}
	s := &Session{
		name: name, cfg: cfg, eo: eo, onStop: onStop,
		start:  time.Now(),
		tel:    newSearchTelemetry(eo.Telemetry, name),
		sysTel: newSystemTelemetry(eo.Telemetry),
	}
	eo.Caches.AttachTelemetry(eo.Telemetry)

	switch {
	case ctx.Err() != nil:
		s.Abort(contextStopReason(ctx))
	case ctx.Done() != nil:
		s.unwatch = context.AfterFunc(ctx, func() { s.Abort(contextStopReason(ctx)) })
	}

	s.tel.searchStart()
	if eo.Observer != nil || s.tel != nil {
		s.interval = eo.ProgressEvery
		if s.interval <= 0 {
			s.interval = 500 * time.Millisecond
		}
		// A timer, not a ticker goroutine: a search shorter than the
		// interval — most of a campaign's — never starts a goroutine.
		s.tickMu.Lock()
		s.timer = time.AfterFunc(s.interval, s.tick)
		s.tickMu.Unlock()
	}
	return s
}

// Caches is the discover-cache set the search runs against.
func (s *Session) Caches() *Caches { return s.eo.Caches }

// Tel is the engine-scope telemetry bundle (nil without a registry), for
// the series only one engine has.
func (s *Session) Tel() *SearchTelemetry { return s.tel }

// NewSystem builds a fresh initial state wired to the session's caches
// and copy-on-write instrumentation.
func (s *Session) NewSystem() *System {
	sys := NewSystemWith(s.cfg, s.eo.Caches)
	sys.met = s.sysTel
	return sys
}

// Stopped reports whether the stop flag is raised.
func (s *Session) Stopped() bool { return s.stop.Load() }

// Abort raises the stop flag; the first reason recorded wins.
func (s *Session) Abort(r StopReason) {
	if i := slices.Index(stopReasons[:], r); i > 0 {
		s.reason.CompareAndSwap(0, int32(i))
	}
	s.stop.Store(true)
	if s.onStop != nil {
		s.onStop()
	}
}

// Reserve claims one slot of the transition budget before the apply and
// rolls the claim back on overshoot, so the bound is exact even when
// workers race on the last transitions. A false return has already
// aborted the search.
func (s *Session) Reserve() bool {
	if v := s.Transitions.Add(1); s.eo.MaxTransitions > 0 && v > s.eo.MaxTransitions {
		s.Transitions.Add(-1)
		s.Abort(StopMaxTransitions)
		return false
	}
	return true
}

// Admit counts one newly reached state at the given trace depth and
// aborts the search when that exhausts the unique-state budget.
func (s *Session) Admit(depth int) {
	if n := s.Unique.Add(1); s.eo.MaxStates > 0 && n >= s.eo.MaxStates {
		s.Abort(StopMaxStates)
	}
	s.tel.observeDepth(depth)
	for {
		cur := s.MaxDepth.Load()
		if int64(depth) <= cur || s.MaxDepth.CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

// Record registers a violation: a new property+error key is counted and
// streamed to the Observer exactly once (see violationSet for which
// trace is kept). Like the paper's checker, the search stops on every
// recorded violation, new key or not, when the config asks.
func (s *Session) Record(v Violation) {
	if s.viols.add(v) {
		s.tel.violation(v.Property)
		if s.eo.Observer != nil {
			s.eo.Observer.OnViolation(v)
		}
	}
	if s.cfg.StopAtFirstViolation {
		s.Abort(StopViolation)
	}
}

// Guard is deferred by every goroutine an engine starts: a panic in
// application or property code there would otherwise kill the process
// past any recover the caller has. It keeps the first panic value and
// stops the search; End re-raises it on the caller's goroutine.
func (s *Session) Guard() {
	if r := recover(); r != nil {
		s.panicked.CompareAndSwap(nil, &r)
		s.Abort(StopNone)
	}
}

// tick emits one periodic snapshot and re-arms the timer. tickMu orders
// it against Close: once Close returns, no tick runs or will run.
func (s *Session) tick() {
	defer s.Guard()
	s.tickMu.Lock()
	defer s.tickMu.Unlock()
	if s.timer != nil {
		s.emit(false)
		s.timer.Reset(s.interval)
	}
}

// Close stops the context watcher and the progress timer. End calls it;
// an engine exploring on its caller's goroutine defers it too, so a
// panic leaving Search unrecovered leaves nothing of the session behind.
func (s *Session) Close() {
	if s.unwatch != nil {
		s.unwatch()
	}
	s.tickMu.Lock()
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.tickMu.Unlock()
}

// End closes the search once the engine's goroutines have drained and
// assembles the report. In order: a cancellation that raced the drain
// still wins over "complete" (an earlier reason is kept), the one
// Final=true snapshot is delivered as the last Observer call, a partial
// stop traces its budget event, and the search-stop event ends the trace
// stream. A panic kept by Guard is re-raised instead.
func (s *Session) End(ctx context.Context) *Report {
	streaming := s.timer != nil
	s.Close()
	if p := s.panicked.Load(); p != nil {
		panic(*p)
	}
	if ctx.Err() != nil {
		s.Abort(contextStopReason(ctx))
	}
	reason := stopReasons[s.reason.Load()]
	report := &Report{
		Transitions:   s.Transitions.Load(),
		UniqueStates:  s.Unique.Load(),
		Revisits:      s.Revisits.Load(),
		Truncated:     s.Truncated.Load(),
		SERuns:        s.eo.Caches.SERuns(),
		PacketClasses: s.eo.Caches.Classes(),
		Violations:    s.viols.list(),
		Elapsed:       time.Since(s.start),
		Complete:      !reason.Partial(),
		Strategy:      s.name,
		StopReason:    reason,
	}
	if streaming {
		s.emit(true)
	}
	if reason.Partial() {
		s.tel.budget(reason, report.Transitions)
	}
	s.tel.searchStop(reason, report)
	return report
}

// emit builds one progress snapshot, syncs it into the registry and
// forwards it to the Observer. It never runs on two goroutines at once:
// ticks hold tickMu until Close has stopped them, then End calls it once.
func (s *Session) emit(final bool) {
	p := Progress{
		Strategy:      s.name,
		Elapsed:       time.Since(s.start),
		Transitions:   s.Transitions.Load(),
		UniqueStates:  s.Unique.Load(),
		Revisits:      s.Revisits.Load(),
		Truncated:     s.Truncated.Load(),
		SERuns:        s.eo.Caches.SERuns(),
		Frontier:      s.Frontier.Load(),
		Depth:         int(s.MaxDepth.Load()),
		PeakHeapInUse: s.heap.sample(),
		CacheHitRate:  s.eo.Caches.HitRate(),
		Final:         final,
	}
	if secs := p.Elapsed.Seconds(); secs > 0 {
		p.StatesPerSec = float64(p.UniqueStates) / secs
	}
	s.tel.syncProgress(p, s.Steals.Load())
	if s.eo.Observer != nil {
		s.eo.Observer.OnProgress(p)
	}
}
