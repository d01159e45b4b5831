package core

import (
	"context"
	"slices"
	"sync/atomic"
	"time"
)

// StopControl is the concurrent engines' (internal/search, internal/concolic)
// shared stop flag plus the first-wins stop reason; the sequential
// Checker and the walk engine keep their own single-goroutine state.
type StopControl struct {
	stop   atomic.Bool
	reason atomic.Int32 // index into stopReasons, 0 = none
}

var stopReasons = [...]StopReason{
	StopNone, StopViolation, StopMaxTransitions, StopMaxStates,
	StopDeadline, StopCanceled, StopSymBudget,
}

// Abort raises the stop flag; the first reason recorded wins.
func (s *StopControl) Abort(r StopReason) {
	if i := slices.Index(stopReasons[:], r); i > 0 {
		s.reason.CompareAndSwap(0, int32(i))
	}
	s.stop.Store(true)
}

// Stopped reports whether the stop flag is raised.
func (s *StopControl) Stopped() bool { return s.stop.Load() }

// Reason is the first recorded stop reason (StopNone while running).
func (s *StopControl) Reason() StopReason { return stopReasons[s.reason.Load()] }

// WatchContext calls abort when ctx is done — synchronously when it
// already is, so a pre-canceled search never starts exploring. The
// returned func stops the watcher; call it once the workers have drained.
func WatchContext(ctx context.Context, abort func(StopReason)) func() {
	if ctx.Done() == nil {
		return func() {}
	}
	if ctx.Err() != nil {
		abort(ContextStopReason(ctx))
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			abort(ContextStopReason(ctx))
		case <-done:
		}
	}()
	return func() { close(done) }
}

// StartProgress streams periodic snapshots to the observer and the
// telemetry registry from one ticker goroutine. The returned func joins
// it and then emits the Final=true snapshot, so that is always the last
// OnProgress call and snap never runs on two goroutines at once.
func StartProgress(eo EngineOptions, tel *SearchTelemetry, snap func() Progress) func() {
	if eo.Observer == nil && tel == nil {
		return func() {}
	}
	emit := func(final bool) {
		p := snap()
		p.Final = final
		tel.SyncProgress(p)
		if eo.Observer != nil {
			eo.Observer.OnProgress(p)
		}
	}
	done := make(chan struct{})
	idle := make(chan struct{})
	go func() {
		defer close(idle)
		ticker := time.NewTicker(eo.ProgressInterval())
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				emit(false)
			case <-done:
				return
			}
		}
	}()
	return func() {
		close(done)
		<-idle
		emit(true)
	}
}

// ReserveTransition claims one slot of the transition budget (max 0 =
// unlimited) before the apply and rolls the claim back on overshoot, so
// the bound is exact even when workers race on the last transitions.
func ReserveTransition(n *atomic.Int64, max int64) bool {
	if v := n.Add(1); max > 0 && v > max {
		n.Add(-1)
		return false
	}
	return true
}

// AtomicMax lifts v into the atomic maximum.
func AtomicMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// PathNode is one link of the parent-pointer chain that reached a
// frontier state (nil = the root). Siblings share their prefix through
// one pointer; a replayable trace is materialized only for a violation.
type PathNode struct {
	t      Transition
	parent *PathNode
	depth  int
}

// Child extends the path by one transition.
func (n *PathNode) Child(t Transition) *PathNode {
	return &PathNode{t: t, parent: n, depth: n.Depth() + 1}
}

// Depth is the trace length the node represents.
func (n *PathNode) Depth() int {
	if n == nil {
		return 0
	}
	return n.depth
}

// Trace materializes the replayable transition sequence root→node.
func (n *PathNode) Trace() []Transition {
	if n == nil {
		return nil
	}
	return n.parent.TraceWith(n.t)
}

// TraceWith materializes the node's trace extended by one transition.
func (n *PathNode) TraceWith(t Transition) []Transition {
	out := make([]Transition, n.Depth()+1)
	out[len(out)-1] = t
	for cur := n; cur != nil; cur = cur.parent {
		out[cur.depth-1] = cur.t
	}
	return out
}
