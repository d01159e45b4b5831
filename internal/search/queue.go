package search

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/nice-go/nice/internal/core"
)

// item is one unexpanded system state plus the trace that reached it:
// what push hands on, and what the queue holds once handed off. A child
// expanded in place shares its worker's transition stack (scratch.stack:
// its trace is the stack's prefix, so the hot path copies nothing); only
// a state that leaves its worker — queued by put, or a solver target —
// carries its own copy.
type item struct {
	sys   *core.System
	trace []core.Transition
}

// queue is the one scheduler of the multi-worker engines: a LIFO of
// handed-off items under one mutex, whose cond wakes the workers
// blocked in take. A worker queues a child only while another worker
// waits (handOff); the concolic loop's solvers queue every
// post-discover state, and its solver targets live under the same lock
// and cond.
type queue struct {
	mu    sync.Mutex
	cond  sync.Cond
	items []item
	// waiting counts the workers blocked in take: written under mu,
	// read lock-free by handOff.
	waiting atomic.Int64
	// s supplies the stop flag and the pending count, s.Frontier: work
	// queued on any list under mu, or taken and not yet done, written
	// under mu. Zero means global termination: nothing queued and no
	// worker mid-expand (done comes only after an expansion, so its
	// children are already counted).
	s *core.Session
}

// begin opens the session the queue serves, with wake as its onStop.
// The cond is ready first, because a pre-canceled context aborts inside
// core.Begin.
func (q *queue) begin(ctx context.Context, name string, cfg *core.Config, eo core.EngineOptions) *core.Session {
	q.cond.L = &q.mu
	q.s = core.Begin(ctx, name, cfg, eo, q.wake)
	return q.s
}

// enqueue appends v to a list guarded by q's lock and counts it pending.
// It broadcasts, not signals: the concolic loop's solvers wait on the
// same cond, and a signal could wake one of them for a search item.
func enqueue[T any](q *queue, list *[]T, v T) {
	q.mu.Lock()
	*list = append(*list, v)
	q.s.Tel().RaiseFrontierPeak(q.s.Frontier.Add(1))
	q.cond.Broadcast()
	q.mu.Unlock()
}

// put queues it, found by the worker owning sc, for another worker,
// counting the export. The item leaves the worker, so its trace is
// copied off the worker's stack.
func (q *queue) put(sc *scratch, it item) {
	sc.exports++
	it.trace = slices.Clone(it.trace)
	enqueue(q, &q.items, it)
}

// take returns the newest queued item, blocking while none is queued
// but some is pending. It returns false when the search is over: the
// stop flag raised, or nothing pending.
func (q *queue) take() (item, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		switch {
		case q.s.Stopped():
			return item{}, false
		case len(q.items) > 0:
			return popLast(&q.items), true
		case q.s.Frontier.Load() == 0:
			return item{}, false
		}
		q.waiting.Add(1)
		q.cond.Wait()
		q.waiting.Add(-1)
	}
}

// done retires one taken item; the last one wakes every waiter so the
// workers can exit.
func (q *queue) done() {
	q.mu.Lock()
	if q.s.Frontier.Add(-1) == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// wake rouses every waiter to see the stop flag. It takes mu, so no
// Session method that can abort is called with mu held.
func (q *queue) wake() {
	q.mu.Lock()
	q.cond.Broadcast()
	q.mu.Unlock()
}

// popLast takes a list's newest element, zeroing its slot so the
// backing array does not keep a released System and its trace reachable.
func popLast[T any](l *[]T) T {
	n := len(*l) - 1
	v := (*l)[n]
	var zero T
	(*l)[n] = zero
	*l = (*l)[:n]
	return v
}
