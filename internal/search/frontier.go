package search

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nice-go/nice/internal/core"
)

// item is one unexpanded system state plus the path that reached it, as
// a parent-pointer chain: what push hands on, and what the frontier
// holds once handed off. Sibling children share the whole prefix through
// one pointer — a replayable trace is materialized (AppendTrace) only
// when a violation is recorded, so the hot path never copies O(depth)
// transition prefixes.
type item struct {
	sys  *core.System
	path *core.PathNode
	// sleep is the DPOR sleep set the state was reached under (nil
	// unless the search runs with EngineOptions.Reduction). wake, when
	// non-nil, marks a re-expansion: only transitions with these
	// identity keys are executed — everything else was covered by this
	// state's previous expansion under a larger sleep set.
	sleep []core.SleepEntry
	wake  []uint64
}

// frontier is the work-stealing scheduler: one deque per worker,
// holding only the states a worker handed off. A worker expands its
// children in place, depth-first, and queues one on its own deque only
// while another worker waits in get (idle > 0). The owner pops at the
// tail (LIFO); thieves steal from the head, which holds the oldest —
// typically shallowest — states, giving the breadth that spreads the
// search across cores.
type frontier struct {
	deques []deque
	// idle counts the workers waiting in get for work.
	idle atomic.Int64
	// pending counts items enqueued but not yet fully expanded. Zero
	// means global termination: nothing queued and no worker mid-expand
	// (workers decrement only after expanding, so any children are
	// already counted). It is the session's Frontier gauge itself.
	pending *atomic.Int64
	// steals counts successful head-steals — the load-imbalance signal
	// telemetry surfaces as <engine>.steals (the session's Steals).
	steals *atomic.Int64
	// s supplies the stop flag.
	s *core.Session
}

type deque struct {
	mu    sync.Mutex
	head  int
	items []item
	// pad the struct to a 64-byte cache line (8-byte mutex + 8-byte
	// head + 24-byte slice header + 24) so adjacent workers' deques
	// don't false-share.
	_ [24]byte
}

func newFrontier(workers int, s *core.Session) *frontier {
	return &frontier{deques: make([]deque, workers),
		pending: &s.Frontier, steals: &s.Steals, s: s}
}

// push enqueues a work item on worker w's deque.
func (f *frontier) push(w int, it item) {
	f.pending.Add(1)
	d := &f.deques[w]
	d.mu.Lock()
	d.items = append(d.items, it)
	d.mu.Unlock()
}

// handoff queues it on the deque of sc's worker for another worker to
// steal, counting the export.
func (f *frontier) handoff(sc *scratch, it item) {
	sc.exports++
	f.push(sc.w, it)
}

// popLast takes a queue's newest element, zeroing its slot so the
// backing array does not keep a released System and its path reachable.
func popLast[T any](q *[]T) T {
	n := len(*q) - 1
	v := (*q)[n]
	var zero T
	(*q)[n] = zero
	*q = (*q)[:n]
	return v
}

// popLocal takes the newest item from w's own deque (depth-first order).
func (f *frontier) popLocal(w int) (item, bool) {
	d := &f.deques[w]
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head >= len(d.items) {
		return item{}, false
	}
	it := popLast(&d.items)
	if d.head == len(d.items) {
		d.items = d.items[:0]
		d.head = 0
	}
	return it, true
}

// steal takes the oldest item from some other worker's deque.
func (f *frontier) steal(w int) (item, bool) {
	n := len(f.deques)
	for i := 1; i < n; i++ {
		d := &f.deques[(w+i)%n]
		d.mu.Lock()
		if d.head < len(d.items) {
			it := d.items[d.head]
			d.items[d.head] = item{}
			d.head++
			if d.head == len(d.items) {
				d.items = d.items[:0]
				d.head = 0
			}
			d.mu.Unlock()
			f.steals.Add(1)
			return it, true
		}
		d.mu.Unlock()
	}
	return item{}, false
}

// get returns the next item for worker w, stealing when its own deque
// is dry. It returns false when the search is over: every item expanded
// or the stop flag raised. While it finds no work the worker counts as
// idle, which makes the others hand off their children.
func (f *frontier) get(w int) (item, bool) {
	idle := false
	defer func() {
		if idle {
			f.idle.Add(-1)
		}
	}()
	backoff := 0
	for {
		if f.s.Stopped() {
			return item{}, false
		}
		if it, ok := f.popLocal(w); ok {
			return it, true
		}
		if it, ok := f.steal(w); ok {
			return it, true
		}
		if f.pending.Load() == 0 {
			return item{}, false
		}
		// Someone is still expanding; its children may land any moment.
		if !idle {
			idle = true
			f.idle.Add(1)
		}
		backoff++
		if backoff < 32 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// done marks one item fully expanded.
func (f *frontier) done() { f.pending.Add(-1) }
