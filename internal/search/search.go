// Package search is the parallel state-space exploration engine: a
// worker pool that explores the same core.System transition graph as
// the sequential core.Checker, concurrently. The paper's searches run
// millions of transitions (§7) and lean on hash-based state matching
// precisely because the explored set dominates (§6); this engine keeps
// those semantics — every state expanded once, properties checked on
// every transition and at quiescence, the NO-DELAY/UNUSUAL/FLOW-IR
// reductions honored unchanged (they live inside System.Enabled) — and
// spreads the expansion over cores:
//
//   - a lock-striped seen-set keyed by System.Fingerprint() (seenset.go),
//   - per-worker frontiers with work-stealing, where each work item is
//     a forked System plus the replayable trace prefix that reached it
//     (frontier.go),
//   - three loops over them: the default BFS/DFS hybrid (owners pop
//     depth-first, thieves steal breadth-first), seeded random walks, as
//     a swarm or pinned to one worker (swarm.go), and the concolic
//     feedback loop, which runs the hybrid's expansion step on one pool
//     and symbolic execution on another (concolic.go).
//
// Each loop is a core.Engine (Parallel, SwarmEngine, Walks, Loop) and
// runs inside a core.Session, which supplies what every engine shares:
// budgets, cancellation, the merged deterministic violation set,
// streaming and the Report.
//
// Every front end dispatches through job.go: the table of the five
// engines (core.DFS included) a request names one from, and Job.Run.
//
// Parallel with one worker delegates to the sequential core.Checker,
// which stays the reference oracle; search_test.go asserts differential
// parity between the two on the paper's scenarios.
package search

import (
	"context"
	"sync"

	"github.com/nice-go/nice/internal/core"
)

// seenShards is the seen-set stripe count.
const seenShards = 256

// Parallel returns the exhaustive parallel search as a core.Engine:
// per-worker depth-first expansion over a work-stealing frontier whose
// steals are breadth-first, EngineOptions.Workers workers (0 = all
// CPUs). It visits exactly the states the sequential checker visits
// whenever state identity is schedule-independent — symbolic execution
// off, or discover caches warmed. On cold SE-enabled runs the counts can
// differ slightly (cache presence is part of the state hash and fills in
// schedule order); the violated-property set matches regardless.
func Parallel() core.Engine { return parallelEngine{} }

type parallelEngine struct{}

func (parallelEngine) Name() string { return "parallel" }

func (parallelEngine) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	workers := eo.WorkerCount()
	if workers == 1 {
		// The delegated report keeps Strategy "dfs": the sequential
		// checker really ran, and its Progress snapshots say so — the
		// report and the stream must agree.
		return core.DFS().Search(ctx, cfg, eo)
	}
	s := core.Begin(ctx, "parallel", cfg, eo, nil)
	front := newFrontier(workers, s)
	st := &expander{s: s, cfg: cfg, seen: newSeenSet(seenShards), push: front.push}
	root := s.NewSystem()
	if eo.Reduction == core.ReductionDPOR {
		st.red = core.NewSleepReducer(root)
		st.dporTel = core.NewDporTelemetry(eo.Telemetry)
	}
	st.seen.Add(root.Fingerprint())
	s.Admit(0)
	front.push(0, item{sys: root})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer s.Guard()
			var sc scratch
			for {
				it, ok := front.get(w)
				if !ok {
					return
				}
				// The item is fully expanded: recycle its System's
				// struct and slice backings (components live on in
				// the pushed children that borrowed them), unless its
				// last successor took it over.
				if !st.expand(w, it, &sc) {
					it.sys.Release()
				}
				front.done()
			}
		}(w)
	}
	wg.Wait()
	s.Tel().SetShardOccupancy(st.seen.occupancy())
	return s.End(ctx)
}

// scratch is one worker goroutine's reusable buffers. Copy-on-write
// forking left the enabled-transition list and the event batch of each
// expansion (whose elements carry openflow.Msg payloads) at the top of
// the allocation profile; both live only within one step and nothing
// retains them, so each worker keeps its own and no step allocates
// them.
type scratch struct {
	sleep   core.SleepScratch
	enabled []core.Transition
	events  []core.Event
}

// expander is the per-state expansion step and what its workers share
// beyond the Session. The parallel engine and the concolic loop run the
// same step; they differ in the two seams below.
type expander struct {
	s    *core.Session
	cfg  *core.Config
	seen *seenSet

	// push enqueues an admitted child found by worker w: onto w's deque
	// (parallel) or the loop's search queue (concolic).
	push func(w int, it item)
	// divert, when non-nil, is offered each enabled transition of it
	// before it executes; true means the caller took it over. The
	// concolic loop hands discover transitions to its solver pool.
	divert func(it item, t core.Transition) bool

	// red is non-nil when the search runs with sleep-set reduction
	// (EngineOptions.Reduction); dporTel feeds the shared dpor scope.
	red     *core.SleepReducer
	dporTel *core.DporTelemetry
}

// apply executes t on sys — a fork nobody else holds — recording every
// property failure against the trace path+t, and reports whether there
// was one. events is the caller's reusable buffer, returned grown.
func (st *expander) apply(sys *core.System, path *core.PathNode, t core.Transition, events []core.Event) ([]core.Event, bool) {
	events = sys.ApplyInto(t, events)
	violated := false
	for _, f := range sys.CheckEvents(events) {
		st.s.Record(core.Violation{Property: f.Property, Err: f.Err, Trace: path.TraceWith(t)})
		violated = true
	}
	return events, violated
}

// admit pushes child, reached over path+t, if its state is new; a
// revisit is counted and the fork recycled.
func (st *expander) admit(w int, child *core.System, path *core.PathNode, t core.Transition) {
	if st.seen.Add(child.Fingerprint()) {
		st.s.Admit(path.Depth() + 1)
		st.push(w, item{sys: child, path: path.Child(t)})
	} else {
		st.s.Revisits.Add(1)
		child.Release()
	}
}

// expand processes one frontier item, mirroring the sequential
// checker's per-state work (checker.go dfs): quiescence properties on
// dead ends, depth truncation, then one clone+apply per enabled
// transition with property checks, pushing unseen children. Violating
// transitions are recorded and their subtrees pruned, exactly as the
// paper's checker "saves the error and trace and does not explore past
// a violating state". A transition the divert seam takes is not executed
// here at all. The last enabled transition takes it.sys over, and then
// expand reports true: the caller must not release it.sys.
//
// Under sleep-set reduction (st.red non-nil) the loop additionally
// skips transitions the item's sleep set covers, hands each child the
// sleep set it is owed (incoming entries plus executed siblings,
// filtered by independence), and routes revisits through the seen-set's
// sleep signatures: a revisit under a smaller sleep set re-expands
// exactly the keys that slipped awake. Sleep sets prune transition
// executions only, never states, so UniqueStates matches the unreduced
// search.
func (st *expander) expand(w int, it item, sc *scratch) (tookOver bool) {
	s := st.s
	if s.Stopped() {
		return false
	}
	sc.enabled = it.sys.EnabledInto(sc.enabled)
	enabled := sc.enabled
	if len(enabled) == 0 {
		for _, f := range it.sys.CheckQuiescence() {
			s.Record(core.Violation{Property: f.Property, Err: f.Err,
				Trace: it.path.Trace(), Quiescence: true})
		}
		return false
	}
	depth := it.path.Depth()
	if depth >= st.cfg.DepthBound() {
		s.Truncated.Add(1)
		return false
	}

	var executed []int
	if st.red != nil {
		st.red.Prepare(it.sys, enabled, &sc.sleep)
	}

	last := len(enabled) - 1
	for i, t := range enabled {
		if s.Stopped() {
			return false
		}
		if st.divert != nil && st.divert(it, t) {
			continue
		}
		if st.red != nil {
			if it.wake != nil && !keyIn64(it.wake, sc.sleep.Key(i)) {
				// Covered by this state's previous, larger expansion.
				st.dporTel.Pruned(1)
				continue
			}
			if sc.sleep.Asleep(it.sleep, i) {
				st.dporTel.SleepHit()
				continue
			}
		}
		if !s.Reserve() {
			return false
		}
		// Forking a sibling retired it.sys's epoch, so the takeover
		// copies what it writes; live siblings forbid a reclaim.
		tookOver = i == last
		child := it.sys
		if !tookOver {
			child = it.sys.Clone()
		}
		var violated bool
		sc.events, violated = st.apply(child, it.path, t, sc.events)
		var childSleep []core.SleepEntry
		if st.red != nil {
			if !violated {
				childSleep = sc.sleep.ChildSleep(it.sleep, executed, i)
			}
			// Executed siblings join the sleep-source even when they
			// violated: their interleavings are covered either way.
			executed = append(executed, i)
		}
		if violated {
			child.Release()
			continue
		}
		if st.red != nil {
			isNew, wake := st.seen.AddSleep(child.Fingerprint(), core.SleepKeySet(childSleep))
			switch {
			case isNew:
				s.Admit(depth + 1)
				st.push(w, item{sys: child, sleep: childSleep, path: it.path.Child(t)})
			case wake != nil:
				s.Revisits.Add(1)
				st.dporTel.Reexpansion()
				st.push(w, item{sys: child, sleep: childSleep, wake: wake,
					path: it.path.Child(t)})
			default:
				s.Revisits.Add(1)
				child.Release()
			}
			continue
		}
		st.admit(w, child, it.path, t)
	}
	return tookOver
}
