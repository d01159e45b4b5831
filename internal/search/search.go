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
//   - one work queue (queue.go), a LIFO under a lock and a cond that
//     holds only handed-off states: a parallel worker expands each new
//     child at once, depth-first on its own goroutine, lending every
//     successor but the last a fork and reclaiming it as the sequential
//     checker does, and queues a child (a forked System plus the
//     replayable trace prefix that reached it) only while another
//     worker waits for one,
//   - three loops over them: the default parallel search, seeded random
//     walks, as a swarm or pinned to one worker (swarm.go), and the
//     concolic feedback loop, which runs the parallel engine's workers
//     and push on one pool and symbolic execution on another, whose
//     targets share the queue's lock (concolic.go).
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
// EngineOptions.Workers workers (0 = all CPUs), each running the
// sequential checker's depth-first expansion on its own goroutine and
// handing a state to the shared queue only while another worker waits
// for one. It visits exactly the states the sequential checker visits
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
	st := newParallel(ctx, cfg, eo)
	var wg sync.WaitGroup
	st.spawn(&wg, workers, st.work)
	wg.Wait()
	st.s.Tel().SetShardOccupancy(st.seen.occupancy())
	return st.s.End(ctx)
}

// newParallel opens the parallel engine's session, under sleep-set
// reduction when eo asks for it.
func newParallel(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *expander {
	st := &expander{cfg: cfg, seen: newSeenSet(seenShards)}
	st.start(ctx, "parallel", eo, eo.Reduction == core.ReductionDPOR)
	return st
}

// start opens the session named name, with handOff as push, and queues
// the root; dpor turns on sleep-set reduction.
func (st *expander) start(ctx context.Context, name string, eo core.EngineOptions, dpor bool) {
	s := st.begin(ctx, name, st.cfg, eo)
	st.push = st.handOff
	root := s.NewSystem()
	if dpor {
		st.red = core.NewSleepReducer(root)
		st.dporTel = core.NewDporTelemetry(eo.Telemetry)
	}
	st.seen.Add(root.Fingerprint())
	s.Admit(0)
	enqueue(&st.queue, &st.items, item{sys: root})
}

// spawn starts n goroutines running work under the session's guard.
func (st *expander) spawn(wg *sync.WaitGroup, n int, work func()) {
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer st.s.Guard()
			work()
		}()
	}
}

// handOff is the push of both multi-worker engines: it queues the child
// while another worker waits in take, and otherwise expands it at once.
func (st *expander) handOff(sc *scratch, it item) bool {
	if st.waiting.Load() > 0 {
		st.s.Steals.Add(1)
		st.put(sc, it)
		return true
	}
	return st.expand(sc, it)
}

// work is one worker's loop: take a handed-off state, expand it and its
// subtree, and recycle its System's struct and slice backings
// (components live on in the children that borrowed them) unless a
// handed-off successor took it over.
func (st *expander) work() {
	var sc scratch
	for {
		it, ok := st.take()
		if !ok {
			return
		}
		if !st.expand(&sc, it) {
			it.sys.Release()
		}
		st.done()
	}
}

// scratch is one worker goroutine's reusable buffers and its export
// count. Copy-on-write forking left the enabled-transition list and the
// event batch of each expansion (whose elements carry openflow.Msg
// payloads) at the top of the allocation profile; nothing retains them,
// so each worker keeps its own and no step allocates them. An expansion
// recurses into its children, so the enabled list and the sleep scratch
// are kept per depth, as Checker.enabledAt's transBufs are; the event
// batch and the violation trace live only within one apply.
type scratch struct {
	frames []*frame
	events []core.Event
	trace  []core.Transition
	// exports counts the states this worker queued for another
	// goroutine: handed-off children and solver targets. While it
	// does not move, a lent child's subtree has exported nothing; only
	// then may the parent reclaim the epoch it held before the fork.
	exports int64
}

// frame is the per-depth part of scratch.
type frame struct {
	enabled []core.Transition
	sleep   core.SleepScratch
}

// frame returns the worker's buffers for an expansion at depth.
func (sc *scratch) frame(depth int) *frame {
	for len(sc.frames) <= depth {
		sc.frames = append(sc.frames, new(frame))
	}
	return sc.frames[depth]
}

// expander is the per-state expansion step and what its workers share:
// the queue, which holds the Session, and the seen-set. The parallel
// engine and the concolic loop run the same step, workers and push; they
// differ in the two seams enter and divert.
type expander struct {
	queue
	cfg  *core.Config
	seen *seenSet

	// push hands on an admitted child found by the worker owning sc and
	// reports whether the child lives on elsewhere: queued, or taken
	// over by a queued successor. It is handOff except in tests.
	push func(sc *scratch, it item) bool
	// enter, when non-nil, sees each state before it is expanded. The
	// concolic loop opens its feedback rounds there.
	enter func(sc *scratch, it item)
	// divert, when non-nil, is offered each enabled transition of it
	// before it executes; true means the caller took it over. The
	// concolic loop hands discover transitions to its solver pool.
	divert func(it item, t core.Transition) bool

	// red is non-nil when the search runs with sleep-set reduction
	// (EngineOptions.Reduction); dporTel feeds the shared dpor scope.
	red     *core.SleepReducer
	dporTel *core.DporTelemetry
}

// apply executes t on sys — a state nobody else holds — recording every
// property failure against the trace path+t, and reports whether there
// was one.
func (st *expander) apply(sc *scratch, sys *core.System, path *core.PathNode, t core.Transition) bool {
	sc.events = sys.ApplyInto(t, sc.events)
	return st.record(sc, sys.CheckEvents(sc.events), path, &t)
}

// record records fails against the trace path+t, or path alone for the
// quiescence failures t == nil stands for, and reports whether there
// was one. The trace is built in the worker's buffer: Session.Record
// copies only a trace it keeps, so a violation already held costs no
// allocation.
func (st *expander) record(sc *scratch, fails []core.PropertyFailure, path *core.PathNode, t *core.Transition) bool {
	if len(fails) == 0 {
		return false
	}
	sc.trace = path.AppendTrace(sc.trace[:0])
	if t != nil {
		sc.trace = append(sc.trace, *t)
	}
	for _, f := range fails {
		st.s.Record(core.Violation{Property: f.Property, Err: f.Err, Trace: sc.trace, Quiescence: t == nil})
	}
	return true
}

// admit pushes child, reached over path+t, if its state is new, and
// reports whether the child lives on elsewhere.
func (st *expander) admit(sc *scratch, child *core.System, path *core.PathNode, t core.Transition) bool {
	return st.fresh(child, path) && st.push(sc, item{sys: child, path: path.Child(t)})
}

// fresh adds child, reached below path, to the seen-set and reports
// whether its state is new; a revisit is counted.
func (st *expander) fresh(child *core.System, path *core.PathNode) bool {
	if st.seen.Add(child.Fingerprint()) {
		st.s.Admit(path.Depth() + 1)
		return true
	}
	st.s.Revisits.Add(1)
	return false
}

// expand processes one state, mirroring the sequential checker's
// per-state work (checker.go dfs): quiescence properties on dead ends,
// depth truncation, then one apply per enabled transition with property
// checks, pushing unseen children. Violating transitions are recorded
// and their subtrees pruned, exactly as the paper's checker "saves the
// error and trace and does not explore past a violating state". A
// transition the divert seam takes is not executed here at all.
//
// Every successor but the last runs on a lent fork. When the fork comes
// back dead and the worker exported nothing meanwhile, its whole subtree
// is released and it.sys reclaims the epoch it held before the fork, so
// the last transition, applied to it.sys itself, writes uncopied what
// it owned then. expand reports whether it.sys lives on elsewhere (its
// last successor was queued); otherwise the caller must release or
// reclaim it.
//
// Under sleep-set reduction (st.red non-nil) the loop additionally
// skips transitions the item's sleep set covers, hands each child the
// sleep set it is owed (incoming entries plus executed siblings,
// filtered by independence), and routes revisits through the seen-set's
// sleep signatures: a revisit under a smaller sleep set re-expands
// exactly the keys that slipped awake. Sleep sets prune transition
// executions only, never states, so UniqueStates matches the unreduced
// search.
func (st *expander) expand(sc *scratch, it item) (livesOn bool) {
	s := st.s
	if s.Stopped() {
		return false
	}
	if st.enter != nil {
		st.enter(sc, it)
	}
	depth := it.path.Depth()
	f := sc.frame(depth)
	f.enabled = it.sys.EnabledInto(f.enabled)
	enabled := f.enabled
	if len(enabled) == 0 {
		st.record(sc, it.sys.CheckQuiescence(), it.path, nil)
		return false
	}
	if depth >= st.cfg.DepthBound() {
		s.Truncated.Add(1)
		return false
	}

	var executed []int
	if st.red != nil {
		st.red.Prepare(it.sys, enabled, &f.sleep)
	}

	last := len(enabled) - 1
	for i, t := range enabled {
		if s.Stopped() {
			return false
		}
		if st.divert != nil && st.divert(it, t) {
			sc.exports++
			continue
		}
		if st.red != nil {
			if it.wake != nil && !keyIn64(it.wake, f.sleep.Key(i)) {
				// Covered by this state's previous, larger expansion.
				st.dporTel.Pruned(1)
				continue
			}
			if f.sleep.Asleep(it.sleep, i) {
				st.dporTel.SleepHit()
				continue
			}
		}
		if !s.Reserve() {
			return false
		}
		child, epoch, exports := it.sys, uint64(0), sc.exports
		if i < last {
			child, epoch = it.sys.Lend()
		}
		violated := st.apply(sc, child, it.path, t)
		var childSleep []core.SleepEntry
		if st.red != nil {
			if !violated {
				childSleep = f.sleep.ChildSleep(it.sleep, executed, i)
			}
			// Executed siblings join the sleep-source even when they
			// violated: their interleavings are covered either way.
			executed = append(executed, i)
		}
		lives := false
		switch {
		case violated:
		case st.red != nil:
			lives = st.admitSleep(sc, child, childSleep, it.path, t)
		default:
			lives = st.admit(sc, child, it.path, t)
		}
		if i == last {
			return lives
		}
		switch {
		case lives:
		case sc.exports == exports:
			it.sys.Reclaim(child, epoch)
		default:
			child.Release()
		}
	}
	return false
}

// admitSleep is admit under sleep-set reduction: a revisit whose sleep
// set left keys awake that the stored expansion slept is pushed again
// to re-expand exactly those.
func (st *expander) admitSleep(sc *scratch, child *core.System, sleep []core.SleepEntry, path *core.PathNode, t core.Transition) bool {
	isNew, wake := st.seen.AddSleep(child.Fingerprint(), core.SleepKeySet(sleep))
	switch {
	case isNew:
		st.s.Admit(path.Depth() + 1)
	case wake != nil:
		st.s.Revisits.Add(1)
		st.dporTel.Reexpansion()
	default:
		st.s.Revisits.Add(1)
		return false
	}
	return st.push(sc, item{sys: child, sleep: sleep, wake: wake, path: path.Child(t)})
}
