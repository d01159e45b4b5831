// Package search is the state-space exploration layer: one expansion
// step (expand, the paper's Figure 5 loop — enumerate the enabled
// transitions, apply one, hash-match the state (§6), check the
// properties, recurse) and the engines that schedule it. The paper's
// searches run millions of transitions (§7) and lean on hash-based
// state matching precisely because the explored set dominates; every
// engine keeps those semantics — every state expanded once, properties
// checked on every transition and at quiescence, the
// NO-DELAY/UNUSUAL/FLOW-IR reductions honored unchanged (they live
// inside System.Enabled):
//
//   - a lock-striped seen-set keyed by System.Fingerprint() (seenset.go),
//   - one work queue (queue.go), a LIFO under a lock and a cond that
//     holds only handed-off states: a worker expands each new child at
//     once, depth-first on its own goroutine, lending every successor
//     but the last a fork and reclaiming it, and queues a child (a
//     forked System plus a copy of the trace that reached it) only while
//     another worker waits for one,
//   - four loops over them: the sequential DFS, which is the expansion
//     step on the caller's goroutine with no queue; the parallel search;
//     seeded random walks, as a swarm or pinned to one worker
//     (swarm.go); and the concolic feedback loop, which runs the
//     parallel engine's workers and push on one pool and symbolic
//     execution on another, whose targets share the queue's lock
//     (concolic.go).
//
// Each loop is a core.Engine (DFS, Parallel, SwarmEngine, Walks, Loop)
// and runs inside a core.Session, which supplies what every engine
// shares: the one search step (Session.Step and Leaf, which
// core.RunDPOR, the DFS under core.ReductionDPOR and the one reduced
// search, takes too), budgets, cancellation, the merged deterministic
// violation set, streaming and the Report.
//
// Every front end dispatches through job.go: the table of the five
// engines a request names one from, and Job.Run. search_test.go asserts
// differential parity between the parallel engines and the DFS on the
// paper's scenarios.
package search

import (
	"context"
	"sync"

	"github.com/nice-go/nice/internal/core"
)

// seenShards is the seen-set stripe count.
const seenShards = 256

// DFS returns the sequential depth-first search as a core.Engine — the
// paper's default full search (Figure 5): the expansion step on the
// caller's goroutine, expanding every admitted child in place, with no
// queue, against a one-stripe seen-set. Under ReductionDPOR it runs the
// persistent-set DPOR DFS (core.RunDPOR) instead.
func DFS() core.Engine { return depthFirst{} }

type depthFirst struct{}

func (depthFirst) Name() string { return "dfs" }

func (depthFirst) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	if eo.Reduction == core.ReductionDPOR {
		return core.RunDPOR(ctx, cfg, eo)
	}
	st := &expander{seen: newSeenSet(1)}
	root := st.start(ctx, "dfs", cfg, eo)
	st.push = st.expand
	// The search runs on this goroutine, so a panicking App or Property
	// unwinds through here with its own stack; only the session's
	// goroutines need stopping on the way out.
	defer st.s.Close()
	var sc scratch
	if !st.expand(&sc, item{sys: root}) {
		root.Release()
	}
	return st.s.End(ctx)
}

// Parallel returns the exhaustive parallel search as a core.Engine:
// EngineOptions.Workers workers (0 = all CPUs), each running the DFS's
// expansion step on its own goroutine and handing a state to the shared
// queue only while another worker waits for one. It does not reduce:
// EngineOptions.Reduction is accepted and ignored. It visits exactly the
// states the DFS visits whenever state identity is
// schedule-independent — symbolic execution off, or discover caches
// warmed. On cold SE-enabled runs the counts can differ slightly (cache
// presence is part of the state hash and fills in schedule order); the
// violated-property set matches regardless.
func Parallel() core.Engine { return parallelEngine{} }

type parallelEngine struct{}

func (parallelEngine) Name() string { return "parallel" }

func (parallelEngine) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	st := newParallel(ctx, cfg, eo)
	var wg sync.WaitGroup
	st.spawn(&wg, eo.WorkerCount(), st.work)
	wg.Wait()
	st.s.Tel().SetShardOccupancy(st.seen.occupancy())
	return st.s.End(ctx)
}

// newParallel opens the parallel engine's session with the root queued.
func newParallel(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *expander {
	st := &expander{seen: newSeenSet(seenShards)}
	st.queueRoot(st.start(ctx, "parallel", cfg, eo))
	return st
}

// start opens the session named name on cfg and admits its root, which
// it returns.
func (st *expander) start(ctx context.Context, name string, cfg *core.Config, eo core.EngineOptions) *core.System {
	s := st.begin(ctx, name, cfg, eo)
	root := s.NewSystem()
	st.seen.Add(root.Fingerprint())
	s.Admit(0)
	return root
}

// queueRoot makes handOff the push of a multi-worker engine and queues
// its root for the first worker.
func (st *expander) queueRoot(root *core.System) {
	st.push = st.handOff
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

// work is one worker's loop: take a handed-off state, load its trace
// onto the worker's stack, expand it and its subtree, and recycle its
// System's struct and slice backings (components live on in the
// children that borrowed them) unless a handed-off successor took it
// over.
func (st *expander) work() {
	var sc scratch
	for {
		it, ok := st.take()
		if !ok {
			return
		}
		sc.stack = append(sc.stack[:0], it.trace...)
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
// recurses into its children, so the enabled list is kept per depth;
// the event batch lives only within one apply.
type scratch struct {
	// enabled[d] is the enabled list of the state expanded at depth d.
	enabled [][]core.Transition
	events  []core.Event
	// stack is the transition stack: stack[:d] is the trace of the state
	// being expanded at depth d. An expansion writes stack[d] before
	// each apply, so the trace of a violation — stack[:d] plus the
	// transition — is never built; Session.Step copies only a trace
	// it keeps.
	stack []core.Transition
	// exports counts the states this worker queued for another
	// goroutine: handed-off children and solver targets. While it
	// does not move, a lent child's subtree has exported nothing; only
	// then may the parent reclaim the epoch it held before the fork.
	exports int64
}

// enabledAt enumerates sys's enabled transitions into the buffer kept
// for depth.
func (sc *scratch) enabledAt(sys *core.System, depth int) []core.Transition {
	for len(sc.enabled) <= depth {
		sc.enabled = append(sc.enabled, nil)
	}
	sc.enabled[depth] = sys.EnabledInto(sc.enabled[depth])
	return sc.enabled[depth]
}

// expander is the per-state expansion step and what its workers share:
// the queue, which holds the Session, and the seen-set. The DFS, the
// parallel search and the concolic loop run this step; the walks and
// the DPOR DFS share only the session's search step within it. The DFS
// pushes a child by expanding it, the multi-worker engines by handOff,
// and the concolic loop adds the two seams enter and divert.
type expander struct {
	queue
	seen *seenSet

	// push hands on an admitted child found by the worker owning sc and
	// reports whether the child lives on elsewhere: queued, or taken
	// over by a queued successor.
	push func(sc *scratch, it item) bool
	// enter, when non-nil, sees each state before it is expanded. The
	// concolic loop opens its feedback rounds there.
	enter func(sc *scratch, it item)
	// divert, when non-nil, is offered each enabled transition of it
	// before it executes; true means the caller took it over. The
	// concolic loop hands discover transitions to its solver pool.
	divert func(it item, t core.Transition) bool
}

// apply runs the session's step on sys — a state nobody else holds —
// reached over the worker's stack[:depth], writing stack[depth] = t, and
// reports whether a property failed on the trace stack[:depth+1].
func (st *expander) apply(sc *scratch, sys *core.System, depth int, t core.Transition) bool {
	sc.stack = append(sc.stack[:depth], t)
	return st.s.Step(sys, t, sc.stack, &sc.events)
}

// admit pushes child, found at the top of the worker's stack, if its
// state is new, and reports whether the child lives on elsewhere.
func (st *expander) admit(sc *scratch, child *core.System) bool {
	return st.fresh(child, len(sc.stack)) && st.push(sc, item{sys: child, trace: sc.stack})
}

// fresh adds child, reached at depth, to the seen-set and reports
// whether its state is new; a revisit is counted.
func (st *expander) fresh(child *core.System, depth int) bool {
	if st.seen.Add(child.Fingerprint()) {
		st.s.Admit(depth)
		return true
	}
	st.s.Revisits.Add(1)
	return false
}

// expand processes one state, reached over it.trace, which the worker's
// stack holds: quiescence properties on dead ends, depth truncation,
// then one apply per enabled transition with property checks, pushing
// unseen children. Violating transitions are recorded and their
// subtrees pruned, exactly as the paper's checker "saves the error and
// trace and does not explore past a violating state". A transition the
// divert seam takes is not executed here at all.
//
// Every successor but the last runs on a lent fork. When the fork comes
// back dead and the worker exported nothing meanwhile, its whole subtree
// is released and it.sys reclaims the epoch it held before the fork, so
// the last transition, applied to it.sys itself, writes uncopied what
// it owned then. expand reports whether it.sys lives on elsewhere (its
// last successor was queued); otherwise the caller must release or
// reclaim it.
func (st *expander) expand(sc *scratch, it item) (livesOn bool) {
	s := st.s
	if s.Stopped() {
		return false
	}
	if st.enter != nil {
		st.enter(sc, it)
	}
	depth := len(it.trace)
	enabled := sc.enabledAt(it.sys, depth)
	if s.Leaf(it.sys, enabled, it.trace) {
		return false
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
		if !s.Reserve() {
			return false
		}
		child, epoch, exports := it.sys, uint64(0), sc.exports
		if i < last {
			child, epoch = it.sys.Lend()
		}
		lives := !st.apply(sc, child, depth, t) && st.admit(sc, child)
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
