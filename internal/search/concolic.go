// The concolic feedback loop (§3, Figure 1; docs/SYMBOLIC.md): search
// workers run the shared expansion step over a LIFO queue, handing every
// discover transition to a pool of solver workers instead of executing
// it; solver workers run (or recall) the symbolic execution and feed the
// post-discover state back. What is private to the loop is what differs
// from the parallel engine: the two cond-guarded queues, the feedback
// rounds that open proactive targets, and the symbolic budget.

package search

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/telemetry"
)

// Loop returns the concolic feedback-loop engine as a core.Engine.
func Loop() core.Engine { return loopEngine{} }

type loopEngine struct{}

// Name implements core.Engine.
func (loopEngine) Name() string { return "concolic" }

// target is one unit of solver work: a private fork and the discover
// transition to run against it. A demand target's transition was
// enabled at the state and is applied, its successor re-entering the
// search; a proactive target only warms the memo for t.Host.
type target struct {
	item
	t      core.Transition
	demand bool
}

// loopState is what the two pools share beyond the expander.
type loopState struct {
	expander

	mu      sync.Mutex
	cond    *sync.Cond
	searchQ []item // LIFO: workers keep expanding deep states
	// Solver work: demand targets gate search progress and are served
	// first (newest first); proactive ones only add coverage (FIFO).
	demandQ    []target
	proactiveQ []target
	// pending counts queued + in-flight items. It is the session's
	// Frontier gauge: written under mu, read lock-free by snapshots.
	pending *atomic.Int64

	seenApps map[canon.Digest]bool // guarded by mu

	feedback  atomic.Int64
	symBudget int64
	seStart   int64
	fbRounds  *telemetry.Counter // sym scope's feedback_rounds
}

// enqueue appends work to one of the loop's queues.
func enqueue[T any](st *loopState, q *[]T, v T) {
	st.mu.Lock()
	*q = append(*q, v)
	st.pending.Add(1)
	st.cond.Broadcast()
	st.mu.Unlock()
}

// take pops one work item for a pool (solver workers drain the target
// queues, search workers searchQ). It blocks until work of the pool's
// kind arrives, the whole loop drains (pending 0), or the search stops;
// ok=false means the worker should exit.
func (st *loopState) take(solver bool) (target, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		switch {
		case st.s.Stopped():
			return target{}, false
		case !solver && len(st.searchQ) > 0:
			return target{item: popLast(&st.searchQ)}, true
		case solver && len(st.demandQ) > 0:
			return popLast(&st.demandQ), true
		case solver && len(st.proactiveQ) > 0:
			tg := st.proactiveQ[0]
			st.proactiveQ[0] = target{}
			st.proactiveQ = st.proactiveQ[1:]
			return tg, true
		case st.pending.Load() == 0:
			return target{}, false
		}
		st.cond.Wait()
	}
}

// done retires one in-flight item; the last one wakes every waiter so
// the pools can drain.
func (st *loopState) done() {
	st.mu.Lock()
	if st.pending.Add(-1) == 0 {
		st.cond.Broadcast()
	}
	st.mu.Unlock()
}

// symAllowed reports whether the discover budget still has room. The
// check-then-run window means concurrent solver workers can overshoot
// by at most the pool size — the same slack the parallel engine's
// MaxStates bound accepts.
func (st *loopState) symAllowed() bool {
	return st.symBudget <= 0 || st.s.Caches().SERuns()-st.seStart < st.symBudget
}

// Search implements core.Engine.
func (loopEngine) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	st := &loopState{seenApps: make(map[canon.Digest]bool), symBudget: eo.SymBudget}
	st.cond = sync.NewCond(&st.mu)
	// Every Abort wakes both pools. The broadcast takes mu, so no Session
	// method that can abort is called with mu held; and the cond exists
	// before Begin because a pre-canceled context aborts in there.
	s := core.Begin(ctx, "concolic", cfg, eo, func() {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	// red stays nil: EngineOptions.Reduction is accepted and ignored.
	st.expander = expander{s: s, cfg: cfg, seen: newSeenSet(seenShards),
		push: func(sc *scratch, it item) bool {
			sc.exports++
			enqueue(st, &st.searchQ, it)
			return true
		},
		divert: st.deferDiscover,
	}
	st.pending, st.seStart = &s.Frontier, s.Caches().SERuns()
	st.fbRounds = eo.Telemetry.Scope("sym").Counter("feedback_rounds") // nil without a registry

	root := s.NewSystem()
	st.seen.Add(root.Fingerprint())
	s.Admit(0)
	enqueue(st, &st.searchQ, item{sys: root})

	var wg sync.WaitGroup
	pool := func(n int, solver bool, work func(*scratch, target) bool) {
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer s.Guard()
				var sc scratch
				for {
					tg, ok := st.take(solver)
					if !ok {
						return
					}
					if !work(&sc, tg) {
						tg.sys.Release()
					}
					st.done()
				}
			}()
		}
	}
	pool(eo.WorkerCount(), false, func(sc *scratch, tg target) bool {
		st.feedbackTargets(tg.item)
		return st.expand(sc, tg.item)
	})
	pool(eo.SolverPool(), true, st.solve)
	wg.Wait()

	s.Tel().SetShardOccupancy(st.seen.occupancy())
	report := s.End(ctx)
	report.FeedbackRounds = st.feedback.Load()
	return report
}

// deferDiscover is the expansion step's divert hook: a discover transition is
// itself the symbolic job, so it becomes a demand target on a private
// fork (the search side never blocks on symbolic execution). The solver
// worker applies it and feeds the resulting state back into searchQ.
func (st *loopState) deferDiscover(it item, t core.Transition) bool {
	if t.Kind != core.THostDiscover && t.Kind != core.TCtrlDiscoverStats {
		return false
	}
	enqueue(st, &st.demandQ, target{item: item{sys: it.sys.Clone(), path: it.path}, t: t, demand: true})
	return true
}

// feedbackTargets opens a feedback round when the node carries a novel
// controller-application state: each host whose discover results are
// not yet memoized against it is enqueued as a proactive symbolic
// target (on a private fork, so solver workers never share a System).
func (st *loopState) feedbackTargets(it item) {
	app := it.sys.AppDigest()
	st.mu.Lock()
	fresh := !st.seenApps[app]
	if fresh {
		st.seenApps[app] = true
	}
	st.mu.Unlock()
	if !fresh {
		return
	}
	round := false
	for _, id := range it.sys.HostIDs() {
		t := core.Transition{Kind: core.THostDiscover, Host: id}
		if it.sys.DiscoverCached(t) {
			continue
		}
		if !st.symAllowed() {
			break // proactive coverage is best-effort under a budget
		}
		enqueue(st, &st.proactiveQ, target{item: item{sys: it.sys.Clone()}, t: t})
		round = true
	}
	if round {
		st.feedback.Add(1)
		st.fbRounds.Inc()
	}
}

// solve processes one symbolic target on a solver worker, reporting
// whether tg.sys lives on as the queued post-discover state.
func (st *loopState) solve(sc *scratch, tg target) bool {
	if st.s.Stopped() {
		return false
	}
	if !tg.demand {
		if st.symAllowed() {
			tg.sys.DiscoverPacketClasses(tg.t.Host)
		}
		return false
	}
	// Demand target: the exploration may already be memoized (another
	// worker got there first) — then applying is free; otherwise the
	// budget must cover a fresh discover run.
	if !st.symAllowed() && !tg.sys.DiscoverCached(tg.t) {
		st.s.Abort(core.StopSymBudget)
		return false
	}
	if !st.s.Reserve() {
		return false
	}
	if st.apply(sc, tg.sys, tg.path, tg.t) {
		return false
	}
	// The solved classes seed a new search frontier: the post-discover
	// state (the private fork itself) re-enters the worklist, where the
	// host's sends (or the stats variants) are now enabled transitions.
	return st.admit(sc, tg.sys, tg.path, tg.t)
}
