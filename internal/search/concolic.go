// The concolic feedback loop (§3, Figure 1; docs/SYMBOLIC.md): search
// workers run the shared expansion step over a LIFO queue, handing every
// discover transition to a pool of solver workers instead of executing
// it; solver workers run (or recall) the symbolic execution and feed the
// post-discover state back. What is private to the loop is what differs
// from the parallel engine: the two solver queues, kept under the shared
// queue's lock, the feedback rounds that open proactive targets, and the
// symbolic budget.

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

// loopState is what the two pools share beyond the expander, whose
// queue holds the search side's items.
type loopState struct {
	expander

	// Solver work, guarded by the queue's lock and counted in its
	// pending: demand targets gate search progress and are served first
	// (newest first); proactive ones only add coverage (FIFO).
	demandQ    []target
	proactiveQ []target

	seenApps map[canon.Digest]bool // guarded by mu

	feedback  atomic.Int64
	symBudget int64
	seStart   int64
	fbRounds  *telemetry.Counter // sym scope's feedback_rounds
}

// takeTarget pops one solver target. It blocks until one arrives, the
// whole loop drains (nothing pending), or the search stops; ok=false
// means the solver should exit.
func (st *loopState) takeTarget() (target, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		switch {
		case st.s.Stopped():
			return target{}, false
		case len(st.demandQ) > 0:
			return popLast(&st.demandQ), true
		case len(st.proactiveQ) > 0:
			tg := st.proactiveQ[0]
			st.proactiveQ[0] = target{}
			st.proactiveQ = st.proactiveQ[1:]
			return tg, true
		case st.s.Frontier.Load() == 0:
			return target{}, false
		}
		st.cond.Wait()
	}
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
	// red stays nil: EngineOptions.Reduction is accepted and ignored.
	st := &loopState{expander: expander{cfg: cfg, seen: newSeenSet(seenShards)},
		seenApps: make(map[canon.Digest]bool), symBudget: eo.SymBudget}
	st.divert = st.deferDiscover
	st.push = func(sc *scratch, it item) bool {
		st.put(sc, it)
		return true
	}
	s := st.begin(ctx, "concolic", cfg, eo)
	st.seStart = s.Caches().SERuns()
	st.fbRounds = eo.Telemetry.Scope("sym").Counter("feedback_rounds") // nil without a registry

	root := s.NewSystem()
	st.seen.Add(root.Fingerprint())
	s.Admit(0)
	enqueue(&st.queue, &st.items, item{sys: root})

	var wg sync.WaitGroup
	pool := func(n int, work func(*scratch)) {
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer s.Guard()
				work(new(scratch))
			}()
		}
	}
	pool(eo.WorkerCount(), func(sc *scratch) {
		for it, ok := st.take(); ok; it, ok = st.take() {
			st.feedbackTargets(it)
			if !st.expand(sc, it) {
				it.sys.Release()
			}
			st.done()
		}
	})
	pool(eo.SolverPool(), func(sc *scratch) {
		for tg, ok := st.takeTarget(); ok; tg, ok = st.takeTarget() {
			if !st.solve(sc, tg) {
				tg.sys.Release()
			}
			st.done()
		}
	})
	wg.Wait()

	s.Tel().SetShardOccupancy(st.seen.occupancy())
	report := s.End(ctx)
	report.FeedbackRounds = st.feedback.Load()
	return report
}

// deferDiscover is the expansion step's divert hook: a discover transition is
// itself the symbolic job, so it becomes a demand target on a private
// fork (the search side never blocks on symbolic execution). The solver
// worker applies it and feeds the resulting state back into the queue.
func (st *loopState) deferDiscover(it item, t core.Transition) bool {
	if t.Kind != core.THostDiscover && t.Kind != core.TCtrlDiscoverStats {
		return false
	}
	enqueue(&st.queue, &st.demandQ, target{item: item{sys: it.sys.Clone(), path: it.path}, t: t, demand: true})
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
		enqueue(&st.queue, &st.proactiveQ, target{item: item{sys: it.sys.Clone()}, t: t})
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
