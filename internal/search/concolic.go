// The concolic feedback loop (§3, Figure 1; docs/SYMBOLIC.md): search
// workers run the parallel engine's workers and push — each expands a
// new child in place and queues it only while another search worker
// waits — but hand every discover transition to a pool of solver
// workers instead of executing it; solver workers run (or recall) the
// symbolic execution and queue the post-discover state. What is private
// to the loop is what differs from the parallel engine: the two solver
// queues, kept under the shared queue's lock, the feedback rounds that
// open proactive targets, and the symbolic budget.

package search

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
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

	seenHosts map[hostAt]bool // guarded by mu

	feedback  atomic.Int64
	symBudget int64
	// seRuns counts the explorations this loop ran: the memo, and its
	// SERuns, may be shared with other searches.
	seRuns   atomic.Int64
	fbRounds *telemetry.Counter // sym scope's feedback_rounds
}

// hostAt is a host at a location under an application state: the key
// of the discover memo's packet classes, and of the loop's feedback
// rounds.
type hostAt struct {
	app  canon.Digest
	host openflow.HostID
	loc  topo.PortKey
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
	return st.symBudget <= 0 || st.seRuns.Load() < st.symBudget
}

// Search implements core.Engine.
func (loopEngine) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	st := newLoop(ctx, cfg, eo)
	var wg sync.WaitGroup
	st.spawn(&wg, eo.WorkerCount(), st.work)
	st.spawn(&wg, eo.SolverPool(), st.serve)
	wg.Wait()

	st.s.Tel().SetShardOccupancy(st.seen.occupancy())
	report := st.s.End(ctx)
	report.FeedbackRounds = st.feedback.Load()
	return report
}

// newLoop opens the loop's session with the root queued.
func newLoop(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *loopState {
	st := &loopState{expander: expander{seen: newSeenSet(seenShards)},
		seenHosts: make(map[hostAt]bool), symBudget: eo.SymBudget}
	st.enter = st.feedbackTargets
	st.divert = st.deferDiscover
	st.fbRounds = eo.Telemetry.Scope("sym").Counter("feedback_rounds") // nil without a registry
	st.queueRoot(st.start(ctx, "concolic", cfg, eo))
	return st
}

// serve is one solver worker's loop.
func (st *loopState) serve() {
	var sc scratch
	for tg, ok := st.takeTarget(); ok; tg, ok = st.takeTarget() {
		if !st.solve(&sc, tg) {
			tg.sys.Release()
		}
		st.done()
	}
}

// deferDiscover is the expansion step's divert hook: a discover transition is
// itself the symbolic job, so it becomes a demand target on a private
// fork (the search side never blocks on symbolic execution). The solver
// worker applies it and feeds the resulting state back into the queue.
func (st *loopState) deferDiscover(it item, t core.Transition) bool {
	if t.Kind != core.THostDiscover && t.Kind != core.TCtrlDiscoverStats {
		return false
	}
	enqueue(&st.queue, &st.demandQ, target{item: item{sys: it.sys.Clone(), trace: slices.Clone(it.trace)}, t: t, demand: true})
	return true
}

// feedbackTargets is the expansion step's enter hook. It opens a
// feedback round when the node shows a host at an (application state,
// location) pair no round has covered yet — the key the discover memo
// itself holds packet classes under: each such host whose discover
// results are not yet memoized is enqueued as a proactive symbolic
// target, on a private fork, so solver workers never share a System.
// The fork shares it.sys's components, so each counts as an export of
// the worker owning sc.
func (st *loopState) feedbackTargets(sc *scratch, it item) {
	app := it.sys.AppDigest()
	var buf [8]openflow.HostID
	fresh := buf[:0]
	st.mu.Lock()
	for _, id := range it.sys.HostIDs() {
		at := hostAt{app: app, host: id, loc: it.sys.Host(id).Loc}
		if !st.seenHosts[at] {
			st.seenHosts[at] = true
			fresh = append(fresh, id)
		}
	}
	st.mu.Unlock()
	round := false
	for _, id := range fresh {
		t := core.Transition{Kind: core.THostDiscover, Host: id}
		if it.sys.DiscoverCached(t) {
			continue
		}
		if !st.symAllowed() {
			break // proactive coverage is best-effort under a budget
		}
		enqueue(&st.queue, &st.proactiveQ, target{item: item{sys: it.sys.Clone()}, t: t})
		sc.exports++
		round = true
	}
	if round {
		st.feedback.Add(1)
		st.fbRounds.Inc()
	}
}

// solve processes one symbolic target on a solver worker, reporting
// whether tg.sys lives on as the queued post-discover state. A solver
// always queues that state: it never expands in place.
func (st *loopState) solve(sc *scratch, tg target) bool {
	if st.s.Stopped() {
		return false
	}
	// A memoized exploration is free; a fresh one must fit the budget.
	// Another worker filling the memo entry first can only overcount.
	if !tg.sys.DiscoverCached(tg.t) {
		if !st.symAllowed() {
			if tg.demand {
				st.s.Abort(core.StopSymBudget)
			}
			return false
		}
		st.seRuns.Add(1)
		if !tg.demand {
			tg.sys.DiscoverPacketClasses(tg.t.Host)
		}
	}
	if !tg.demand || !st.s.Reserve() {
		return false
	}
	sc.stack = append(sc.stack[:0], tg.trace...)
	if st.apply(sc, tg.sys, len(tg.trace), tg.t) {
		return false
	}
	// The solved classes seed a new search frontier: the post-discover
	// state (the private fork itself) re-enters the queue, where the
	// host's sends (or the stats variants) are now enabled transitions.
	if !st.fresh(tg.sys, len(sc.stack)) {
		return false
	}
	st.put(sc, item{sys: tg.sys, trace: sc.stack})
	return true
}
