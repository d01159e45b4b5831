// Package concolic is the fifth search engine: the paper's full
// model-checking × symbolic-execution feedback loop (§3, Figure 1), run
// as one concurrent fixpoint computation instead of symbolic execution
// buried inside individual discover transitions.
//
// Two worker pools share a pair of worklists:
//
//   - search workers pop state-space nodes (a forked core.System plus
//     the replayable path prefix that reached it) and expand them
//     exactly like the parallel engine — every state once, properties
//     on every transition and at quiescence;
//   - solver workers pop symbolic targets: demand targets (a pending
//     discover transition whose packet or stats classes must be solved
//     before the search can continue past that state) and proactive
//     targets (hosts whose packet_in handler has never been explored
//     against a newly reached controller state).
//
// The two directions feed each other until fixpoint or budget: every
// solved packet class re-enters the search as new host-send transitions
// (solver → search), and every novel controller-application state the
// search reaches enqueues fresh symbolic targets for the hosts whose
// handler paths it might change (search → solver; one feedback round
// per novel state, Report.FeedbackRounds). Proactive targets are what
// make the loop discover a strict superset of the eager engines'
// packet classes: eager discovery only runs for hosts that can send at
// the state demanding it, so handler paths reachable only from
// never-sending hosts (a server behind a load balancer, say) are never
// explored eagerly.
//
// Solver results are memoized two ways, both keyed by 128-bit digests
// in the shared core.Caches LRU: whole discover results under the
// (host, location, app-digest) key the eager engines already use, and
// individual solver outcomes under the digest of the finite-domain
// problem (sym.ProblemKey), so overlapping path conditions across
// controller states skip straight to the model.
//
// EngineOptions.SymBudget bounds the loop's discover explorations:
// when it runs out while a state still demands discovery the search
// aborts with core.StopSymBudget (a partial, replayable report);
// proactive targets are simply dropped. SymWorkers sizes the solver
// pool. Reduction is accepted and ignored, like the walk engines: the
// loop's frontier interleaves search and solving, and the sleep-set
// machinery assumes the expansion order of the systematic engines.
package concolic

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/telemetry"
	"github.com/nice-go/nice/openflow"
)

func init() {
	core.RegisterEngine(core.EngineSpec{
		Name:    "concolic",
		Summary: "model-checking × symbolic-execution feedback loop (§3, Fig. 1)",
		New:     Loop,
	})
}

// Loop returns the concolic feedback-loop engine as a core.Engine.
func Loop() core.Engine { return loopEngine{} }

type loopEngine struct{}

// Name implements core.Engine.
func (loopEngine) Name() string { return "concolic" }

// item is one unit of work on either worklist. A search item carries
// only sys+path. A demand item additionally carries the discover
// transition to apply; a proactive item carries the host whose packet
// classes should be explored against sys's controller state.
type item struct {
	sys  *core.System
	path *core.PathNode

	t         core.Transition // demand discover transition
	demand    bool
	host      openflow.HostID // proactive target
	proactive bool
}

// loopState is what the two pools share beyond the Session.
type loopState struct {
	s   *core.Session
	cfg *core.Config
	cc  *core.Caches

	mu      sync.Mutex
	cond    *sync.Cond
	searchQ []item // LIFO: owners keep expanding deep states
	symQ    []item // demand targets at the front, proactive behind
	// pending counts queued + in-flight items. It is the session's
	// Frontier gauge: written under mu, read lock-free by snapshots.
	pending *atomic.Int64

	seen     map[canon.Digest]bool
	seenApps map[canon.Digest]bool

	feedback  atomic.Int64
	symBudget int64
	seStart   int64
	fbRounds  *telemetry.Counter // sym scope's feedback_rounds
}

// enqueueSearch pushes a state-space node.
func (st *loopState) enqueueSearch(it item) {
	st.mu.Lock()
	st.searchQ = append(st.searchQ, it)
	st.pending.Add(1)
	st.cond.Broadcast()
	st.mu.Unlock()
}

// enqueueSym pushes a symbolic target; demand targets jump the queue —
// they gate search progress, proactive ones only add coverage.
func (st *loopState) enqueueSym(it item) {
	st.mu.Lock()
	if it.demand {
		st.symQ = append([]item{it}, st.symQ...)
	} else {
		st.symQ = append(st.symQ, it)
	}
	st.pending.Add(1)
	st.cond.Broadcast()
	st.mu.Unlock()
}

// take pops one work item for a pool (solver workers drain symQ,
// search workers drain searchQ LIFO). It blocks until work of the
// pool's kind arrives, the whole loop drains (pending 0), or the
// search stops; ok=false means the worker should exit.
func (st *loopState) take(solver bool) (item, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		if st.s.Stopped() {
			return item{}, false
		}
		if solver && len(st.symQ) > 0 {
			it := st.symQ[0]
			st.symQ = st.symQ[1:]
			return it, true
		}
		if !solver && len(st.searchQ) > 0 {
			it := st.searchQ[len(st.searchQ)-1]
			st.searchQ = st.searchQ[:len(st.searchQ)-1]
			return it, true
		}
		if st.pending.Load() == 0 {
			return item{}, false
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
	return st.symBudget <= 0 || st.cc.SERuns()-st.seStart < st.symBudget
}

// admit pushes a freshly applied child into the search frontier if its
// state is new, releasing it otherwise. Violating children are pruned
// (recorded by the caller), matching every engine's semantics.
func (st *loopState) admit(child *core.System, parent *core.PathNode, t core.Transition) {
	depth := parent.Depth() + 1
	h := child.Fingerprint()
	st.mu.Lock()
	fresh := !st.seen[h]
	if fresh {
		st.seen[h] = true
	}
	st.mu.Unlock()
	if !fresh {
		st.s.Revisits.Add(1)
		child.Release()
		return
	}
	st.s.Admit(depth)
	st.enqueueSearch(item{sys: child, path: parent.Child(t)})
}

// Search implements core.Engine.
func (loopEngine) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	st := &loopState{
		cfg:       cfg,
		seen:      make(map[canon.Digest]bool),
		seenApps:  make(map[canon.Digest]bool),
		symBudget: eo.SymBudget,
	}
	st.cond = sync.NewCond(&st.mu)
	// Every Abort wakes both pools. The broadcast takes mu, so no Session
	// method that can abort is called with mu held; and the cond exists
	// before Begin because a pre-canceled context aborts in there.
	s := core.Begin(ctx, "concolic", cfg, eo, func() {
		st.mu.Lock()
		st.cond.Broadcast()
		st.mu.Unlock()
	})
	st.s, st.cc, st.pending = s, s.Caches(), &s.Frontier
	st.seStart = st.cc.SERuns()
	if eo.Telemetry != nil {
		st.fbRounds = eo.Telemetry.Scope("sym").Counter("feedback_rounds")
	}

	root := s.NewSystem()
	st.seen[root.Fingerprint()] = true
	s.Admit(0)
	st.enqueueSearch(item{sys: root})

	var wg sync.WaitGroup
	pool := func(n int, solver bool, work func(item)) {
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer s.Guard()
				for {
					it, ok := st.take(solver)
					if !ok {
						return
					}
					work(it)
					st.done()
				}
			}()
		}
	}
	pool(eo.WorkerCount(), false, func(it item) {
		st.expand(it)
		it.sys.Release()
	})
	pool(eo.SolverPool(), true, st.solve)
	wg.Wait()

	report := s.End(ctx)
	report.FeedbackRounds = st.feedback.Load()
	return report
}

// expand processes one state-space node: quiescence properties on dead
// ends, depth truncation, then one clone+apply per enabled transition —
// except discover transitions, which are handed to the solver pool as
// demand targets (the search side never blocks on symbolic execution).
// Before expanding, a novel controller-application state opens one
// feedback round: every host whose packet classes are not yet memoized
// against it becomes a proactive symbolic target.
func (st *loopState) expand(it item) {
	st.feedbackTargets(it)

	enabled := it.sys.EnabledInto(nil)
	if len(enabled) == 0 {
		for _, f := range it.sys.CheckQuiescence() {
			st.s.Record(core.Violation{Property: f.Property, Err: f.Err,
				Trace: it.path.Trace(), Quiescence: true})
		}
		return
	}
	depth := it.path.Depth()
	if depth >= st.cfg.DepthBound() {
		st.s.Truncated.Add(1)
		return
	}

	var events []core.Event
	for _, t := range enabled {
		if st.s.Stopped() {
			return
		}
		if t.Kind == core.THostDiscover || t.Kind == core.TCtrlDiscoverStats {
			// Demand target: the discover transition is itself the
			// symbolic job. The solver worker applies it (running or
			// recalling the exploration) and feeds the resulting state
			// back into this frontier.
			st.enqueueSym(item{sys: it.sys.Clone(), path: it.path, t: t, demand: true})
			continue
		}
		if !st.s.Reserve() {
			return
		}
		child := it.sys.Clone()
		events = child.ApplyInto(t, events)
		violated := false
		for _, f := range child.CheckEvents(events) {
			st.s.Record(core.Violation{Property: f.Property, Err: f.Err,
				Trace: it.path.TraceWith(t)})
			violated = true
		}
		if violated {
			child.Release()
			continue
		}
		st.admit(child, it.path, t)
	}
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
		if it.sys.PacketClassesCached(id) {
			continue
		}
		if !st.symAllowed() {
			break // proactive coverage is best-effort under a budget
		}
		st.enqueueSym(item{sys: it.sys.Clone(), host: id, proactive: true})
		round = true
	}
	if round {
		st.feedback.Add(1)
		if st.fbRounds != nil {
			st.fbRounds.Inc()
		}
	}
}

// solve processes one symbolic target on a solver worker.
func (st *loopState) solve(it item) {
	defer it.sys.Release()
	if st.s.Stopped() {
		return
	}
	if it.proactive {
		if st.symAllowed() {
			it.sys.DiscoverPacketClasses(it.host)
		}
		return
	}
	// Demand target: the exploration may already be memoized (another
	// worker got there first) — then applying is free; otherwise the
	// budget must cover a fresh discover run.
	if !st.symAllowed() && !discoverCached(it.sys, it.t) {
		st.s.Abort(core.StopSymBudget)
		return
	}
	if !st.s.Reserve() {
		return
	}
	events := it.sys.ApplyInto(it.t, nil)
	violated := false
	for _, f := range it.sys.CheckEvents(events) {
		st.s.Record(core.Violation{Property: f.Property, Err: f.Err,
			Trace: it.path.TraceWith(it.t)})
		violated = true
	}
	if violated {
		return
	}
	// The solved classes seed a new search frontier: the post-discover
	// state re-enters the worklist, where the host's sends (or the
	// stats variants) are now enabled transitions.
	child := it.sys.Clone()
	st.admit(child, it.path, it.t)
}

// discoverCached reports whether a demand discover transition would be
// answered from the memo (no fresh exploration needed).
func discoverCached(sys *core.System, t core.Transition) bool {
	if t.Kind == core.THostDiscover {
		return sys.PacketClassesCached(t.Host)
	}
	return sys.StatsClassesCached(t.Sw)
}
