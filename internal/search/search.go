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
//   - pluggable strategies: the default BFS/DFS hybrid (owners pop
//     depth-first, thieves steal breadth-first) and seeded random-walk
//     swarms (swarm.go),
//   - a merged, deterministic Report: violations deduplicated by
//     property + error and by trace fingerprint, shortest trace wins
//     (report.go).
//
// Both strategies implement core.Engine (Parallel, SwarmEngine), honor
// context cancellation and the core.EngineOptions budgets, and stream
// violations-as-found plus periodic progress to a core.Observer.
//
// Workers=1 delegates to the sequential core.Checker, which stays the
// reference oracle; search_test.go asserts differential parity between
// the two on the paper's scenarios.
package search

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nice-go/nice/internal/core"
)

// Strategy selects how the worker pool explores.
type Strategy int

const (
	// Hybrid is the exhaustive parallel search: per-worker depth-first
	// expansion over a work-stealing frontier whose steals are
	// breadth-first. It visits exactly the states the sequential
	// checker visits whenever state identity is schedule-independent —
	// symbolic execution off, or discover caches warmed. On cold
	// SE-enabled runs the counts can differ slightly (cache presence
	// is part of the state hash and fills in schedule order); the
	// violated-property set matches regardless.
	Hybrid Strategy = iota
	// Swarm runs seeded random walks in parallel (the paper's random
	// walk mode, §1.3, scaled out). Walk i always uses seed Seed+i, so
	// the walk set does not depend on the worker count when state
	// identity is schedule-independent (SE off, or warm caches); cold
	// SE-enabled walks share discover-cache fills, so trajectories may
	// shift with scheduling.
	Swarm
)

func (s Strategy) String() string {
	if s == Swarm {
		return "swarm"
	}
	return "parallel"
}

// Options tunes a parallel search.
type Options struct {
	// Workers is the pool size; 0 means runtime.NumCPU(). 1 delegates
	// the Hybrid strategy to the sequential core.Checker.
	Workers int
	// Strategy picks Hybrid (default) or Swarm.
	Strategy Strategy
	// Seed is the Swarm base seed (walk i uses Seed+i).
	Seed int64
	// Walks is the total number of Swarm walks (0 = 64).
	Walks int
	// Steps bounds transitions per Swarm walk (0 = 100).
	Steps int
}

// seenShards is the seen-set stripe count.
const seenShards = 256

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

func (o Options) walks() int {
	if o.Walks <= 0 {
		return 64
	}
	return o.Walks
}

func (o Options) steps() int {
	if o.Steps <= 0 {
		return 100
	}
	return o.Steps
}

// Engine is one parallel search over a Config.
type Engine struct {
	cfg    *core.Config
	opts   Options
	caches *core.Caches
}

// New prepares a parallel search with fresh discover caches.
func New(cfg *core.Config, opts Options) *Engine {
	return NewWith(cfg, opts, core.NewCaches())
}

// NewWith prepares a parallel search against a caller-supplied cache
// set — shared with a prior run to start warm, or with the sequential
// checker for differential testing.
func NewWith(cfg *core.Config, opts Options, cc *core.Caches) *Engine {
	return &Engine{cfg: cfg, opts: opts, caches: cc}
}

// Run executes the search and returns the merged report.
func (e *Engine) Run() *core.Report {
	return e.RunContext(context.Background(), core.EngineOptions{})
}

// RunContext executes the search with runtime controls: context
// cancellation, the core.EngineOptions budgets (MaxStates and
// MaxTransitions; option-level budgets merge with the Config's, smaller
// nonzero bound wins), and streaming to the options' Observer. Worker
// and walk sizing come from the engine's own Options; the
// EngineOptions' Workers/Seed/Walks/Steps fields are ignored here (the
// core.Engine adapters map them into Options at construction).
//
// On abort the merged report is partial but replayable: every recorded
// trace reproduces deterministically from the initial state.
func (e *Engine) RunContext(ctx context.Context, eo core.EngineOptions) *core.Report {
	if e.opts.Strategy == Swarm {
		return e.runSwarm(ctx, eo)
	}
	if e.opts.workers() == 1 {
		// The delegated report keeps Strategy "dfs": the sequential
		// checker really ran, and its Progress snapshots say so — the
		// report and the stream must agree.
		return core.NewCheckerWith(e.cfg, e.caches).RunContext(ctx, eo)
	}
	return e.runHybrid(ctx, eo)
}

func init() {
	core.RegisterEngine(core.EngineSpec{
		Name:    "parallel",
		Summary: "work-stealing parallel full search (owners DFS, thieves BFS)",
		New:     Parallel,
	})
	core.RegisterEngine(core.EngineSpec{
		Name:    "swarm",
		Summary: "parallel seeded random-walk swarm",
		New:     SwarmEngine,
	})
}

// Parallel returns the work-stealing Hybrid engine as a core.Engine:
// worker count from EngineOptions.Workers (0 = all CPUs; 1 delegates to
// the sequential checker).
func Parallel() core.Engine { return parallelEngine{} }

type parallelEngine struct{}

func (parallelEngine) Name() string { return "parallel" }

func (parallelEngine) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	e := NewWith(cfg, Options{Workers: eo.Workers}, eo.CacheSet())
	return e.RunContext(ctx, eo)
}

// SwarmEngine returns the parallel seeded-swarm strategy as a
// core.Engine: EngineOptions' Seed/Walks/Steps size the swarm and
// Workers sizes the pool.
func SwarmEngine() core.Engine { return swarmEngine{} }

type swarmEngine struct{}

func (swarmEngine) Name() string { return "swarm" }

func (swarmEngine) Search(ctx context.Context, cfg *core.Config, eo core.EngineOptions) *core.Report {
	e := NewWith(cfg, Options{
		Strategy: Swarm, Workers: eo.Workers,
		Seed: eo.Seed, Walks: eo.Walks, Steps: eo.Steps,
	}, eo.CacheSet())
	return e.RunContext(ctx, eo)
}

// hybridState is the counters and control shared by the Hybrid workers.
type hybridState struct {
	seen     *seenSet
	frontier *frontier
	viols    *collector

	transitions atomic.Int64
	unique      atomic.Int64
	revisits    atomic.Int64
	truncated   atomic.Int64
	maxDepth    atomic.Int64 // deepest pushed trace (observer runs only)

	ctl       core.StopControl
	maxTrans  int64 // merged transition budget (0 = unlimited)
	maxStates int64
	obs       core.Observer
	tel       *core.SearchTelemetry
	heap      core.HeapPeak // sampled only from the snapshot goroutine

	// red is non-nil when the search runs with sleep-set reduction
	// (EngineOptions.Reduction); dporTel feeds the shared dpor scope.
	red     *core.SleepReducer
	dporTel *core.DporTelemetry
}

func (e *Engine) runHybrid(ctx context.Context, eo core.EngineOptions) *core.Report {
	workers := e.opts.workers()
	start := time.Now()

	st := &hybridState{
		seen:      newSeenSet(seenShards),
		viols:     newCollector(),
		maxTrans:  eo.EffectiveMaxTransitions(e.cfg),
		maxStates: eo.MaxStates,
		obs:       eo.Observer,
		tel:       core.NewSearchTelemetry(eo.Telemetry, "parallel"),
	}
	st.frontier = newFrontier(workers, &st.ctl)
	e.caches.AttachTelemetry(eo.Telemetry)

	root := core.NewSystemWith(e.cfg, e.caches)
	root.SetTelemetry(core.NewSystemTelemetry(eo.Telemetry))
	if eo.Reduction == core.ReductionDPOR {
		st.red = core.NewSleepReducer(root)
		st.dporTel = core.NewDporTelemetry(eo.Telemetry)
	}
	st.seen.Add(root.Fingerprint())
	st.unique.Add(1)
	st.frontier.push(0, item{sys: root})

	unwatch := core.WatchContext(ctx, st.ctl.Abort)
	snap := func() core.Progress {
		return e.snapshot(st, start)
	}
	st.tel.SearchStart()
	stopProgress := core.StartProgress(eo, st.tel, snap)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var sc core.SleepScratch
			for {
				it, ok := st.frontier.get(w)
				if !ok {
					return
				}
				e.expand(w, it, st, &sc)
				// The item is fully expanded: recycle its System's
				// struct and slice backings (components live on in
				// the pushed children that borrowed them).
				it.sys.Release()
				st.frontier.done()
			}
		}(w)
	}
	wg.Wait()
	unwatch()
	// A cancellation racing the frontier drain still wins over
	// "complete" (abort keeps any earlier reason: first one recorded
	// wins), so mid-run cancels always yield a canceled report.
	if ctx.Err() != nil {
		st.ctl.Abort(core.ContextStopReason(ctx))
	}

	reason := st.ctl.Reason()
	report := &core.Report{
		Transitions:   st.transitions.Load(),
		UniqueStates:  st.unique.Load(),
		Revisits:      st.revisits.Load(),
		Truncated:     st.truncated.Load(),
		SERuns:        e.caches.SERuns(),
		PacketClasses: e.caches.Classes(),
		Violations:    st.viols.violations(),
		Elapsed:       time.Since(start),
		Complete:      !reason.Partial(),
		Strategy:      "parallel",
		StopReason:    reason,
	}
	stopProgress()
	if reason.Partial() {
		st.tel.Budget(reason, report.Transitions)
	}
	st.tel.SyncSteals(st.frontier.steals.Load())
	if st.tel != nil {
		max, mean := st.seen.occupancy()
		st.tel.SetShardOccupancy(max, mean)
	}
	st.tel.SearchStop(reason, report)
	return report
}

func (e *Engine) snapshot(st *hybridState, start time.Time) core.Progress {
	st.tel.SyncSteals(st.frontier.steals.Load())
	return core.Progress{
		Strategy:      "parallel",
		Elapsed:       time.Since(start),
		Transitions:   st.transitions.Load(),
		UniqueStates:  st.unique.Load(),
		Revisits:      st.revisits.Load(),
		Truncated:     st.truncated.Load(),
		SERuns:        e.caches.SERuns(),
		Frontier:      st.frontier.pending.Load(),
		Depth:         int(st.maxDepth.Load()),
		PeakHeapInUse: st.heap.Sample(),
		CacheHitRate:  e.caches.HitRate(),
	}.Rated()
}

// expand processes one frontier item, mirroring the sequential
// checker's per-state work (checker.go dfs): quiescence properties on
// dead ends, depth truncation, then one clone+apply per enabled
// transition with property checks, pushing unseen children. Violating
// transitions are recorded and their subtrees pruned, exactly as the
// paper's checker "saves the error and trace and does not explore past
// a violating state".
//
// Under sleep-set reduction (st.red non-nil) the loop additionally
// skips transitions the item's sleep set covers, hands each child the
// sleep set it is owed (incoming entries plus executed siblings,
// filtered by independence), and routes revisits through the seen-set's
// sleep signatures: a revisit under a smaller sleep set re-expands
// exactly the keys that slipped awake. Sleep sets prune transition
// executions only, never states, so UniqueStates matches the unreduced
// search.
func (e *Engine) expand(w int, it item, st *hybridState, sc *core.SleepScratch) {
	if st.ctl.Stopped() {
		return
	}
	enabled := it.sys.EnabledInto(getTransBuf())
	defer putTransBuf(enabled)
	if len(enabled) == 0 {
		for _, f := range it.sys.CheckQuiescence() {
			e.record(core.Violation{Property: f.Property, Err: f.Err,
				Trace: it.path.Trace(), Quiescence: true}, st)
		}
		return
	}
	depth := it.path.Depth()
	if depth >= e.cfg.DepthBound() {
		st.truncated.Add(1)
		return
	}

	var executed []int
	if st.red != nil {
		st.red.Prepare(it.sys, enabled, sc)
	}

	// The per-transition event batch lives only until the property
	// checks below, so one pooled buffer serves the whole expansion —
	// the hot-loop allocation COW forking exposes as the next
	// bottleneck.
	events := getEventBuf()
	// Deferred via closure: ApplyInto may grow the buffer, and the
	// grown backing is the one worth pooling.
	defer func() { putEventBuf(events) }()

	for i, t := range enabled {
		if st.ctl.Stopped() {
			return
		}
		if st.red != nil {
			if it.wake != nil && !keyIn64(it.wake, sc.Key(i)) {
				// Covered by this state's previous, larger expansion.
				st.dporTel.Pruned(1)
				continue
			}
			if sc.Asleep(it.sleep, i) {
				st.dporTel.SleepHit()
				continue
			}
		}
		// Reserve the budget slot before applying, so the bound is
		// exact even when workers race on the last transitions.
		if !core.ReserveTransition(&st.transitions, st.maxTrans) {
			st.ctl.Abort(core.StopMaxTransitions)
			return
		}
		child := it.sys.Clone()
		events = child.ApplyInto(t, events)

		violated := false
		for _, f := range child.CheckEvents(events) {
			e.record(core.Violation{Property: f.Property, Err: f.Err,
				Trace: it.path.TraceWith(t)}, st)
			violated = true
		}
		var childSleep []core.SleepEntry
		if st.red != nil {
			if !violated {
				childSleep = sc.ChildSleep(it.sleep, executed, i)
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
				if n := st.unique.Add(1); st.maxStates > 0 && n >= st.maxStates {
					st.ctl.Abort(core.StopMaxStates)
				}
				st.tel.ObserveDepth(depth + 1)
				if st.obs != nil || st.tel != nil {
					core.AtomicMax(&st.maxDepth, int64(depth+1))
				}
				st.frontier.push(w, item{sys: child, sleep: childSleep, path: it.path.Child(t)})
			case wake != nil:
				st.revisits.Add(1)
				st.dporTel.Reexpansion()
				st.frontier.push(w, item{sys: child, sleep: childSleep, wake: wake,
					path: it.path.Child(t)})
			default:
				st.revisits.Add(1)
				child.Release()
			}
			continue
		}
		if st.seen.Add(child.Fingerprint()) {
			if n := st.unique.Add(1); st.maxStates > 0 && n >= st.maxStates {
				st.ctl.Abort(core.StopMaxStates)
			}
			st.tel.ObserveDepth(depth + 1)
			if st.obs != nil || st.tel != nil {
				core.AtomicMax(&st.maxDepth, int64(depth+1))
			}
			st.frontier.push(w, item{sys: child, path: it.path.Child(t)})
		} else {
			st.revisits.Add(1)
			child.Release()
		}
	}
}

func (e *Engine) record(v core.Violation, st *hybridState) {
	if st.viols.add(v) {
		st.tel.Violation(v.Property)
		if st.obs != nil {
			st.obs.OnViolation(v)
		}
	}
	if e.cfg.StopAtFirstViolation {
		st.ctl.Abort(core.StopViolation)
	}
}
