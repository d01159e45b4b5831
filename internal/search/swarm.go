package search

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/nice-go/nice/internal/core"
)

// swarmState is the counters and control shared by the swarm workers.
type swarmState struct {
	seen  *seenSet
	viols *collector

	transitions atomic.Int64
	unique      atomic.Int64

	ctl       core.StopControl
	maxTrans  int64
	maxStates int64
	obs       core.Observer
	tel       *core.SearchTelemetry
	sysTel    *core.SystemTelemetry
	heap      core.HeapPeak // sampled only from the snapshot goroutine
}

// runSwarm scales the paper's random-walk mode (§1.3) across the
// worker pool: Walks independent walks of at most Steps transitions,
// distributed round-robin over the workers. Walk i is always driven by
// rand seed Seed+i, so when state identity is schedule-independent
// (symbolic execution off, or discover caches warmed) the set of walks
// — and the violations reachable by any of them — is identical for
// every worker count; only wall-clock time changes. Cold SE-enabled
// walks share the discover caches, whose fill order shifts each walk's
// enabled-transition sets, so their trajectories can vary with
// scheduling. The workers share the striped seen-set (UniqueStates
// counts distinct hashes across the whole swarm) and the violation
// collector, and all stop at the first violation when the config asks.
// Context cancellation and the MaxStates/MaxTransitions budgets abort
// the swarm with a partial, replayable report.
func (e *Engine) runSwarm(ctx context.Context, eo core.EngineOptions) *core.Report {
	workers := e.opts.workers()
	walks := e.opts.walks()
	steps := e.opts.steps()
	start := time.Now()

	st := &swarmState{
		seen:      newSeenSet(seenShards),
		viols:     newCollector(),
		maxTrans:  eo.EffectiveMaxTransitions(e.cfg),
		maxStates: eo.MaxStates,
		obs:       eo.Observer,
		tel:       core.NewSearchTelemetry(eo.Telemetry, "swarm"),
		sysTel:    core.NewSystemTelemetry(eo.Telemetry),
	}
	e.caches.AttachTelemetry(eo.Telemetry)

	unwatch := core.WatchContext(ctx, st.ctl.Abort)
	// Swarm snapshots carry only the counters walks track: no frontier,
	// revisit or truncation accounting exists in this mode.
	st.tel.SearchStart()
	stopProgress := core.StartProgress(eo, st.tel, func() core.Progress {
		return core.Progress{
			Strategy:      "swarm",
			Elapsed:       time.Since(start),
			Transitions:   st.transitions.Load(),
			UniqueStates:  st.unique.Load(),
			SERuns:        e.caches.SERuns(),
			PeakHeapInUse: st.heap.Sample(),
			CacheHitRate:  e.caches.HitRate(),
		}.Rated()
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < walks; i += workers {
				if st.ctl.Stopped() {
					return
				}
				e.walk(e.opts.Seed+int64(i), steps, st)
			}
		}(w)
	}
	wg.Wait()
	unwatch()
	// As in the hybrid engine: a cancellation racing the last walks
	// still wins over "complete".
	if ctx.Err() != nil {
		st.ctl.Abort(core.ContextStopReason(ctx))
	}

	reason := st.ctl.Reason()
	report := &core.Report{
		Transitions:   st.transitions.Load(),
		UniqueStates:  st.unique.Load(),
		SERuns:        e.caches.SERuns(),
		PacketClasses: e.caches.Classes(),
		Violations:    st.viols.violations(),
		Elapsed:       time.Since(start),
		Complete:      !reason.Partial(),
		Strategy:      "swarm",
		StopReason:    reason,
	}
	stopProgress()
	if reason.Partial() {
		st.tel.Budget(reason, report.Transitions)
	}
	if st.tel != nil {
		max, mean := st.seen.occupancy()
		st.tel.SetShardOccupancy(max, mean)
	}
	st.tel.SearchStop(reason, report)
	return report
}

// walk is one seeded random execution from the initial state, the same
// shape as the core.Walks engine's inner loop.
func (e *Engine) walk(seed int64, steps int, st *swarmState) {
	rng := rand.New(rand.NewSource(seed))
	sys := core.NewSystemWith(e.cfg, e.caches)
	sys.SetTelemetry(st.sysTel)
	var trace []core.Transition
	events := getEventBuf()
	defer func() { putEventBuf(events) }()
	for step := 0; step < steps; step++ {
		if st.ctl.Stopped() {
			return
		}
		if st.seen.Add(sys.Fingerprint()) {
			if n := st.unique.Add(1); st.maxStates > 0 && n >= st.maxStates {
				st.ctl.Abort(core.StopMaxStates)
			}
			st.tel.ObserveDepth(len(trace))
		}
		enabled := sys.Enabled()
		if len(enabled) == 0 {
			for _, f := range sys.CheckQuiescence() {
				e.recordSwarm(core.Violation{Property: f.Property, Err: f.Err,
					Trace: cloneTrace(trace), Quiescence: true}, st)
			}
			return
		}
		t := enabled[rng.Intn(len(enabled))]
		// Reserve the budget slot before applying, as in the hybrid
		// engine, so the bound is exact under worker races.
		if !core.ReserveTransition(&st.transitions, st.maxTrans) {
			st.ctl.Abort(core.StopMaxTransitions)
			return
		}
		events = sys.ApplyInto(t, events)
		trace = append(trace, t)
		violated := false
		for _, f := range sys.CheckEvents(events) {
			e.recordSwarm(core.Violation{Property: f.Property, Err: f.Err,
				Trace: cloneTrace(trace)}, st)
			violated = true
		}
		if violated {
			return
		}
	}
}

func (e *Engine) recordSwarm(v core.Violation, st *swarmState) {
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

func cloneTrace(trace []core.Transition) []core.Transition {
	return append([]core.Transition(nil), trace...)
}
