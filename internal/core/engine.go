package core

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/telemetry"
)

// StopReason explains why a search ended before exhausting the state
// space. The empty reason means the search ran to completion.
type StopReason string

const (
	// StopNone: the search exhausted the (bounded) state space.
	StopNone StopReason = ""
	// StopViolation: StopAtFirstViolation ended the search. The report
	// still counts as complete — the search achieved its purpose.
	StopViolation StopReason = "violation"
	// StopMaxTransitions: the transition budget ran out.
	StopMaxTransitions StopReason = "max-transitions"
	// StopMaxStates: the unique-state budget ran out.
	StopMaxStates StopReason = "max-states"
	// StopDeadline: the context's deadline expired.
	StopDeadline StopReason = "deadline"
	// StopCanceled: the context was canceled.
	StopCanceled StopReason = "canceled"
	// StopSymBudget: the symbolic-execution budget ran out — a state
	// needed a discover transition the concolic loop was no longer
	// allowed to solve (EngineOptions.SymBudget).
	StopSymBudget StopReason = "sym-budget"
)

// Partial reports whether the reason marks a budget- or
// cancellation-aborted search (a partial, but still replayable, report).
func (r StopReason) Partial() bool {
	switch r {
	case StopMaxTransitions, StopMaxStates, StopDeadline, StopCanceled, StopSymBudget:
		return true
	}
	return false
}

// ContextStopReason maps a done context to its stop reason: StopDeadline
// when the deadline expired, StopCanceled otherwise.
func ContextStopReason(ctx context.Context) StopReason {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCanceled
}

// Progress is one periodic snapshot of a running search, delivered to
// an Observer while the engine works.
type Progress struct {
	// Strategy names the engine ("dfs", "parallel", "walks", "swarm").
	Strategy string
	// Elapsed is wall-clock time since the search started.
	Elapsed time.Duration
	// Transitions, UniqueStates, Revisits, Truncated and SERuns mirror
	// the Report counters at snapshot time.
	Transitions  int64
	UniqueStates int64
	Revisits     int64
	Truncated    int64
	SERuns       int64
	// Frontier is the number of discovered-but-unexpanded states
	// (parallel engine). The sequential DFS reports its recursion
	// depth here; walk engines report 0.
	Frontier int64
	// Depth is the trace length being explored when the snapshot was
	// taken (parallel: the deepest state pushed so far).
	Depth int
	// StatesPerSec is UniqueStates/Elapsed.
	StatesPerSec float64
	// PeakHeapInUse is the peak in-use heap observed at snapshot times
	// since the search started (process-wide bytes from
	// runtime.MemStats — concurrent searches share the envelope).
	PeakHeapInUse uint64
	// CacheHitRate is the discover-cache lookup hit fraction so far.
	// The counters live in the telemetry registry, so it stays 0 unless
	// one is attached (EngineOptions.Telemetry).
	CacheHitRate float64
	// Final marks the last snapshot of a run, emitted as the engine
	// returns, so observers always see the closing totals.
	Final bool
}

// Observer receives streaming search results: each violation as it is
// found (already deduplicated by property + error) and periodic
// Progress snapshots. Parallel engines call OnViolation from worker
// goroutines and OnProgress from a ticker goroutine, so implementations
// must be safe for concurrent use; callbacks should return promptly —
// the hot path does not buffer.
type Observer interface {
	OnViolation(v Violation)
	OnProgress(p Progress)
}

// ObserverFuncs adapts plain functions to the Observer interface; nil
// fields are no-ops.
type ObserverFuncs struct {
	Violation func(Violation)
	Progress  func(Progress)
}

func (o ObserverFuncs) OnViolation(v Violation) {
	if o.Violation != nil {
		o.Violation(v)
	}
}

func (o ObserverFuncs) OnProgress(p Progress) {
	if o.Progress != nil {
		o.Progress(p)
	}
}

// EngineOptions carries the runtime knobs every engine honors: budgets,
// the streaming observer, worker/walk sizing, and an optional shared
// discover-cache set. The zero value means "no budgets, no observer,
// engine defaults".
type EngineOptions struct {
	// MaxStates aborts the search once this many unique states have
	// been reached (0 = unlimited).
	MaxStates int64
	// MaxTransitions aborts the search after this many executed
	// transitions (0 = unlimited). When Config.MaxTransitions is also
	// set, the smaller budget wins.
	MaxTransitions int64
	// Workers sizes parallel engines (0 = all CPUs, 1 = sequential).
	Workers int
	// Seed drives walk engines (walk i of a swarm uses Seed+i).
	Seed int64
	// Walks is the number of random walks (0 = 64).
	Walks int
	// Steps bounds transitions per walk (0 = 100).
	Steps int
	// Observer streams violations-as-found and progress snapshots
	// (nil = no streaming; the engines skip all observer work).
	Observer Observer
	// ProgressEvery is the snapshot interval (0 = 500ms). Only
	// meaningful with an Observer.
	ProgressEvery time.Duration
	// Caches shares a discover-cache set across runs (nil = fresh).
	Caches *Caches
	// Telemetry is the optional metrics registry the engines instrument
	// into (internal/telemetry): per-engine counters, gauges, depth
	// histograms and trace events. Nil — the default — disables every
	// instrumentation site behind a single nil check.
	Telemetry *telemetry.Registry
	// Reduction selects an interleaving-reduction layer (dpor.go).
	// ReductionNone — the default — explores every enabled transition.
	// ReductionDPOR enables sleep-set/persistent-set pruning in the
	// systematic engines; walk engines ignore it (a random walk explores
	// one interleaving, there is nothing to prune).
	Reduction Reduction
	// SymBudget bounds the concolic loop's symbolic-execution runs
	// (discover explorations); 0 = unlimited. When the budget runs out
	// while a state still demands discovery, the search aborts with
	// StopSymBudget. Engines other than the concolic loop ignore it.
	SymBudget int64
	// SymWorkers sizes the concolic loop's solver-worker pool (0 = 2).
	// Engines other than the concolic loop ignore it.
	SymWorkers int
}

// SolverPool is the effective concolic solver-worker count.
func (o EngineOptions) SolverPool() int {
	if o.SymWorkers <= 0 {
		return 2
	}
	return o.SymWorkers
}

// ProgressInterval is the effective snapshot interval.
func (o EngineOptions) ProgressInterval() time.Duration {
	if o.ProgressEvery <= 0 {
		return 500 * time.Millisecond
	}
	return o.ProgressEvery
}

// WalkCount is the effective number of walks.
func (o EngineOptions) WalkCount() int {
	if o.Walks <= 0 {
		return 64
	}
	return o.Walks
}

// StepBound is the effective per-walk step bound.
func (o EngineOptions) StepBound() int {
	if o.Steps <= 0 {
		return 100
	}
	return o.Steps
}

// EffectiveMaxTransitions merges the config-level and option-level
// transition budgets: the smaller nonzero bound wins.
func (o EngineOptions) EffectiveMaxTransitions(cfg *Config) int64 {
	budget := cfg.MaxTransitions
	if o.MaxTransitions > 0 && (budget == 0 || o.MaxTransitions < budget) {
		budget = o.MaxTransitions
	}
	return budget
}

// CacheSet returns the shared cache set, or a fresh one.
func (o EngineOptions) CacheSet() *Caches {
	if o.Caches != nil {
		return o.Caches
	}
	return NewCaches()
}

// Engine is a pluggable search strategy: one way of exploring a
// Config's transition graph. The sequential DFS checker, the parallel
// work-stealing engine, the legacy random-walk mode and the seeded
// swarm all implement it, so every front end — CLI, benchmarks, tests,
// servers — drives searches through the same entry point (nice.Run).
//
// Engines honor context cancellation and the EngineOptions budgets, and
// always return a partial-but-replayable Report on abort: every
// violation trace recorded so far still reproduces deterministically
// from the initial state.
type Engine interface {
	// Name is the engine's stable identifier, recorded in
	// Report.Strategy and Progress.Strategy.
	Name() string
	// Search explores cfg under the given options.
	Search(ctx context.Context, cfg *Config, opts EngineOptions) *Report
}

// DFS returns the sequential depth-first reference engine — the
// paper's default full search (Figure 5), and the oracle the parallel
// engines are differentially tested against.
func DFS() Engine { return dfsEngine{} }

type dfsEngine struct{}

func (dfsEngine) Name() string { return "dfs" }

func (dfsEngine) Search(ctx context.Context, cfg *Config, opts EngineOptions) *Report {
	return NewCheckerWith(cfg, opts.CacheSet()).RunContext(ctx, opts)
}

// Walks returns the legacy random-walk engine (§1.3's "random walks on
// system states"): sequential seeded walks drawn from one rand stream.
func Walks() Engine { return walkEngine{} }

type walkEngine struct{}

func (walkEngine) Name() string { return "walks" }

func (walkEngine) Search(ctx context.Context, cfg *Config, opts EngineOptions) *Report {
	rng := rand.New(rand.NewSource(opts.Seed))
	cc := opts.CacheSet()
	start := time.Now()
	report := &Report{Complete: true, Strategy: "walks"}
	seen := make(map[canon.Digest]bool)
	seenViol := make(map[string]bool)
	maxTrans := opts.EffectiveMaxTransitions(cfg)

	walks := opts.WalkCount()
	steps := opts.StepBound()
	tel := NewSearchTelemetry(opts.Telemetry, "walks")
	cc.AttachTelemetry(opts.Telemetry)
	sysTel := NewSystemTelemetry(opts.Telemetry)
	meter := newProgressMeter(opts, start, tel, cc)

	// stopped ends the whole walk set — the unified stop contract all
	// four engines share (see Report.StopReason): a budget, the context,
	// or StopAtFirstViolation stops every remaining walk, not just the
	// current one, and records why.
	stopped := false
	record := func(v Violation) {
		key := v.Property + "|" + v.Err.Error()
		if !seenViol[key] {
			seenViol[key] = true
			report.Violations = append(report.Violations, v)
			tel.Violation(v.Property)
			if opts.Observer != nil {
				opts.Observer.OnViolation(v)
			}
		}
		if cfg.StopAtFirstViolation {
			if report.StopReason == StopNone {
				report.StopReason = StopViolation
			}
			stopped = true // Complete stays true: the search did its job.
		}
	}
	abort := func(r StopReason) {
		if report.StopReason == StopNone {
			report.StopReason = r
			tel.Budget(r, report.Transitions)
		}
		if r.Partial() {
			report.Complete = false
		}
		stopped = true
	}

	tel.SearchStart()
walking:
	for w := 0; w < walks; w++ {
		if stopped {
			break
		}
		sys := newSystem(cfg, cc)
		sys.SetTelemetry(sysTel)
		var trace []Transition
		for step := 0; step < steps; step++ {
			if maxTrans > 0 && report.Transitions >= maxTrans {
				abort(StopMaxTransitions)
				break walking
			}
			if opts.MaxStates > 0 && report.UniqueStates >= opts.MaxStates {
				abort(StopMaxStates)
				break walking
			}
			select {
			case <-ctx.Done():
				abort(ContextStopReason(ctx))
				break walking
			default:
			}
			h := sys.Fingerprint()
			if !seen[h] {
				seen[h] = true
				report.UniqueStates++
				tel.ObserveDepth(len(trace))
			}
			enabled := sys.Enabled()
			if len(enabled) == 0 {
				for _, f := range sys.CheckQuiescence() {
					record(Violation{Property: f.Property, Err: f.Err,
						Trace: cloneTrace(trace), Quiescence: true})
				}
				break
			}
			t := enabled[rng.Intn(len(enabled))]
			events := sys.Apply(t)
			report.Transitions++
			trace = append(trace, t)
			violated := false
			for _, f := range sys.CheckEvents(events) {
				record(Violation{Property: f.Property, Err: f.Err, Trace: cloneTrace(trace)})
				violated = true
			}
			if violated {
				break
			}
			meter.maybe(func() Progress {
				return walkProgress(report, cc, start, len(trace))
			})
		}
	}
	// A cancellation racing the last steps still wins over "complete";
	// an earlier stop (first-violation, budgets) keeps its reason.
	if !stopped && ctx.Err() != nil {
		abort(ContextStopReason(ctx))
	}
	report.SERuns = cc.SERuns()
	report.PacketClasses = cc.Classes()
	report.Elapsed = time.Since(start)
	// Final snapshot before SearchStop, so the trace stream ends on the
	// search-stop event.
	meter.final(walkProgress(report, cc, start, 0))
	tel.SearchStop(report.StopReason, report)
	return report
}

func walkProgress(r *Report, cc *Caches, start time.Time, depth int) Progress {
	return snapshotProgress("walks", start, r.Transitions, r.UniqueStates,
		0, 0, cc.SERuns(), 0, depth)
}

// Rated returns a copy of p with StatesPerSec derived from Elapsed and
// UniqueStates — the one place the rate is computed, shared by every
// engine's snapshot assembly.
func (p Progress) Rated() Progress {
	if secs := p.Elapsed.Seconds(); secs > 0 {
		p.StatesPerSec = float64(p.UniqueStates) / secs
	}
	return p
}

// snapshotProgress assembles one Progress value from raw counters.
func snapshotProgress(strategy string, start time.Time,
	transitions, unique, revisits, truncated, seRuns, frontier int64, depth int) Progress {
	return Progress{
		Strategy: strategy, Elapsed: time.Since(start),
		Transitions: transitions, UniqueStates: unique,
		Revisits: revisits, Truncated: truncated, SERuns: seRuns,
		Frontier: frontier, Depth: depth,
	}.Rated()
}

// progressMeter rations progress snapshots on sequential hot paths:
// maybe() is called once per transition but only consults the clock
// every interval-check stride, and only emits when the interval has
// elapsed. Emission feeds both the Observer and the telemetry registry;
// with neither attached the meter compiles to two cheap branches.
type progressMeter struct {
	obs      Observer
	tel      *SearchTelemetry
	caches   *Caches
	heap     HeapPeak
	interval time.Duration
	next     time.Time
	calls    uint64
}

func newProgressMeter(opts EngineOptions, start time.Time,
	tel *SearchTelemetry, cc *Caches) *progressMeter {
	m := &progressMeter{obs: opts.Observer, tel: tel, caches: cc}
	if m.active() {
		m.interval = opts.ProgressInterval()
		m.next = start.Add(m.interval)
	}
	return m
}

func (m *progressMeter) active() bool { return m.obs != nil || m.tel != nil }

// emit enriches a snapshot with the sampled heap peak and discover-cache
// hit rate, syncs it into the registry, and forwards it to the Observer.
func (m *progressMeter) emit(p Progress, final bool) {
	p.PeakHeapInUse = m.heap.Sample()
	p.CacheHitRate = m.caches.HitRate()
	p.Final = final
	m.tel.SyncProgress(p)
	if m.obs != nil {
		m.obs.OnProgress(p)
	}
}

// maybe emits a snapshot when the interval has elapsed; build is only
// invoked when a snapshot is due.
func (m *progressMeter) maybe(build func() Progress) {
	if !m.active() {
		return
	}
	m.calls++
	if m.calls&63 != 0 { // consult the clock every 64 transitions
		return
	}
	if now := time.Now(); now.After(m.next) {
		m.next = now.Add(m.interval)
		m.emit(build(), false)
	}
}

// final emits the closing snapshot.
func (m *progressMeter) final(p Progress) {
	if !m.active() {
		return
	}
	m.emit(p, true)
}
