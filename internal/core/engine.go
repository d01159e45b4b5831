package core

import (
	"context"
	"runtime"
	"time"

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
	// StopDrawdown: the search never started — the budget pool it
	// shares (a Drawdown) was already exhausted.
	StopDrawdown StopReason = "drawdown"
)

// Partial reports whether the reason marks a budget- or
// cancellation-aborted search (a partial, but still replayable, report).
func (r StopReason) Partial() bool {
	switch r {
	case StopMaxTransitions, StopMaxStates, StopDeadline, StopCanceled, StopSymBudget, StopDrawdown:
		return true
	}
	return false
}

// Progress is one periodic snapshot of a running search, delivered to
// an Observer while the engine works. Every engine's snapshots come
// from the same place (Session.emit), so the fields mean the same thing
// whichever engine runs.
type Progress struct {
	// Strategy names the engine ("dfs", "parallel", "walks", "swarm",
	// "concolic").
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
	// Frontier is the pending work: states handed off between workers
	// and not yet fully expanded (parallel, whose workers expand the
	// rest in place), or queued states plus symbolic targets
	// (concolic). Engines without a frontier — the DFS's is its call
	// stack, walks have none — report 0.
	Frontier int64
	// Depth is the trace length of the deepest state reached so far.
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
	// Final marks the last snapshot of a run: exactly one per search,
	// delivered after every other Observer call, carrying the Report's
	// closing totals.
	Final bool
}

// Observer receives streaming search results: each violation as it is
// found (already deduplicated by property + error) and periodic
// Progress snapshots. OnViolation runs on whichever goroutine found the
// violation and OnProgress on a timer goroutine — under every engine,
// the sequential DFS included — so implementations must be safe for
// concurrent use; callbacks should return promptly — the hot path does
// not buffer.
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
	// transitions (0 = unlimited).
	MaxTransitions int64
	// Workers sizes parallel engines (0 = all CPUs, 1 = sequential).
	Workers int
	// Seed drives the walk engines (walk i uses Seed+i).
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
	// ReductionDPOR runs the sequential DFS as the persistent-set DPOR
	// DFS (RunDPOR); every other engine ignores it, and Job.InferEngine
	// sends a full search that asks for it to the DFS whatever its pool
	// size.
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

// WorkerCount is the effective search-pool size.
func (o EngineOptions) WorkerCount() int {
	if o.Workers <= 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// SolverPool is the effective concolic solver-worker count.
func (o EngineOptions) SolverPool() int {
	if o.SymWorkers <= 0 {
		return 2
	}
	return o.SymWorkers
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

// Engine is a pluggable search strategy: one way of exploring a
// Config's transition graph. The sequential DFS checker, the parallel
// engine, random walks, the seeded swarm and the concolic loop all
// implement it, so every front end — CLI, benchmarks, tests, servers —
// drives searches through the same entry point (nice.Run).
// Each is a loop between Begin and Session.End; the Session supplies
// everything the five have in common.
//
// Engines honor context cancellation and the EngineOptions budgets, and
// always return a partial-but-replayable Report on abort: every
// violation trace recorded so far still reproduces deterministically
// from the initial state.
type Engine interface {
	// Name is the engine's stable identifier: the name a request
	// selects it by, recorded in Report.Strategy and Progress.Strategy.
	Name() string
	// Search explores cfg under the given options.
	Search(ctx context.Context, cfg *Config, opts EngineOptions) *Report
}
