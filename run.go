package nice

import (
	"context"
	"time"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/internal/search"
)

// Streaming and engine plumbing (internal/core), re-exported so Run's
// options can be used without importing internal packages.
type (
	// Engine is a pluggable search strategy: the sequential DFS
	// checker, the parallel engine, random walks, the
	// seeded swarm and the concolic loop all implement it. Run drives
	// whichever is selected.
	Engine = core.Engine
	// Observer receives streaming search results: violations as they
	// are found and periodic Progress snapshots. Every engine delivers
	// progress from a timer goroutine, and the parallel ones
	// violations from their workers; implementations must be safe for
	// concurrent use.
	Observer = core.Observer
	// ObserverFuncs adapts plain functions to Observer.
	ObserverFuncs = core.ObserverFuncs
	// Progress is one periodic snapshot of a running search.
	Progress = core.Progress
	// StopReason explains why a search ended early.
	StopReason = core.StopReason
	// Caches is the shared discover-cache set (symbolic-execution
	// results); share one across Runs to start warm.
	Caches = core.Caches
	// Reduction selects an interleaving-reduction layer for the search
	// (see WithReduction).
	Reduction = core.Reduction
)

// Reduction layers for WithReduction.
const (
	// NoReduction explores every enabled transition at every state —
	// the paper's semantics, and the default.
	NoReduction = core.ReductionNone
	// DPOR enables dynamic partial-order reduction over the transition
	// dependence relation: the sequential persistent-set DPOR DFS, sleep
	// sets plus Flanagan–Godefroid backtrack sets. A full search under
	// DPOR runs it whatever the pool size; no other engine reduces.
	// Sound for the violated-property set; prunes states and transitions
	// the explored interleavings already cover.
	DPOR = core.ReductionDPOR
)

// Stop reasons recorded in Report.StopReason.
const (
	StopNone           = core.StopNone
	StopViolation      = core.StopViolation
	StopMaxTransitions = core.StopMaxTransitions
	StopMaxStates      = core.StopMaxStates
	StopDeadline       = core.StopDeadline
	StopCanceled       = core.StopCanceled
	StopSymBudget      = core.StopSymBudget
	StopDrawdown       = core.StopDrawdown
)

// The engine and reduction tables, for listing what a request may name
// (a JobRequest resolves the names itself).
var (
	// EngineSpecs lists the five engines, sorted by name.
	EngineSpecs = search.Engines
	// ReductionSpecs lists the reduction layers by name.
	ReductionSpecs = core.ReductionSpecs
)

// NewCaches builds a fresh discover-cache set for WithCaches.
func NewCaches() *Caches { return core.NewCaches() }

// The five built-in engines.
var (
	// SequentialDFS is the paper's default full depth-first search
	// (Figure 5): the search loop every full search runs, on one
	// goroutine. Run's default engine.
	SequentialDFS = search.DFS
	// ParallelHybrid is the parallel search (internal/search): workers
	// expand depth-first and put a state on the shared queue only
	// while another worker waits for one. WithWorkers sizes the pool.
	ParallelHybrid = search.Parallel
	// RandomWalks is the sequential random-walk mode (§1.3): the
	// swarm's loop on one worker, so walk i uses seed+i here too.
	RandomWalks = search.Walks
	// SeededSwarm is the parallel random-walk swarm: walk i always
	// uses seed+i, so the walk set is worker-count-invariant when
	// state identity is schedule-independent.
	SeededSwarm = search.SwarmEngine
	// ConcolicLoop is the model-checking × symbolic-execution feedback
	// loop (§3, Fig. 1): solver workers turn path conditions into packet
	// classes that seed new search frontiers, and novel controller
	// states enqueue fresh symbolic targets, until fixpoint or budget.
	// It explores the same state graph as the full searches (identical
	// violation sets) plus proactive discovery for hosts eager discovery
	// never reaches — a superset of their packet classes.
	ConcolicLoop = search.Loop
)

// runSettings collects Run's functional options: the search request
// itself plus what the engine inference needs to know was asked for.
type runSettings struct {
	search.Job
	workersSet bool
	walkMode   bool
	symMode    bool
}

// RunOption configures one Run call.
type RunOption func(*runSettings)

// WithEngine selects the search engine explicitly, overriding the
// defaults inferred from the other options.
func WithEngine(e Engine) RunOption {
	return func(s *runSettings) { s.Engine = e }
}

// WithDeadline bounds the search's wall-clock time. The report of a
// search that hits the deadline is partial (Complete false, StopReason
// deadline) but every recorded trace still replays deterministically.
func WithDeadline(d time.Duration) RunOption {
	return func(s *runSettings) { s.Timeout = d }
}

// WithMaxStates aborts the search once n unique states have been
// reached (the sequential engine stops exactly at n; parallel engines
// may overshoot by at most the worker count).
func WithMaxStates(n int64) RunOption {
	return func(s *runSettings) { s.MaxStates = n }
}

// WithMaxTransitions aborts the search after n executed transitions.
func WithMaxTransitions(n int64) RunOption {
	return func(s *runSettings) { s.MaxTransitions = n }
}

// WithWorkers sizes the worker pool (0 = all CPUs) and, unless an
// engine was chosen explicitly, selects the parallel engine — the
// hybrid full search, or the swarm when WithWalks is also present. A
// full search on a pool of one is the SequentialDFS, so WithWorkers(1)
// reproduces the default engine's reports exactly.
func WithWorkers(n int) RunOption {
	return func(s *runSettings) { s.Workers = n; s.workersSet = true }
}

// WithWalks switches Run to random-walk mode: `walks` walks of at most
// `steps` transitions (0 picks the defaults 64 and 100), driven by
// seed. Combined with WithWorkers it selects the parallel SeededSwarm;
// alone it selects the sequential RandomWalks engine.
func WithWalks(seed int64, walks, steps int) RunOption {
	return func(s *runSettings) {
		s.Seed = seed
		s.Walks = walks
		s.Steps = steps
		s.walkMode = true
	}
}

// WithSymBudget bounds the concolic loop's symbolic-execution budget:
// the search aborts with StopSymBudget (a partial, replayable report)
// once it has run n discover explorations itself (not counting those of
// a search sharing its Caches) and a state still demands discovery;
// proactive feedback targets are dropped instead. n <= 0
// means unbounded. Unless an engine was chosen explicitly, it selects
// the ConcolicLoop engine; the eager engines ignore the budget.
func WithSymBudget(n int64) RunOption {
	return func(s *runSettings) { s.SymBudget = n; s.symMode = true }
}

// WithSymWorkers sizes the concolic loop's solver pool (default 2) and,
// unless an engine was chosen explicitly, selects the ConcolicLoop
// engine. Composable with WithWorkers, which sizes the search pool.
func WithSymWorkers(n int) RunOption {
	return func(s *runSettings) { s.SymWorkers = n; s.symMode = true }
}

// WithObserver streams violations-as-found and periodic progress
// snapshots to o while the search runs.
func WithObserver(o Observer) RunOption {
	return func(s *runSettings) { s.Observer = o }
}

// WithProgressEvery sets the Observer's progress-snapshot interval
// (default 500ms).
func WithProgressEvery(d time.Duration) RunOption {
	return func(s *runSettings) { s.ProgressEvery = d }
}

// WithCaches shares a discover-cache set across Runs, so later searches
// start with warm symbolic-execution results (and state identity stays
// schedule-independent across engines — the differential-parity
// setting).
func WithCaches(cc *Caches) RunOption {
	return func(s *runSettings) { s.Caches = cc }
}

// WithReduction selects an interleaving-reduction layer, composable
// with every other option (budgets, observers, caches, telemetry).
// WithReduction(DPOR) prunes interleavings of provably independent
// transitions — packets on disjoint switches, commuting controller
// events — on top of the paper's heuristic strategies, which stay
// available unchanged (they live inside the Config). Only SequentialDFS
// reduces: a full search under DPOR runs it whatever WithWorkers says,
// and an engine WithEngine names — ParallelHybrid, the random walks,
// the ConcolicLoop — runs unreduced. Off by default.
func WithReduction(r Reduction) RunOption {
	return func(s *runSettings) { s.Reduction = r }
}

// WithTelemetry attaches a metrics registry to the search: the engine
// publishes its counters, depth histogram and trace events under its
// scope ("dfs", "parallel", "walks", "swarm", "concolic"), the COW
// layer under "cow", and the discover caches under "cache". A nil registry — or no
// WithTelemetry at all — keeps every instrumentation site on its
// single-branch disabled fast path.
func WithTelemetry(reg *Telemetry) RunOption {
	return func(s *runSettings) { s.Telemetry = reg }
}

// Run is the unified checking entry point: one search over cfg, on a
// pluggable engine, under a context and budgets, optionally streaming
// to an Observer — the paper's single search loop (§1.3, §4) behind
// one composable API.
//
// Unless WithEngine names one, the options imply the engine by the rule
// every front end shares: WithSymBudget / WithSymWorkers the
// ConcolicLoop; WithWalks RandomWalks, or SeededSwarm with WithWorkers;
// WithWorkers alone ParallelHybrid (SequentialDFS on a pool of one, or
// under WithReduction(DPOR)); none of them SequentialDFS.
//
// Cancel ctx, set WithDeadline, or exhaust WithMaxStates /
// WithMaxTransitions and Run returns a partial Report — Complete
// false, StopReason saying why — whose violation traces still replay
// deterministically via ReplayWithProperties.
func Run(ctx context.Context, cfg *Config, opts ...RunOption) *Report {
	r, _ := newJob(opts).Run(ctx, cfg, nil)
	return r
}

// RunRequest runs a JobRequest in-process: the search `nice serve`
// would run for it, resolved the same way (JobRequest.Resolve) but
// drawing on no tenant pool. opts then add what the wire cannot carry —
// an Observer, caches, telemetry — or override a resolved knob; the
// engine the request implies is already chosen and stays unless
// WithEngine replaces it. An invalid request is an error, not a report.
func RunRequest(ctx context.Context, req *JobRequest, opts ...RunOption) (*Report, error) {
	cfg, job, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	s := runSettings{Job: job}
	for _, opt := range opts {
		opt(&s)
	}
	r, _ := s.Run(ctx, cfg, nil)
	return r, nil
}

// newJob applies the options — once — and lets search.Job.InferEngine
// pick the engine they imply.
func newJob(opts []RunOption) search.Job {
	var s runSettings
	for _, opt := range opts {
		opt(&s)
	}
	s.InferEngine(s.workersSet, s.walkMode, s.symMode)
	return s.Job
}
