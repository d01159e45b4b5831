package search

import (
	"context"
	"slices"
	"strings"
	"time"

	"github.com/nice-go/nice/internal/core"
)

// EngineSpec is one row of the engine table: the name front ends select
// the engine by (Report.Strategy carries the same string), a one-line
// summary for usage text, and its constructor.
type EngineSpec struct {
	Name    string
	Summary string
	New     func() core.Engine
}

// engines is every engine, sorted by name: the order -list, -help and
// the wire's unknown-engine error name them in.
var engines = []EngineSpec{
	{"concolic", "model-checking × symbolic-execution feedback loop (§3, Fig. 1)", Loop},
	{"dfs", "sequential depth-first search (Figure 5): the expansion step on one goroutine", DFS},
	{"parallel", "parallel full search (depth-first workers, one shared queue)", Parallel},
	{"swarm", "parallel seeded random-walk swarm", SwarmEngine},
	{"walks", "sequential seeded random walks (§1.3): the swarm on one worker", Walks},
}

// Engines returns the engine table, sorted by name.
func Engines() []EngineSpec { return slices.Clone(engines) }

// Lookup finds an engine by name, case-insensitively.
func Lookup(name string) (EngineSpec, bool) {
	i := slices.IndexFunc(engines, func(e EngineSpec) bool { return strings.EqualFold(e.Name, name) })
	if i < 0 {
		return EngineSpec{}, false
	}
	return engines[i], true
}

// Job is one search as a front end asks for it, and Run the one step
// from that request to the search: nice.Run, Campaign and the service
// each fill a Job in and end here, so which engine runs, under which
// deadline and against which share of a budget pool is decided once.
type Job struct {
	// Engine runs the search. Nil names no engine: InferEngine decides,
	// and Run treats a nil Engine as a job that set only its pool size.
	Engine core.Engine
	// Timeout bounds the search's wall clock (0 = unbounded).
	Timeout time.Duration
	// EngineOptions are handed to the engine; their MaxStates and
	// MaxTransitions are the search's own budget, tightened to what the
	// pool has left.
	core.EngineOptions
}

// InferEngine is the one rule for a job that names no engine, given
// which engine-shaping knobs its front end set: a solver knob
// (SymBudget, SymWorkers) selects the concolic loop; a walk knob (a
// walk count or length, not the seed alone) the seeded swarm when a
// pool size was set too and the sequential walks when not; anything
// else the full search — the sequential DFS when no pool size was set,
// the pool is one worker or the job asks for ReductionDPOR (only the
// DFS reduces), the parallel search otherwise. A named engine stays,
// and runs as itself whatever the pool size.
func (j *Job) InferEngine(workers, walks, sym bool) {
	if j.Engine != nil {
		return
	}
	switch {
	case sym:
		j.Engine = Loop()
	case walks && workers:
		j.Engine = SwarmEngine()
	case walks:
		j.Engine = Walks()
	case !workers || j.WorkerCount() == 1 || j.Reduction == core.ReductionDPOR:
		j.Engine = DFS()
	default:
		j.Engine = Parallel()
	}
}

// Run searches cfg and charges the search to pool (nil = no pool).
// starved says the pool, not the job's own budget, cut the search
// short; a job that finds the pool already exhausted never runs and
// reports StopDrawdown.
func (j Job) Run(ctx context.Context, cfg *core.Config, pool *core.Drawdown) (r *core.Report, starved bool) {
	if pool == nil {
		pool = core.NewDrawdown(core.Budget{})
	}
	if pool.Exhausted() {
		return &core.Report{StopReason: core.StopDrawdown}, true
	}
	j.InferEngine(true, false, false)
	if j.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.Timeout)
		defer cancel()
	}
	claim := pool.Clamp(core.Budget{States: j.MaxStates, Transitions: j.MaxTransitions})
	j.MaxStates, j.MaxTransitions = claim.States, claim.Transitions
	r = j.Engine.Search(ctx, cfg, j.EngineOptions)
	return r, pool.Draw(claim, r)
}
