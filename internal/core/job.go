package core

import (
	"context"
	"time"
)

// Job is one search as a front end asks for it, and Run the one step
// from that request to the search: nice.Run, Campaign and the service
// each fill a Job in and end here, so which engine runs, under which
// deadline and against which share of a budget pool is decided once.
type Job struct {
	// Engine runs the search. Nil names no engine: InferEngine decides,
	// and Run treats a nil Engine as a job that set only its pool size.
	Engine Engine
	// Timeout bounds the search's wall clock (0 = unbounded).
	Timeout time.Duration
	// EngineOptions are handed to the engine; their MaxStates and
	// MaxTransitions are the search's own budget, tightened to what the
	// pool has left.
	EngineOptions
}

// InferEngine is the one rule for a job that names no engine, given
// which engine-shaping knobs its front end set: a solver knob
// (SymBudget, SymWorkers) selects the concolic loop; a walk knob (a
// walk count or length, not the seed alone) the seeded swarm when a
// pool size was set too and the sequential walks when not; anything
// else the full search, on the pool it was given or, with none, on one
// worker — the sequential reference checker. A named engine stays.
func (j *Job) InferEngine(workers, walks, sym bool) {
	if j.Engine != nil {
		return
	}
	name := "parallel"
	switch {
	case sym:
		name = "concolic"
	case walks && workers:
		name = "swarm"
	case walks:
		name = "walks"
	case !workers:
		j.Workers = 1
	}
	j.Engine = DFS() // all there is when internal/search is not linked in
	if spec, ok := LookupEngine(name); ok {
		j.Engine = spec.New()
	}
}

// Run searches cfg and charges the search to pool (nil = no pool).
// starved says the pool, not the job's own budget, cut the search
// short; a job that finds the pool already exhausted never runs and
// reports StopDrawdown.
func (j Job) Run(ctx context.Context, cfg *Config, pool *Drawdown) (r *Report, starved bool) {
	if pool == nil {
		pool = NewDrawdown(Budget{})
	}
	if pool.Exhausted() {
		return &Report{StopReason: StopDrawdown}, true
	}
	j.InferEngine(true, false, false)
	if j.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.Timeout)
		defer cancel()
	}
	claim := pool.Clamp(Budget{States: j.MaxStates, Transitions: j.MaxTransitions})
	j.MaxStates, j.MaxTransitions = claim.States, claim.Transitions
	r = j.Engine.Search(ctx, cfg, j.EngineOptions)
	return r, pool.Draw(claim, r)
}
