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
	// Engine runs the search. Nil names no engine: the registered
	// "parallel" engine runs, which is the sequential checker at
	// Workers == 1.
	Engine Engine
	// Timeout bounds the search's wall clock (0 = unbounded).
	Timeout time.Duration
	// EngineOptions are handed to the engine; their MaxStates and
	// MaxTransitions are the search's own budget, tightened to what the
	// pool has left.
	EngineOptions
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
	engine := j.Engine
	if engine == nil {
		engine = DFS() // all there is when internal/search is not linked in
		if spec, ok := LookupEngine("parallel"); ok {
			engine = spec.New()
		}
	}
	if j.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.Timeout)
		defer cancel()
	}
	claim := pool.Clamp(Budget{States: j.MaxStates, Transitions: j.MaxTransitions})
	j.MaxStates, j.MaxTransitions = claim.States, claim.Transitions
	r = engine.Search(ctx, cfg, j.EngineOptions)
	return r, pool.Draw(claim, r)
}
