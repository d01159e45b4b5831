package core

import "context"

// DPORSummaryStorage runs the sequential reduced search over cfg, as the
// DPOR decision golden does, and reports the exact summary entries its
// summary store holds — each distinct run counted once — and the states
// it stored.
func DPORSummaryStorage(ctx context.Context, cfg *Config, maxStates int64) (entries, states int) {
	cfg.StopAtFirstViolation = false
	c := NewChecker(cfg)
	c.RunContext(ctx, EngineOptions{Reduction: ReductionDPOR, MaxStates: maxStates})
	for id := range c.sums.runs {
		entries += len(c.sums.get(uint32(id))) - 1 // the last entry carries the residual
	}
	return entries, len(c.dporExplored)
}
