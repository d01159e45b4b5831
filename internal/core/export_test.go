package core

import "context"

// DPORSummaryStorage runs the sequential reduced search over cfg, as the
// DPOR decision golden does, and reports the exact summary entries its
// summary store holds — each distinct run counted once — and the states
// it stored.
func DPORSummaryStorage(ctx context.Context, cfg *Config, maxStates int64) (entries, states int) {
	cfg.StopAtFirstViolation = false
	c := &dporDFS{cfg: cfg}
	c.run(ctx, EngineOptions{MaxStates: maxStates})
	for id := range c.sums.runs {
		entries += len(c.sums.get(uint32(id))) - 1 // the last entry carries the residual
	}
	return entries, len(c.dporExplored)
}

// ArmDiscover fills the discover caches for every host and switch at
// s's application state, so that no later discovery changes s's
// identity (cache presence is part of it).
func (s *System) ArmDiscover() {
	if s.cfg.DisableSE {
		return
	}
	for _, h := range s.hosts {
		s.packetClasses(h)
	}
	for _, sw := range s.swIDs {
		s.statsClasses(sw)
	}
}

// The package's small test configurations and report projection, for
// the tests that need a full search (search_test.go), which live
// outside the package because the search loop does.
var (
	HubConfig     = hubConfig
	DporConfig    = dporConfig
	ViolationKeys = violationKeys
)
