package core

import "fmt"

// Simulator drives manually-chosen, step-by-step system executions — the
// paper's "manually-driven, step-by-step system executions or random
// walks on system states" mode (§1.3).
type Simulator struct {
	cfg    *Config
	caches *Caches
	sys    *System
	trace  []Transition
}

// NewSimulator boots a system for interactive stepping.
func NewSimulator(cfg *Config) *Simulator {
	cc := NewCaches()
	return &Simulator{cfg: cfg, caches: cc, sys: NewSystemWith(cfg, cc)}
}

// System exposes the current state.
func (s *Simulator) System() *System { return s.sys }

// Enabled lists the currently enabled transitions.
func (s *Simulator) Enabled() []Transition { return s.sys.Enabled() }

// Trace returns the transitions executed so far.
func (s *Simulator) Trace() []Transition { return cloneTrace(s.trace) }

// Step executes enabled transition i, returning its events and any
// property violation it caused.
func (s *Simulator) Step(i int) ([]Event, *Violation, error) {
	enabled := s.sys.Enabled()
	if i < 0 || i >= len(enabled) {
		return nil, nil, fmt.Errorf("core: transition index %d out of range (0..%d)", i, len(enabled)-1)
	}
	t := enabled[i]
	events := s.sys.Apply(t)
	s.trace = append(s.trace, t)
	if fails := s.sys.CheckEvents(events); len(fails) > 0 {
		return events, &Violation{Property: fails[0].Property, Err: fails[0].Err, Trace: s.Trace()}, nil
	}
	return events, nil, nil
}

// Reset returns the simulator to the initial state.
func (s *Simulator) Reset() {
	s.sys = NewSystemWith(s.cfg, s.caches)
	s.trace = nil
}
