//go:build !race

package core_test

import (
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// TestReclaimCycleAllocs: on a warmed pyswitch-bench(3) state, one
// Lend → ApplyInto → CheckEvents → Reclaim cycle on a process_pkt
// transition allocates what the transition itself allocates plus the
// clones of the properties its events reach — no switch, host or
// runtime shell, channel map or props backing, which Reclaim recycles.
// What the transition itself allocates is measured on replayed states,
// which own every component, so applying it there copies nothing. Like
// the other allocation budgets, the fence is off under -race.
func TestReclaimCycleAllocs(t *testing.T) {
	cfg := scenarios.MustLookup("pyswitch-bench").Config(3)
	cfg.StopAtFirstViolation = false
	caches := core.NewCaches()
	sys := core.NewSystemWith(cfg, caches)

	// Walk, discovering before anything else, to the first process_pkt
	// after a packet_in was dispatched: by then the replays' channel
	// maps have held entries, so applying the transition there grows
	// none of them.
	rank := func(k core.TransitionKind) int {
		switch k {
		case core.THostDiscover:
			return 4
		case core.TCtrlDispatch:
			return 3
		case core.TSwitchOF:
			return 2
		case core.TSwitchProcess:
			return 1
		}
		return 0
	}
	var trace []core.Transition
	var proc core.Transition
	dispatched := false
	for {
		enabled := sys.Enabled()
		if len(enabled) == 0 || len(trace) == 30 {
			t.Fatalf("no process_pkt after a dispatch within %d transitions", len(trace))
		}
		next := enabled[0]
		for _, tr := range enabled {
			if rank(tr.Kind) > rank(next.Kind) {
				next = tr
			}
		}
		if next.Kind == core.TSwitchProcess && dispatched {
			proc = next
			break
		}
		dispatched = dispatched || next.Kind == core.TCtrlDispatch
		sys.Apply(next)
		trace = append(trace, next)
	}
	sys.ArmDiscover()

	var events []core.Event
	cycle := func() {
		fork, epoch := sys.Lend()
		events = fork.ApplyInto(proc, events)
		fork.CheckEvents(events)
		sys.Reclaim(fork, epoch)
	}
	cycle() // warm the pools
	got := testing.AllocsPerRun(100, cycle)

	// The transition's own allocations, on replays that own everything.
	const runs = 100
	owned := make([]*core.System, runs+1) // AllocsPerRun adds a warm-up run
	for i := range owned {
		owned[i] = core.NewSystemWith(cfg, caches)
		for _, tr := range trace {
			owned[i].Apply(tr)
		}
	}
	next := 0
	own := testing.AllocsPerRun(runs, func() {
		events = owned[next].ApplyInto(proc, events)
		owned[next].CheckEvents(events)
		next++
	})

	// The clones of the properties the transition's events reach.
	var kinds uint64
	for _, e := range events {
		kinds |= core.MaskOf(e.Kind)
	}
	clones := 0.0
	for _, p := range cfg.Properties {
		if em, ok := p.(core.EventMasker); ok && em.EventMask()&kinds == 0 {
			continue
		}
		clones += testing.AllocsPerRun(10, func() { _ = p.Clone() })
	}
	if clones == 0 {
		t.Fatalf("%s reaches no property; the fence would not see a props backing", proc.Key())
	}
	if got > own+clones {
		t.Errorf("%s: a reclaimed cycle allocates %.0f objects, want at most %.0f (the transition's own %.0f, property clones %.0f)",
			proc.Key(), got, own+clones, own, clones)
	}
}
