// Transition scratch. A System refills one switch result per
// process_pkt and process_of, and a controller runtime one handler
// context per dispatch; both stay with their shells when a state is
// released or reclaimed. Nothing a transition hands out may alias them.
package core_test

import (
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// renderEvents renders a transition's events with their messages' and
// rules' keys.
func renderEvents(events []core.Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteString(" msg=")
		b.WriteString(e.Msg.Key())
		b.WriteString(" rule=")
		b.WriteString(e.Rule.Key())
		b.WriteByte('\n')
	}
	return b.String()
}

// renderQueues renders what a state holds in flight: the controller's
// queued messages (each by its Key) and every switch's channels and
// buffer.
func renderQueues(s *core.System) string {
	var b strings.Builder
	b.WriteString(s.Controller().StateKey())
	for _, id := range s.SwitchIDs() {
		b.WriteByte('\n')
		b.WriteString(s.Switch(id).StateKey(true, false))
	}
	return b.String()
}

// TestTransitionScratchAliasing: along a walk, each transition's events
// and its successor's queued messages keep their renderings while the
// released fork's System struct, and the shells that Reclaim recycles,
// apply every other enabled transition of the same state.
func TestTransitionScratchAliasing(t *testing.T) {
	for _, tc := range []struct {
		scenario string
		scale    int
		micro    bool
	}{
		{"pyswitch-bench", 3, false},
		{"loadbalancer-bench", 2, false},
		{"bug-xi", 0, false},
		{"pyswitch-bench", 2, true},
	} {
		cfg := scenarios.MustLookup(tc.scenario).Config(tc.scale)
		cfg.StopAtFirstViolation = false
		cfg.MicroSteps = tc.micro
		sys := core.NewSystem(cfg)
		var other []core.Event
		for step := 0; step < 24; step++ {
			sys.ArmDiscover() // no transition below changes a cache
			enabled := sys.Enabled()
			if len(enabled) == 0 {
				break
			}
			for i, tr := range enabled {
				fork, _ := sys.Lend()
				events := fork.ApplyInto(tr, nil)
				fork.CheckEvents(events)
				succ := fork.Clone()
				fork.Release() // its struct, with its switch result, goes back to the pool
				wantEvents, wantQueues := renderEvents(events), renderQueues(succ)
				for j, tr2 := range enabled {
					if j == i {
						continue
					}
					f2, epoch := sys.Lend()
					other = f2.ApplyInto(tr2, other)
					f2.CheckEvents(other)
					sys.Reclaim(f2, epoch)
				}
				if got := renderEvents(events); got != wantEvents {
					t.Fatalf("%s step %d: the events of %s changed after its siblings ran:\n%s\nwas\n%s",
						tc.scenario, step, tr.Key(), got, wantEvents)
				}
				if got := renderQueues(succ); got != wantQueues {
					t.Fatalf("%s step %d: the successor of %s changed after its siblings ran:\n%s\nwas\n%s",
						tc.scenario, step, tr.Key(), got, wantQueues)
				}
				succ.Release()
			}
			sys.Apply(enabled[step%len(enabled)])
		}
	}
}
