package core

import (
	"testing"

	"github.com/nice-go/nice/internal/telemetry"
)

// TestCopiesCounted: cow.ensure_owned_copies counts every component a
// fork copies on its first write after the fork — each switch, host and
// runtime shell own forks and each property ownProp clones — and
// nothing on a later write, along a walk over dporConfig: one fork per
// enabled transition, which applies it and then its own first.
func TestCopiesCounted(t *testing.T) {
	reg := telemetry.New()
	copies := reg.Scope("cow").Counter("ensure_owned_copies")
	cfg := dporConfig(2, 0)
	cfg.Properties = append(cfg.Properties, &idTrackerProp{}) // reads every send
	sys := NewSystem(cfg)
	sys.met = newSystemTelemetry(reg)
	kinds := map[TransitionKind]bool{}
	for range 16 {
		enabled := sys.Enabled()
		if len(enabled) == 0 {
			break
		}
		for _, tr := range enabled {
			c := sys.Clone()
			before := copies.Value()
			c.CheckEvents(c.Apply(tr))
			if next := c.Enabled(); len(next) > 0 {
				c.CheckEvents(c.Apply(next[0]))
			}
			if got, want := copies.Value()-before, copiesMade(sys, c); got != want || want == 0 {
				t.Errorf("%v: ensure_owned_copies moved by %d, the fork copied %d components", tr, got, want)
			}
			kinds[tr.Kind] = true
			c.Release()
		}
		sys.CheckEvents(sys.Apply(enabled[len(enabled)-1]))
	}
	if len(kinds) < 4 {
		t.Errorf("the walk took %d transition kinds", len(kinds))
	}
}

// copiesMade counts the components fork c no longer shares with parent.
func copiesMade(parent, c *System) int64 {
	n := int64(0)
	for i := range c.switches {
		if c.switches[i] != parent.switches[i] {
			n++
		}
	}
	for i := range c.hosts {
		if c.hosts[i] != parent.hosts[i] {
			n++
		}
	}
	if c.ctrl != parent.ctrl {
		n++
	}
	for i := range c.props {
		if c.props[i].p != parent.props[i].p {
			n++
		}
	}
	if c.groupEpoch == c.epoch {
		n++
	}
	return n
}
