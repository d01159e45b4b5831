package core_test

import (
	"runtime"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// TestFingerprintMallocs holds the structural fingerprint to the cause
// of its speed-up over the string render, which no clock is needed to
// see: over freshly forked one-transition children of mid-search
// pyswitch-bench states (each dirtied exactly as a search dirties it),
// Fingerprint averages under one malloc per state and at least 10x
// fewer than the OracleKey render. The time itself is the benchmark's
// core.fingerprint.ns / .share.
func TestFingerprintMallocs(t *testing.T) {
	sim := core.NewSimulator(scenarios.MustLookup("pyswitch-bench").Config(3))
	var children []*core.System
	for walk := 0; walk < 8; walk++ {
		sim.Reset()
		for i := walk; ; i++ {
			enabled := sim.Enabled()
			if len(enabled) == 0 {
				break
			}
			sim.Step(i % len(enabled))
			parent := sim.System().Clone()
			parent.Fingerprint() // warm the component hashes, as mid-search
			for _, tr := range parent.Enabled() {
				c := parent.Clone()
				c.Apply(tr)
				children = append(children, c)
			}
		}
	}
	if len(children) < 100 {
		t.Fatalf("corpus holds only %d states", len(children))
	}
	mallocsPerState := func(hash func(*core.System)) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, c := range children {
			hash(c)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(len(children))
	}
	// Structural first, while the children are still dirty; the oracle
	// render bypasses every cache, so the order does not help it.
	structural := mallocsPerState(func(c *core.System) { c.Fingerprint() })
	oracle := mallocsPerState(func(c *core.System) { _ = c.OracleKey() })
	t.Logf("%d states: %.2f mallocs per Fingerprint, %.2f per OracleKey", len(children), structural, oracle)
	if structural >= 1 || 10*structural > oracle {
		t.Errorf("Fingerprint allocates %.2f times per state, OracleKey %.2f: want under 1 and at least 10x fewer",
			structural, oracle)
	}
}
