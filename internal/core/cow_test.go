// Clone-independence tests for copy-on-write state forking: forking a
// System and mutating the successor through every public mutation path
// (Apply over each enabled transition — the union of all mutation
// sites) must leave the parent's Fingerprint and OracleKey byte-for-
// byte unchanged. A failure pinpoints a mutation site missing its
// ensureOwned hook.
package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/scenarios"
)

// cowScenarios covers the three application families (MAC learning,
// wildcard load balancing, traffic engineering) plus a generated-
// topology workload, so every app's and every property's
// Clone/ensureOwned pairing is exercised.
var cowScenarios = []string{
	"pyswitch-bench",
	"loadbalancer-bench",
	"bug-x",
	"pyswitch-fattree",
}

// walkCloneIndependence drives a seeded walk: at every step it
// snapshots the parent's identity, forks one successor per enabled
// transition, applies and fingerprints it, and then re-checks that the
// parent is untouched. One successor is chosen to continue the walk —
// with the parent retained and re-verified one step later, so late
// writes through borrowed state would also surface.
func walkCloneIndependence(t *testing.T, scenario string, seed int64, steps int) {
	t.Helper()
	sc, ok := scenarios.Lookup(scenario)
	if !ok {
		t.Fatalf("unknown scenario %q", scenario)
	}
	cfg := sc.Config(0)
	cfg.StopAtFirstViolation = false
	rng := rand.New(rand.NewSource(seed))

	parent := core.NewSystem(cfg)
	var grandparent *core.System
	for step := 0; step < steps; step++ {
		// Arm this state's discover caches first: cache presence is
		// part of state identity by design (Figure 5's shared memo), so
		// a cold discover transition legitimately changes every
		// same-app-state fingerprint — including the parent's. With the
		// caches armed, the only way the parent's identity can change
		// below is a missed ensureOwned hook, which is exactly what this
		// test hunts.
		for _, tr := range parent.Enabled() {
			if tr.Kind == core.THostDiscover || tr.Kind == core.TCtrlDiscoverStats {
				c := parent.Clone()
				c.Apply(tr)
			}
		}
		enabled := parent.Enabled()
		if len(enabled) == 0 {
			return
		}
		fp := parent.Fingerprint()
		oracle := parent.OracleKey()
		if err := parent.VerifyCaches(); err != nil {
			t.Fatalf("step %d: parent caches stale before forking: %v", step, err)
		}

		var next *core.System
		pick := rng.Intn(len(enabled))
		for i, tr := range enabled {
			child := parent.Clone()
			child.Apply(tr)
			child.Fingerprint() // exercise the child's cache fills too
			if err := child.VerifyCaches(); err != nil {
				t.Fatalf("step %d: child caches stale after %s: %v", step, tr.Key(), err)
			}
			if got := parent.Fingerprint(); got != fp {
				t.Fatalf("step %d: parent fingerprint changed after forking %s", step, tr.Key())
			}
			if got := parent.OracleKey(); got != oracle {
				t.Fatalf("step %d: parent oracle key changed after forking %s:\n was: %s\n now: %s",
					step, tr.Key(), oracle, got)
			}
			if i == pick {
				next = child
			}
		}

		// The previous parent must still be internally consistent one
		// generation later, after its grandchildren mutated shared
		// components. (Its raw key may legitimately gain se:/ses: cache
		// lines — the discover memo is shared by design — so the check
		// is cache-vs-fresh consistency, which any write through
		// borrowed state without its ensureOwned hook would break.)
		if grandparent != nil {
			if err := grandparent.VerifyCaches(); err != nil {
				t.Fatalf("step %d: grandparent corrupted: %v", step, err)
			}
		}
		grandparent = parent
		parent = next
	}
}

func TestCloneIndependence(t *testing.T) {
	for _, name := range cowScenarios {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			walkCloneIndependence(t, name, 1, 40)
			walkCloneIndependence(t, name, 2026, 25)
		})
	}
}

// FuzzCloneIndependence lets the fuzzer pick the scenario, seed and
// walk length; any missed ensureOwned hook shows up as a parent
// identity change.
func FuzzCloneIndependence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(20))
	f.Add(int64(7), uint8(1), uint8(30))
	f.Add(int64(42), uint8(2), uint8(15))
	f.Add(int64(99), uint8(3), uint8(25))
	f.Fuzz(func(t *testing.T, seed int64, which, steps uint8) {
		name := cowScenarios[int(which)%len(cowScenarios)]
		n := int(steps)%40 + 5
		walkCloneIndependence(t, name, seed, n)
	})
}

// TestManyProperties: a slot's tag, not a bitmask, marks a property
// owned, so a Config may hold any number of them. A DFS over bug-ii
// with 65 copies of its property, the last at the slot a 64-bit mask
// had no bit for, reports the one-copy run's states, transitions and
// violation keys.
func TestManyProperties(t *testing.T) {
	one := scenarios.MustLookup("bug-ii").Config(0)
	many := *one
	many.Properties = nil
	for range 65 {
		many.Properties = append(many.Properties, one.Properties[0].Clone())
	}
	want, got := dfs(one, core.EngineOptions{}), dfs(&many, core.EngineOptions{})
	if got.UniqueStates != want.UniqueStates || got.Transitions != want.Transitions {
		t.Errorf("65 properties: %d states, %d transitions; one: %d, %d",
			got.UniqueStates, got.Transitions, want.UniqueStates, want.Transitions)
	}
	if g, w := core.ViolationKeys(got), core.ViolationKeys(want); !slices.Equal(g, w) || len(w) == 0 {
		t.Errorf("65 properties: violations %q; one: %q", g, w)
	}
}
