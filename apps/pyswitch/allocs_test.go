//go:build !race

package pyswitch

import "testing"

// TestStateKeyAllocs: at a small state (three switches, two MACs learned
// on each but the first) StateKey renders on stack scratch and
// allocates only its string. Like the other allocation budgets, the
// fence holds the plain build and is off under -race.
func TestStateKeyAllocs(t *testing.T) {
	a := joined(3, 2)
	if n := testing.AllocsPerRun(100, func() { _ = a.StateKey() }); n != 1 {
		t.Errorf("StateKey: %.1f allocations, want 1", n)
	}
}
