package core

import "testing"

// TestDrawdown: a claim is starved only when the pool — not the search's
// own ask — set the bound it stopped on; an unbounded side neither
// clamps, starves nor exhausts, however much is drawn.
func TestDrawdown(t *testing.T) {
	d := NewDrawdown(Budget{States: 100})
	own := d.Clamp(Budget{States: 40, Transitions: 7})
	if own.Budget != (Budget{States: 40, Transitions: 7}) {
		t.Fatalf("claim %+v, want the search's own tighter ask", own.Budget)
	}
	if d.Draw(own, &Report{UniqueStates: 40, Transitions: 900, StopReason: StopMaxStates}) {
		t.Error("a search stopped by its own allowance is not starved")
	}
	pool := d.Clamp(Budget{States: 80})
	if pool.States != 60 || pool.Transitions != 0 {
		t.Fatalf("claim %+v, want the 60 states left and no transition bound", pool.Budget)
	}
	if d.Exhausted() {
		t.Error("pool exhausted with 60 states left")
	}
	if !d.Draw(pool, &Report{UniqueStates: 60, Transitions: 900, StopReason: StopMaxStates}) {
		t.Error("a search stopped by the pool's remainder is starved")
	}
	if !d.Exhausted() {
		t.Error("pool not exhausted at zero")
	}
	if d.Draw(pool, &Report{StopReason: StopMaxTransitions}) {
		t.Error("the unbounded side starved a search")
	}
}
