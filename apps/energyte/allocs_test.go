//go:build !race

package energyte

import (
	"testing"

	"github.com/nice-go/nice/topo"
)

// TestStateKeyAllocs: at a small state (two routed flows, one packet
// parked on two barriers) StateKey renders on stack scratch and
// allocates only its string. Like the other allocation budgets, the
// fence holds the plain build and is off under -race.
func TestStateKeyAllocs(t *testing.T) {
	a, _ := newApp(Buggy, 1)
	a.flows.Set(flowTo(topo.MACHostB, topo.IPHostB).Flow(), AlwaysOn)
	a.flows.Set(flowTo(topo.MACHostB, topo.IPHostB).Flow().Reverse(), OnDemand)
	a.pending.Append(pendingRelease{Sw: 1, Buf: 7, Out: 2, Waiting: []int{3, 4}})
	if n := testing.AllocsPerRun(100, func() { _ = a.StateKey() }); n != 1 {
		t.Errorf("StateKey: %.1f allocations, want 1", n)
	}
}
