//go:build !race

package loadbalancer

import (
	"testing"

	"github.com/nice-go/nice/openflow"
)

// TestStateKeyAllocs: at a small state (two inspected connections)
// StateKey renders on stack scratch and allocates only its string.
// Like the other allocation budgets, the fence holds the plain build
// and is off under -race.
func TestStateKeyAllocs(t *testing.T) {
	a := newApp(Buggy, 1)
	a.inspected.Set(synTo(vip, openflow.TCPSyn).Flow(), 0)
	a.inspected.Set(synTo(vip, openflow.TCPAck).Flow().Reverse(), 1)
	if n := testing.AllocsPerRun(100, func() { _ = a.StateKey() }); n != 1 {
		t.Errorf("StateKey: %.1f allocations, want 1", n)
	}
}
