//go:build !race

package props

import (
	"testing"

	"github.com/nice-go/nice/internal/core"
)

// TestNoBlackHolesStateKeyAllocs: at a small state (three packets
// alive, one of them buffered) StateKey renders on stack scratch and
// allocates only its string. Like the other allocation budgets, the
// fence holds the plain build and is off under -race.
func TestNoBlackHolesStateKeyAllocs(t *testing.T) {
	p := NewNoBlackHoles()
	feed(t, p, core.Event{Kind: core.EvHostSend, Pkt: pktAB(1)},
		core.Event{Kind: core.EvHostSend, Pkt: pktBA(2)},
		core.Event{Kind: core.EvCopied, Pkt: pktAB(3)},
		core.Event{Kind: core.EvBuffered, Pkt: pktAB(3)})
	if n := testing.AllocsPerRun(100, func() { _ = p.StateKey() }); n != 1 {
		t.Errorf("StateKey: %.1f allocations, want 1", n)
	}
}
