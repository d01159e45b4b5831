//go:build !race

package props

import (
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/core"
	"github.com/nice-go/nice/openflow"
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

// TestDirectPathsStateKeyAllocs: at a small state (a TCP flow delivered
// both ways, one late send) the StateKey of DirectPaths and
// StrictDirectPaths renders on stack scratch and allocates only its
// string. The key is longer than 64 bytes, so a 64-byte heap start would
// spill.
func TestDirectPathsStateKeyAllocs(t *testing.T) {
	tcp := func(p openflow.Packet, src, dst openflow.IPAddr, sport, dport uint16) openflow.Packet {
		p.Header.IPSrc, p.Header.IPDst, p.Header.IPProto = src, dst, 6
		p.Header.TPSrc, p.Header.TPDst = sport, dport
		return p
	}
	ipA, ipB := openflow.MakeIPAddr(10, 0, 0, 2), openflow.MakeIPAddr(10, 0, 0, 4)
	for _, p := range []core.Property{NewDirectPaths(), NewStrictDirectPaths()} {
		if err := feed(t, p, core.Event{Kind: core.EvDelivered, Pkt: tcp(pktAB(1), ipA, ipB, 40000, 80)},
			core.Event{Kind: core.EvDelivered, Pkt: tcp(pktBA(2), ipB, ipA, 80, 40000)},
			core.Event{Kind: core.EvHostSend, Pkt: tcp(pktAB(3), ipA, ipB, 40000, 80)}); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if key := p.StateKey(); len(key) <= 64 || !strings.HasSuffix(key, "{3}") {
			t.Fatalf("%s: key %q is not the state the fence means", p.Name(), key)
		}
		if n := testing.AllocsPerRun(100, func() { _ = p.StateKey() }); n != 1 {
			t.Errorf("%s StateKey: %.1f allocations, want 1", p.Name(), n)
		}
	}
}
