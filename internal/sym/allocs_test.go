//go:build !race

package sym

import (
	"testing"

	"github.com/nice-go/nice/openflow"
)

// statsSink keeps ConcreteStats' result on the heap, as a handler's
// argument is.
var statsSink *Stats

// TestConcreteAllocs fences the concolic helpers on the model checker's
// concrete path: ConcreteStats allocates only the Stats it returns, and
// LookupFlow and LookupEth order small maps on stack scratch and
// allocate nothing. Like the other allocation budgets, the fence holds
// the plain build and is off under -race.
func TestConcreteAllocs(t *testing.T) {
	stats := []openflow.PortStats{{Port: 1, TxBytes: 10}, {Port: 2, TxBytes: 20}, {Port: 3}}
	flows := make(map[openflow.Flow]int)
	macs := make(map[openflow.EthAddr]openflow.PortID)
	for i := 1; i <= 4; i++ {
		if i <= 3 {
			flows[openflow.Flow{EthSrc: openflow.EthAddr(i), EthDst: 9, IPSrc: 1, IPDst: 2, TPSrc: 80, TPDst: 5555}] = i
		}
		macs[openflow.EthAddr(i)] = openflow.PortID(i)
	}
	hdr := openflow.Header{EthSrc: 3, EthDst: 9, IPSrc: 1, IPDst: 2, TPSrc: 80, TPDst: 5555}
	pkt := ConcretePacket(new(Packet), hdr, 1)
	tr := NewTrace()
	for _, c := range []struct {
		name  string
		fn    func()
		bound float64
	}{
		{"ConcreteStats", func() { statsSink = ConcreteStats(stats) }, 1},
		{"ConcretePacket into a caller's packet", func() { ConcretePacket(pkt, hdr, 1) }, 0},
		{"LookupFlow over 3 keys", func() { _, _ = LookupFlow(tr, flows, pkt) }, 0},
		{"LookupEth over 4 keys", func() { _, _ = LookupEth(tr, macs, pkt.EthDst()) }, 0},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != c.bound {
			t.Errorf("%s: %.1f allocations, want %.0f", c.name, n, c.bound)
		}
	}
	if v, ok := LookupFlow(tr, flows, pkt); !ok || v != 3 || len(tr.Branches()) != 0 {
		t.Errorf("LookupFlow = %d, %t with %d branches recorded; want 3, true, 0", v, ok, len(tr.Branches()))
	}
}
