//go:build !race

package openflow

import "testing"

// TestStringAllocs: Header.String and Flow.String render into stack
// scratch and allocate only the string they return. Like the other
// allocation budgets, the fence holds the plain build and is off under
// -race.
func TestStringAllocs(t *testing.T) {
	h := Header{
		EthSrc: MakeEthAddr(0, 0, 0, 0, 0, 1), EthDst: MakeEthAddr(0, 0, 0, 0, 0, 2),
		EthType: EthTypeIPv4, IPSrc: MakeIPAddr(10, 0, 0, 1), IPDst: MakeIPAddr(10, 0, 0, 2),
		IPProto: IPProtoTCP, TPSrc: 5555, TPDst: 80, TCPFlags: TCPSyn | TCPAck, TCPSeq: 7,
		Payload: "ping",
	}
	f := h.Flow()
	for _, c := range []struct {
		name string
		fn   func() string
	}{
		{"Header.String", h.String},
		{"Flow.String", f.String},
	} {
		if n := testing.AllocsPerRun(100, func() { _ = c.fn() }); n != 1 {
			t.Errorf("%s: %.1f allocations, want 1", c.name, n)
		}
	}
}
