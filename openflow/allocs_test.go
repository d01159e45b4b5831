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

// TestApplyOFAllocs: applying flow_mods to an owned table with a warm
// scratch result allocates only the table's growth. Every run deletes
// the four rules and installs them again, so after the first run the
// table's backing holds them and nothing is left to grow: the installed
// rules keep the messages' action lists, and the result's slices are
// refilled.
func TestApplyOFAllocs(t *testing.T) {
	sw, alloc := newTestSwitch()
	msgs := []Msg{{Type: MsgFlowMod, Cmd: FlowDelete, Rule: Rule{Match: MatchAll()}}}
	for p := PortID(1); p <= 4; p++ {
		msgs = append(msgs, Msg{Type: MsgFlowMod, Cmd: FlowAdd,
			Rule: ruleOut(int(p), MatchAll().With(FieldInPort, uint64(p)), p%3+1)})
	}
	var res ProcResult
	apply := func() {
		for _, m := range msgs {
			sw.ApplyOFInto(m, alloc, &res)
		}
	}
	apply()
	if n := testing.AllocsPerRun(100, apply); n != 0 {
		t.Errorf("re-installing 4 rules allocates %.1f objects, want 0", n)
	}
	if sw.Table.Len() != 4 || len(res.InstalledRules) != 1 {
		t.Errorf("table holds %d rules, last result %d installs; want 4 and 1", sw.Table.Len(), len(res.InstalledRules))
	}
}
