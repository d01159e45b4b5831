package openflow

import (
	"strings"
	"testing"
)

func newTestSwitch() (*Switch, *IDAlloc) {
	sw := NewSwitch(1, []PortID{1, 2, 3})
	for _, p := range sw.Ports {
		sw.SetPortUp(p, true)
	}
	return sw, NewIDAlloc()
}

func pkt(alloc *IDAlloc, h Header) Packet {
	id := alloc.Next()
	return Packet{Header: h, ID: id, Orig: id}
}

func TestTableMissBuffersAndNotifies(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	res := sw.ProcessPackets(alloc)
	if len(res.Buffered) != 1 {
		t.Fatalf("buffered %d packets, want 1", len(res.Buffered))
	}
	if len(res.ToController) != 1 || res.ToController[0].Type != MsgPacketIn {
		t.Fatalf("controller messages: %v", res.ToController)
	}
	in := res.ToController[0]
	if in.Reason != ReasonNoMatch || in.InPort != 1 || in.Buffer == BufferNone {
		t.Errorf("packet_in fields wrong: %v", in)
	}
	if len(sw.Buffered()) != 1 {
		t.Error("switch buffer empty after miss")
	}
	if len(res.Matched) != 1 || res.Matched[0] != -1 {
		t.Errorf("Matched = %v, want one miss marker", res.Matched)
	}
}

func TestRuleMatchForwards(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.Table.Install(Rule{Priority: 5, Match: MatchAll(), Actions: []Action{Output(2)}})
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	res := sw.ProcessPackets(alloc)
	if len(res.Outputs) != 1 || res.Outputs[0].Port != 2 {
		t.Fatalf("outputs: %v", res.Outputs)
	}
	if len(res.ToController) != 0 {
		t.Error("unexpected controller traffic")
	}
	if sw.Table.Rules()[0].PacketCount != 1 {
		t.Error("rule counter not updated")
	}
}

func TestProcessPacketsBatchesAllChannels(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.Table.Install(Rule{Priority: 5, Match: MatchAll(), Actions: []Action{Output(3)}})
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	sw.Enqueue(1, pkt(alloc, hdrAB())) // second stays queued
	sw.Enqueue(2, pkt(alloc, hdrAB()))
	res := sw.ProcessPackets(alloc)
	// One packet from each non-empty channel: two processed.
	if len(res.Outputs) != 2 {
		t.Fatalf("processed %d packets, want 2", len(res.Outputs))
	}
	if sw.TotalQueued() != 1 {
		t.Errorf("%d packets still queued, want 1", sw.TotalQueued())
	}
}

func TestProcessPacketOnPortMicroStep(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.Table.Install(Rule{Priority: 5, Match: MatchAll(), Actions: []Action{Output(3)}})
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	sw.Enqueue(2, pkt(alloc, hdrAB()))
	var res ProcResult
	ok := sw.ProcessPacketOnPortInto(1, alloc, &res)
	if !ok || len(res.Outputs) != 1 {
		t.Fatalf("micro-step processed %d packets", len(res.Outputs))
	}
	if sw.TotalQueued() != 1 {
		t.Error("other channel was drained too")
	}
	if sw.ProcessPacketOnPortInto(1, alloc, &res) || len(res.Outputs) != 0 {
		t.Error("processed from an empty channel")
	}
}

func TestFloodSkipsIngressAndDownPorts(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.SetPortUp(3, false)
	sw.Table.Install(Rule{Priority: 5, Match: MatchAll(), Actions: []Action{Flood()}})
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	res := sw.ProcessPackets(alloc)
	if len(res.Outputs) != 1 || res.Outputs[0].Port != 2 {
		t.Fatalf("flood outputs: %v (want just port 2)", res.Outputs)
	}
	if len(res.Copies) != 0 {
		t.Error("single-port flood should not create copies")
	}
}

func TestFloodCreatesCopiesWithLineage(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.Table.Install(Rule{Priority: 5, Match: MatchAll(), Actions: []Action{Flood()}})
	p := pkt(alloc, hdrAB())
	sw.Enqueue(1, p)
	res := sw.ProcessPackets(alloc)
	if len(res.Outputs) != 2 {
		t.Fatalf("flood outputs: %v", res.Outputs)
	}
	if len(res.Copies) != 1 {
		t.Fatalf("copies: %v", res.Copies)
	}
	for _, out := range res.Outputs {
		if out.Pkt.Orig != p.Orig {
			t.Error("copy lost its origin lineage")
		}
	}
	if res.Outputs[0].Pkt.ID == res.Outputs[1].Pkt.ID {
		t.Error("copies share an instance ID")
	}
}

func TestExplicitDropAndEmptyActions(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.Table.Install(Rule{Priority: 5, Match: MatchAll().With(FieldEthType, uint64(EthTypeIPv4)),
		Actions: []Action{Drop()}})
	sw.Table.Install(Rule{Priority: 5, Match: MatchAll().With(FieldEthType, uint64(EthTypeARP))})
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	sw.Enqueue(2, pkt(alloc, Header{EthType: EthTypeARP}))
	res := sw.ProcessPackets(alloc)
	if len(res.Dropped) != 2 {
		t.Fatalf("dropped %d, want 2", len(res.Dropped))
	}
	if len(res.Outputs)+len(res.ToController) != 0 {
		t.Error("dropped packets leaked elsewhere")
	}
}

func TestSetFieldRewrites(t *testing.T) {
	sw, alloc := newTestSwitch()
	newDst := MakeEthAddr(9, 9, 9, 9, 9, 9)
	sw.Table.Install(Rule{Priority: 5, Match: MatchAll(), Actions: []Action{
		SetField(FieldEthDst, uint64(newDst)),
		Output(2),
	}})
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	res := sw.ProcessPackets(alloc)
	if res.Outputs[0].Pkt.EthDst != newDst {
		t.Errorf("rewrite not applied: %v", res.Outputs[0].Pkt.EthDst)
	}
}

func TestRewriteAppliesOnlyToLaterOutputs(t *testing.T) {
	sw, alloc := newTestSwitch()
	newDst := MakeEthAddr(9, 9, 9, 9, 9, 9)
	sw.Table.Install(Rule{Priority: 5, Match: MatchAll(), Actions: []Action{
		Output(2),
		SetField(FieldEthDst, uint64(newDst)),
		Output(3),
	}})
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	res := sw.ProcessPackets(alloc)
	if res.Outputs[0].Pkt.EthDst == newDst {
		t.Error("rewrite retroactively applied to earlier output")
	}
	if res.Outputs[1].Pkt.EthDst != newDst {
		t.Error("rewrite missing on later output")
	}
	if len(res.Copies) != 1 {
		t.Error("second output is a copy and must be recorded as one")
	}
}

func TestControllerActionBuffers(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.Table.Install(Rule{Priority: 5, Match: MatchAll(), Actions: []Action{ToController()}})
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	res := sw.ProcessPackets(alloc)
	if len(res.ToController) != 1 || res.ToController[0].Reason != ReasonAction {
		t.Fatalf("expected an action-reason packet_in, got %v", res.ToController)
	}
}

func TestPacketOutReleasesBuffer(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	res := sw.ProcessPackets(alloc)
	bufID := res.ToController[0].Buffer

	out := applyOF(sw, Msg{Type: MsgPacketOut, Switch: 1, Buffer: bufID,
		Actions: []Action{Output(2)}}, alloc)
	if len(out.Released) != 1 || len(out.Outputs) != 1 {
		t.Fatalf("release results: %+v", out)
	}
	if len(sw.Buffered()) != 0 {
		t.Error("buffer not empty after release")
	}
	// Releasing again is a harmless no-op.
	again := applyOF(sw, Msg{Type: MsgPacketOut, Switch: 1, Buffer: bufID,
		Actions: []Action{Output(2)}}, alloc)
	if len(again.Outputs) != 0 {
		t.Error("double release produced output")
	}
}

func TestPacketOutInlineInjects(t *testing.T) {
	sw, alloc := newTestSwitch()
	res := applyOF(sw, Msg{Type: MsgPacketOut, Switch: 1, Buffer: BufferNone,
		Packet: Packet{Header: hdrAB()}, Actions: []Action{Output(3)}}, alloc)
	if len(res.Injected) != 1 {
		t.Fatalf("injected: %v", res.Injected)
	}
	if res.Injected[0].ID == 0 {
		t.Error("injected packet has no identity")
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Pkt.ID != res.Injected[0].ID {
		t.Error("output does not carry the injected packet")
	}
}

func TestFlowModsThroughApplyOF(t *testing.T) {
	sw, alloc := newTestSwitch()
	r := Rule{Priority: 5, Match: MatchAll(), Actions: []Action{Output(2)}}
	res := applyOF(sw, Msg{Type: MsgFlowMod, Switch: 1, Cmd: FlowAdd, Rule: r}, alloc)
	if len(res.InstalledRules) != 1 || sw.Table.Len() != 1 {
		t.Fatal("install did not take effect")
	}
	res = applyOF(sw, Msg{Type: MsgFlowMod, Switch: 1, Cmd: FlowDelete,
		Rule: Rule{Match: MatchAll()}}, alloc)
	if res.DeletedRules != 1 || sw.Table.Len() != 0 {
		t.Fatal("delete did not take effect")
	}
}

func TestBarrierAndStats(t *testing.T) {
	sw, alloc := newTestSwitch()
	res := applyOF(sw, Msg{Type: MsgBarrierRequest, Switch: 1, Xid: 42}, alloc)
	if len(res.ToController) != 1 || res.ToController[0].Type != MsgBarrierReply ||
		res.ToController[0].Xid != 42 {
		t.Fatalf("barrier reply: %v", res.ToController)
	}
	res = applyOF(sw, Msg{Type: MsgStatsRequest, Switch: 1, StatsPort: PortNone}, alloc)
	if len(res.ToController) != 1 || res.ToController[0].Type != MsgStatsReply {
		t.Fatalf("stats reply: %v", res.ToController)
	}
	if len(res.ToController[0].Stats) != 3 {
		t.Errorf("stats cover %d ports, want 3", len(res.ToController[0].Stats))
	}
}

// applyOF is ApplyOFInto with a fresh result.
func applyOF(sw *Switch, m Msg, alloc *IDAlloc) ProcResult {
	var res ProcResult
	sw.ApplyOFInto(m, alloc, &res)
	return res
}

// TestProcResultReuse: a result refilled by the Into methods holds only
// the latest call's effects, however much the earlier calls left in it.
func TestProcResultReuse(t *testing.T) {
	sw, alloc := newTestSwitch()
	var res ProcResult
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	sw.Enqueue(2, pkt(alloc, hdrAB()))
	sw.ProcessPacketsInto(alloc, &res) // two misses
	if len(res.ToController) != 2 || len(res.Buffered) != 2 || len(res.Matched) != 2 {
		t.Fatalf("misses: %+v", res)
	}
	sw.ApplyOFInto(Msg{Type: MsgFlowMod, Cmd: FlowAdd,
		Rule: Rule{Priority: 5, Match: MatchAll(), Actions: []Action{Output(3)}}}, alloc, &res)
	if len(res.InstalledRules) != 1 || len(res.ToController) != 0 || len(res.Buffered) != 0 ||
		len(res.Matched) != 0 {
		t.Fatalf("flow_mod after misses: %+v", res)
	}
	sw.ApplyOFInto(Msg{Type: MsgFlowMod, Cmd: FlowDelete, Rule: Rule{Match: MatchAll()}}, alloc, &res)
	if len(res.InstalledRules) != 0 || res.DeletedRules != 1 {
		t.Fatalf("delete after install: %+v", res)
	}
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	sw.ProcessPacketsInto(alloc, &res)
	if res.DeletedRules != 0 || len(res.ToController) != 1 || len(res.Matched) != 1 {
		t.Fatalf("miss after delete: %+v", res)
	}
	if sw.ProcessPacketOnPortInto(2, alloc, &res) || len(res.ToController) != 0 || len(res.Matched) != 0 {
		t.Fatalf("empty micro-step: %+v", res)
	}
}

func TestSwitchCloneIndependence(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	c := sw.Fork(1)
	c.ProcessPackets(alloc)
	if sw.TotalQueued() != 1 {
		t.Error("fork processing drained the original's channel")
	}
	if len(sw.Buffered()) != 0 && len(c.Buffered()) == 0 {
		t.Error("buffer state crossed the fork boundary")
	}
	c.SetPortUp(2, false)
	if !sw.PortUp(2) {
		t.Error("port state crossed the fork boundary")
	}
}

// TestSwitchRecycle: a recycled fork is zeroed, so a stale reader sees
// no packets and no up ports, and later forks, which may take its shell
// and emptied maps, start from their own source and leave it alone.
func TestSwitchRecycle(t *testing.T) {
	sw, alloc := newTestSwitch()
	sw.Enqueue(1, pkt(alloc, hdrAB()))
	c := sw.Fork(1)
	c.Enqueue(2, pkt(alloc, hdrAB()))
	c.SetPortUp(3, false)
	c.Recycle()
	if c.TotalQueued() != 0 || c.PortUp(1) || len(c.Ports) != 0 || c.OwnedBy(1) {
		t.Error("a recycled switch still shows state")
	}
	for owner := uint64(2); owner < 5; owner++ {
		d := sw.Fork(owner)
		d.Enqueue(1, pkt(alloc, hdrAB()))
		if len(d.QueuedPackets(1)) != 2 || d.TotalQueued() != 2 || !d.PortUp(3) {
			t.Errorf("fork %d: %d packets queued, port 3 up %v; want its source's packet and its own, port 3 up",
				owner, d.TotalQueued(), d.PortUp(3))
		}
		d.SetPortUp(2, false)
		if sw.TotalQueued() != 1 || !sw.PortUp(2) {
			t.Fatalf("fork %d wrote its source", owner)
		}
		d.Recycle()
	}
}

func TestStateKeyModes(t *testing.T) {
	build := func(order []int) *Switch {
		sw, _ := newTestSwitch()
		rules := []Rule{
			{Priority: 5, Match: MatchAll().With(FieldEthSrc, 2), Actions: []Action{Output(1)}},
			{Priority: 5, Match: MatchAll().With(FieldEthSrc, 4), Actions: []Action{Output(2)}},
		}
		for _, i := range order {
			sw.Table.Install(rules[i])
		}
		return sw
	}
	a := build([]int{0, 1})
	b := build([]int{1, 0})
	if a.StateKey(true, false) != b.StateKey(true, false) {
		t.Error("canonical keys differ for equivalent tables")
	}
	if a.StateKey(false, false) == b.StateKey(false, false) {
		t.Error("insertion-order keys merged different arrival orders")
	}
	if a.KeyHash64(true, false) != b.KeyHash64(true, false) {
		t.Error("canonical hashes differ for equivalent tables")
	}
	if a.KeyHash64(false, false) == b.KeyHash64(false, false) {
		t.Error("insertion-order hashes merged different arrival orders")
	}
	if !strings.Contains(a.StateKey(true, false), "up[1 2 3 ]") {
		t.Errorf("port state missing from key: %s", a.StateKey(true, false))
	}
}

func TestEnqueueUnknownPortPanics(t *testing.T) {
	sw, alloc := newTestSwitch()
	defer func() {
		if recover() == nil {
			t.Error("enqueue on unknown port did not panic")
		}
	}()
	sw.Enqueue(9, pkt(alloc, hdrAB()))
}
