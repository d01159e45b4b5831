package controller

import (
	"strings"
	"testing"

	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
)

// recorderApp records which handlers ran and emits one rule per
// packet_in.
type recorderApp struct {
	BaseApp
	Calls []string
}

func (a *recorderApp) Name() string { return "recorder" }

func (a *recorderApp) Clone() App {
	return &recorderApp{Calls: append([]string(nil), a.Calls...)}
}

func (a *recorderApp) StateKey() string { return strings.Join(a.Calls, ",") }

func (a *recorderApp) SwitchJoin(_ *Context, sw openflow.SwitchID) {
	a.Calls = append(a.Calls, "join")
}

func (a *recorderApp) PacketIn(ctx *Context, sw openflow.SwitchID, pkt *sym.Packet,
	buf openflow.BufferID, reason openflow.PacketInReason) {
	a.Calls = append(a.Calls, "packet_in")
	ctx.InstallRule(sw, openflow.Rule{Priority: 1, Match: openflow.MatchAll(),
		Actions: []openflow.Action{openflow.Output(1)}})
	ctx.PacketOut(sw, buf, openflow.Output(1))
}

func (a *recorderApp) StatsReply(_ *Context, _ openflow.SwitchID, _ *sym.Stats) {
	a.Calls = append(a.Calls, "stats")
}

func (a *recorderApp) BarrierReply(_ *Context, _ openflow.SwitchID, xid int) {
	a.Calls = append(a.Calls, "barrier")
}

func (a *recorderApp) PortStatus(_ *Context, _ openflow.SwitchID, _ openflow.PortID, up bool) {
	a.Calls = append(a.Calls, "port_status")
}

func packetInMsg() openflow.Msg {
	return openflow.Msg{
		Type: openflow.MsgPacketIn, Switch: 1, Buffer: 7, InPort: 2,
		Packet: openflow.Packet{Header: openflow.Header{EthType: openflow.EthTypeIPv4}},
	}
}

func TestDispatchRoutesToHandlers(t *testing.T) {
	app := &recorderApp{}
	rt := NewRuntime(app)
	rt.Dispatch(openflow.Msg{Type: openflow.MsgSwitchJoin, Switch: 1})
	rt.Dispatch(packetInMsg())
	rt.Dispatch(openflow.Msg{Type: openflow.MsgStatsReply, Switch: 1})
	rt.Dispatch(openflow.Msg{Type: openflow.MsgBarrierReply, Switch: 1, Xid: 3})
	rt.Dispatch(openflow.Msg{Type: openflow.MsgPortStatus, Switch: 1, InPort: 2, PortUp: true})
	want := "join,packet_in,stats,barrier,port_status"
	if app.StateKey() != want {
		t.Errorf("calls = %q, want %q", app.StateKey(), want)
	}
}

func TestEmittedMessagesAreStampedAndQueued(t *testing.T) {
	rt := NewRuntime(&recorderApp{})
	rt.Dispatch(packetInMsg())
	out := rt.PendingOut()
	if len(out) != 1 || out[0] != 1 {
		t.Fatalf("pending out: %v", out)
	}
	m1, _ := rt.PopOut(1)
	m2, ok := rt.PopOut(1)
	if !ok {
		t.Fatal("second message missing")
	}
	if m1.Type != openflow.MsgFlowMod || m2.Type != openflow.MsgPacketOut {
		t.Errorf("emission order wrong: %v then %v", m1.Type, m2.Type)
	}
	if m2.Seq <= m1.Seq {
		t.Errorf("issue numbers not increasing: %d then %d", m1.Seq, m2.Seq)
	}
	if _, ok := rt.PopOut(1); ok {
		t.Error("queue not drained")
	}
}

func TestChannelFIFOOrder(t *testing.T) {
	rt := NewRuntime(&recorderApp{})
	for i := 0; i < 3; i++ {
		m := packetInMsg()
		m.Xid = i
		rt.DeliverToController(m)
	}
	for i := 0; i < 3; i++ {
		m, ok := rt.PopIn(1)
		if !ok || m.Xid != i {
			t.Fatalf("FIFO violated at %d: %v", i, m)
		}
	}
}

func TestHeadDoesNotConsume(t *testing.T) {
	rt := NewRuntime(&recorderApp{})
	rt.DeliverToController(packetInMsg())
	if _, ok := rt.HeadIn(1); !ok {
		t.Fatal("head missing")
	}
	if _, ok := rt.HeadIn(1); !ok {
		t.Fatal("head consumed by peek")
	}
}

func TestRuntimeCloneIndependence(t *testing.T) {
	rt := NewRuntime(&recorderApp{})
	rt.DeliverToController(packetInMsg())
	c := rt.Fork(1)
	c.Dispatch(packetInMsg())
	if len(rt.App.(*recorderApp).Calls) != 0 {
		t.Error("fork dispatch mutated original app")
	}
	c.PopIn(1)
	if _, ok := rt.HeadIn(1); !ok {
		t.Error("fork pop drained original channel")
	}
}

func TestStateKeyIncludesChannelsExcludesCounters(t *testing.T) {
	rt := NewRuntime(&recorderApp{})
	base, baseIn, baseOut := rt.StateKey(), rt.InKeyHash64(), rt.OutKeyHash64()
	rt.DeliverToController(packetInMsg())
	if rt.StateKey() == base || rt.InKeyHash64() == baseIn {
		t.Error("inbound channel not part of the state key and hash")
	}
	rt.PopIn(1)
	if rt.StateKey() != base || rt.InKeyHash64() != baseIn {
		t.Error("drained runtime state key or hash differs from baseline")
	}
	// Advancing seq/xid alone must not change the key (scheduler
	// metadata, excluded by design).
	rt.Emit(nil)
	rt2 := NewRuntime(&recorderApp{})
	rt2.Emit([]openflow.Msg{{Type: openflow.MsgFlowMod, Switch: 1}})
	if rt2.OutKeyHash64() == baseOut {
		t.Error("outbound channel not part of the hash")
	}
	rt2.PopOut(1)
	if rt2.StateKey() != base || rt2.OutKeyHash64() != baseOut {
		t.Error("emitting and draining left residue in the key or hash")
	}
}

// TestChannelHashesTrackQueues checks the cached channel hashes against
// the from-scratch ones (which also ignore the per-message memos)
// through deliveries, emissions and pops on two switches, and that the
// hash depends on which switch a message is queued for and in what
// order — as the rendered key does.
func TestChannelHashesTrackQueues(t *testing.T) {
	rt := NewRuntime(&recorderApp{})
	seen := map[string][2]uint64{}
	check := func(what string) {
		t.Helper()
		in, out := rt.FreshKeyHashes()
		if rt.InKeyHash64() != in || rt.OutKeyHash64() != out {
			t.Fatalf("after %s: cached channel hashes differ from the from-scratch ones", what)
		}
		if prev, ok := seen[rt.StateKey()]; ok && prev != [2]uint64{in, out} {
			t.Fatalf("after %s: equal state keys, different hashes", what)
		}
		seen[rt.StateKey()] = [2]uint64{in, out}
	}
	check("construction")
	pin2 := packetInMsg()
	pin2.Switch = 2
	rt.DeliverToController(packetInMsg())
	check("deliver s1")
	rt.DeliverToController(pin2)
	check("deliver s2")
	rt.DeliverToController(openflow.Msg{Type: openflow.MsgBarrierReply, Switch: 1, Xid: 4})
	check("second message on s1")
	rt.Emit([]openflow.Msg{
		{Type: openflow.MsgFlowMod, Switch: 1, Rule: openflow.Rule{Priority: 3}},
		{Type: openflow.MsgPacketOut, Switch: 2, Buffer: 0, Actions: []openflow.Action{openflow.Flood()}},
		{Type: openflow.MsgFlowMod, Switch: 1, Rule: openflow.Rule{Priority: 4}},
	})
	check("emit")
	rt.PopIn(1)
	check("pop in")
	rt.PopOut(1)
	check("pop out")
	fork := rt.Fork(9)
	fork.PopOut(1)
	fork.PopOut(2)
	check("fork drained")
	in, out := fork.FreshKeyHashes()
	if fork.InKeyHash64() != in || fork.OutKeyHash64() != out {
		t.Error("fork's cached channel hashes differ from the from-scratch ones")
	}
	hashes := map[[2]uint64]bool{}
	for _, h := range seen {
		hashes[h] = true
	}
	if len(hashes) != len(seen) {
		t.Errorf("%d distinct state keys but %d distinct hash pairs", len(seen), len(hashes))
	}
}

func TestBarrierXidsUnique(t *testing.T) {
	rt := NewRuntime(&recorderApp{})
	ctx := rt.NewContext()
	x1 := ctx.Barrier(1)
	x2 := ctx.Barrier(1)
	if x1 == x2 {
		t.Error("barrier xids repeat")
	}
	msgs := ctx.Messages()
	if len(msgs) != 2 || msgs[0].Type != openflow.MsgBarrierRequest {
		t.Errorf("messages: %v", msgs)
	}
}

func TestSymContextRecordsBranches(t *testing.T) {
	tr := sym.NewTrace()
	ctx := NewSymContext(tr)
	if !ctx.Symbolic() {
		t.Error("sym context not marked symbolic")
	}
	v := sym.Symbolic("x", 8, 5)
	if !ctx.If(v.EqConst(5)) {
		t.Error("If truth wrong")
	}
	if len(tr.Branches()) != 1 {
		t.Error("branch not recorded")
	}
}

func TestActuatorMessageShapes(t *testing.T) {
	ctx := NewContext(nil)
	ctx.InstallRule(2, openflow.Rule{Priority: 3, Match: openflow.MatchAll()})
	ctx.DeleteRule(2, openflow.MatchAll())
	ctx.DeleteRuleStrict(2, openflow.MatchAll(), 3)
	ctx.PacketOut(2, 9, openflow.Output(1))
	ctx.PacketOutData(2, openflow.Header{EthType: openflow.EthTypeARP}, openflow.PortNone, openflow.Output(1))
	ctx.FloodPacket(2, 9)
	ctx.RequestStats(2, openflow.PortNone)
	msgs := ctx.Messages()
	wantTypes := []openflow.MsgType{
		openflow.MsgFlowMod, openflow.MsgFlowMod, openflow.MsgFlowMod,
		openflow.MsgPacketOut, openflow.MsgPacketOut, openflow.MsgPacketOut,
		openflow.MsgStatsRequest,
	}
	if len(msgs) != len(wantTypes) {
		t.Fatalf("%d messages, want %d", len(msgs), len(wantTypes))
	}
	for i, w := range wantTypes {
		if msgs[i].Type != w {
			t.Errorf("message %d type %v, want %v", i, msgs[i].Type, w)
		}
		if msgs[i].Switch != 2 {
			t.Errorf("message %d switch %v", i, msgs[i].Switch)
		}
	}
	if msgs[1].Cmd != openflow.FlowDelete || msgs[2].Cmd != openflow.FlowDeleteStrict {
		t.Error("delete commands wrong")
	}
	if msgs[5].Actions[0].Type != openflow.ActionFlood {
		t.Error("flood packet_out wrong")
	}
}

func TestDispatchStats(t *testing.T) {
	app := &recorderApp{}
	rt := NewRuntime(app)
	rt.DispatchStats(1, []openflow.PortStats{{Port: 1, TxBytes: 5}})
	if app.StateKey() != "stats" {
		t.Error("stats handler not dispatched")
	}
}
