package loadbalancer

import (
	"testing"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

var vip = openflow.MakeIPAddr(10, 0, 0, 100)

func newApp(fix FixLevel, reconfigs int) *App {
	t, _, _, _ := topo.LoadBalancer()
	return New(fix, t, vip, reconfigs)
}

func newCtx() *controller.Context { return controller.NewContext(nil) }

func synTo(ip openflow.IPAddr, flags uint8) openflow.Header {
	return openflow.Header{
		EthSrc: topo.MACHostA, EthDst: VirtualMAC, EthType: openflow.EthTypeIPv4,
		IPSrc: topo.IPHostA, IPDst: ip, IPProto: openflow.IPProtoTCP,
		TPSrc: 5555, TPDst: 80, TCPFlags: flags,
	}
}

func dispatch(app *App, ctx *controller.Context, h openflow.Header, reason openflow.PacketInReason) {
	app.PacketIn(ctx, 1, sym.ConcretePacket(new(sym.Packet), h, 1), 7, reason)
}

func TestJoinInstallsSteadyStateRules(t *testing.T) {
	app := newApp(Buggy, 1)
	ctx := newCtx()
	app.SwitchJoin(ctx, 1)
	var arp, wild, ret int
	for _, m := range ctx.Messages() {
		if m.Type != openflow.MsgFlowMod {
			t.Fatalf("non-flow_mod at join: %v", m)
		}
		switch m.Rule.Priority {
		case prioARP:
			arp++
		case prioWildcard:
			if _, hasDst := m.Rule.Match.Value(openflow.FieldIPDst); hasDst {
				wild++
			} else {
				ret++
			}
		}
	}
	if arp != 1 || wild != 2 || ret != 2 {
		t.Errorf("rule census: arp=%d wildcard=%d return=%d", arp, wild, ret)
	}
}

func TestWildcardHalvesCoverClientSpace(t *testing.T) {
	app := newApp(Buggy, 1)
	ctx := newCtx()
	app.SwitchJoin(ctx, 1)
	ft := openflow.NewFlowTable()
	for _, m := range ctx.Messages() {
		ft.Install(m.Rule)
	}
	for _, src := range []openflow.IPAddr{
		openflow.MakeIPAddr(10, 0, 0, 1),
		openflow.MakeIPAddr(200, 1, 2, 3),
	} {
		h := synTo(vip, openflow.TCPSyn)
		h.EthType = openflow.EthTypeIPv4
		h.IPSrc = src
		idx, ok := ft.Lookup(h, 1)
		if !ok {
			t.Fatalf("client %v misses every rule", src)
		}
		r := ft.Rules()[idx]
		if r.Priority != prioWildcard {
			t.Errorf("client %v hit priority %d", src, r.Priority)
		}
	}
}

func TestBuggyReconfigureDeletesBeforeInstalling(t *testing.T) {
	app := newApp(Buggy, 1)
	ctx := newCtx()
	app.EnvApply(ctx, "reconfigure")
	msgs := ctx.Messages()
	if len(msgs) != 3 {
		t.Fatalf("messages: %v", msgs)
	}
	if msgs[0].Cmd != openflow.FlowDelete {
		t.Error("published order must delete first (BUG-V)")
	}
	if msgs[1].Rule.Priority != prioInspect || msgs[2].Rule.Priority != prioInspect {
		t.Error("inspection rules missing")
	}
	if !app.transitioning || app.policy != 1 {
		t.Error("transition state not entered")
	}
}

func TestFixedReconfigureInstallsFirst(t *testing.T) {
	app := newApp(FixV, 1)
	ctx := newCtx()
	app.EnvApply(ctx, "reconfigure")
	msgs := ctx.Messages()
	if len(msgs) != 4 {
		t.Fatalf("messages: %v", msgs)
	}
	if msgs[0].Type != openflow.MsgFlowMod || msgs[0].Cmd != openflow.FlowAdd {
		t.Error("fixed order must install inspection rules first")
	}
	if msgs[2].Cmd != openflow.FlowDeleteStrict || msgs[3].Cmd != openflow.FlowDeleteStrict {
		t.Error("fixed order must delete the wildcards strictly afterwards")
	}
}

func TestReconfigureBudget(t *testing.T) {
	app := newApp(Buggy, 1)
	if len(app.EnvEvents()) != 1 {
		t.Fatal("reconfigure not offered")
	}
	app.EnvApply(newCtx(), "reconfigure")
	if len(app.EnvEvents()) != 0 {
		t.Error("reconfigure offered again mid-transition")
	}
}

func TestIgnoresNoMatchReason(t *testing.T) {
	// The published handler ignores unexpected reason codes at every
	// fix level (the BUG-V repair is the update ordering).
	for _, fix := range []FixLevel{Buggy, Fixed} {
		app := newApp(fix, 1)
		ctx := newCtx()
		dispatch(app, ctx, synTo(vip, openflow.TCPSyn), openflow.ReasonNoMatch)
		if len(ctx.Messages()) != 0 {
			t.Errorf("fix=%d: handler acted on a NO_MATCH packet", fix)
		}
	}
}

func TestBuggyConnectionHandlingForgetsPacket(t *testing.T) {
	app := newApp(Buggy, 1)
	ctx := newCtx()
	dispatch(app, ctx, synTo(vip, openflow.TCPSyn), openflow.ReasonAction)
	msgs := ctx.Messages()
	if len(msgs) != 1 || msgs[0].Type != openflow.MsgFlowMod {
		t.Fatalf("BUG-IV: want just the microflow install, got %v", msgs)
	}
}

func TestFixIVReleasesPacket(t *testing.T) {
	app := newApp(FixIV, 1)
	ctx := newCtx()
	dispatch(app, ctx, synTo(vip, openflow.TCPSyn), openflow.ReasonAction)
	msgs := ctx.Messages()
	if len(msgs) != 2 || msgs[1].Type != openflow.MsgPacketOut {
		t.Fatalf("FixIV must emit a packet_out, got %v", msgs)
	}
	if msgs[1].Buffer != 7 {
		t.Error("packet_out does not release the triggering buffer")
	}
}

func TestARPProxyReplyAndBugVI(t *testing.T) {
	arpReq := openflow.Header{
		EthSrc: topo.MACHostA, EthDst: openflow.BroadcastEth,
		EthType: openflow.EthTypeARP, ArpOp: openflow.ArpRequest,
		IPSrc: topo.IPHostA, IPDst: vip,
	}
	// Buggy: reply but never discard the buffered request.
	app := newApp(FixV, 1)
	ctx := newCtx()
	dispatch(app, ctx, arpReq, openflow.ReasonAction)
	msgs := ctx.Messages()
	if len(msgs) != 1 || msgs[0].Type != openflow.MsgPacketOut {
		t.Fatalf("messages: %v", msgs)
	}
	if msgs[0].Packet.Header.ArpOp != openflow.ArpReply || msgs[0].Packet.Header.IPSrc != vip {
		t.Errorf("reply malformed: %v", msgs[0].Packet.Header)
	}
	// Fixed: also a discard for the buffer.
	app2 := newApp(FixVI, 1)
	ctx2 := newCtx()
	dispatch(app2, ctx2, arpReq, openflow.ReasonAction)
	msgs2 := ctx2.Messages()
	if len(msgs2) != 2 || msgs2[1].Buffer != 7 {
		t.Fatalf("FixVI must discard the request: %v", msgs2)
	}
}

func TestARPNonRequestDiscarded(t *testing.T) {
	app := newApp(Buggy, 1)
	ctx := newCtx()
	rep := openflow.Header{EthType: openflow.EthTypeARP, ArpOp: openflow.ArpReply, IPDst: vip}
	dispatch(app, ctx, rep, openflow.ReasonAction)
	msgs := ctx.Messages()
	if len(msgs) != 1 || msgs[0].Actions[0].Type != openflow.ActionDrop {
		t.Fatalf("ARP reply not discarded cleanly: %v", msgs)
	}
}

func TestTransitionPolicyChoice(t *testing.T) {
	// During a transition, SYNs follow the new policy, other packets
	// the old one (the published logic behind BUG-VII).
	app := newApp(FixVI, 1)
	app.EnvApply(newCtx(), "reconfigure")

	ctxSyn := newCtx()
	dispatch(app, ctxSyn, synTo(vip, openflow.TCPSyn), openflow.ReasonAction)
	synPort := microflowOutPort(t, ctxSyn.Messages()[0])
	if synPort != app.replicas[1].Port {
		t.Errorf("SYN routed to port %v, want new policy replica", synPort)
	}

	app2 := newApp(FixVI, 1)
	app2.EnvApply(newCtx(), "reconfigure")
	ctxAck := newCtx()
	ack := synTo(vip, openflow.TCPAck)
	ack.TPSrc = 6666 // a different connection
	dispatch(app2, ctxAck, ack, openflow.ReasonAction)
	ackPort := microflowOutPort(t, ctxAck.Messages()[0])
	if ackPort != app2.replicas[0].Port {
		t.Errorf("mid-connection packet routed to port %v, want old replica", ackPort)
	}
}

func TestFixVIIKeepsUnknownSYNsOnOldPolicy(t *testing.T) {
	app := newApp(FixVII, 1)
	app.EnvApply(newCtx(), "reconfigure")
	ctx := newCtx()
	dispatch(app, ctx, synTo(vip, openflow.TCPSyn), openflow.ReasonAction)
	port := microflowOutPort(t, ctx.Messages()[0])
	if port != app.replicas[0].Port {
		t.Errorf("FixVII SYN routed to port %v, want old replica", port)
	}
}

func TestInspectedConnectionsStayPinned(t *testing.T) {
	app := newApp(FixVI, 1)
	app.EnvApply(newCtx(), "reconfigure")
	// First packet (ACK) pins to the old replica; a following SYN of
	// the same 4-tuple must stay there.
	dispatch(app, newCtx(), synTo(vip, openflow.TCPAck), openflow.ReasonAction)
	ctx := newCtx()
	dispatch(app, ctx, synTo(vip, openflow.TCPSyn), openflow.ReasonAction)
	port := microflowOutPort(t, ctx.Messages()[0])
	if port != app.replicas[0].Port {
		t.Errorf("pinned connection jumped to port %v", port)
	}
}

func microflowOutPort(t *testing.T, m openflow.Msg) openflow.PortID {
	t.Helper()
	if m.Type != openflow.MsgFlowMod || m.Rule.Priority != prioMicroflow {
		t.Fatalf("not a microflow install: %v", m)
	}
	for _, a := range m.Rule.Actions {
		if a.Type == openflow.ActionOutput {
			return a.Port
		}
	}
	t.Fatal("microflow rule has no output")
	return 0
}

func TestCloneIsolation(t *testing.T) {
	app := newApp(Buggy, 1)
	k := app.StateKey()
	c := app.Clone().(*App)
	c.EnvApply(newCtx(), "reconfigure")
	dispatch(c, newCtx(), synTo(vip, openflow.TCPSyn), openflow.ReasonAction)
	if app.StateKey() != k {
		t.Error("clone mutation leaked into original")
	}
}

func TestSymbolicExecutionSeesAllClasses(t *testing.T) {
	app := newApp(Buggy, 1)
	tr := sym.NewTrace()
	ctx := controller.NewSymContext(tr)
	pkt := sym.SymbolicPacket(synTo(vip, openflow.TCPSyn), 1)
	app.Clone().PacketIn(ctx, 1, pkt, openflow.BufferNone, openflow.ReasonAction)
	if len(tr.Branches()) < 2 {
		t.Errorf("recorded %d branches, want >= 2 (ARP test + service test)", len(tr.Branches()))
	}
}
