package energyte

import (
	"slices"
	"testing"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

const threshold = 1000

func newApp(fix FixLevel, polls int) (*App, *topo.Topology) {
	t, _, _, _ := topo.Triangle()
	return New(fix, t, threshold, polls), t
}

func newCtx() *controller.Context { return controller.NewContext(nil) }

func flowTo(dst openflow.EthAddr, dstIP openflow.IPAddr) openflow.Header {
	return openflow.Header{
		EthSrc: topo.MACHostA, EthDst: dst, EthType: openflow.EthTypeIPv4,
		IPSrc: topo.IPHostA, IPDst: dstIP, IPProto: openflow.IPProtoTCP,
		TPSrc: 5555, TPDst: 80,
	}
}

func statsReply(app *App, tx uint64) {
	app.StatsReply(newCtx(), 1, sym.ConcreteStats([]openflow.PortStats{{Port: 2, TxBytes: tx}}))
}

func dispatch(app *App, ctx *controller.Context, sw openflow.SwitchID, h openflow.Header, port openflow.PortID) {
	app.PacketIn(ctx, sw, sym.ConcretePacket(new(sym.Packet), h, port), 7, openflow.ReasonNoMatch)
}

func TestPollBudget(t *testing.T) {
	app, _ := newApp(Buggy, 2)
	for i := 0; i < 2; i++ {
		if len(app.EnvEvents()) != 1 {
			t.Fatalf("poll %d not offered", i)
		}
		ctx := newCtx()
		app.EnvApply(ctx, "poll_stats")
		if len(ctx.Messages()) != 1 || ctx.Messages()[0].Type != openflow.MsgStatsRequest {
			t.Fatalf("poll %d messages: %v", i, ctx.Messages())
		}
	}
	if len(app.EnvEvents()) != 0 {
		t.Error("poll budget not enforced")
	}
}

func TestStatsSetEnergyState(t *testing.T) {
	app, _ := newApp(Buggy, 0)
	statsReply(app, threshold-1)
	if app.high || app.globalTable != AlwaysOn {
		t.Error("low stats left high state")
	}
	statsReply(app, threshold)
	if !app.high || app.globalTable != OnDemand {
		t.Error("threshold crossing not detected")
	}
}

func TestLowLoadRoutesAlwaysOn(t *testing.T) {
	app, tp := newApp(Buggy, 0)
	ctx := newCtx()
	dispatch(app, ctx, 1, flowTo(topo.MACHostB, topo.IPHostB), 1)
	msgs := ctx.Messages()
	// BUG-VIII: install at s1 and s2, but no packet_out.
	if len(msgs) != 2 {
		t.Fatalf("messages: %v", msgs)
	}
	alwaysOn, _ := tp.LinkPort(1, 2)
	if msgs[0].Switch != 1 || msgs[0].Rule.Actions[0].Port != alwaysOn {
		t.Errorf("ingress rule wrong: %v", msgs[0])
	}
	if msgs[1].Switch != 2 {
		t.Errorf("egress rule wrong: %v", msgs[1])
	}
}

func TestFixVIIIReleasesPacket(t *testing.T) {
	app, _ := newApp(FixVIII, 0)
	ctx := newCtx()
	dispatch(app, ctx, 1, flowTo(topo.MACHostB, topo.IPHostB), 1)
	msgs := ctx.Messages()
	if len(msgs) != 3 || msgs[2].Type != openflow.MsgPacketOut {
		t.Fatalf("FixVIII must release the packet: %v", msgs)
	}
}

func TestBuggyIgnoresIntermediateSwitches(t *testing.T) {
	app, _ := newApp(FixVIII, 0)
	ctx := newCtx()
	dispatch(app, ctx, 2, flowTo(topo.MACHostB, topo.IPHostB), 2)
	if len(ctx.Messages()) != 0 {
		t.Errorf("pre-FixIX handler acted on a non-ingress packet_in: %v", ctx.Messages())
	}
}

func TestFixIXHandlesTransitPackets(t *testing.T) {
	app, _ := newApp(FixIX, 0)
	h := flowTo(topo.MACHostB, topo.IPHostB)
	dispatch(app, newCtx(), 1, h, 1) // establish the flow at the ingress
	ctx := newCtx()
	dispatch(app, ctx, 2, h, 2) // stuck at the egress switch
	msgs := ctx.Messages()
	if len(msgs) != 2 || msgs[1].Type != openflow.MsgPacketOut {
		t.Fatalf("transit packet not handled: %v", msgs)
	}
	if msgs[1].Switch != 2 {
		t.Error("release sent to the wrong switch")
	}
}

func TestBugXGlobalTableMisroutesUnderHighLoad(t *testing.T) {
	app, tp := newApp(FixIX, 0) // BUG-X level
	statsReply(app, threshold+100)
	ctx := newCtx()
	dispatch(app, ctx, 1, flowTo(topo.MACHostB, topo.IPHostB), 1)
	onDemand, _ := tp.LinkPort(1, 3)
	if got := ctx.Messages()[0].Rule.Actions[0].Port; got != onDemand {
		t.Errorf("buggy app routed flow 0 out %v, want the on-demand port %v (global table)", got, onDemand)
	}
}

func TestFixXAlternatesUnderHighLoad(t *testing.T) {
	app, tp := newApp(FixX, 0)
	statsReply(app, threshold+100)
	alwaysOn, _ := tp.LinkPort(1, 2)
	onDemand, _ := tp.LinkPort(1, 3)

	ctx1 := newCtx()
	dispatch(app, ctx1, 1, flowTo(topo.MACHostB, topo.IPHostB), 1)
	if got := ctx1.Messages()[0].Rule.Actions[0].Port; got != alwaysOn {
		t.Errorf("flow 0 out %v, want always-on %v", got, alwaysOn)
	}
	ctx2 := newCtx()
	dispatch(app, ctx2, 1, flowTo(topo.MACHostC, topo.IPHostC), 1)
	if got := ctx2.Messages()[0].Rule.Actions[0].Port; got != onDemand {
		t.Errorf("flow 1 out %v, want on-demand %v", got, onDemand)
	}
	// The on-demand path installs at all three hops.
	if len(ctx2.Messages()) != 3+1 { // 3 installs + packet_out
		t.Errorf("on-demand path installed %d messages", len(ctx2.Messages()))
	}
}

func TestLoadDropRecomputesAndTearsDown(t *testing.T) {
	app, tp := newApp(FixX, 0)
	statsReply(app, threshold+100)
	dispatch(app, newCtx(), 1, flowTo(topo.MACHostB, topo.IPHostB), 1) // flow 0: always-on
	dispatch(app, newCtx(), 1, flowTo(topo.MACHostC, topo.IPHostC), 1) // flow 1: on-demand

	ctx := newCtx()
	app.StatsReply(ctx, 1, sym.ConcreteStats([]openflow.PortStats{{Port: 2, TxBytes: 0}}))
	var deletes, installs int
	for _, m := range ctx.Messages() {
		switch {
		case m.Cmd == openflow.FlowDelete && m.Switch == 3:
			deletes++
		case m.Cmd == openflow.FlowAdd && m.Switch == 1:
			installs++
		}
	}
	if deletes != 1 {
		t.Errorf("detour teardown deletes = %d, want 1", deletes)
	}
	if installs != 1 {
		t.Errorf("recompute reinstalls = %d, want 1 (the on-demand flow)", installs)
	}
	alwaysOn, _ := tp.LinkPort(1, 2)
	for _, m := range ctx.Messages() {
		if m.Cmd == openflow.FlowAdd && m.Rule.Actions[0].Port != alwaysOn {
			t.Error("recomputed flow not on the always-on path")
		}
	}
	// After the recompute, s3 is on no path: the pre-FixXI handler
	// ignores its packet_ins.
	ctx2 := newCtx()
	dispatch(app, ctx2, 3, flowTo(topo.MACHostC, topo.IPHostC), 1)
	if len(ctx2.Messages()) != 0 {
		t.Error("pre-FixXI handler acted on an off-path packet_in")
	}
}

func TestFixXIDrainsOffPathPackets(t *testing.T) {
	app, _ := newApp(FixXI, 0)
	statsReply(app, threshold+100)
	dispatch(app, newCtx(), 1, flowTo(topo.MACHostB, topo.IPHostB), 1)
	dispatch(app, newCtx(), 1, flowTo(topo.MACHostC, topo.IPHostC), 1)
	statsReply(app, 0) // teardown

	ctx := newCtx()
	dispatch(app, ctx, 3, flowTo(topo.MACHostC, topo.IPHostC), 1)
	msgs := ctx.Messages()
	if len(msgs) == 0 {
		t.Fatal("FixXI still ignores off-path packet_ins")
	}
	last := msgs[len(msgs)-1]
	if last.Type != openflow.MsgPacketOut {
		t.Errorf("off-path packet not released: %v", msgs)
	}
}

func TestStatsSymbolicBranching(t *testing.T) {
	app, _ := newApp(Buggy, 0)
	tr := sym.NewTrace()
	ctx := controller.NewSymContext(tr)
	st := sym.SymbolicStats([]openflow.PortID{1, 2, 3}, []uint64{0, 0, 0})
	app.Clone().(*App).StatsReply(ctx, 1, st)
	if len(tr.Branches()) != 1 {
		t.Fatalf("stats handler recorded %d branches, want 1 (threshold test)", len(tr.Branches()))
	}
}

func TestCloneIsolation(t *testing.T) {
	app, _ := newApp(Buggy, 1)
	k := app.StateKey()
	c := app.Clone().(*App)
	statsReply(c, threshold+5)
	dispatch(c, newCtx(), 1, flowTo(topo.MACHostB, topo.IPHostB), 1)
	if app.StateKey() != k {
		t.Error("clone mutation leaked into original")
	}
}

// TestLoadDropEmissionOrder: when load falls, the flows re-routed off
// the on-demand path leave as flow_mods in Flow.Less order, the order
// StateKey renders them in, on every run; ranging over the flow map
// would emit them in the map's order, which differs run to run.
func TestLoadDropEmissionOrder(t *testing.T) {
	flows := []openflow.Header{
		flowTo(topo.MACHostC, topo.IPHostC),
		flowTo(topo.MACHostB, topo.IPHostB),
		flowTo(topo.MACHostB, topo.IPHostB),
	}
	flows[2].EthSrc = topo.MACHostC
	var want []openflow.Match
	for run := 0; run < 200; run++ {
		app, _ := newApp(Buggy, 0)
		statsReply(app, threshold+100) // high: every new flow goes on-demand
		for _, h := range flows {
			dispatch(app, newCtx(), 1, h, 1)
		}
		ctx := newCtx()
		app.StatsReply(ctx, 1, sym.ConcreteStats([]openflow.PortStats{{Port: 2, TxBytes: 0}}))
		var got []openflow.Match
		for _, m := range ctx.Messages() {
			if m.Type == openflow.MsgFlowMod && m.Cmd == openflow.FlowAdd {
				got = append(got, m.Rule.Match)
			}
		}
		if run == 0 {
			if len(got) != len(flows) {
				t.Fatalf("load drop re-routed %d flows, want %d", len(got), len(flows))
			}
			for i := 1; i < len(got); i++ {
				if !matchFlow(got[i-1]).Less(matchFlow(got[i])) {
					t.Fatalf("flow_mods %d and %d out of Flow.Less order: %v", i-1, i, got)
				}
			}
			want = got
			continue
		}
		if !slices.Equal(got, want) {
			t.Fatalf("run %d emitted %v, run 0 emitted %v", run, got, want)
		}
	}
}

// matchFlow reads back the flow key a per-flow rule pattern was built
// from.
func matchFlow(m openflow.Match) openflow.Flow {
	src, _ := m.Value(openflow.FieldEthSrc)
	dst, _ := m.Value(openflow.FieldEthDst)
	typ, _ := m.Value(openflow.FieldEthType)
	return openflow.Flow{EthSrc: openflow.EthAddr(src), EthDst: openflow.EthAddr(dst), EthType: uint16(typ)}
}
