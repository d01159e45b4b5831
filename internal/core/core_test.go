package core

import (
	"strings"
	"testing"

	"github.com/nice-go/nice/controller"
	"github.com/nice-go/nice/hosts"
	"github.com/nice-go/nice/internal/canon"
	"github.com/nice-go/nice/internal/sym"
	"github.com/nice-go/nice/openflow"
	"github.com/nice-go/nice/topo"
)

// hubApp floods every packet — the simplest complete controller.
type hubApp struct {
	controller.BaseApp
	Handled int
}

func (a *hubApp) Name() string { return "hub" }
func (a *hubApp) Clone() controller.App {
	c := *a
	return &c
}
func (a *hubApp) StateKey() string { return canon.String(a.Handled) }

func (a *hubApp) PacketIn(ctx *controller.Context, sw openflow.SwitchID, pkt *sym.Packet,
	buf openflow.BufferID, _ openflow.PacketInReason) {
	a.Handled++
	if ctx.Symbolic() {
		return
	}
	ctx.FloodPacket(sw, buf)
}

// learnApp is a minimal MAC learner used to exercise symbolic branches.
type learnApp struct {
	controller.BaseApp
	Table map[openflow.EthAddr]openflow.PortID
}

func newLearnApp() *learnApp {
	return &learnApp{Table: make(map[openflow.EthAddr]openflow.PortID)}
}

func (a *learnApp) Name() string { return "learn" }
func (a *learnApp) Clone() controller.App {
	c := newLearnApp()
	for k, v := range a.Table {
		c.Table[k] = v
	}
	return c
}
func (a *learnApp) StateKey() string { return canon.String(a.Table) }

func (a *learnApp) PacketIn(ctx *controller.Context, sw openflow.SwitchID, pkt *sym.Packet,
	buf openflow.BufferID, _ openflow.PacketInReason) {
	a.Table[openflow.EthAddr(pkt.EthSrc().C)] = pkt.InPort()
	if out, ok := sym.LookupEth(ctx.Trace(), a.Table, pkt.EthDst()); ok && out != pkt.InPort() {
		ctx.PacketOut(sw, buf, openflow.Output(out))
		return
	}
	ctx.FloodPacket(sw, buf)
}

func hubConfig(sends int) *Config {
	t, aID, bID := topo.SingleSwitch()
	ping := openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB,
		EthType: openflow.EthTypeIPv4, Payload: "ping"}
	a := hosts.NewClient(t.Host(aID), sends, 0, ping)
	a.Repertoire = []openflow.Header{ping}
	b := hosts.NewServer(t.Host(bID), nil, 0)
	return &Config{
		Topo: t, App: &hubApp{},
		Hosts:     []*hosts.Host{a, b},
		DisableSE: true,
	}
}

func TestInitialStateBoots(t *testing.T) {
	sys := NewSystem(hubConfig(1))
	if sys.Switch(1) == nil {
		t.Fatal("switch missing")
	}
	if !sys.Switch(1).PortUp(1) || !sys.Switch(1).PortUp(2) {
		t.Error("host ports not up after boot")
	}
	if len(sys.HostIDs()) != 2 {
		t.Errorf("hosts: %v", sys.HostIDs())
	}
}

func TestEnabledIsDeterministic(t *testing.T) {
	sys := NewSystem(hubConfig(2))
	a := sys.Enabled()
	b := sys.Enabled()
	if len(a) != len(b) {
		t.Fatal("enabled set size unstable")
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatalf("enabled order unstable at %d", i)
		}
	}
}

func TestApplySendDeliversThroughHub(t *testing.T) {
	sys := NewSystem(hubConfig(1))
	trace := drainToQuiescence(t, sys, 50)
	b := sys.Host(2)
	if len(b.Received) != 1 {
		t.Fatalf("host B received %d packets (trace %v)", len(b.Received), trace)
	}
	if len(sys.Switch(1).Buffered()) != 0 {
		t.Error("packet left in buffer")
	}
}

// drainToQuiescence repeatedly applies the first enabled transition.
func drainToQuiescence(t *testing.T, sys *System, max int) []string {
	t.Helper()
	var trace []string
	for i := 0; i < max; i++ {
		en := sys.Enabled()
		if len(en) == 0 {
			return trace
		}
		sys.Apply(en[0])
		trace = append(trace, en[0].Key())
	}
	t.Fatalf("no quiescence after %d transitions: %v", max, trace)
	return nil
}

func TestCloneIndependenceDeep(t *testing.T) {
	sys := NewSystem(hubConfig(2))
	h0 := sys.Hash()
	c := sys.Clone()
	drainToQuiescence(t, c, 100)
	if sys.Hash() != h0 {
		t.Error("running a clone changed the original's hash")
	}
	if c.Hash() == h0 {
		t.Error("clone executed but hash unchanged")
	}
}

func TestHashDetectsEveryComponent(t *testing.T) {
	mk := func() *System { return NewSystem(hubConfig(2)) }

	// Switch table change.
	s1 := mk()
	s1.Switch(1).Table.Install(openflow.Rule{Priority: 1, Match: openflow.MatchAll(),
		Actions: []openflow.Action{openflow.Output(1)}})
	if s1.Hash() == mk().Hash() {
		t.Error("flow-table change invisible to hash")
	}

	// Host budget change.
	s2 := mk()
	s2.Host(1).ConsumeSend()
	if s2.Hash() == mk().Hash() {
		t.Error("host change invisible to hash")
	}

	// Controller queue change.
	s3 := mk()
	s3.Controller().DeliverToController(openflow.Msg{Type: openflow.MsgPacketIn, Switch: 1})
	if s3.Hash() == mk().Hash() {
		t.Error("controller channel change invisible to hash")
	}
}

func TestMicroStepsEnumeratePorts(t *testing.T) {
	cfg := hubConfig(1)
	cfg.MicroSteps = true
	sys := NewSystem(cfg)
	// Queue packets on two ports.
	sys.Apply(Transition{Kind: THostSend, Host: 1,
		Hdr: openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB}})
	sys.Switch(1).Enqueue(2, openflow.Packet{Header: openflow.Header{EthSrc: topo.MACHostB}, ID: 99, Orig: 99})
	var perPort int
	for _, tr := range sys.Enabled() {
		if tr.Kind == TSwitchProcessPort {
			perPort++
		}
		if tr.Kind == TSwitchProcess {
			t.Error("batched transition enabled in micro-step mode")
		}
	}
	if perPort != 2 {
		t.Errorf("%d per-port transitions, want 2", perPort)
	}
}

func TestUnusualOrdersOFDeliveriesLast(t *testing.T) {
	cfg := hubConfig(1)
	cfg.Unusual = true
	sys := NewSystem(cfg)
	// Manufacture pending work of all classes.
	sys.Controller().Emit([]openflow.Msg{
		{Type: openflow.MsgFlowMod, Switch: 1, Cmd: openflow.FlowAdd,
			Rule: openflow.Rule{Match: openflow.MatchAll()}},
	})
	sys.Controller().DeliverToController(openflow.Msg{Type: openflow.MsgPacketIn, Switch: 1,
		Packet: openflow.Packet{}, InPort: 1})
	en := sys.Enabled()
	classOrder := make([]int, len(en))
	for i, tr := range en {
		classOrder[i] = unusualClass(tr)
	}
	for i := 1; i < len(classOrder); i++ {
		if classOrder[i] < classOrder[i-1] {
			t.Fatalf("UNUSUAL ordering violated: %v", classOrder)
		}
	}
	if unusualClass(en[len(en)-1]) != 2 {
		t.Error("process_of not last")
	}
}

func TestUnusualReversesIssueOrderAcrossSwitches(t *testing.T) {
	t2, _, _ := topo.Linear(2)
	ping := openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB}
	a := hosts.NewClient(t2.Host(1), 1, 0, ping)
	a.Repertoire = []openflow.Header{ping}
	cfg := &Config{Topo: t2, App: &hubApp{}, Hosts: []*hosts.Host{a}, DisableSE: true, Unusual: true}
	sys := NewSystem(cfg)
	sys.Controller().Emit([]openflow.Msg{
		{Type: openflow.MsgFlowMod, Switch: 1, Cmd: openflow.FlowAdd, Rule: openflow.Rule{Match: openflow.MatchAll()}},
		{Type: openflow.MsgFlowMod, Switch: 2, Cmd: openflow.FlowAdd, Rule: openflow.Rule{Match: openflow.MatchAll()}},
	})
	en := sys.Enabled()
	var ofOrder []openflow.SwitchID
	for _, tr := range en {
		if tr.Kind == TSwitchOF {
			ofOrder = append(ofOrder, tr.Sw)
		}
	}
	if len(ofOrder) != 2 || ofOrder[0] != 2 || ofOrder[1] != 1 {
		t.Errorf("OF delivery order %v, want [s2 s1] (reverse issue order)", ofOrder)
	}
}

func TestFlowIRSuppressesEarlierGroups(t *testing.T) {
	cfg := hubConfig(2)
	cfg.Hosts[0].Repertoire = []openflow.Header{
		{EthSrc: topo.MACHostA, EthDst: topo.MACHostB, Payload: "x"},
		{EthSrc: topo.MACHostA, EthDst: openflow.BroadcastEth, Payload: "y"},
	}
	cfg.FlowGroupKey = func(h openflow.Header) (string, bool) {
		return h.Payload, false
	}
	sys := NewSystem(cfg)
	sends := 0
	for _, tr := range sys.Enabled() {
		if tr.Kind == THostSend {
			sends++
		}
	}
	if sends != 2 {
		t.Fatalf("fresh state offers %d sends", sends)
	}
	// Send the later group ("y"); the earlier group ("x") must vanish.
	sys.Apply(Transition{Kind: THostSend, Host: 1, Hdr: cfg.Hosts[0].Repertoire[1]})
	for _, tr := range sys.Enabled() {
		if tr.Kind == THostSend && tr.Hdr.Payload == "x" {
			t.Error("earlier flow group still enabled after later group sent")
		}
	}
}

func TestFlowIRInstancedGroups(t *testing.T) {
	cfg := hubConfig(3)
	syn := openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB,
		TCPFlags: openflow.TCPSyn, Payload: "syn"}
	cfg.Hosts[0].Repertoire = []openflow.Header{syn}
	cfg.FlowGroupKey = func(h openflow.Header) (string, bool) {
		return "conn", h.TCPFlags&openflow.TCPSyn != 0
	}
	sys := NewSystem(cfg)
	g1 := sys.effectiveGroup(syn, true)
	g2 := sys.effectiveGroup(syn, true)
	if g1 == g2 {
		t.Errorf("instanced groups identical: %q", g1)
	}
	if !strings.HasPrefix(g1, "conn#") || g2 <= g1 {
		t.Errorf("instance ordering wrong: %q then %q", g1, g2)
	}
}

func TestQuiescenceDetection(t *testing.T) {
	cfg := hubConfig(1)
	sys := NewSystem(cfg)
	if sys.Quiescent() {
		t.Error("fresh system with send budget is quiescent")
	}
	drainToQuiescence(t, sys, 50)
	if !sys.Quiescent() {
		t.Error("drained system not quiescent")
	}
}

func TestSimulatorStepAndReset(t *testing.T) {
	sim := NewSimulator(hubConfig(1))
	if _, _, err := sim.Step(99); err == nil {
		t.Error("out-of-range step did not error")
	}
	if _, _, err := sim.Step(0); err != nil {
		t.Fatal(err)
	}
	if len(sim.Trace()) != 1 {
		t.Error("trace not recorded")
	}
	h := sim.System().Hash()
	sim.Reset()
	if sim.System().Hash() == h {
		t.Error("reset did not restore the initial state")
	}
	if len(sim.Trace()) != 0 {
		t.Error("reset kept the trace")
	}
}

func TestDiscoverPacketsCachesPerControllerState(t *testing.T) {
	t2, aID, bID := topo.SingleSwitch()
	ping := openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB,
		EthType: openflow.EthTypeIPv4, Payload: "ping"}
	a := hosts.NewClient(t2.Host(aID), 2, 0, ping)
	b := hosts.NewServer(t2.Host(bID), hosts.EchoReply, 1)
	cfg := &Config{Topo: t2, App: newLearnApp(), Hosts: []*hosts.Host{a, b}}
	sys := NewSystem(cfg)

	en := sys.Enabled()
	if len(en) != 1 || en[0].Kind != THostDiscover {
		t.Fatalf("fresh state enables %v, want just discover_packets", en)
	}
	sys.Apply(en[0])
	if sys.caches.SERuns() != 1 {
		t.Fatalf("seRuns = %d", sys.caches.SERuns())
	}
	sends := 0
	for _, tr := range sys.Enabled() {
		if tr.Kind == THostSend {
			sends++
		}
		if tr.Kind == THostDiscover {
			t.Error("discover still enabled after cache fill")
		}
	}
	if sends == 0 {
		t.Fatal("no relevant packets discovered")
	}
	// A clone sharing the cache skips rediscovery.
	c := sys.Clone()
	for _, tr := range c.Enabled() {
		if tr.Kind == THostDiscover {
			t.Error("clone rediscovers despite shared cache")
		}
	}
}

// TestDiscoverChangesStateIdentity: filling the relevant-packet cache
// must flip the state hash, or the search would prune the post-discover
// state as already explored (Figure 5 keeps client.packets in the state
// for the same reason).
func TestDiscoverChangesStateIdentity(t *testing.T) {
	t2, aID, bID := topo.SingleSwitch()
	ping := openflow.Header{EthSrc: topo.MACHostA, EthDst: topo.MACHostB,
		EthType: openflow.EthTypeIPv4, Payload: "ping"}
	a := hosts.NewClient(t2.Host(aID), 1, 0, ping)
	b := hosts.NewServer(t2.Host(bID), nil, 0)
	cfg := &Config{Topo: t2, App: newLearnApp(), Hosts: []*hosts.Host{a, b}}
	sys := NewSystem(cfg)
	before := sys.Hash()
	sys.Apply(Transition{Kind: THostDiscover, Host: 1})
	if sys.Hash() == before {
		t.Error("discover_packets left the state hash unchanged")
	}
}

// TestProcessedEventCarriesRule pins the lazily rendered EvProcessed
// event: a hit carries the matched rule itself (rendered only when the
// event is printed), a table miss is marked as one.
func TestProcessedEventCarriesRule(t *testing.T) {
	processed := func(install bool) Event {
		sys := NewSystem(hubConfig(1))
		swID := sys.SwitchIDs()[0]
		if install {
			sys.ownSwitch(swID).Table.Install(openflow.Rule{Priority: 7,
				Match:   openflow.MatchAll().With(openflow.FieldEthSrc, uint64(topo.MACHostA)),
				Actions: []openflow.Action{openflow.Flood()}})
		}
		for _, kind := range []TransitionKind{THostSend, TSwitchProcess} {
			for _, tr := range sys.Enabled() {
				if tr.Kind != kind {
					continue
				}
				for _, e := range sys.Apply(tr) {
					if e.Kind == EvProcessed {
						return e
					}
				}
				break
			}
		}
		t.Fatal("no EvProcessed event")
		return Event{}
	}
	hit, miss := processed(true), processed(false)
	if hit.Rule.Priority != 7 || !strings.Contains(hit.String(), `rule="prio=7 match=[dl_src=`) {
		t.Errorf("hit event = %s (rule %+v), want the installed rule", hit, hit.Rule)
	}
	if !strings.Contains(miss.String(), `rule=""`) {
		t.Errorf("miss event = %s, want an empty rule", miss)
	}
}
